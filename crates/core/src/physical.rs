//! Physical plans: operator trees annotated with device placement.
//!
//! A physical node is a logical operator plus the decision of *where* it
//! runs ([`DeviceId`] in a fabric [`df_fabric::Topology`]) and *how*
//! (native vs kernel-interpreted). The executor charges every batch that
//! crosses between differently-placed nodes to the movement ledger.

use df_data::{Batch, SchemaRef};
use df_fabric::DeviceId;
use df_storage::smart::ScanRequest;

use crate::expr::Expr;
use crate::logical::AggCall;
use crate::ops::AggMode;
use crate::pipeline::ExchangeKind;
use crate::streaming::{StreamSourceSpec, WindowSpec};

/// A physical operator tree.
#[derive(Debug, Clone)]
pub enum PhysNode {
    /// Scan a stored table with an optional pushed-down request (the
    /// request executes *at the storage device*).
    StorageScan {
        /// Table name.
        table: String,
        /// Pushed-down projection/predicate/pre-aggregation.
        request: ScanRequest,
        /// Output schema of the request.
        schema: SchemaRef,
        /// Placement (the storage controller, smart or plain).
        device: Option<DeviceId>,
    },
    /// In-memory batches.
    Values {
        /// The data.
        batches: Vec<Batch>,
        /// Shared schema.
        schema: SchemaRef,
        /// Placement.
        device: Option<DeviceId>,
    },
    /// A seed-deterministic streaming source (unbounded when the spec's
    /// `batches` is `None`); emits punctuation the graph's edges carry.
    StreamScan {
        /// Generator parameters (seed, rate, horizon, punctuation cadence).
        spec: StreamSourceSpec,
        /// Output schema ([`StreamSourceSpec::schema`]).
        schema: SchemaRef,
        /// Placement (the device ingesting the stream, e.g. the NIC Rx).
        device: Option<DeviceId>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<PhysNode>,
        /// Predicate.
        predicate: Expr,
        /// Placement.
        device: Option<DeviceId>,
        /// Evaluate through the lowered offload predicate, as an in-path
        /// device runs it (accelerator emulation), instead of the native
        /// vectorized path.
        use_kernel: bool,
    },
    /// Expression projection.
    Project {
        /// Input.
        input: Box<PhysNode>,
        /// `(expr, name)` pairs.
        exprs: Vec<(Expr, String)>,
        /// Output schema.
        schema: SchemaRef,
        /// Placement.
        device: Option<DeviceId>,
    },
    /// Hash aggregation (partial, final, or merge).
    Aggregate {
        /// Input (raw rows for Partial/Final, partials for Merge).
        input: Box<PhysNode>,
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Mode.
        mode: AggMode,
        /// The *final* output schema of the logical aggregate.
        final_schema: SchemaRef,
        /// Placement.
        device: Option<DeviceId>,
    },
    /// Event-time windowed hash aggregation: rows are routed to
    /// tumbling/sliding windows over `ts_col`, each window aggregates
    /// independently, and a window only emits once the input frontier
    /// passes its end bound (punctuation-gated in streaming execution,
    /// end-of-input in batch execution — same output either way).
    WindowAggregate {
        /// Input (raw timestamped rows for Partial/Final; `wstart`-tagged
        /// partials for Merge).
        input: Box<PhysNode>,
        /// Timestamp column (`Int64`) windows are assigned over.
        ts_col: String,
        /// Window size/slide.
        window: WindowSpec,
        /// Group-by columns within each window.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Mode.
        mode: AggMode,
        /// Final output schema of the inner aggregate (sans `wstart`).
        final_schema: SchemaRef,
        /// Placement.
        device: Option<DeviceId>,
    },
    /// Hash join: `build` is consumed first.
    HashJoin {
        /// Build side.
        build: Box<PhysNode>,
        /// Probe side.
        probe: Box<PhysNode>,
        /// `(build column, probe column)` pairs.
        on: Vec<(String, String)>,
        /// Inner or left-outer.
        join_type: crate::logical::JoinType,
        /// Joined schema.
        schema: SchemaRef,
        /// Placement.
        device: Option<DeviceId>,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<PhysNode>,
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
        /// Placement.
        device: Option<DeviceId>,
    },
    /// Row limit.
    Limit {
        /// Input.
        input: Box<PhysNode>,
        /// Cap.
        n: u64,
    },
    /// Fused sort+limit with bounded state.
    TopK {
        /// Input.
        input: Box<PhysNode>,
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
        /// Rows kept.
        k: u64,
        /// Placement.
        device: Option<DeviceId>,
    },
    /// One consumer fragment of a scale-out exchange: rows from every
    /// producer subtree are redistributed across `parts` consumer
    /// fragments (hash-partitioned, broadcast, or gathered). All fragments
    /// of one exchange share a `group`; the producer subtrees are carried
    /// by the first-compiled fragment (`inputs` empty on the others) and
    /// compiled exactly once.
    Exchange {
        /// Exchange group id; every fragment of one exchange shares it.
        group: usize,
        /// How rows are redistributed across consumers.
        kind: ExchangeKind,
        /// Which consumer fragment this node is (`0..parts`).
        index: usize,
        /// Number of consumer fragments.
        parts: usize,
        /// Producer subtrees (populated on exactly one fragment per
        /// group — conventionally index 0; empty on the others).
        inputs: Vec<PhysNode>,
        /// Schema of the redistributed stream (= producer output schema).
        schema: SchemaRef,
        /// Consumer-side placement where this fragment's partitions land.
        device: Option<DeviceId>,
    },
}

impl PhysNode {
    /// The node's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            PhysNode::StorageScan { schema, .. }
            | PhysNode::Values { schema, .. }
            | PhysNode::StreamScan { schema, .. }
            | PhysNode::Project { schema, .. }
            | PhysNode::HashJoin { schema, .. }
            | PhysNode::Exchange { schema, .. } => schema.clone(),
            PhysNode::WindowAggregate {
                input,
                group_by,
                aggs,
                mode,
                final_schema,
                ..
            } => crate::streaming::window_output_schema(
                group_by,
                aggs,
                *mode,
                &input.schema(),
                final_schema,
            )
            .expect("validated at plan build"),
            PhysNode::Filter { input, .. }
            | PhysNode::Sort { input, .. }
            | PhysNode::TopK { input, .. }
            | PhysNode::Limit { input, .. } => input.schema(),
            PhysNode::Aggregate {
                input,
                group_by,
                aggs,
                mode,
                final_schema,
                ..
            } => {
                df_storage::agg::output_schema(group_by, aggs, *mode, &input.schema(), final_schema)
                    .expect("validated at plan build")
            }
        }
    }

    /// The node's direct children (empty for leaves).
    pub fn children(&self) -> Vec<&PhysNode> {
        match self {
            PhysNode::StorageScan { .. }
            | PhysNode::Values { .. }
            | PhysNode::StreamScan { .. } => Vec::new(),
            PhysNode::Filter { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::Aggregate { input, .. }
            | PhysNode::WindowAggregate { input, .. }
            | PhysNode::Sort { input, .. }
            | PhysNode::TopK { input, .. }
            | PhysNode::Limit { input, .. } => vec![input],
            PhysNode::HashJoin { build, probe, .. } => vec![build, probe],
            PhysNode::Exchange { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// The node's placement (None = unplaced, treated as the local CPU).
    pub fn device(&self) -> Option<DeviceId> {
        match self {
            PhysNode::StorageScan { device, .. }
            | PhysNode::Values { device, .. }
            | PhysNode::StreamScan { device, .. }
            | PhysNode::Filter { device, .. }
            | PhysNode::Project { device, .. }
            | PhysNode::Aggregate { device, .. }
            | PhysNode::WindowAggregate { device, .. }
            | PhysNode::HashJoin { device, .. }
            | PhysNode::TopK { device, .. }
            | PhysNode::Sort { device, .. }
            | PhysNode::Exchange { device, .. } => *device,
            PhysNode::Limit { input, .. } => input.device(),
        }
    }

    /// Indented explain text with placements.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn dev_str(device: &Option<DeviceId>) -> String {
        match device {
            Some(d) => format!(" @{d}"),
            None => String::new(),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysNode::StorageScan {
                table,
                request,
                device,
                ..
            } => {
                let mut parts = vec![format!("{pad}StorageScan: {table}")];
                if let Some(p) = &request.projection {
                    parts.push(format!("projection=[{}]", p.join(",")));
                }
                if request.preagg.is_some() {
                    parts.push("preagg".into());
                }
                if !matches!(
                    request.predicate,
                    df_storage::predicate::StoragePredicate::True
                ) {
                    parts.push("pushdown-filter".into());
                }
                out.push_str(&parts.join(" "));
                out.push_str(&Self::dev_str(device));
                out.push('\n');
            }
            PhysNode::Values {
                batches, device, ..
            } => {
                let rows: usize = batches.iter().map(Batch::rows).sum();
                out.push_str(&format!(
                    "{pad}Values: {rows} rows{}\n",
                    Self::dev_str(device)
                ));
            }
            PhysNode::StreamScan { spec, device, .. } => {
                let horizon = match spec.batches {
                    Some(n) => format!("{n} batches"),
                    None => "unbounded".into(),
                };
                out.push_str(&format!(
                    "{pad}StreamScan: seed={} {}x{} rows {horizon} punct-every={}{}\n",
                    spec.seed,
                    spec.rows_per_batch,
                    spec.sensors,
                    spec.punct_every,
                    Self::dev_str(device)
                ));
            }
            PhysNode::WindowAggregate {
                input,
                ts_col,
                window,
                group_by,
                mode,
                device,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}WindowAggregate[{mode}]: ts={ts_col} size={} slide={} group=[{}]{}\n",
                    window.size,
                    window.slide,
                    group_by.join(","),
                    Self::dev_str(device)
                ));
                input.explain_into(out, depth + 1);
            }
            PhysNode::Filter {
                input,
                predicate,
                device,
                use_kernel,
            } => {
                let how = if *use_kernel { " [kernel]" } else { "" };
                out.push_str(&format!(
                    "{pad}Filter: {predicate}{how}{}\n",
                    Self::dev_str(device)
                ));
                input.explain_into(out, depth + 1);
            }
            PhysNode::Project {
                input,
                exprs,
                device,
                ..
            } => {
                let items: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                out.push_str(&format!(
                    "{pad}Project: {}{}\n",
                    items.join(", "),
                    Self::dev_str(device)
                ));
                input.explain_into(out, depth + 1);
            }
            PhysNode::Aggregate {
                input,
                group_by,
                mode,
                device,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Aggregate[{mode}]: group=[{}]{}\n",
                    group_by.join(","),
                    Self::dev_str(device)
                ));
                input.explain_into(out, depth + 1);
            }
            PhysNode::HashJoin {
                build,
                probe,
                on,
                join_type,
                device,
                ..
            } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                out.push_str(&format!(
                    "{pad}HashJoin[{}]: [{}]{}\n",
                    join_type.name(),
                    keys.join(","),
                    Self::dev_str(device)
                ));
                build.explain_into(out, depth + 1);
                probe.explain_into(out, depth + 1);
            }
            PhysNode::Sort {
                input,
                keys,
                device,
            } => {
                let items: Vec<String> = keys
                    .iter()
                    .map(|(k, asc)| format!("{k} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                out.push_str(&format!(
                    "{pad}Sort: {}{}\n",
                    items.join(", "),
                    Self::dev_str(device)
                ));
                input.explain_into(out, depth + 1);
            }
            PhysNode::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit: {n}\n"));
                input.explain_into(out, depth + 1);
            }
            PhysNode::TopK {
                input,
                keys,
                k,
                device,
            } => {
                let items: Vec<String> = keys
                    .iter()
                    .map(|(c, asc)| format!("{c} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                out.push_str(&format!(
                    "{pad}TopK({k}): {}{}\n",
                    items.join(", "),
                    Self::dev_str(device)
                ));
                input.explain_into(out, depth + 1);
            }
            PhysNode::Exchange {
                group,
                kind,
                index,
                parts,
                inputs,
                device,
                ..
            } => {
                let how = match kind {
                    ExchangeKind::Hash { keys, .. } => format!("hash[{}]", keys.join(",")),
                    ExchangeKind::Broadcast => "broadcast".into(),
                    ExchangeKind::Gather => "gather".into(),
                };
                out.push_str(&format!(
                    "{pad}Exchange#{group}[{how}] {index}/{parts}{}\n",
                    Self::dev_str(device)
                ));
                for input in inputs {
                    input.explain_into(out, depth + 1);
                }
            }
        }
    }
}

/// A complete physical plan, named for the variant it represents (§7.3:
/// plans carry several data-path alternatives).
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Root node.
    pub root: PhysNode,
    /// Variant label, e.g. `"cpu-only"`, `"storage-pushdown"`.
    pub variant: String,
}

impl PhysicalPlan {
    /// Wrap a root with a variant label.
    pub fn new(root: PhysNode, variant: impl Into<String>) -> PhysicalPlan {
        PhysicalPlan {
            root,
            variant: variant.into(),
        }
    }

    /// Output schema.
    pub fn schema(&self) -> SchemaRef {
        self.root.schema()
    }

    /// Explain text.
    pub fn explain(&self) -> String {
        format!("variant: {}\n{}", self.variant, self.root.explain())
    }
}
