//! The placed pipeline-graph IR: one compilation substrate between
//! planning and every execution/simulation path.
//!
//! A [`PhysicalPlan`] compiles into a [`PipelineGraph`]: pipelines are
//! maximal streaming chains, cut at pipeline breakers (final/merge
//! aggregation, sort, top-k, join build) and at device-placement
//! boundaries. Every node carries its placement, an instantiable
//! [`OperatorSpec`], the fabric [`OpClass`] it maps to, and the cost
//! model's estimated selectivity. Edges are typed: a [`EdgeKind::Local`]
//! handoff stays a function call inside one driver, while a
//! [`EdgeKind::Fabric`] edge crosses devices and the flow simulator
//! replays the same stage chain in simulated time via
//! [`PipelineGraph::to_flow_specs`]. Real execution moves batches over
//! every fabric edge and every [`Exchange`] through one mechanism, a
//! [`Channel`] of credit-bounded queues (§7.1); [`PipelineGraph::channels`]
//! is the one table that decides which edges form channels and how many
//! credits each queue holds.
//!
//! The push executor, the serving layer's admission control and the bench
//! experiments all consume this graph instead of re-walking `PhysNode`
//! trees.

pub mod verify;

pub use verify::VerifyError;

use df_codec::edge::EdgeEncoding;
use df_data::{Batch, SchemaRef};
use df_fabric::flow::{PipelineSpec, StageSpec};
use df_fabric::topology::Route;
use df_fabric::{DeviceId, OpClass, Topology};
use df_storage::smart::ScanRequest;

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::logical::{AggCall, JoinType};
use crate::ops::{
    AggMode, FilterOp, HashAggOp, HashJoinOp, LimitOp, Operator, ProjectOp, SortOp, TopKOp,
};
use crate::optimizer::cost::{estimate_node, node_input_bytes, op_class_of, reduction_of};
use crate::optimizer::Profiles;
use crate::physical::{PhysNode, PhysicalPlan};
use crate::streaming::{StreamSourceSpec, WindowAggOp, WindowSpec};

/// Default credit budget of a pipeline edge, in chunks (§7.1). Matches the
/// flow simulator's default stage queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4;

/// An instantiable description of one streaming operator. This is the
/// single place operator instantiation lives: every executor builds its
/// operators from these specs.
#[derive(Debug, Clone)]
pub enum OperatorSpec {
    /// Row filter.
    Filter {
        /// Predicate over the input schema.
        predicate: Expr,
        /// Evaluate through the lowered offload predicate instead of the
        /// native path.
        use_kernel: bool,
        /// Input schema.
        input_schema: SchemaRef,
    },
    /// Expression projection.
    Project {
        /// `(expr, name)` pairs.
        exprs: Vec<(Expr, String)>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Hash aggregation.
    Aggregate {
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Partial, final, or merge.
        mode: AggMode,
        /// Input schema.
        input_schema: SchemaRef,
        /// Final output schema of the logical aggregate.
        final_schema: SchemaRef,
    },
    /// Full sort (a pipeline breaker).
    Sort {
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
        /// Input schema.
        input_schema: SchemaRef,
    },
    /// Fused sort+limit.
    TopK {
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
        /// Rows kept.
        k: u64,
        /// Input schema.
        input_schema: SchemaRef,
    },
    /// Row limit.
    Limit {
        /// Cap.
        n: u64,
        /// Input schema.
        input_schema: SchemaRef,
    },
    /// Event-time windowed hash aggregation: rows land in tumbling or
    /// sliding windows keyed by an `Int64` timestamp column; a window only
    /// drains when the input frontier passes its bound (punctuation-gated,
    /// so it is *not* a pipeline breaker — it streams closed windows).
    WindowAggregate {
        /// Timestamp column the windows are keyed on (ignored in
        /// [`AggMode::Merge`], where the input leads with `wstart`).
        ts_col: String,
        /// Tumbling or sliding window extent.
        window: WindowSpec,
        /// Group-by columns (within each window).
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Partial, final, or merge.
        mode: AggMode,
        /// Input schema.
        input_schema: SchemaRef,
        /// Final per-window output schema of the logical aggregate,
        /// *without* the `wstart` column the operator prepends.
        final_schema: SchemaRef,
    },
    /// The probe side of a hash join; the build side arrives over the
    /// node's `build_edge`.
    JoinProbe {
        /// `(build column, probe column)` pairs.
        on: Vec<(String, String)>,
        /// Inner or left-outer.
        join_type: JoinType,
        /// Schema of the build input.
        build_schema: SchemaRef,
        /// Joined output schema.
        schema: SchemaRef,
    },
}

impl OperatorSpec {
    /// Short span label (matches the executor's historical labels).
    pub fn label(&self) -> &'static str {
        match self {
            OperatorSpec::Filter { .. } => "filter",
            OperatorSpec::Project { .. } => "project",
            OperatorSpec::Aggregate { .. } => "aggregate",
            OperatorSpec::Sort { .. } => "sort",
            OperatorSpec::TopK { .. } => "topk",
            OperatorSpec::Limit { .. } => "limit",
            OperatorSpec::WindowAggregate { .. } => "window-agg",
            OperatorSpec::JoinProbe { .. } => "hash-join",
        }
    }

    /// True for specs that buffer their whole input before emitting output
    /// (the HyPer-style pipeline breakers). Mirrors the node-level
    /// `is_breaker` the compiler cuts on, so the verifier can assert
    /// breakers only ever sit at a pipeline's tip.
    pub fn is_breaker(&self) -> bool {
        matches!(
            self,
            OperatorSpec::Sort { .. }
                | OperatorSpec::TopK { .. }
                | OperatorSpec::Aggregate {
                    mode: AggMode::Final | AggMode::Merge { max_groups: None },
                    ..
                }
        )
    }

    /// Output schema of the operator.
    pub fn output_schema(&self) -> SchemaRef {
        match self {
            OperatorSpec::Filter { input_schema, .. }
            | OperatorSpec::Sort { input_schema, .. }
            | OperatorSpec::TopK { input_schema, .. }
            | OperatorSpec::Limit { input_schema, .. } => input_schema.clone(),
            OperatorSpec::Project { schema, .. } | OperatorSpec::JoinProbe { schema, .. } => {
                schema.clone()
            }
            OperatorSpec::Aggregate {
                group_by,
                aggs,
                mode,
                input_schema,
                final_schema,
            } => df_storage::agg::output_schema(group_by, aggs, *mode, input_schema, final_schema)
                .expect("validated at plan build"),
            OperatorSpec::WindowAggregate {
                group_by,
                aggs,
                mode,
                input_schema,
                final_schema,
                ..
            } => crate::streaming::window_output_schema(
                group_by,
                aggs,
                *mode,
                input_schema,
                final_schema,
            )
            .expect("validated at plan build"),
        }
    }

    /// Instantiate the runtime operator.
    pub fn instantiate(&self) -> Result<RuntimeOp> {
        Ok(match self {
            OperatorSpec::Filter {
                predicate,
                use_kernel,
                input_schema,
            } => {
                let op = if *use_kernel {
                    FilterOp::kernel(predicate, input_schema.clone())?
                } else {
                    FilterOp::host(predicate.clone(), input_schema.clone())
                };
                RuntimeOp::Std(Box::new(op))
            }
            OperatorSpec::Project { exprs, schema } => {
                RuntimeOp::Std(Box::new(ProjectOp::new(exprs.clone(), schema.clone())))
            }
            OperatorSpec::Aggregate {
                group_by,
                aggs,
                mode,
                input_schema,
                final_schema,
            } => RuntimeOp::Std(Box::new(HashAggOp::new(
                group_by.clone(),
                aggs.clone(),
                *mode,
                input_schema,
                final_schema.clone(),
            )?)),
            OperatorSpec::Sort { keys, input_schema } => {
                RuntimeOp::Std(Box::new(SortOp::new(keys.clone(), input_schema.clone())))
            }
            OperatorSpec::TopK {
                keys,
                k,
                input_schema,
            } => RuntimeOp::Std(Box::new(TopKOp::new(
                keys.clone(),
                *k,
                input_schema.clone(),
            ))),
            OperatorSpec::Limit { n, input_schema } => {
                RuntimeOp::Std(Box::new(LimitOp::new(*n, input_schema.clone())))
            }
            OperatorSpec::WindowAggregate {
                ts_col,
                window,
                group_by,
                aggs,
                mode,
                input_schema,
                final_schema,
            } => RuntimeOp::Window(WindowAggOp::new(
                ts_col,
                *window,
                group_by.clone(),
                aggs.clone(),
                *mode,
                input_schema,
                final_schema.clone(),
            )?),
            OperatorSpec::JoinProbe {
                on,
                join_type,
                build_schema,
                schema,
            } => RuntimeOp::Join(Box::new(HashJoinOp::with_type(
                on.clone(),
                *join_type,
                build_schema.clone(),
                schema.clone(),
            ))),
        })
    }
}

/// A live operator driven by an executor.
pub enum RuntimeOp {
    /// Any unary streaming operator.
    Std(Box<dyn Operator>),
    /// A frontier-gated window aggregate: executors call
    /// [`RuntimeOp::advance`] at punctuation to drain closed windows.
    Window(WindowAggOp),
    /// A hash join (probe streaming; build fed via [`RuntimeOp::build`]).
    Join(Box<HashJoinOp>),
}

impl RuntimeOp {
    /// Consume one batch, producing zero or more outputs.
    pub fn push(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        match self {
            RuntimeOp::Std(op) => op.push(batch),
            RuntimeOp::Window(op) => op.push(batch),
            RuntimeOp::Join(op) => op.push(batch),
        }
    }

    /// End of input: flush buffered state.
    pub fn finish(&mut self) -> Result<Vec<Batch>> {
        match self {
            RuntimeOp::Std(op) => op.finish(),
            RuntimeOp::Window(op) => op.finish(),
            RuntimeOp::Join(op) => op.finish(),
        }
    }

    /// Feed one batch to the join build side.
    pub fn build(&mut self, batch: Batch) -> Result<()> {
        match self {
            RuntimeOp::Std(_) | RuntimeOp::Window(_) => Err(EngineError::Internal(
                "build() on a non-join operator".into(),
            )),
            RuntimeOp::Join(op) => op.build(batch),
        }
    }

    /// Advance the operator's input frontier to `frontier`, draining every
    /// window whose bound it passed. No-op (empty) for non-window
    /// operators: they are either stateless or bounded-input.
    pub fn advance(&mut self, frontier: i64) -> Result<Vec<(i64, Batch)>> {
        match self {
            RuntimeOp::Window(op) => op.advance(frontier),
            _ => Ok(Vec::new()),
        }
    }
}

/// Where a pipeline's batches come from.
#[derive(Debug, Clone)]
pub enum PipelineSource {
    /// A storage scan with its pushed-down request.
    Scan {
        /// Table name.
        table: String,
        /// Pushed-down request (executes at the storage server).
        request: ScanRequest,
        /// Output schema of the request.
        schema: SchemaRef,
        /// Placement of the scan.
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
    /// A seed-deterministic (possibly unbounded) streaming source. The
    /// generator emits timestamp-ascending log batches and punctuates its
    /// frontier every [`StreamSourceSpec::punct_every`] batches; executors
    /// refuse specs left unbounded — bound them first with
    /// [`PipelineGraph::with_stream_horizon`].
    Stream {
        /// Generator parameters (seed, rate, horizon).
        spec: StreamSourceSpec,
        /// Output schema ([`StreamSourceSpec::schema`]).
        schema: SchemaRef,
        /// Placement of the generator (the ingest point, e.g. NIC-Rx).
        device: Option<DeviceId>,
    },
    /// Output of an upstream pipeline, arriving over an edge.
    Edge {
        /// Index into [`PipelineGraph::edges`].
        edge: usize,
    },
    /// One consumer fragment of a scale-out [`Exchange`]: the merged
    /// partition-`index` streams of every producer pipeline, arriving
    /// over the exchange's [`EdgeRole::Shuffle`] edges.
    Exchange {
        /// Index into [`PipelineGraph::exchanges`].
        exchange: usize,
        /// Which consumer fragment this pipeline is (`0..parts`).
        index: usize,
        /// Schema of the redistributed stream.
        schema: SchemaRef,
        /// Placement where this fragment's partitions land.
        device: Option<DeviceId>,
    },
}

impl PipelineSource {
    /// Placement of the source (None for edge sources: the producer
    /// pipeline's tip carries the placement).
    pub fn device(&self) -> Option<DeviceId> {
        match self {
            PipelineSource::Scan { device, .. }
            | PipelineSource::Values { device, .. }
            | PipelineSource::Stream { device, .. }
            | PipelineSource::Exchange { device, .. } => *device,
            PipelineSource::Edge { .. } => None,
        }
    }
}

/// One operator within a pipeline, with placement and cost annotations.
#[derive(Debug, Clone)]
pub struct PipelineOp {
    /// How to instantiate the operator.
    pub spec: OperatorSpec,
    /// Placement (None = unplaced, treated as the session CPU).
    pub device: Option<DeviceId>,
    /// Fabric op class (service rates, placement legality).
    pub op_class: OpClass,
    /// Estimated output bytes per input byte (cost model).
    pub selectivity: f64,
    /// For [`OperatorSpec::JoinProbe`]: the edge delivering the build side.
    pub build_edge: Option<usize>,
}

/// A maximal streaming chain: a source and the operators it flows through,
/// leaf-to-root, with no breaker or placement boundary inside.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Index in [`PipelineGraph::pipelines`].
    pub id: usize,
    /// Batch source.
    pub source: PipelineSource,
    /// Operators in leaf-to-root order (may be empty).
    pub ops: Vec<PipelineOp>,
    /// Estimated bytes the source produces (flow-sim source size). Zero
    /// for edge-sourced pipelines: their bytes come from upstream.
    pub source_bytes: u64,
    /// Fabric op class of the source stage.
    pub source_class: OpClass,
    /// Estimated output/input byte ratio of the source stage.
    pub source_selectivity: f64,
}

impl Pipeline {
    /// Placement of the pipeline's tip (last op, else the source).
    pub fn tip_device(&self) -> Option<DeviceId> {
        self.ops
            .last()
            .map(|op| op.device)
            .unwrap_or_else(|| self.source.device())
    }
}

/// How an inter-pipeline edge moves batches.
#[derive(Debug, Clone)]
pub enum EdgeKind {
    /// Same placement: a plain in-process handoff.
    Local,
    /// Crosses a device boundary: batches flow through a credit-bounded
    /// channel and are charged at wire size when wire options are set.
    Fabric {
        /// Resolved fabric route, when a topology was supplied.
        route: Option<Route>,
    },
}

/// What the consumer does with the edge's batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRole {
    /// Streaming input of the consumer pipeline.
    Input,
    /// Build side of a hash join in the consumer pipeline.
    JoinBuild,
    /// One producer→consumer pair of an [`Exchange`]: carries the
    /// consumer's partition of that producer's output.
    Shuffle,
}

/// How an [`Exchange`] redistributes rows across its consumer fragments.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeKind {
    /// Rows are hash-partitioned on `keys` with the canonical seeded
    /// partitioner ([`df_data::partition`]), so every device computes the
    /// same assignment for the same row.
    Hash {
        /// Partition key columns (must exist in the producer schema).
        keys: Vec<String>,
        /// Hash seed; producers of one exchange must agree on it.
        seed: u64,
    },
    /// Every producer batch is replicated to every consumer.
    Broadcast,
    /// All producer streams are concatenated into a single consumer
    /// (`parts` must be 1).
    Gather,
}

impl ExchangeKind {
    /// Short label for explain/trace output.
    pub fn label(&self) -> &'static str {
        match self {
            ExchangeKind::Hash { .. } => "hash",
            ExchangeKind::Broadcast => "broadcast",
            ExchangeKind::Gather => "gather",
        }
    }
}

/// A scale-out repartition point: `producers.len()` producer pipelines
/// fan out into `parts` consumer pipelines through a full matrix of
/// [`EdgeRole::Shuffle`] edges. The partition function runs at each
/// producer's tip; each pair edge carries its own resolved route (and,
/// like any fabric edge, may carry a codec), so the movement ledger and
/// the flow simulator see real per-link bytes for all N² crossings.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index in [`PipelineGraph::exchanges`].
    pub id: usize,
    /// How rows are redistributed.
    pub kind: ExchangeKind,
    /// Number of consumer fragments.
    pub parts: usize,
    /// Producer pipeline ids.
    pub producers: Vec<usize>,
    /// Consumer pipeline ids, indexed by partition index.
    pub consumers: Vec<usize>,
    /// Shuffle edge ids, row-major: `edges[i * parts + j]` connects
    /// `producers[i]` to `consumers[j]`.
    pub edges: Vec<usize>,
    /// Schema of the redistributed stream.
    pub schema: SchemaRef,
}

impl Exchange {
    /// The shuffle edge connecting producer `i` to consumer `j`.
    pub fn edge(&self, producer: usize, consumer: usize) -> usize {
        self.edges[producer * self.parts + consumer]
    }
}

/// One credit-bounded hop (§7.1): producer pipelines, each on its own
/// thread, sending over *pair edges* into `parts` bounded consumer queues.
/// A fabric edge outside an exchange is a channel with one producer and
/// one part; an [`Exchange`] is a channel with its producer × part matrix.
/// [`PipelineGraph::channels`] lists them; the push executor runs exactly
/// these channels and `df-check` models exactly these queues.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// The exchange this channel runs (None for a fabric edge, which
    /// gathers its one producer into its one part).
    pub exchange: Option<usize>,
    /// Producer pipeline ids.
    pub producers: Vec<usize>,
    /// Number of consumer queues.
    pub parts: usize,
    /// Pair edge ids, row-major: `edges[i * parts + j]` carries producer
    /// `i`'s share of part `j`.
    pub edges: Vec<usize>,
    /// Credits of each part's queue, in chunks: the sum of its pair edges'
    /// `queue_capacity`, so a slow consumer stalls a producer only after
    /// every producer has banked its own queue depth toward it.
    pub credits: Vec<usize>,
}

impl Channel {
    /// The pair edge carrying producer `i`'s share of part `j`.
    pub fn edge(&self, producer: usize, part: usize) -> usize {
        self.edges[producer * self.parts + part]
    }
}

/// A typed handoff between two pipelines.
#[derive(Debug, Clone)]
pub struct PipelineEdge {
    /// Index in [`PipelineGraph::edges`].
    pub id: usize,
    /// Producer pipeline.
    pub from: usize,
    /// Consumer pipeline.
    pub to: usize,
    /// Local handoff or fabric crossing.
    pub kind: EdgeKind,
    /// Input stream or join build.
    pub role: EdgeRole,
    /// Credit budget in chunks (§7.1) this edge adds to its channel's
    /// queue (see [`Channel::credits`]).
    pub queue_capacity: usize,
    /// Producer tip placement.
    pub from_device: Option<DeviceId>,
    /// Consumer placement (the op the edge feeds).
    pub to_device: Option<DeviceId>,
    /// True when the edge carries punctuation: the producer spine is fed
    /// by a [`PipelineSource::Stream`], so frontier markers are forwarded
    /// inline with the data and the consumer may gate windows on them.
    /// Set by the compiler on every stream-fed [`EdgeRole::Input`] edge
    /// (Local and Fabric alike); [`PipelineGraph::verify`] rejects a
    /// stream-fed input edge that drops its punctuation.
    pub punctuated: bool,
    /// How batches are encoded on the wire. `Plain` (the compile default)
    /// charges raw batch bytes and runs no codec. Any other encoding is
    /// the §2.2 "compression as an explicit, offloadable plan stage" at
    /// the edge's two ends: the encode runs on `from_device`, where the
    /// bytes leave, and the decode on `to_device`, where they arrive.
    pub encoding: EdgeEncoding,
    /// Estimated encoded/plain byte ratio of a codec edge's traffic, which
    /// [`PipelineGraph::to_flow_specs`] prices the link bytes at (1.0 on a
    /// plain edge).
    pub codec_ratio: f64,
}

impl PipelineEdge {
    /// True when the edge crosses a device boundary.
    pub fn crosses_devices(&self) -> bool {
        matches!(self.kind, EdgeKind::Fabric { .. })
    }
}

/// The compiled graph of placed pipelines.
#[derive(Debug, Clone)]
pub struct PipelineGraph {
    /// All pipelines; edges reference them by index.
    pub pipelines: Vec<Pipeline>,
    /// All inter-pipeline edges.
    pub edges: Vec<PipelineEdge>,
    /// All scale-out exchanges; their shuffle edges live in `edges`.
    pub exchanges: Vec<Exchange>,
    /// The pipeline producing query output.
    pub root: usize,
    /// Default credit budget applied to edges and derived flow stages.
    pub queue_capacity: usize,
}

/// The byte share of one producer's output that lands on consumer
/// `index` under the exchange's partition function.
fn exchange_share(ex: &Exchange, producer_out: f64, index: usize) -> f64 {
    match &ex.kind {
        ExchangeKind::Hash { .. } => producer_out / ex.parts.max(1) as f64,
        ExchangeKind::Broadcast => producer_out,
        ExchangeKind::Gather => {
            if index == 0 {
                producer_out
            } else {
                0.0
            }
        }
    }
}

/// True for operators that buffer their whole input before producing
/// output — the HyPer-style pipeline breakers. Partial aggregation
/// streams (it flushes incrementally under memory pressure), so it does
/// not break its pipeline; join builds break via their own edge.
fn is_breaker(node: &PhysNode) -> bool {
    matches!(
        node,
        PhysNode::Aggregate {
            mode: AggMode::Final | AggMode::Merge { max_groups: None },
            ..
        } | PhysNode::Sort { .. }
            | PhysNode::TopK { .. }
    )
}

fn spec_of(node: &PhysNode) -> OperatorSpec {
    match node {
        PhysNode::Filter {
            input,
            predicate,
            use_kernel,
            ..
        } => OperatorSpec::Filter {
            predicate: predicate.clone(),
            use_kernel: *use_kernel,
            input_schema: input.schema(),
        },
        PhysNode::Project { exprs, schema, .. } => OperatorSpec::Project {
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        PhysNode::Aggregate {
            input,
            group_by,
            aggs,
            mode,
            final_schema,
            ..
        } => OperatorSpec::Aggregate {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            mode: *mode,
            input_schema: input.schema(),
            final_schema: final_schema.clone(),
        },
        PhysNode::Sort { input, keys, .. } => OperatorSpec::Sort {
            keys: keys.clone(),
            input_schema: input.schema(),
        },
        PhysNode::TopK { input, keys, k, .. } => OperatorSpec::TopK {
            keys: keys.clone(),
            k: *k,
            input_schema: input.schema(),
        },
        PhysNode::Limit { input, n } => OperatorSpec::Limit {
            n: *n,
            input_schema: input.schema(),
        },
        PhysNode::HashJoin {
            build,
            on,
            join_type,
            schema,
            ..
        } => OperatorSpec::JoinProbe {
            on: on.clone(),
            join_type: *join_type,
            build_schema: build.schema(),
            schema: schema.clone(),
        },
        PhysNode::WindowAggregate {
            input,
            ts_col,
            window,
            group_by,
            aggs,
            mode,
            final_schema,
            ..
        } => OperatorSpec::WindowAggregate {
            ts_col: ts_col.clone(),
            window: *window,
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            mode: *mode,
            input_schema: input.schema(),
            final_schema: final_schema.clone(),
        },
        PhysNode::StorageScan { .. }
        | PhysNode::Values { .. }
        | PhysNode::StreamScan { .. }
        | PhysNode::Exchange { .. } => {
            unreachable!("leaves become pipeline sources, not ops")
        }
    }
}

struct Compiler<'a> {
    graph: PipelineGraph,
    profiles: &'a Profiles,
    topology: Option<&'a Topology>,
    /// Exchange group id → index into `graph.exchanges` (so every
    /// fragment of one [`PhysNode::Exchange`] group shares one
    /// descriptor and its producers compile exactly once).
    exchange_groups: std::collections::HashMap<usize, usize>,
}

impl Compiler<'_> {
    fn new_pipeline(&mut self, source: PipelineSource) -> usize {
        let id = self.graph.pipelines.len();
        self.graph.pipelines.push(Pipeline {
            id,
            source,
            ops: Vec::new(),
            source_bytes: 0,
            source_class: OpClass::Scan,
            source_selectivity: 1.0,
        });
        id
    }

    fn add_edge(
        &mut self,
        from: usize,
        to: usize,
        role: EdgeRole,
        to_device: Option<DeviceId>,
    ) -> usize {
        let from_device = self.graph.pipelines[from].tip_device();
        let kind = match (from_device, to_device) {
            (Some(a), Some(b)) if a != b => EdgeKind::Fabric {
                route: self.topology.and_then(|t| t.route(a, b)),
            },
            _ => EdgeKind::Local,
        };
        let id = self.graph.edges.len();
        self.graph.edges.push(PipelineEdge {
            id,
            from,
            to,
            kind,
            role,
            queue_capacity: self.graph.queue_capacity,
            from_device,
            to_device,
            // Fixed up after compilation by `mark_punctuated`, once every
            // pipeline's source is known.
            punctuated: false,
            encoding: EdgeEncoding::Plain,
            codec_ratio: 1.0,
        });
        id
    }

    /// Cut the chain below `node` if its child is a breaker or the handoff
    /// crosses a device boundary; returns the pipeline `node` extends.
    fn maybe_cut(&mut self, pid: usize, child: &PhysNode, to_device: Option<DeviceId>) -> usize {
        let from_device = self.graph.pipelines[pid].tip_device();
        let crossing = matches!((from_device, to_device), (Some(a), Some(b)) if a != b);
        if !is_breaker(child) && !crossing {
            return pid;
        }
        let next = self.new_pipeline(PipelineSource::Edge { edge: usize::MAX });
        let edge = self.add_edge(pid, next, EdgeRole::Input, to_device);
        self.graph.pipelines[next].source = PipelineSource::Edge { edge };
        next
    }

    fn push_op(&mut self, pid: usize, node: &PhysNode, build_edge: Option<usize>) {
        let op = PipelineOp {
            spec: spec_of(node),
            device: node.device(),
            op_class: op_class_of(node),
            selectivity: reduction_of(node, self.profiles),
            build_edge,
        };
        self.graph.pipelines[pid].ops.push(op);
    }

    fn compile_node(&mut self, node: &PhysNode) -> usize {
        match node {
            PhysNode::StorageScan {
                table,
                request,
                schema,
                device,
            } => {
                let pid = self.new_pipeline(PipelineSource::Scan {
                    table: table.clone(),
                    request: request.clone(),
                    schema: schema.clone(),
                    device: *device,
                });
                self.annotate_source(pid, node);
                pid
            }
            PhysNode::Values {
                batches,
                schema,
                device,
            } => {
                let pid = self.new_pipeline(PipelineSource::Values {
                    batches: batches.clone(),
                    schema: schema.clone(),
                    device: *device,
                });
                self.annotate_source(pid, node);
                pid
            }
            PhysNode::StreamScan {
                spec,
                schema,
                device,
            } => {
                let pid = self.new_pipeline(PipelineSource::Stream {
                    spec: spec.clone(),
                    schema: schema.clone(),
                    device: *device,
                });
                self.annotate_source(pid, node);
                pid
            }
            PhysNode::HashJoin { build, probe, .. } => {
                // Build first: pipeline ids then follow the order scans
                // complete in execution (build side drains fully first).
                let build_pid = self.compile_node(build);
                let probe_pid = self.compile_node(probe);
                let device = node.device();
                let pid = self.maybe_cut(probe_pid, probe, device);
                let build_edge = self.add_edge(build_pid, pid, EdgeRole::JoinBuild, device);
                self.push_op(pid, node, Some(build_edge));
                pid
            }
            PhysNode::Exchange {
                group,
                kind,
                index,
                parts,
                inputs,
                schema,
                device,
            } => {
                // One descriptor per group: the first-compiled fragment
                // carries the producer subtrees; later fragments only
                // register themselves and their incoming shuffle edges.
                let ex = match self.exchange_groups.get(group) {
                    Some(&ex) => ex,
                    None => {
                        let producers: Vec<usize> =
                            inputs.iter().map(|n| self.compile_node(n)).collect();
                        let ex = self.graph.exchanges.len();
                        let n_producers = producers.len();
                        self.graph.exchanges.push(Exchange {
                            id: ex,
                            kind: kind.clone(),
                            parts: *parts,
                            producers,
                            consumers: vec![usize::MAX; *parts],
                            edges: vec![usize::MAX; n_producers * *parts],
                            schema: schema.clone(),
                        });
                        self.exchange_groups.insert(*group, ex);
                        ex
                    }
                };
                let pid = self.new_pipeline(PipelineSource::Exchange {
                    exchange: ex,
                    index: *index,
                    schema: schema.clone(),
                    device: *device,
                });
                {
                    let p = &mut self.graph.pipelines[pid];
                    p.source_class = OpClass::Partition;
                    p.source_selectivity = 1.0;
                }
                let producers = self.graph.exchanges[ex].producers.clone();
                let parts_n = self.graph.exchanges[ex].parts;
                if *index < parts_n {
                    self.graph.exchanges[ex].consumers[*index] = pid;
                }
                for (i, &ppid) in producers.iter().enumerate() {
                    let eid = self.add_edge(ppid, pid, EdgeRole::Shuffle, *device);
                    if *index < parts_n {
                        self.graph.exchanges[ex].edges[i * parts_n + *index] = eid;
                    }
                }
                pid
            }
            PhysNode::Filter { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::Aggregate { input, .. }
            | PhysNode::WindowAggregate { input, .. }
            | PhysNode::Sort { input, .. }
            | PhysNode::TopK { input, .. }
            | PhysNode::Limit { input, .. } => {
                let cid = self.compile_node(input);
                let pid = self.maybe_cut(cid, input, node.device());
                self.push_op(pid, node, None);
                pid
            }
        }
    }

    /// Flow-sim source annotations, using the same formulas the legacy
    /// linear flow mapping used: the source stage's size is the bytes the
    /// scan touches and its selectivity is the estimated output fraction.
    fn annotate_source(&mut self, pid: usize, leaf: &PhysNode) {
        let (_, out_bytes) = estimate_node(leaf, self.profiles);
        // In-memory Values leaves have no scan input; their "source size"
        // is the materialized batch bytes flowing out (mirrors
        // `cost::reduction_of`, which pins Values selectivity at 1).
        let (source_bytes, selectivity) =
            if matches!(leaf, PhysNode::Values { .. } | PhysNode::StreamScan { .. }) {
                (out_bytes.max(1.0) as u64, 1.0)
            } else {
                let input = node_input_bytes(leaf, self.profiles).max(1.0);
                (input as u64, (out_bytes / input).clamp(0.0, 1.0))
            };
        let p = &mut self.graph.pipelines[pid];
        p.source_bytes = source_bytes;
        p.source_class = op_class_of(leaf);
        p.source_selectivity = selectivity;
    }
}

impl PipelineGraph {
    /// Compile a physical plan. `profiles` feeds the cost model's
    /// selectivity estimates (None = no table statistics); `topology`
    /// resolves fabric-edge routes when available.
    pub fn compile(
        plan: &PhysicalPlan,
        profiles: Option<&Profiles>,
        topology: Option<&Topology>,
        queue_capacity: usize,
    ) -> PipelineGraph {
        let empty;
        let profiles = match profiles {
            Some(p) => p,
            None => {
                empty = Profiles::new();
                &empty
            }
        };
        let mut c = Compiler {
            graph: PipelineGraph {
                pipelines: Vec::new(),
                edges: Vec::new(),
                exchanges: Vec::new(),
                root: 0,
                queue_capacity: queue_capacity.max(1),
            },
            profiles,
            topology,
            exchange_groups: std::collections::HashMap::new(),
        };
        let root = c.compile_node(&plan.root);
        c.graph.root = root;
        c.graph.mark_punctuated();
        #[cfg(debug_assertions)]
        if let Err(errs) = c.graph.verify(topology) {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            panic!(
                "PipelineGraph::compile produced an unverifiable graph:\n  {}",
                msgs.join("\n  ")
            );
        }
        c.graph
    }

    /// Which pipelines are stream-fed: their spine leaf is a
    /// [`PipelineSource::Stream`] (directly, or transitively through
    /// `Input` edges). Computed to a fixpoint so hand-built test graphs
    /// with arbitrary id ordering resolve too; edge indices that do not
    /// resolve (malformed graphs) are treated as not stream-fed and left
    /// for [`PipelineGraph::verify`] to reject.
    pub fn stream_fed(&self) -> Vec<bool> {
        let mut fed = vec![false; self.pipelines.len()];
        loop {
            let mut changed = false;
            for (pid, p) in self.pipelines.iter().enumerate() {
                let f = match &p.source {
                    PipelineSource::Stream { .. } => true,
                    PipelineSource::Edge { edge } => self
                        .edges
                        .get(*edge)
                        .is_some_and(|e| fed.get(e.from).copied().unwrap_or(false)),
                    _ => false,
                };
                if f && !fed[pid] {
                    fed[pid] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        fed
    }

    /// Mark every stream-fed [`EdgeRole::Input`] edge as punctuation-
    /// carrying. Runs at the end of compilation; call it again after
    /// hand-editing sources or edges so the flags stay consistent with
    /// what [`PipelineGraph::verify`] checks.
    pub fn mark_punctuated(&mut self) {
        let fed = self.stream_fed();
        for e in &mut self.edges {
            e.punctuated = e.role == EdgeRole::Input && fed.get(e.from).copied().unwrap_or(false);
        }
    }

    /// True when any pipeline is fed by a stream source with no horizon
    /// (`batches: None`) — such a graph can be verified and priced, but
    /// executors refuse it until bounded.
    pub fn has_unbounded_stream(&self) -> bool {
        self.pipelines.iter().any(
            |p| matches!(&p.source, PipelineSource::Stream { spec, .. } if spec.is_unbounded()),
        )
    }

    /// A copy of the graph with every *unbounded* stream source bounded
    /// to `batches` generator batches (sources with an explicit horizon
    /// keep it). Verification runs against the unbounded graph; execution
    /// runs the bounded clone — bounding only removes behavior, so a
    /// verified unbounded graph stays verified.
    pub fn with_stream_horizon(&self, batches: u64) -> PipelineGraph {
        let mut g = self.clone();
        for p in &mut g.pipelines {
            if let PipelineSource::Stream { spec, .. } = &mut p.source {
                if spec.is_unbounded() {
                    spec.batches = Some(batches);
                }
            }
        }
        g
    }

    /// [`PipelineGraph::to_flow_specs`] with every stream source priced at
    /// a sustained-rate horizon of `horizon_batches` generator batches
    /// (instead of the spec's own pricing horizon) — the flow simulator
    /// then models the continuous query under that sustained ingest load.
    pub fn to_flow_specs_sustained(
        &self,
        default_device: DeviceId,
        name: &str,
        horizon_batches: u64,
    ) -> Result<Vec<PipelineSpec>> {
        let mut g = self.clone();
        for p in &mut g.pipelines {
            if let PipelineSource::Stream { spec, schema, .. } = &p.source {
                let rows = horizon_batches.saturating_mul(spec.rows_per_batch.max(1) as u64);
                let width = crate::optimizer::stats::avg_row_width(schema);
                p.source_bytes = rows.saturating_mul(width).max(1);
            }
        }
        g.to_flow_specs(default_device, name)
    }

    /// Install `encoding` on edge `edge`, encoded where the bytes leave
    /// (the producer tip's device) and decoded where they arrive (the
    /// consumer's); `ratio` is the estimated encoded/plain byte ratio the
    /// cost model prices the edge at (ignored for [`EdgeEncoding::Plain`]).
    ///
    /// The result still has to pass [`PipelineGraph::verify`]: a non-plain
    /// encoding on a local edge, a ratio that is not positive and finite,
    /// or an endpoint that does not advertise its codec op class is
    /// rejected there with a typed error.
    pub fn set_edge_encoding(&mut self, edge: usize, encoding: EdgeEncoding, ratio: f64) {
        let e = &mut self.edges[edge];
        e.encoding = encoding;
        e.codec_ratio = if encoding.is_plain() { 1.0 } else { ratio };
    }

    /// The channel table: every fabric edge outside an exchange, in edge
    /// order, then every exchange, in order. Every other edge is local and
    /// runs its producer inline on the consumer's thread.
    pub fn channels(&self) -> Vec<Channel> {
        let capacity = |eid: usize| self.edges.get(eid).map_or(0, |e| e.queue_capacity);
        let fabric = self
            .edges
            .iter()
            .filter(|e| e.crosses_devices() && e.role != EdgeRole::Shuffle)
            .map(|e| Channel {
                exchange: None,
                producers: vec![e.from],
                parts: 1,
                edges: vec![e.id],
                credits: vec![e.queue_capacity],
            });
        let exchanges = self.exchanges.iter().map(|ex| Channel {
            exchange: Some(ex.id),
            producers: ex.producers.clone(),
            parts: ex.parts,
            edges: ex.edges.clone(),
            credits: (0..ex.parts)
                .map(|j| {
                    ex.edges
                        .iter()
                        .skip(j)
                        .step_by(ex.parts)
                        .map(|&e| capacity(e))
                        .sum()
                })
                .collect(),
        });
        fabric.chain(exchanges).collect()
    }

    /// The spine of pipeline `tip`: the chain of pipelines connected by
    /// `Input` edges, leaf first.
    pub fn spine(&self, tip: usize) -> Vec<usize> {
        let mut pids = vec![tip];
        loop {
            let p = &self.pipelines[*pids.last().expect("non-empty")];
            match p.source {
                PipelineSource::Edge { edge } => pids.push(self.edges[edge].from),
                _ => break,
            }
        }
        pids.reverse();
        pids
    }

    /// Derive flow-simulator pipeline specs from the graph. The first spec
    /// is the root spine (source through every streaming stage to the
    /// query output); each join-build edge contributes an additional
    /// `{name}.buildN` spec terminated by a `JoinBuild` stage at the join's
    /// placement. Unplaced stages run on `default_device`.
    ///
    /// Each [`Exchange`] contributes one `{name}.xE.prodI` spec per
    /// producer fragment (its full chain, up to the partition point) and
    /// one `{name}.xE.pIcJ` transfer spec per producer→consumer pair,
    /// sized at that pair's estimated byte share — so the simulator, the
    /// serving layer's admission control, and codec selection all see the
    /// real per-link demand of every one of the N² shuffle crossings.
    ///
    /// The graph is verified first (topology-independent invariants;
    /// supply the topology to [`PipelineGraph::verify`] directly for
    /// placement/route checks) so the simulator never replays an
    /// inconsistent graph — a broken one returns
    /// [`EngineError::Verify`].
    ///
    /// For linear plans the root spine reproduces the retired plan-tree
    /// chain walk stage-for-stage.
    pub fn to_flow_specs(&self, default_device: DeviceId, name: &str) -> Result<Vec<PipelineSpec>> {
        self.verify_or_err(None)?;
        let mut out = vec![self.spine_spec(self.root, default_device, name.to_string(), None)];
        let mut k = 0usize;
        for edge in &self.edges {
            if edge.role == EdgeRole::JoinBuild {
                out.push(self.spine_spec(
                    edge.from,
                    default_device,
                    format!("{name}.build{k}"),
                    Some(edge),
                ));
                k += 1;
            }
        }
        for ex in &self.exchanges {
            for (i, &ppid) in ex.producers.iter().enumerate() {
                out.push(self.spine_spec(
                    ppid,
                    default_device,
                    format!("{name}.x{}.prod{i}", ex.id),
                    None,
                ));
                let tip = self.pipelines[ppid].tip_device().unwrap_or(default_device);
                let produced = self.spine_output_bytes(ppid);
                for j in 0..ex.parts {
                    let share = exchange_share(ex, produced, j);
                    if share < 0.5 {
                        continue;
                    }
                    let edge = &self.edges[ex.edge(i, j)];
                    let mut stages = vec![StageSpec::new(tip, OpClass::Partition, 1.0)
                        .with_queue(self.queue_capacity)];
                    self.push_codec_stages(&mut stages, edge, default_device);
                    stages.push(
                        StageSpec::new(
                            edge.to_device.unwrap_or(default_device),
                            OpClass::Partition,
                            0.0,
                        )
                        .with_queue(self.queue_capacity),
                    );
                    out.push(PipelineSpec::new(
                        format!("{name}.x{}.p{i}c{j}", ex.id),
                        stages,
                        share.round() as u64,
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Estimated bytes leaving pipeline `tip`'s spine (its leaf source —
    /// resolved through any exchange feeding it — reduced by every op's
    /// selectivity along the spine).
    fn spine_output_bytes(&self, tip: usize) -> f64 {
        let pids = self.spine(tip);
        let mut bytes = self.leaf_source_bytes(pids[0]);
        for pid in &pids {
            let p = &self.pipelines[*pid];
            if *pid == pids[0] {
                bytes *= p.source_selectivity;
            }
            for op in &p.ops {
                bytes *= op.selectivity;
            }
        }
        bytes
    }

    /// Bytes a spine-leaf pipeline's source produces before its own
    /// selectivity: concrete sources report their compile-time estimate;
    /// exchange sources sum their per-producer shares (recursively, so
    /// multi-stage exchanges price correctly — the graph is a DAG).
    fn leaf_source_bytes(&self, pid: usize) -> f64 {
        match &self.pipelines[pid].source {
            PipelineSource::Exchange {
                exchange, index, ..
            } => {
                let ex = &self.exchanges[*exchange];
                ex.producers
                    .iter()
                    .map(|&p| exchange_share(ex, self.spine_output_bytes(p), *index))
                    .sum()
            }
            _ => self.pipelines[pid].source_bytes as f64,
        }
    }

    fn spine_spec(
        &self,
        tip: usize,
        default_device: DeviceId,
        name: String,
        terminal: Option<&PipelineEdge>,
    ) -> PipelineSpec {
        let pids = self.spine(tip);
        let leaf = &self.pipelines[pids[0]];
        let mut stages = vec![StageSpec::new(
            leaf.source.device().unwrap_or(default_device),
            leaf.source_class,
            leaf.source_selectivity,
        )
        .with_queue(self.queue_capacity)];
        for pid in &pids {
            let p = &self.pipelines[*pid];
            if let PipelineSource::Edge { edge } = p.source {
                self.push_codec_stages(&mut stages, &self.edges[edge], default_device);
            }
            for op in &p.ops {
                stages.push(
                    StageSpec::new(
                        op.device.unwrap_or(default_device),
                        op.op_class,
                        op.selectivity,
                    )
                    .with_queue(self.queue_capacity),
                );
            }
        }
        if let Some(edge) = terminal {
            self.push_codec_stages(&mut stages, edge, default_device);
            // The join's build stage consumes the spine's output and emits
            // nothing downstream (the hash table stays on-device).
            stages.push(
                StageSpec::new(
                    edge.to_device.unwrap_or(default_device),
                    OpClass::JoinBuild,
                    0.0,
                )
                .with_queue(self.queue_capacity),
            );
        }
        let source_bytes = self.leaf_source_bytes(pids[0]).round() as u64;
        PipelineSpec::new(name, stages, source_bytes)
    }

    /// Price a codec edge into a flow spec: a `Compress` stage at the
    /// producer tip whose selectivity is the encoded/plain ratio (so every
    /// link between the two ends carries *encoded* bytes and the device
    /// pays codec cycles at its `Compress` rate), and a `Decompress` stage
    /// at the consumer restoring the plain byte stream (selectivity
    /// `1/ratio`). A plain edge adds no stage.
    fn push_codec_stages(
        &self,
        stages: &mut Vec<StageSpec>,
        edge: &PipelineEdge,
        default_device: DeviceId,
    ) {
        if edge.encoding.is_plain() {
            return;
        }
        let ratio = edge.codec_ratio;
        stages.push(
            StageSpec::new(
                edge.from_device.unwrap_or(default_device),
                OpClass::Compress,
                ratio,
            )
            .with_queue(self.queue_capacity),
        );
        stages.push(
            StageSpec::new(
                edge.to_device.unwrap_or(default_device),
                OpClass::Decompress,
                if ratio > 0.0 { 1.0 / ratio } else { 1.0 },
            )
            .with_queue(self.queue_capacity),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::logical::LogicalPlan;
    use crate::optimizer::{Optimizer, TableProfile};
    use df_data::batch::batch_of;
    use df_data::{Column, DataType, Field, Schema};
    use df_fabric::flow::FlowSim;
    use df_fabric::topology::DisaggregatedConfig;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 4)).collect::<Vec<_>>()),
            ),
        ])
    }

    fn values(n: usize, device: Option<DeviceId>) -> PhysNode {
        let b = sample(n);
        PhysNode::Values {
            schema: b.schema().clone(),
            batches: vec![b],
            device,
        }
    }

    #[test]
    fn linear_unplaced_plan_is_one_pipeline() {
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values(10, None)),
                predicate: col("id").lt(lit(5)),
                device: None,
                use_kernel: false,
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, None, DEFAULT_QUEUE_CAPACITY);
        assert_eq!(g.pipelines.len(), 1);
        assert!(g.edges.is_empty());
        assert_eq!(g.pipelines[0].ops.len(), 1);
    }

    #[test]
    fn device_boundary_becomes_fabric_edge() {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values(10, Some(nic))),
                predicate: col("id").lt(lit(5)),
                device: Some(cpu),
                use_kernel: false,
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        assert_eq!(g.pipelines.len(), 2);
        assert_eq!(g.edges.len(), 1);
        let e = &g.edges[0];
        assert!(e.crosses_devices());
        assert_eq!(e.role, EdgeRole::Input);
        match &e.kind {
            EdgeKind::Fabric { route } => {
                assert!(route.is_some(), "topology should resolve the route")
            }
            EdgeKind::Local => panic!("expected fabric edge"),
        }
    }

    #[test]
    fn breaker_cuts_even_on_one_device() {
        let plan = PhysicalPlan::new(
            PhysNode::Limit {
                input: Box::new(PhysNode::Sort {
                    input: Box::new(values(10, None)),
                    keys: vec![("id".into(), true)],
                    device: None,
                }),
                n: 3,
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, None, DEFAULT_QUEUE_CAPACITY);
        // sort ends pipeline 0; limit starts pipeline 1 over a local edge.
        assert_eq!(g.pipelines.len(), 2);
        assert_eq!(g.edges.len(), 1);
        assert!(matches!(g.edges[0].kind, EdgeKind::Local));
        assert_eq!(g.spine(g.root), vec![0, 1]);
    }

    #[test]
    fn join_build_side_gets_its_own_edge_and_flow_spec() {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let cpu = topo.expect_device("compute0.cpu");
        let b = batch_of(vec![("bk", Column::from_strs(&["g0", "g1", "g2", "g3"]))]);
        let build = PhysNode::Values {
            schema: b.schema().clone(),
            batches: vec![b.clone()],
            device: None,
        };
        let p = sample(16);
        let schema = {
            let mut fields: Vec<df_data::Field> = b.schema().fields().to_vec();
            fields.extend(p.schema().fields().iter().cloned());
            df_data::Schema::new(fields).into_ref()
        };
        let plan = PhysicalPlan::new(
            PhysNode::HashJoin {
                build: Box::new(build),
                probe: Box::new(values(16, None)),
                on: vec![("bk".into(), "grp".into())],
                join_type: JoinType::Inner,
                schema,
                device: None,
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        assert_eq!(g.pipelines.len(), 2, "build pipeline + probe pipeline");
        let builds: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.role == EdgeRole::JoinBuild)
            .collect();
        assert_eq!(builds.len(), 1);
        // Build pipeline compiles first: scan-completion order.
        assert_eq!(builds[0].from, 0);
        let specs = g.to_flow_specs(cpu, "j").unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].name, "j.build0");
        assert_eq!(
            specs[1].stages.last().unwrap().op,
            OpClass::JoinBuild,
            "build spine terminates in the join-build stage"
        );
    }

    #[test]
    fn cluster_exchange_plan_compiles_and_prices() {
        use crate::scaleout::{cluster_hash_join_plan, split_round_robin};
        use df_fabric::topology::ClusterConfig;

        let hosts = 2usize;
        let topo = Topology::cluster(hosts as u32, &ClusterConfig::default());
        let build = batch_of(vec![
            ("k", Column::from_i64((0..32).collect())),
            (
                "name",
                Column::from_strs(&(0..32).map(|i| format!("n{i}")).collect::<Vec<_>>()),
            ),
        ]);
        let probe = batch_of(vec![
            ("fk", Column::from_i64((0..256).map(|i| i % 32).collect())),
            ("amount", Column::from_i64((0..256).collect())),
        ]);
        let join_schema = {
            let mut fields: Vec<df_data::Field> = build.schema().fields().to_vec();
            fields.extend(probe.schema().fields().iter().cloned());
            df_data::Schema::new(fields).into_ref()
        };
        let plan = cluster_hash_join_plan(
            &topo,
            &split_round_robin(&build, hosts),
            build.schema().clone(),
            &split_round_robin(&probe, hosts),
            probe.schema().clone(),
            ("k", "fk"),
            join_schema,
            true,
        )
        .unwrap();
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        g.verify(Some(&topo)).expect("clean cluster graph");

        // Three exchange groups: build hash, probe hash, gather.
        assert_eq!(g.exchanges.len(), 3);
        assert_eq!(g.exchanges[0].producers.len(), hosts);
        assert_eq!(g.exchanges[0].consumers.len(), hosts);
        assert_eq!(g.exchanges[2].parts, 1, "gather fans into one consumer");
        // Every exchange slot is a shuffle edge through a credit channel.
        let shuffles = g
            .edges
            .iter()
            .filter(|e| e.role == EdgeRole::Shuffle)
            .count();
        assert_eq!(shuffles, hosts * hosts * 2 + hosts);

        // The flow-spec derivation prices each producer spine and each
        // cross-host pair transfer so the simulator sees switch traffic.
        let cpu = topo.expect_device("host0.cpu");
        let specs = g.to_flow_specs(cpu, "s").unwrap();
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains(".x0.prod0")), "{names:?}");
        assert!(names.iter().any(|n| n.contains(".x0.p0c1")), "{names:?}");
        assert!(
            names.iter().any(|n| n.contains(".x2.prod")),
            "gather producers priced: {names:?}"
        );
        // Cross-host pair transfers carry a NIC partition stage at the tip.
        let pair = specs
            .iter()
            .find(|s| s.name.contains(".x0.p0c1"))
            .expect("pair spec");
        assert_eq!(pair.stages.first().unwrap().op, OpClass::Partition);
    }

    // Flow-spec derivation from optimizer-placed plans.

    fn table_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
        ])
        .into_ref()
    }

    fn profiles() -> Profiles {
        let mut p = Profiles::new();
        p.insert(
            "t".to_string(),
            TableProfile {
                rows: 1_000_000,
                stored_bytes: 16_000_000,
                zones: vec![
                    Some(df_storage::zonemap::ZoneMap::of(&Column::from_i64(vec![
                        0, 999_999,
                    ]))),
                    None,
                ],
                schema: table_schema().as_ref().clone(),
            },
        );
        p
    }

    fn query() -> LogicalPlan {
        LogicalPlan::scan("t", table_schema())
            .filter(col("id").lt(lit(100_000)))
            .unwrap()
    }

    fn optimizer() -> Optimizer {
        Optimizer::new(std::sync::Arc::new(Topology::disaggregated(
            &DisaggregatedConfig::default(),
        )))
        .unwrap()
    }

    /// All flow specs of `plan`, compiled with the cost model's estimates.
    fn specs(opt: &Optimizer, plan: &PhysicalPlan, p: &Profiles, name: &str) -> Vec<PipelineSpec> {
        PipelineGraph::compile(plan, Some(p), None, DEFAULT_QUEUE_CAPACITY)
            .to_flow_specs(opt.site().cpu, name)
            .unwrap()
    }

    #[test]
    fn flow_mapping_runs_in_simulator() {
        let optimizer = optimizer();
        let best = optimizer.best(&query(), &profiles()).unwrap();
        let spec = specs(&optimizer, &best.plan, &profiles(), "q1").remove(0);
        assert!(spec.source_bytes > 1_000_000);
        let mut sim = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim.add_pipeline(spec);
        let report = sim.run();
        assert!(report.pipelines[0].duration().nanos() > 0);
        // The pushdown variant delivers only the filtered fraction.
        let delivered = report.pipelines[0].bytes_delivered as f64;
        assert!(delivered < 0.2 * report.pipelines[0].stages[0].bytes_in as f64);
    }

    #[test]
    fn join_plans_admitted_by_flow_mapping() {
        // Regression: before the pipeline-graph IR, flow mapping rejected
        // any plan with a hash join. Now the join's build side becomes its
        // own spine and the whole graph replays in the flow simulator.
        let build_schema = Schema::new(vec![Field::new("bk", DataType::Int64)]).into_ref();
        let logical = LogicalPlan::scan("s", build_schema.clone())
            .join(LogicalPlan::scan("t", table_schema()), vec![("bk", "id")])
            .unwrap();
        let mut profiles = profiles();
        profiles.insert(
            "s".to_string(),
            TableProfile {
                rows: 10_000,
                stored_bytes: 80_000,
                zones: vec![None],
                schema: build_schema.as_ref().clone(),
            },
        );
        let optimizer = optimizer();
        let best = optimizer.best(&logical, &profiles).unwrap();
        let specs = specs(&optimizer, &best.plan, &profiles, "j");
        assert_eq!(specs.len(), 2, "probe spine + one build spine");
        assert_eq!(specs[1].name, "j.build0");
        let mut sim = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        for spec in specs {
            sim.add_pipeline(spec);
        }
        let report = sim.run();
        assert_eq!(report.pipelines.len(), 2);
        for p in &report.pipelines {
            assert!(p.duration().nanos() > 0, "{} must make progress", p.name);
            assert!(p.stages[0].bytes_in > 0, "{} must ingest bytes", p.name);
        }
        // The probe spine delivers join output; the build spine terminates
        // at the hash table (its JoinBuild stage absorbs every byte).
        assert!(report.pipelines[0].bytes_delivered > 0);
        assert_eq!(report.pipelines[1].bytes_delivered, 0);
    }

    #[test]
    fn flow_specs_match_legacy_chain_walk_on_linear_plans() {
        // The graph-derived derivation must be field-identical to the
        // retired hand-rolled chain walk for every linear plan variant.
        fn legacy(
            plan: &PhysicalPlan,
            profiles: &Profiles,
            default_device: DeviceId,
        ) -> PipelineSpec {
            let mut chain: Vec<&PhysNode> = Vec::new();
            let mut node = &plan.root;
            loop {
                chain.push(node);
                node = match node {
                    PhysNode::StorageScan { .. }
                    | PhysNode::Values { .. }
                    | PhysNode::StreamScan { .. } => break,
                    PhysNode::Filter { input, .. }
                    | PhysNode::Project { input, .. }
                    | PhysNode::Aggregate { input, .. }
                    | PhysNode::WindowAggregate { input, .. }
                    | PhysNode::Sort { input, .. }
                    | PhysNode::TopK { input, .. }
                    | PhysNode::Limit { input, .. } => input,
                    PhysNode::HashJoin { .. } | PhysNode::Exchange { .. } => {
                        unreachable!("linear plans only")
                    }
                };
            }
            chain.reverse();
            let leaf = chain[0];
            let source_bytes = node_input_bytes(leaf, profiles).max(1.0) as u64;
            let mut stages = Vec::with_capacity(chain.len());
            for n in &chain {
                let device = n.device().unwrap_or(default_device);
                let op = op_class_of(n);
                let selectivity = if std::ptr::eq(*n, leaf) {
                    let (_, out_bytes) = estimate_node(n, profiles);
                    (out_bytes / source_bytes as f64).clamp(0.0, 1.0)
                } else {
                    reduction_of(n, profiles)
                };
                stages.push(StageSpec::new(device, op, selectivity));
            }
            PipelineSpec::new("q", stages, source_bytes)
        }

        let optimizer = optimizer();
        let profiles = profiles();
        let variants = optimizer.variants(&query(), &profiles).unwrap();
        assert!(!variants.is_empty());
        for (i, v) in variants.iter().enumerate() {
            let expect = legacy(&v.plan, &profiles, optimizer.site().cpu);
            let got = specs(&optimizer, &v.plan, &profiles, "q").remove(0);
            assert_eq!(got.source_bytes, expect.source_bytes, "variant {i}");
            assert_eq!(got.stages.len(), expect.stages.len(), "variant {i}");
            for (g, e) in got.stages.iter().zip(&expect.stages) {
                assert_eq!(g.device, e.device, "variant {i}");
                assert_eq!(g.op, e.op, "variant {i}");
                assert!(
                    (g.selectivity - e.selectivity).abs() < 1e-12,
                    "variant {i}: {} vs {}",
                    g.selectivity,
                    e.selectivity
                );
                assert_eq!(g.queue_capacity, e.queue_capacity, "variant {i}");
            }
        }
    }
}
