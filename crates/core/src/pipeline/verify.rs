//! Static verification of compiled [`PipelineGraph`]s.
//!
//! PR 3 made the pipeline graph the single compilation substrate, but an
//! illegal placement, a mis-routed fabric edge, or a zero-capacity credit
//! channel used to surface only as a wrong answer or a hang at execution
//! time. [`PipelineGraph::verify`] checks a graph *before* it runs:
//!
//! - **structure** — edge/pipeline indexes consistent, every pipeline
//!   reachable from the root, the edge relation acyclic;
//! - **schema flow-typing** — every operator's declared input schema
//!   matches what its upstream (previous op, pipeline source, or
//!   inter-pipeline edge) actually produces, types compared positionally;
//! - **placement legality** — every placed op's [`OpClass`] is supported
//!   by the device's capability profile (a smart NIC cannot host a sort);
//! - **route completeness** — every [`EdgeKind::Fabric`] edge crosses a
//!   real placement boundary and its resolved route is a valid path in the
//!   topology between exactly those endpoints; [`EdgeKind::Local`] edges
//!   must *not* cross devices;
//! - **breaker invariants** — pipelines are cut exactly at breakers (a
//!   breaker op can only be a pipeline's tip) and every join build side
//!   terminates in a [`EdgeRole::JoinBuild`] edge referenced by exactly
//!   one probe op;
//! - **ledger conservation** — a fabric edge charges exactly one ledger
//!   site: its recorded `from`/`to` devices are the producer tip's and the
//!   consuming op's placements, so each crossing is attributed once;
//! - **credit sanity** — no edge carries a zero credit budget (a
//!   zero-capacity channel can never make progress under the §7.1
//!   protocol; `df-check`'s deadlock pass model-checks the rest);
//! - **streaming legality** — every stream-fed input edge carries
//!   punctuation (dropping it would freeze every downstream frontier),
//!   no unbounded stream flows into an operator that buffers its whole
//!   input (sort, top-k, un-windowed aggregation) or into a join build /
//!   exchange, and every windowed aggregate is keyed on an `Int64`
//!   timestamp column its input actually supplies.
//!
//! The compiler debug-asserts `verify` on every graph it builds; the push
//! executor and the flow-spec derivation call it explicitly and surface
//! [`VerifyError`]s as
//! [`EngineError::Verify`](crate::error::EngineError).

use std::fmt;

use df_data::{DataType, SchemaRef};
use df_fabric::{DeviceId, OpClass, Topology};

use super::{
    EdgeKind, EdgeRole, ExchangeKind, OperatorSpec, PipelineEdge, PipelineGraph, PipelineSource,
};
use crate::expr::Expr;
use crate::ops::AggMode;
use crate::streaming::WSTART_COL;

/// One verification failure. Variants are typed so tests (and the mutation
/// property suite) can assert *which* invariant a bad graph violates.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// Index/id bookkeeping is inconsistent (dangling edge, bad root,
    /// unreachable pipeline, self-edge, mis-numbered ids).
    Malformed {
        /// What is inconsistent.
        detail: String,
    },
    /// The edge relation contains a cycle, so the graph is not a DAG.
    CyclicGraph {
        /// Pipelines on the detected cycle.
        pipelines: Vec<usize>,
    },
    /// An operator's declared input does not match what flows into it.
    SchemaMismatch {
        /// Pipeline the mismatch occurs in.
        pipeline: usize,
        /// Where in the pipeline (op index, or the source hand-off).
        site: String,
        /// Schema the operator declares.
        expected: String,
        /// Schema the upstream actually produces.
        found: String,
    },
    /// An operator is placed on a device that cannot host its op class.
    IllegalPlacement {
        /// Pipeline of the offending op.
        pipeline: usize,
        /// Op index within the pipeline (`usize::MAX` = the source).
        op: usize,
        /// The placed device.
        device: DeviceId,
        /// Device name in the topology.
        device_name: String,
        /// The class the device does not support.
        class: OpClass,
    },
    /// A fabric edge has no resolved route although a topology is known.
    MissingRoute {
        /// The edge.
        edge: usize,
        /// Producer-side device.
        from: DeviceId,
        /// Consumer-side device.
        to: DeviceId,
    },
    /// A fabric edge's resolved route is not a valid path between its
    /// endpoints in the topology.
    RouteMismatch {
        /// The edge.
        edge: usize,
        /// What is wrong with the route.
        detail: String,
    },
    /// A local edge connects differently-placed endpoints.
    LocalEdgeCrossesDevices {
        /// The edge.
        edge: usize,
        /// Producer-side device.
        from: DeviceId,
        /// Consumer-side device.
        to: DeviceId,
    },
    /// A fabric edge does not cross a placement boundary (endpoints equal
    /// or unplaced) — it charges a ledger site that does not exist.
    FabricEdgeWithinDevice {
        /// The edge.
        edge: usize,
    },
    /// A pipeline-breaking operator sits in the middle of a pipeline
    /// (pipelines must be cut immediately after every breaker).
    BreakerMidPipeline {
        /// Pipeline containing the breaker.
        pipeline: usize,
        /// Op index of the breaker.
        op: usize,
        /// Operator label.
        label: &'static str,
    },
    /// A join probe op has no build edge delivering its hash-table input.
    MissingJoinBuild {
        /// Pipeline of the probe op.
        pipeline: usize,
        /// Op index of the probe op.
        op: usize,
    },
    /// A [`EdgeRole::JoinBuild`] edge that no probe op consumes.
    DanglingJoinBuild {
        /// The edge.
        edge: usize,
    },
    /// An edge's recorded devices diverge from its endpoints' placements,
    /// so the movement ledger would mis-attribute the crossing.
    LedgerSiteMismatch {
        /// The edge.
        edge: usize,
        /// What diverges.
        detail: String,
    },
    /// An edge carries a zero credit budget: the §7.1 protocol can never
    /// move a chunk across it.
    ZeroCapacity {
        /// The edge.
        edge: usize,
    },
    /// An edge's codec cannot run as compiled: a non-plain encoding on a
    /// local edge (nothing crosses the fabric to encode), or a
    /// `codec_ratio` that is not positive and finite.
    CodecPairingBroken {
        /// The edge.
        edge: usize,
        /// What is wrong with the codec.
        detail: String,
    },
    /// An end of a codec edge is placed on a device that does not
    /// advertise the codec's op class there (e.g. `Compress` at a producer
    /// tip on the near-memory accelerator, which only decompresses).
    IllegalCodecPlacement {
        /// The edge.
        edge: usize,
        /// The placed device.
        device: DeviceId,
        /// Device name in the topology.
        device_name: String,
        /// The unsupported class.
        class: OpClass,
    },
    /// A windowed aggregate is keyed on a timestamp column its input does
    /// not supply as `Int64` (or, in merge mode, on an input that does not
    /// lead with the `Int64` `wstart` column).
    WindowWithoutTimestamp {
        /// Pipeline of the window op.
        pipeline: usize,
        /// Op index of the window op.
        op: usize,
        /// The missing or mis-typed column.
        column: String,
    },
    /// A stream-fed input edge does not carry punctuation: the consumer's
    /// frontier could never advance, so no window downstream of the edge
    /// would ever close.
    PunctuationDropped {
        /// The edge.
        edge: usize,
    },
    /// An operator that buffers its whole input sits on an unbounded
    /// stream spine — it would accumulate state forever and never emit.
    UnboundedBreaker {
        /// Pipeline containing the op.
        pipeline: usize,
        /// Op index.
        op: usize,
        /// Operator label.
        label: &'static str,
    },
    /// An unbounded stream flows somewhere the streaming runtime cannot
    /// drive (a join build side or an exchange producer); bound the
    /// source first with `with_stream_horizon`.
    StreamingUnsupported {
        /// The offending pipeline.
        pipeline: usize,
        /// What is unsupported.
        detail: String,
    },
    /// An exchange's bookkeeping is inconsistent: incomplete shuffle-edge
    /// matrix, mis-wired consumer fragments, producer schemas that do not
    /// match the redistributed stream, or hash keys absent from a producer
    /// output (the partition function would disagree across hosts).
    ExchangeMalformed {
        /// Index into [`PipelineGraph::exchanges`].
        exchange: usize,
        /// What is inconsistent.
        detail: String,
    },
}

impl VerifyError {
    /// Short machine-readable tag for reports.
    pub fn code(&self) -> &'static str {
        match self {
            VerifyError::Malformed { .. } => "malformed",
            VerifyError::CyclicGraph { .. } => "cyclic-graph",
            VerifyError::SchemaMismatch { .. } => "schema-mismatch",
            VerifyError::IllegalPlacement { .. } => "illegal-placement",
            VerifyError::MissingRoute { .. } => "missing-route",
            VerifyError::RouteMismatch { .. } => "route-mismatch",
            VerifyError::LocalEdgeCrossesDevices { .. } => "local-edge-crosses-devices",
            VerifyError::FabricEdgeWithinDevice { .. } => "fabric-edge-within-device",
            VerifyError::BreakerMidPipeline { .. } => "breaker-mid-pipeline",
            VerifyError::MissingJoinBuild { .. } => "missing-join-build",
            VerifyError::DanglingJoinBuild { .. } => "dangling-join-build",
            VerifyError::LedgerSiteMismatch { .. } => "ledger-site-mismatch",
            VerifyError::ZeroCapacity { .. } => "zero-capacity",
            VerifyError::CodecPairingBroken { .. } => "codec-pairing-broken",
            VerifyError::IllegalCodecPlacement { .. } => "illegal-codec-placement",
            VerifyError::WindowWithoutTimestamp { .. } => "window-without-timestamp",
            VerifyError::PunctuationDropped { .. } => "punctuation-dropped",
            VerifyError::UnboundedBreaker { .. } => "unbounded-breaker",
            VerifyError::StreamingUnsupported { .. } => "streaming-unsupported",
            VerifyError::ExchangeMalformed { .. } => "exchange-malformed",
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Malformed { detail } => write!(f, "malformed graph: {detail}"),
            VerifyError::CyclicGraph { pipelines } => {
                write!(f, "pipeline edges form a cycle through {pipelines:?}")
            }
            VerifyError::SchemaMismatch {
                pipeline,
                site,
                expected,
                found,
            } => write!(
                f,
                "pipeline {pipeline}, {site}: schema mismatch (declared {expected}, upstream produces {found})"
            ),
            VerifyError::IllegalPlacement {
                pipeline,
                op,
                device,
                device_name,
                class,
            } => write!(
                f,
                "pipeline {pipeline}, op {op}: device {device} ('{device_name}') cannot host {class}"
            ),
            VerifyError::MissingRoute { edge, from, to } => {
                write!(f, "edge {edge}: no route resolved for {from} -> {to}")
            }
            VerifyError::RouteMismatch { edge, detail } => {
                write!(f, "edge {edge}: bad route: {detail}")
            }
            VerifyError::LocalEdgeCrossesDevices { edge, from, to } => write!(
                f,
                "edge {edge}: local edge crosses devices {from} -> {to} (must be a fabric edge)"
            ),
            VerifyError::FabricEdgeWithinDevice { edge } => write!(
                f,
                "edge {edge}: fabric edge does not cross a placement boundary"
            ),
            VerifyError::BreakerMidPipeline {
                pipeline,
                op,
                label,
            } => write!(
                f,
                "pipeline {pipeline}: breaker '{label}' at op {op} is not the pipeline tip"
            ),
            VerifyError::MissingJoinBuild { pipeline, op } => write!(
                f,
                "pipeline {pipeline}, op {op}: join probe has no build edge"
            ),
            VerifyError::DanglingJoinBuild { edge } => {
                write!(f, "edge {edge}: join-build edge consumed by no probe op")
            }
            VerifyError::LedgerSiteMismatch { edge, detail } => {
                write!(f, "edge {edge}: ledger site mismatch: {detail}")
            }
            VerifyError::ZeroCapacity { edge } => {
                write!(f, "edge {edge}: zero credit capacity (channel can never move a chunk)")
            }
            VerifyError::CodecPairingBroken { edge, detail } => {
                write!(f, "edge {edge}: codec pairing broken: {detail}")
            }
            VerifyError::IllegalCodecPlacement {
                edge,
                device,
                device_name,
                class,
            } => write!(
                f,
                "edge {edge}: device {device} ('{device_name}') cannot host codec stage {class}"
            ),
            VerifyError::WindowWithoutTimestamp {
                pipeline,
                op,
                column,
            } => write!(
                f,
                "pipeline {pipeline}, op {op}: window keyed on '{column}', which the input does \
                 not supply as Int64"
            ),
            VerifyError::PunctuationDropped { edge } => write!(
                f,
                "edge {edge}: stream-fed input edge drops punctuation (downstream frontiers \
                 could never advance)"
            ),
            VerifyError::UnboundedBreaker {
                pipeline,
                op,
                label,
            } => write!(
                f,
                "pipeline {pipeline}: '{label}' at op {op} buffers an unbounded stream and \
                 would never emit"
            ),
            VerifyError::StreamingUnsupported { pipeline, detail } => {
                write!(f, "pipeline {pipeline}: {detail}")
            }
            VerifyError::ExchangeMalformed { exchange, detail } => {
                write!(f, "exchange {exchange}: {detail}")
            }
        }
    }
}

/// Render a schema as `name:type` pairs for error messages.
fn schema_str(schema: &SchemaRef) -> String {
    let fields: Vec<String> = schema
        .fields()
        .iter()
        .map(|fld| format!("{}:{:?}", fld.name, fld.dtype))
        .collect();
    format!("[{}]", fields.join(", "))
}

/// Positional type compatibility: same arity, same [`DataType`]s. Names
/// and nullability are allowed to differ — wire transport and storage
/// pre-aggregation rename columns but preserve layout.
fn types_match(a: &SchemaRef, b: &SchemaRef) -> bool {
    a.fields().len() == b.fields().len()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|(x, y)| x.dtype == y.dtype)
}

fn field_types(schema: &SchemaRef) -> Vec<DataType> {
    schema.fields().iter().map(|f| f.dtype).collect()
}

/// Collect every column name an expression references.
fn collect_cols<'e>(expr: &'e Expr, out: &mut Vec<&'e str>) {
    match expr {
        Expr::Col(name) => out.push(name),
        Expr::Lit(_) => {}
        Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
            collect_cols(left, out);
            collect_cols(right, out);
        }
        Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| collect_cols(e, out)),
        Expr::Not(e) => collect_cols(e, out),
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::Between { expr, .. } => {
            collect_cols(expr, out)
        }
    }
}

struct Verifier<'g> {
    graph: &'g PipelineGraph,
    topology: Option<&'g Topology>,
    errors: Vec<VerifyError>,
}

impl Verifier<'_> {
    fn push(&mut self, err: VerifyError) {
        self.errors.push(err);
    }

    // ------------------------------------------------------------ structure

    /// Index/id bookkeeping, edge/source wiring, reachability, acyclicity.
    /// Returns false when the graph is too malformed for the deeper passes
    /// (dangling indexes would make them panic).
    fn check_structure(&mut self) -> bool {
        let g = self.graph;
        let np = g.pipelines.len();
        let ne = g.edges.len();
        let mut sound = true;
        if np == 0 {
            self.push(VerifyError::Malformed {
                detail: "graph has no pipelines".into(),
            });
            return false;
        }
        if g.root >= np {
            self.push(VerifyError::Malformed {
                detail: format!("root {} out of range ({np} pipelines)", g.root),
            });
            sound = false;
        }
        for (i, p) in g.pipelines.iter().enumerate() {
            if p.id != i {
                self.push(VerifyError::Malformed {
                    detail: format!("pipeline at index {i} carries id {}", p.id),
                });
            }
            match &p.source {
                PipelineSource::Edge { edge } => {
                    if *edge >= ne {
                        self.push(VerifyError::Malformed {
                            detail: format!("pipeline {i} sources dangling edge {edge}"),
                        });
                        sound = false;
                    }
                }
                PipelineSource::Exchange {
                    exchange, index, ..
                } => {
                    if *exchange >= g.exchanges.len() {
                        self.push(VerifyError::Malformed {
                            detail: format!("pipeline {i} sources dangling exchange {exchange}"),
                        });
                        sound = false;
                    } else if *index >= g.exchanges[*exchange].parts {
                        self.push(VerifyError::Malformed {
                            detail: format!(
                                "pipeline {i} claims consumer index {index} of exchange \
                                 {exchange} ({} parts)",
                                g.exchanges[*exchange].parts
                            ),
                        });
                        sound = false;
                    }
                }
                PipelineSource::Scan { .. }
                | PipelineSource::Values { .. }
                | PipelineSource::Stream { .. } => {}
            }
        }
        for (e, edge) in g.edges.iter().enumerate() {
            if edge.id != e {
                self.push(VerifyError::Malformed {
                    detail: format!("edge at index {e} carries id {}", edge.id),
                });
            }
            if edge.from >= np || edge.to >= np {
                self.push(VerifyError::Malformed {
                    detail: format!(
                        "edge {e} references pipelines {} -> {} ({np} exist)",
                        edge.from, edge.to
                    ),
                });
                sound = false;
                continue;
            }
            if edge.from == edge.to {
                self.push(VerifyError::Malformed {
                    detail: format!("edge {e} is a self-edge on pipeline {}", edge.from),
                });
                sound = false;
            }
        }
        if !sound {
            return false;
        }

        // Input-edge/source wiring must agree in both directions.
        for (i, p) in g.pipelines.iter().enumerate() {
            if let PipelineSource::Edge { edge } = p.source {
                let e = &g.edges[edge];
                if e.to != i || e.role != EdgeRole::Input {
                    self.push(VerifyError::Malformed {
                        detail: format!(
                            "pipeline {i} sources edge {edge}, but that edge is a {:?} edge into pipeline {}",
                            e.role, e.to
                        ),
                    });
                }
            }
        }
        for (e, edge) in g.edges.iter().enumerate() {
            if edge.role == EdgeRole::Input
                && !matches!(
                    g.pipelines[edge.to].source,
                    PipelineSource::Edge { edge: src } if src == e
                )
            {
                self.push(VerifyError::Malformed {
                    detail: format!(
                        "input edge {e} feeds pipeline {}, whose source does not reference it",
                        edge.to
                    ),
                });
            }
        }

        // Cycle check over from -> to, with cycle extraction for the report.
        let mut state = vec![0u8; np]; // 0 unvisited, 1 on stack, 2 done
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let out_edges = |pid: usize| {
            g.edges
                .iter()
                .filter(move |e| e.from == pid)
                .map(|e| e.to)
                .collect::<Vec<_>>()
        };
        for start in 0..np {
            if state[start] != 0 {
                continue;
            }
            stack.push((start, 0));
            state[start] = 1;
            while let Some(&mut (pid, ref mut next)) = stack.last_mut() {
                let succs = out_edges(pid);
                if *next < succs.len() {
                    let to = succs[*next];
                    *next += 1;
                    match state[to] {
                        0 => {
                            state[to] = 1;
                            stack.push((to, 0));
                        }
                        1 => {
                            let at = stack.iter().position(|&(p, _)| p == to).unwrap_or(0);
                            let cycle: Vec<usize> = stack[at..].iter().map(|&(p, _)| p).collect();
                            self.push(VerifyError::CyclicGraph { pipelines: cycle });
                            return false;
                        }
                        _ => {}
                    }
                } else {
                    state[pid] = 2;
                    stack.pop();
                }
            }
        }

        // Every pipeline must feed the root (walk edges backwards).
        let mut reach = vec![false; np];
        let mut work = vec![g.root];
        reach[g.root] = true;
        while let Some(pid) = work.pop() {
            for e in &g.edges {
                if e.to == pid && !reach[e.from] {
                    reach[e.from] = true;
                    work.push(e.from);
                }
            }
        }
        for (i, r) in reach.iter().enumerate() {
            if !r {
                self.push(VerifyError::Malformed {
                    detail: format!("pipeline {i} is unreachable from the root"),
                });
            }
        }
        true
    }

    // ---------------------------------------------------- breakers & joins

    fn check_breakers_and_joins(&mut self) {
        let g = self.graph;
        for (pid, p) in g.pipelines.iter().enumerate() {
            for (oi, op) in p.ops.iter().enumerate() {
                // A breaker buffers its whole input: anything after it in
                // the same pipeline would observe an unstreamable hand-off.
                if oi + 1 < p.ops.len() && op.spec.is_breaker() {
                    self.push(VerifyError::BreakerMidPipeline {
                        pipeline: pid,
                        op: oi,
                        label: op.spec.label(),
                    });
                }
                match (&op.spec, op.build_edge) {
                    (OperatorSpec::JoinProbe { .. }, None) => {
                        self.push(VerifyError::MissingJoinBuild {
                            pipeline: pid,
                            op: oi,
                        });
                    }
                    (OperatorSpec::JoinProbe { .. }, Some(be)) => {
                        match g.edges.get(be) {
                            Some(e) if e.role == EdgeRole::JoinBuild && e.to == pid => {}
                            Some(e) => self.push(VerifyError::Malformed {
                                detail: format!(
                                    "pipeline {pid}, op {oi}: build edge {be} is a {:?} edge into pipeline {}",
                                    e.role, e.to
                                ),
                            }),
                            None => self.push(VerifyError::Malformed {
                                detail: format!(
                                    "pipeline {pid}, op {oi}: build edge {be} does not exist"
                                ),
                            }),
                        }
                    }
                    (_, Some(be)) => self.push(VerifyError::Malformed {
                        detail: format!(
                            "pipeline {pid}, op {oi}: non-join op carries build edge {be}"
                        ),
                    }),
                    (_, None) => {}
                }
            }
        }
        // Every join-build edge must be consumed by exactly one probe op.
        for (e, edge) in g.edges.iter().enumerate() {
            if edge.role != EdgeRole::JoinBuild {
                continue;
            }
            let consumers = g
                .pipelines
                .iter()
                .flat_map(|p| p.ops.iter())
                .filter(|op| op.build_edge == Some(e))
                .count();
            match consumers {
                1 => {}
                0 => self.push(VerifyError::DanglingJoinBuild { edge: e }),
                n => self.push(VerifyError::Malformed {
                    detail: format!("join-build edge {e} consumed by {n} probe ops"),
                }),
            }
        }
    }

    // ------------------------------------------------------------- schemas

    /// Output schema of pipeline `pid` (tip op's output, else the source).
    fn pipeline_output(&self, pid: usize, depth: usize) -> Option<SchemaRef> {
        let p = &self.graph.pipelines[pid];
        if let Some(op) = p.ops.last() {
            return Some(op.spec.output_schema());
        }
        match &p.source {
            PipelineSource::Scan { schema, .. }
            | PipelineSource::Values { schema, .. }
            | PipelineSource::Stream { schema, .. }
            | PipelineSource::Exchange { schema, .. } => Some(schema.clone()),
            PipelineSource::Edge { edge } => {
                // Depth-bounded: structure pass already rejected cycles,
                // but stay safe when called on a malformed graph.
                if depth > self.graph.pipelines.len() {
                    return None;
                }
                self.pipeline_output(self.graph.edges[*edge].from, depth + 1)
            }
        }
    }

    fn check_schemas(&mut self) {
        let g = self.graph;
        for (pid, p) in g.pipelines.iter().enumerate() {
            let mut current = match &p.source {
                PipelineSource::Scan { schema, .. }
                | PipelineSource::Values { schema, .. }
                | PipelineSource::Stream { schema, .. }
                | PipelineSource::Exchange { schema, .. } => Some(schema.clone()),
                PipelineSource::Edge { edge } => self.pipeline_output(g.edges[*edge].from, 0),
            };
            for (oi, op) in p.ops.iter().enumerate() {
                let Some(upstream) = current.clone() else {
                    break;
                };
                match &op.spec {
                    OperatorSpec::Filter { input_schema, .. }
                    | OperatorSpec::Sort { input_schema, .. }
                    | OperatorSpec::TopK { input_schema, .. }
                    | OperatorSpec::Limit { input_schema, .. }
                    | OperatorSpec::Aggregate { input_schema, .. }
                    | OperatorSpec::WindowAggregate { input_schema, .. } => {
                        if !types_match(input_schema, &upstream) {
                            self.push(VerifyError::SchemaMismatch {
                                pipeline: pid,
                                site: format!("op {oi} ({})", op.spec.label()),
                                expected: schema_str(input_schema),
                                found: schema_str(&upstream),
                            });
                        }
                    }
                    OperatorSpec::Project { exprs, .. } => {
                        for (expr, _) in exprs {
                            let mut cols = Vec::new();
                            collect_cols(expr, &mut cols);
                            for c in cols {
                                if upstream.index_of(c).is_err() {
                                    self.push(VerifyError::SchemaMismatch {
                                        pipeline: pid,
                                        site: format!("op {oi} (project)"),
                                        expected: format!("column '{c}'"),
                                        found: schema_str(&upstream),
                                    });
                                }
                            }
                        }
                    }
                    OperatorSpec::JoinProbe {
                        build_schema,
                        schema,
                        ..
                    } => {
                        // Build input arrives over the build edge; its
                        // producer must deliver the declared build layout.
                        if let Some(be) = op.build_edge {
                            if let Some(produced) = self.pipeline_output(g.edges[be].from, 0) {
                                if !types_match(build_schema, &produced) {
                                    self.push(VerifyError::SchemaMismatch {
                                        pipeline: pid,
                                        site: format!("op {oi} (join build edge {be})"),
                                        expected: schema_str(build_schema),
                                        found: schema_str(&produced),
                                    });
                                }
                            }
                        }
                        // Output = build fields then probe fields.
                        let want: Vec<DataType> = field_types(build_schema)
                            .into_iter()
                            .chain(field_types(&upstream))
                            .collect();
                        if field_types(schema) != want {
                            self.push(VerifyError::SchemaMismatch {
                                pipeline: pid,
                                site: format!("op {oi} (join output)"),
                                expected: schema_str(schema),
                                found: format!(
                                    "build {} ++ probe {}",
                                    schema_str(build_schema),
                                    schema_str(&upstream)
                                ),
                            });
                        }
                    }
                }
                current = Some(op.spec.output_schema());
            }
        }
    }

    // ----------------------------------------------------------- streaming

    /// Streaming legality: punctuation is preserved on every stream-fed
    /// input edge (and claimed nowhere else), unbounded spines never reach
    /// whole-input buffering, join builds, or exchanges, and windowed
    /// aggregates are keyed on a real `Int64` timestamp column.
    ///
    /// A windowed aggregate over a *bounded* source (`Values`, a
    /// horizon-bounded stream) is deliberately legal with or without
    /// punctuation — that is exactly the batch-oracle configuration the
    /// streaming tests pin results against.
    fn check_streaming(&mut self) {
        let g = self.graph;
        let fed = g.stream_fed();
        // Unbounded-fed pipelines: like `stream_fed`, restricted to stream
        // sources with no horizon.
        let mut unbounded = vec![false; g.pipelines.len()];
        loop {
            let mut changed = false;
            for (pid, p) in g.pipelines.iter().enumerate() {
                let f = match &p.source {
                    PipelineSource::Stream { spec, .. } => spec.is_unbounded(),
                    PipelineSource::Edge { edge } => g
                        .edges
                        .get(*edge)
                        .is_some_and(|e| unbounded.get(e.from).copied().unwrap_or(false)),
                    _ => false,
                };
                if f && !unbounded[pid] {
                    unbounded[pid] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (eid, edge) in g.edges.iter().enumerate() {
            if edge.role == EdgeRole::Input {
                if fed[edge.from] && !edge.punctuated {
                    self.push(VerifyError::PunctuationDropped { edge: eid });
                }
                if edge.punctuated && !fed[edge.from] {
                    self.push(VerifyError::Malformed {
                        detail: format!(
                            "edge {eid} claims punctuation but its producer spine has no \
                             stream source"
                        ),
                    });
                }
            } else if edge.punctuated {
                self.push(VerifyError::Malformed {
                    detail: format!("{:?} edge {eid} cannot carry punctuation", edge.role),
                });
            }
            if unbounded[edge.from] && edge.role != EdgeRole::Input {
                self.push(VerifyError::StreamingUnsupported {
                    pipeline: edge.from,
                    detail: format!(
                        "unbounded stream feeds a {:?} edge {eid}; bound the source with \
                         with_stream_horizon first",
                        edge.role
                    ),
                });
            }
        }
        for (pid, p) in g.pipelines.iter().enumerate() {
            for (oi, op) in p.ops.iter().enumerate() {
                if unbounded[pid]
                    && matches!(
                        &op.spec,
                        OperatorSpec::Sort { .. }
                            | OperatorSpec::TopK { .. }
                            | OperatorSpec::Aggregate { .. }
                    )
                {
                    self.push(VerifyError::UnboundedBreaker {
                        pipeline: pid,
                        op: oi,
                        label: op.spec.label(),
                    });
                }
                if let OperatorSpec::WindowAggregate {
                    ts_col,
                    mode,
                    input_schema,
                    ..
                } = &op.spec
                {
                    let (column, ok) = match mode {
                        // Merge inputs lead with the partial stage's wstart.
                        AggMode::Merge { .. } => (
                            WSTART_COL.to_string(),
                            input_schema
                                .fields()
                                .first()
                                .is_some_and(|f| f.dtype == DataType::Int64),
                        ),
                        _ => (
                            ts_col.clone(),
                            input_schema
                                .index_of(ts_col)
                                .ok()
                                .is_some_and(|i| input_schema.fields()[i].dtype == DataType::Int64),
                        ),
                    };
                    if !ok {
                        self.push(VerifyError::WindowWithoutTimestamp {
                            pipeline: pid,
                            op: oi,
                            column,
                        });
                    }
                }
            }
        }
    }

    // ----------------------------------------------------------- placement

    fn check_placement(&mut self) {
        let Some(topology) = self.topology else {
            return;
        };
        let g = self.graph;
        let n_devices = topology.devices().len();
        let check = |errors: &mut Vec<VerifyError>,
                     pid: usize,
                     oi: usize,
                     device: DeviceId,
                     class: OpClass| {
            if (device.0 as usize) >= n_devices {
                errors.push(VerifyError::Malformed {
                    detail: format!(
                        "pipeline {pid}, op {oi}: device {device} not in topology ({n_devices} devices)"
                    ),
                });
                return;
            }
            let meta = topology.device(device);
            if !meta.profile.supports(class) {
                errors.push(VerifyError::IllegalPlacement {
                    pipeline: pid,
                    op: oi,
                    device,
                    device_name: meta.name.clone(),
                    class,
                });
            }
        };
        for (pid, p) in g.pipelines.iter().enumerate() {
            // Storage scans execute *at* the storage device, so the source
            // class must be supported there. Values sources are
            // memory-resident handoffs and carry no device-side work.
            match &p.source {
                PipelineSource::Scan {
                    device: Some(d), ..
                } => check(&mut self.errors, pid, usize::MAX, *d, p.source_class),
                // Stream sources ingest *at* their device (NIC-Rx), so the
                // placement must support `Ingest`.
                PipelineSource::Stream {
                    device: Some(d), ..
                } => check(&mut self.errors, pid, usize::MAX, *d, p.source_class),
                _ => {}
            }
            for (oi, op) in p.ops.iter().enumerate() {
                if let Some(d) = op.device {
                    check(&mut self.errors, pid, oi, d, op.op_class);
                }
            }
        }
    }

    // ----------------------------------------------------------- exchanges

    /// Exchange invariants: every exchange's shuffle-edge matrix is
    /// complete and row-major consistent (all N² producer→consumer pairs
    /// present with the Shuffle role and matching endpoints), every
    /// consumer fragment is wired back to its slot, producer outputs match
    /// the redistributed schema, hash keys resolve in every producer
    /// output (so the partition function cannot disagree across hosts),
    /// gathers have exactly one part, and — with a topology — every
    /// hash-exchange producer tip can actually run the partition.
    fn check_exchanges(&mut self) {
        let g = self.graph;
        let mut found = Vec::new();
        let mut owners = vec![0usize; g.edges.len()];
        for (xid, ex) in g.exchanges.iter().enumerate() {
            let bad = |detail: String| VerifyError::ExchangeMalformed {
                exchange: xid,
                detail,
            };
            if ex.id != xid {
                found.push(bad(format!(
                    "descriptor at index {xid} carries id {}",
                    ex.id
                )));
            }
            if ex.parts == 0 || ex.consumers.len() != ex.parts {
                found.push(bad(format!(
                    "{} consumer slots for {} parts",
                    ex.consumers.len(),
                    ex.parts
                )));
                continue;
            }
            if ex.producers.is_empty() {
                found.push(bad("exchange has no producers".into()));
                continue;
            }
            if matches!(ex.kind, ExchangeKind::Gather) && ex.parts != 1 {
                found.push(bad(format!(
                    "gather exchange has {} parts (want 1)",
                    ex.parts
                )));
            }
            let mut wired = true;
            for (j, &cpid) in ex.consumers.iter().enumerate() {
                if cpid >= g.pipelines.len() {
                    found.push(bad(format!(
                        "consumer slot {j} is unregistered or dangling ({cpid})"
                    )));
                    wired = false;
                    continue;
                }
                match &g.pipelines[cpid].source {
                    PipelineSource::Exchange {
                        exchange,
                        index,
                        schema,
                        ..
                    } if *exchange == xid && *index == j => {
                        if !types_match(schema, &ex.schema) {
                            found.push(bad(format!(
                                "consumer {j} declares {}, exchange redistributes {}",
                                schema_str(schema),
                                schema_str(&ex.schema)
                            )));
                        }
                    }
                    _ => {
                        found.push(bad(format!(
                            "consumer slot {j} points at pipeline {cpid}, which does not \
                             source this exchange at index {j}"
                        )));
                        wired = false;
                    }
                }
            }
            if ex.edges.len() != ex.producers.len() * ex.parts {
                found.push(bad(format!(
                    "edge matrix has {} entries for {}x{} pairs",
                    ex.edges.len(),
                    ex.producers.len(),
                    ex.parts
                )));
                continue;
            }
            for (i, &ppid) in ex.producers.iter().enumerate() {
                if ppid >= g.pipelines.len() {
                    found.push(bad(format!("producer {i} is dangling ({ppid})")));
                    continue;
                }
                // Producer output must match the redistributed schema, and
                // hash keys must resolve in it on every producer.
                if let Some(out) = self.pipeline_output(ppid, 0) {
                    if !types_match(&out, &ex.schema) {
                        found.push(bad(format!(
                            "producer {i} (pipeline {ppid}) produces {}, exchange \
                             redistributes {}",
                            schema_str(&out),
                            schema_str(&ex.schema)
                        )));
                    }
                    if let ExchangeKind::Hash { keys, .. } = &ex.kind {
                        for key in keys {
                            if out.index_of(key).is_err() {
                                found.push(bad(format!(
                                    "hash key '{key}' missing from producer {i} output {}",
                                    schema_str(&out)
                                )));
                            }
                        }
                    }
                }
                if wired {
                    for j in 0..ex.parts {
                        let eid = ex.edges[i * ex.parts + j];
                        match g.edges.get(eid) {
                            Some(e)
                                if e.role == EdgeRole::Shuffle
                                    && e.from == ppid
                                    && e.to == ex.consumers[j] =>
                            {
                                owners[eid] += 1;
                            }
                            Some(e) => found.push(bad(format!(
                                "slot ({i},{j}): edge {eid} is a {:?} edge {} -> {}, want \
                                 Shuffle {} -> {}",
                                e.role, e.from, e.to, ppid, ex.consumers[j]
                            ))),
                            None => found.push(bad(format!(
                                "slot ({i},{j}) references dangling edge {eid}"
                            ))),
                        }
                    }
                }
                // Partitioning runs at the producer tip: with a topology,
                // that device must advertise the Partition class.
                if let (Some(topology), ExchangeKind::Hash { .. }) = (self.topology, &ex.kind) {
                    if let Some(d) = g.pipelines[ppid].tip_device() {
                        if (d.0 as usize) < topology.devices().len() {
                            let meta = topology.device(d);
                            if !meta.profile.supports(OpClass::Partition) {
                                found.push(VerifyError::IllegalPlacement {
                                    pipeline: ppid,
                                    op: usize::MAX,
                                    device: d,
                                    device_name: meta.name.clone(),
                                    class: OpClass::Partition,
                                });
                            }
                        }
                    }
                }
            }
        }
        // Every shuffle edge must belong to exactly one exchange slot.
        for (eid, e) in g.edges.iter().enumerate() {
            if e.role == EdgeRole::Shuffle && owners[eid] != 1 {
                found.push(VerifyError::Malformed {
                    detail: format!(
                        "shuffle edge {eid} referenced by {} exchange slots (want exactly 1)",
                        owners[eid]
                    ),
                });
            }
        }
        self.errors.extend(found);
    }

    // ------------------------------------------------- edges/routes/ledger

    fn check_edges(&mut self) {
        let g = self.graph;
        for (eid, edge) in g.edges.iter().enumerate() {
            if edge.queue_capacity == 0 {
                self.push(VerifyError::ZeroCapacity { edge: eid });
            }
            self.check_ledger_site(eid, edge);
            self.check_codec(eid, edge);
            match &edge.kind {
                EdgeKind::Local => {
                    if let (Some(f), Some(t)) = (edge.from_device, edge.to_device) {
                        if f != t {
                            self.push(VerifyError::LocalEdgeCrossesDevices {
                                edge: eid,
                                from: f,
                                to: t,
                            });
                        }
                    }
                }
                EdgeKind::Fabric { route } => {
                    let (Some(f), Some(t)) = (edge.from_device, edge.to_device) else {
                        self.push(VerifyError::FabricEdgeWithinDevice { edge: eid });
                        continue;
                    };
                    if f == t {
                        self.push(VerifyError::FabricEdgeWithinDevice { edge: eid });
                        continue;
                    }
                    let Some(topology) = self.topology else {
                        continue;
                    };
                    let Some(route) = route else {
                        self.push(VerifyError::MissingRoute {
                            edge: eid,
                            from: f,
                            to: t,
                        });
                        continue;
                    };
                    self.check_route(eid, route, f, t, topology);
                }
            }
        }
    }

    fn check_route(
        &mut self,
        eid: usize,
        route: &df_fabric::topology::Route,
        from: DeviceId,
        to: DeviceId,
        topology: &Topology,
    ) {
        let bad = |detail: String| VerifyError::RouteMismatch { edge: eid, detail };
        if route.devices.first() != Some(&from) || route.devices.last() != Some(&to) {
            self.push(bad(format!(
                "route endpoints {:?} do not match edge devices {from} -> {to}",
                (route.devices.first(), route.devices.last())
            )));
            return;
        }
        if route.links.is_empty() || route.devices.len() != route.links.len() + 1 {
            self.push(bad(format!(
                "route shape invalid: {} links, {} devices",
                route.links.len(),
                route.devices.len()
            )));
            return;
        }
        for (i, link) in route.links.iter().enumerate() {
            if (link.0 as usize) >= topology.links().len() {
                self.push(bad(format!("link {link:?} not in topology")));
                return;
            }
            let spec = topology.link(*link);
            let (a, b) = (route.devices[i], route.devices[i + 1]);
            let connects = (spec.a == a && spec.b == b) || (spec.a == b && spec.b == a);
            if !connects {
                self.push(bad(format!(
                    "hop {i}: link {link:?} connects {} - {}, route claims {a} -> {b}",
                    spec.a, spec.b
                )));
                return;
            }
        }
    }

    /// Codec discipline: a non-plain encoding must cross the fabric, carry
    /// a positive, finite `codec_ratio`, and run on endpoints that
    /// advertise the op classes (`Compress` on the producer tip,
    /// `Decompress` on the consumer). The checksum discipline (every edge
    /// frame is CRC-protected) is a property of the `df_codec::edge` frame
    /// format itself, so only the codec's placement needs verifying here.
    fn check_codec(&mut self, eid: usize, edge: &PipelineEdge) {
        if edge.encoding.is_plain() {
            return;
        }
        if !edge.crosses_devices() {
            self.push(VerifyError::CodecPairingBroken {
                edge: eid,
                detail: format!(
                    "local edge cannot carry '{}' encoding (nothing crosses the fabric)",
                    edge.encoding
                ),
            });
        }
        if !(edge.codec_ratio > 0.0 && edge.codec_ratio.is_finite()) {
            self.push(VerifyError::CodecPairingBroken {
                edge: eid,
                detail: format!("codec ratio {} is not positive finite", edge.codec_ratio),
            });
        }
        let Some(topology) = self.topology else {
            return;
        };
        let n_devices = topology.devices().len();
        let ends = [
            (edge.from_device, OpClass::Compress),
            (edge.to_device, OpClass::Decompress),
        ];
        for (device, class) in ends {
            let Some(dev) = device else { continue };
            if (dev.0 as usize) >= n_devices {
                self.push(VerifyError::Malformed {
                    detail: format!(
                        "edge {eid}: codec device {dev} not in topology ({n_devices} devices)"
                    ),
                });
                continue;
            }
            let meta = topology.device(dev);
            if !meta.profile.supports(class) {
                self.push(VerifyError::IllegalCodecPlacement {
                    edge: eid,
                    device: dev,
                    device_name: meta.name.clone(),
                    class,
                });
            }
        }
    }

    /// Ledger conservation: the devices an edge would charge must be the
    /// producer tip's and the consuming op's real placements, so every
    /// fabric crossing is accounted at exactly one site.
    fn check_ledger_site(&mut self, eid: usize, edge: &PipelineEdge) {
        let g = self.graph;
        let producer_tip = g.pipelines[edge.from].tip_device();
        if edge.from_device != producer_tip {
            self.push(VerifyError::LedgerSiteMismatch {
                edge: eid,
                detail: format!(
                    "edge records from={:?}, producer pipeline {} tip is {:?}",
                    edge.from_device, edge.from, producer_tip
                ),
            });
        }
        let consumer = &g.pipelines[edge.to];
        let consuming_op = match edge.role {
            EdgeRole::Input => consumer.ops.first(),
            EdgeRole::JoinBuild => consumer.ops.iter().find(|op| op.build_edge == Some(eid)),
            EdgeRole::Shuffle => {
                // Shuffle edges terminate at the consumer fragment's
                // exchange source, not at a specific operator.
                if edge.to_device != consumer.source.device() {
                    self.push(VerifyError::LedgerSiteMismatch {
                        edge: eid,
                        detail: format!(
                            "edge records to={:?}, consumer fragment source is placed on {:?}",
                            edge.to_device,
                            consumer.source.device()
                        ),
                    });
                }
                None
            }
        };
        if let Some(op) = consuming_op {
            if edge.to_device != op.device {
                self.push(VerifyError::LedgerSiteMismatch {
                    edge: eid,
                    detail: format!(
                        "edge records to={:?}, consuming op is placed on {:?}",
                        edge.to_device, op.device
                    ),
                });
            }
        }
    }
}

impl PipelineGraph {
    /// Statically verify the graph. With a topology, placement legality
    /// and fabric routes are checked against the real device capability
    /// profiles and link graph; without one, those passes are skipped and
    /// only topology-independent invariants run.
    ///
    /// Returns every violation found (not just the first), so callers can
    /// report a broken plan in full.
    pub fn verify(&self, topology: Option<&Topology>) -> Result<(), Vec<VerifyError>> {
        let mut v = Verifier {
            graph: self,
            topology,
            errors: Vec::new(),
        };
        if v.check_structure() {
            v.check_breakers_and_joins();
            v.check_schemas();
            v.check_streaming();
            v.check_placement();
            v.check_exchanges();
            v.check_edges();
        }
        if v.errors.is_empty() {
            Ok(())
        } else {
            Err(v.errors)
        }
    }

    /// [`PipelineGraph::verify`] with failures mapped to
    /// [`EngineError::Verify`](crate::error::EngineError) — the form the
    /// executors and the flow-spec derivation use.
    pub fn verify_or_err(&self, topology: Option<&Topology>) -> crate::error::Result<()> {
        self.verify(topology)
            .map_err(crate::error::EngineError::Verify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::logical::JoinType;
    use crate::physical::{PhysNode, PhysicalPlan};
    use crate::pipeline::DEFAULT_QUEUE_CAPACITY;
    use df_data::batch::batch_of;
    use df_data::{Column, Field, Schema};
    use df_fabric::topology::DisaggregatedConfig;

    fn sample(n: usize) -> df_data::Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 4)).collect::<Vec<_>>()),
            ),
        ])
    }

    fn topo() -> Topology {
        Topology::disaggregated(&DisaggregatedConfig::default())
    }

    fn placed_plan(topo: &Topology) -> PhysicalPlan {
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        PhysicalPlan::new(
            PhysNode::Sort {
                input: Box::new(PhysNode::Filter {
                    input: Box::new(PhysNode::Values {
                        schema: sample(8).schema().clone(),
                        batches: vec![sample(8)],
                        device: Some(nic),
                    }),
                    predicate: col("id").lt(lit(5)),
                    device: Some(nic),
                    use_kernel: false,
                }),
                keys: vec![("id".into(), true)],
                device: Some(cpu),
            },
            "t",
        )
    }

    #[test]
    fn compiled_graphs_verify_clean() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        g.verify(Some(&topo)).expect("clean graph");
        g.verify(None).expect("clean without topology too");
    }

    #[test]
    fn illegal_placement_is_flagged() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        // Move the sort to the smart NIC, which cannot host unbounded state.
        let nic = topo.expect_device("compute0.nic");
        let last = g.pipelines.len() - 1;
        let op = g.pipelines[last].ops.last_mut().expect("sort op");
        op.device = Some(nic);
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(
                e,
                VerifyError::IllegalPlacement {
                    class: OpClass::Sort,
                    ..
                }
            )),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn zero_capacity_is_flagged() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        g.edges[0].queue_capacity = 0;
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::ZeroCapacity { edge: 0 })));
    }

    #[test]
    fn schema_break_at_cut_is_flagged() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        // Declare a different input layout on the first op of the second
        // pipeline (the one fed over the cut).
        let wrong = Schema::new(vec![Field::new("id", df_data::DataType::Float64)]).into_ref();
        let consumer = g.edges[0].to;
        match &mut g.pipelines[consumer].ops[0].spec {
            OperatorSpec::Sort { input_schema, .. } | OperatorSpec::Filter { input_schema, .. } => {
                *input_schema = wrong
            }
            other => panic!("unexpected op {other:?}"),
        }
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::SchemaMismatch { .. })),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn local_edge_crossing_devices_is_flagged() {
        let plan = PhysicalPlan::new(
            PhysNode::Limit {
                input: Box::new(PhysNode::Sort {
                    input: Box::new(PhysNode::Values {
                        schema: sample(4).schema().clone(),
                        batches: vec![sample(4)],
                        device: None,
                    }),
                    keys: vec![("id".into(), true)],
                    device: None,
                }),
                n: 2,
            },
            "t",
        );
        let mut g = PipelineGraph::compile(&plan, None, None, DEFAULT_QUEUE_CAPACITY);
        g.edges[0].from_device = Some(DeviceId(0));
        g.edges[0].to_device = Some(DeviceId(1));
        // Keep ledger sites consistent so only the kind violation fires.
        g.pipelines[0].ops.last_mut().expect("sort").device = Some(DeviceId(0));
        g.pipelines[1].ops[0].device = Some(DeviceId(1));
        let errs = g.verify(None).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::LocalEdgeCrossesDevices { .. })),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn dropped_join_build_is_flagged() {
        let topo = topo();
        let b = batch_of(vec![("bk", Column::from_strs(&["g0", "g1"]))]);
        let p = sample(8);
        let schema = {
            let mut fields: Vec<Field> = b.schema().fields().to_vec();
            fields.extend(p.schema().fields().iter().cloned());
            Schema::new(fields).into_ref()
        };
        let plan = PhysicalPlan::new(
            PhysNode::HashJoin {
                build: Box::new(PhysNode::Values {
                    schema: b.schema().clone(),
                    batches: vec![b],
                    device: None,
                }),
                probe: Box::new(PhysNode::Values {
                    schema: p.schema().clone(),
                    batches: vec![p],
                    device: None,
                }),
                on: vec![("bk".into(), "grp".into())],
                join_type: JoinType::Inner,
                schema,
                device: None,
            },
            "t",
        );
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let probe = g.root;
        for op in &mut g.pipelines[probe].ops {
            op.build_edge = None;
        }
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::MissingJoinBuild { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::DanglingJoinBuild { .. })));
    }

    #[test]
    fn swapped_route_is_flagged() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let ssd = topo.expect_device("storage.ssd");
        let snic = topo.expect_device("storage.nic");
        let bogus = topo.route(ssd, snic).expect("adjacent");
        let fabric = g
            .edges
            .iter_mut()
            .find(|e| matches!(e.kind, EdgeKind::Fabric { .. }))
            .expect("placed plan has a fabric edge");
        fabric.kind = EdgeKind::Fabric { route: Some(bogus) };
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::RouteMismatch { .. })),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn codec_pair_on_fabric_edge_verifies_clean() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let eid = g
            .edges
            .iter()
            .find(|e| e.crosses_devices())
            .expect("fabric edge")
            .id;
        g.set_edge_encoding(eid, df_codec::edge::EdgeEncoding::Columnar, 0.4);
        g.verify(Some(&topo)).expect("paired codec is legal");
    }

    #[test]
    fn illegally_placed_codec_stage_is_flagged() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let eid = g
            .edges
            .iter()
            .find(|e| e.crosses_devices())
            .expect("fabric edge")
            .id;
        // The near-memory accelerator decompresses but cannot compress:
        // an encoding on an edge it produces must be rejected.
        let nma = topo.expect_device("compute0.mem");
        let from = g.edges[eid].from;
        // Keep pinning consistent so only the placement violation fires.
        if let Some(op) = g.pipelines[from].ops.last_mut() {
            op.device = Some(nma);
        }
        g.edges[eid].from_device = Some(nma);
        g.set_edge_encoding(eid, df_codec::edge::EdgeEncoding::Columnar, 0.4);
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(
                e,
                VerifyError::IllegalCodecPlacement {
                    class: OpClass::Compress,
                    ..
                }
            )),
            "errs: {errs:?}"
        );
    }

    /// Compile the N-host partitioned hash join the scaleout module runs,
    /// returning the graph plus its cluster topology.
    fn cluster_join_graph(hosts: usize) -> (PipelineGraph, Topology) {
        use crate::scaleout::{cluster_hash_join_plan, split_round_robin};
        use df_fabric::topology::ClusterConfig;
        let topo = Topology::cluster(hosts as u32, &ClusterConfig::default());
        let build = batch_of(vec![
            ("k", Column::from_i64((0..32).collect())),
            (
                "name",
                Column::from_strs(&(0..32).map(|i| format!("n{i}")).collect::<Vec<_>>()),
            ),
        ]);
        let probe = batch_of(vec![
            ("fk", Column::from_i64((0..128).map(|i| i % 32).collect())),
            ("amount", Column::from_i64((0..128).collect())),
        ]);
        let join_schema = {
            let mut fields: Vec<Field> = build.schema().fields().to_vec();
            fields.extend(probe.schema().fields().iter().cloned());
            Schema::new(fields).into_ref()
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
        .expect("cluster plan");
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        (g, topo)
    }

    #[test]
    fn cluster_exchange_graphs_verify_clean() {
        for hosts in [1usize, 2, 4] {
            let (g, topo) = cluster_join_graph(hosts);
            g.verify(Some(&topo))
                .unwrap_or_else(|e| panic!("{hosts}-host graph: {e:?}"));
            // Build, probe, and gather exchanges survive compilation.
            assert_eq!(g.exchanges.len(), 3, "hosts={hosts}");
        }
    }

    #[test]
    fn exchange_consumer_swap_is_flagged() {
        let (mut g, topo) = cluster_join_graph(2);
        // Swap the build exchange's consumer list: each pipeline still
        // declares its own index, so the descriptor no longer matches.
        g.exchanges[0].consumers.swap(0, 1);
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::ExchangeMalformed { exchange: 0, .. })),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn exchange_edge_role_mutation_is_flagged() {
        let (mut g, topo) = cluster_join_graph(2);
        let eid = g.exchanges[0].edge(0, 1);
        g.edges[eid].role = EdgeRole::Input;
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::ExchangeMalformed { exchange: 0, .. })),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn exchange_missing_hash_key_is_flagged() {
        let (mut g, topo) = cluster_join_graph(2);
        if let ExchangeKind::Hash { keys, .. } = &mut g.exchanges[0].kind {
            keys[0] = "no_such_column".into();
        } else {
            panic!("build exchange should hash-partition");
        }
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::ExchangeMalformed { exchange: 0, .. })),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn exchange_gather_with_fanout_is_flagged() {
        let (mut g, topo) = cluster_join_graph(2);
        // A gather must have exactly one consumer; declare fan-out on one.
        g.exchanges[0].kind = ExchangeKind::Gather;
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::ExchangeMalformed { exchange: 0, .. })),
            "errs: {errs:?}"
        );
    }

    #[test]
    fn cyclic_graph_is_flagged() {
        let topo = topo();
        let plan = placed_plan(&topo);
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        // Forge a back edge root -> leaf.
        let id = g.edges.len();
        let leaf = 0usize;
        g.edges.push(PipelineEdge {
            id,
            from: g.root,
            to: leaf,
            kind: EdgeKind::Local,
            role: EdgeRole::JoinBuild,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            from_device: None,
            to_device: None,
            punctuated: false,
            encoding: df_codec::edge::EdgeEncoding::Plain,
            codec_ratio: 1.0,
        });
        let errs = g.verify(Some(&topo)).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::CyclicGraph { .. })));
    }
}
