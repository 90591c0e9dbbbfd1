//! Property suite for the pipeline-graph refactor: driving execution
//! through the compiled [`PipelineGraph`] must be *bit-identical* to the
//! seed executors' semantics — same output batches in the same order with
//! the same batch boundaries, the same movement-ledger totals per device
//! edge, and the same storage-scan statistics.
//!
//! The oracle below is a frozen, direct reimplementation of the seed push
//! executor's contract: materialize each child, stream every batch through
//! the operator, and charge the ledger once per batch at each placement
//! handoff (`child device → node device`, plus `root device → consumer`).
//!
//! Morsel parallelism is a plan rewrite ([`fan_out`]), so its property
//! compares the rewritten plan's rows and cross-device ledger with the
//! sequential run's, and model-checks the fanned-out graph.

use rheo::analysis::deadlock;
use rheo::check::{check, Gen};
use rheo::core::error::EngineError;
use rheo::core::exec::push::{execute, CodecPolicy, ExecEnv};
use rheo::core::exec::MovementLedger;
use rheo::core::expr::{col, lit};
use rheo::core::logical::{AggCall, AggFn, JoinType};
use rheo::core::ops::{
    AggMode, FilterOp, HashAggOp, HashJoinOp, LimitOp, Operator, ProjectOp, SortOp, TopKOp,
};
use rheo::core::physical::{PhysNode, PhysicalPlan};
use rheo::core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use rheo::core::scaleout::fan_out;
use rheo::data::batch::batch_of;
use rheo::data::{Batch, Column, DataType, Field, Schema, SchemaRef};
use rheo::fabric::topology::DisaggregatedConfig;
use rheo::fabric::{DeviceId, Topology};
use rheo::storage::object::MemObjectStore;
use rheo::storage::predicate::StoragePredicate;
use rheo::storage::smart::{ScanRequest, ScanStats, SmartStorage};
use rheo::storage::table::TableStore;
use rheo::storage::zonemap::CmpOp;

// ---------------------------------------------------------------- oracle

/// Recursively evaluate a plan the way the seed push executor did,
/// returning the output batches of `node` (with seed batch boundaries)
/// and charging `ledger`/`stats` along the way.
fn oracle_eval(
    node: &PhysNode,
    storage: Option<&SmartStorage>,
    ledger: &mut MovementLedger,
    stats: &mut Vec<ScanStats>,
) -> Vec<Batch> {
    // Charge one batch crossing from `from` into `to`.
    fn charge(
        ledger: &mut MovementLedger,
        from: Option<DeviceId>,
        to: Option<DeviceId>,
        b: &Batch,
    ) {
        ledger.charge(from, to, b.byte_size() as u64, b.rows() as u64);
    }

    match node {
        PhysNode::Values { batches, .. } => batches.clone(),
        PhysNode::StorageScan { table, request, .. } => {
            let storage = storage.expect("plan has StorageScan but oracle has no storage");
            let (batches, scan) = storage.scan(table, request).expect("oracle scan");
            stats.push(scan);
            batches
        }
        PhysNode::HashJoin {
            build,
            probe,
            on,
            join_type,
            schema,
            device,
        } => {
            let mut op =
                HashJoinOp::with_type(on.clone(), *join_type, build.schema(), schema.clone());
            let build_dev = build.device();
            for b in oracle_eval(build, storage, ledger, stats) {
                charge(ledger, build_dev, *device, &b);
                op.build(b).expect("oracle join build");
            }
            let probe_dev = probe.device();
            let mut out = Vec::new();
            for b in oracle_eval(probe, storage, ledger, stats) {
                charge(ledger, probe_dev, *device, &b);
                out.extend(op.push(b).expect("oracle join probe"));
            }
            out.extend(op.finish().expect("oracle join finish"));
            out
        }
        unary => {
            let input = unary.children()[0];
            let in_batches = oracle_eval(input, storage, ledger, stats);
            let mut op: Box<dyn Operator> = match unary {
                PhysNode::Filter {
                    predicate,
                    use_kernel,
                    ..
                } => {
                    assert!(!use_kernel, "property plans stay on the host path");
                    Box::new(FilterOp::host(predicate.clone(), input.schema()))
                }
                PhysNode::Project { exprs, schema, .. } => {
                    Box::new(ProjectOp::new(exprs.clone(), schema.clone()))
                }
                PhysNode::Aggregate {
                    group_by,
                    aggs,
                    mode,
                    final_schema,
                    ..
                } => Box::new(
                    HashAggOp::new(
                        group_by.clone(),
                        aggs.clone(),
                        *mode,
                        &input.schema(),
                        final_schema.clone(),
                    )
                    .expect("oracle agg"),
                ),
                PhysNode::Sort { keys, .. } => Box::new(SortOp::new(keys.clone(), input.schema())),
                PhysNode::TopK { keys, k, .. } => {
                    Box::new(TopKOp::new(keys.clone(), *k, input.schema()))
                }
                PhysNode::Limit { n, .. } => Box::new(LimitOp::new(*n, input.schema())),
                _ => unreachable!("leaves and joins handled above"),
            };
            let (from, to) = (input.device(), unary.device());
            let mut out = Vec::new();
            for b in in_batches {
                charge(ledger, from, to, &b);
                out.extend(op.push(b).expect("oracle push"));
            }
            out.extend(op.finish().expect("oracle finish"));
            out
        }
    }
}

/// Full oracle run: batches + ledger (including the final hop to the
/// consumer) + scan stats.
fn oracle(
    plan: &PhysicalPlan,
    storage: Option<&SmartStorage>,
) -> (Vec<Batch>, MovementLedger, Vec<ScanStats>) {
    let mut ledger = MovementLedger::new();
    let mut stats = Vec::new();
    let batches = oracle_eval(&plan.root, storage, &mut ledger, &mut stats);
    for b in &batches {
        ledger.charge(
            plan.root.device(),
            None,
            b.byte_size() as u64,
            b.rows() as u64,
        );
    }
    (batches, ledger, stats)
}

// ----------------------------------------------------------- comparisons

fn ledger_edges(ledger: &MovementLedger) -> Vec<(DeviceId, DeviceId, u64, u64, u64)> {
    ledger
        .edges()
        .map(|(&(f, t), s)| (f, t, s.bytes, s.batches, s.rows))
        .collect()
}

fn assert_equivalent(
    got: &rheo::core::exec::ExecOutcome,
    want_batches: &[Batch],
    want_ledger: &MovementLedger,
    want_stats: &[ScanStats],
) {
    // Bit-identical streams: same batches, same order, same boundaries.
    assert_eq!(
        format!("{:?}", got.batches),
        format!("{want_batches:?}"),
        "output batches diverge from the seed semantics"
    );
    assert_eq!(
        ledger_edges(&got.ledger),
        ledger_edges(want_ledger),
        "cross-device ledger edges diverge"
    );
    assert_eq!(got.ledger.local_bytes(), want_ledger.local_bytes());
    assert_eq!(
        got.ledger.cross_device_bytes(),
        want_ledger.cross_device_bytes()
    );
    assert_eq!(got.scan_stats, want_stats, "scan stats diverge");
}

// ------------------------------------------------------- plan generation

struct PlanGen {
    devices: Vec<Option<DeviceId>>,
}

impl PlanGen {
    fn new(topo: &Topology) -> PlanGen {
        PlanGen {
            devices: vec![
                None,
                Some(topo.expect_device("compute0.cpu")),
                Some(topo.expect_device("compute0.nic")),
                Some(topo.expect_device("storage.ssd")),
            ],
        }
    }

    fn device(&self, gen: &mut Gen) -> Option<DeviceId> {
        *gen.pick(&self.devices)
    }

    /// Placement for stateful ops (breakers, joins): only unplaced or the
    /// CPU. Streaming devices cannot host unbounded state, and the graph
    /// verifier now rejects such placements before execution.
    fn stateful_device(&self, gen: &mut Gen) -> Option<DeviceId> {
        *gen.pick(&self.devices[..2])
    }

    fn base_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Int64),
            Field::new("g", DataType::Int64),
        ])
        .into_ref()
    }

    /// Random rows split into random batch boundaries (possibly none).
    fn values(&self, gen: &mut Gen) -> PhysNode {
        let rows = gen.usize_in(0, 40);
        let mut ids = Vec::with_capacity(rows);
        let mut vs = Vec::with_capacity(rows);
        let mut gs = Vec::with_capacity(rows);
        for _ in 0..rows {
            ids.push(gen.i64_in(-20, 100));
            vs.push(gen.i64_in(-1_000, 1_000));
            gs.push(gen.i64_in(0, 4));
        }
        let mut batches = Vec::new();
        let mut at = 0usize;
        while at < rows {
            let len = gen.usize_in(1, 7).min(rows - at);
            batches.push(batch_of(vec![
                ("id", Column::from_i64(ids[at..at + len].to_vec())),
                ("v", Column::from_i64(vs[at..at + len].to_vec())),
                ("g", Column::from_i64(gs[at..at + len].to_vec())),
            ]));
            at += len;
        }
        PhysNode::Values {
            batches,
            schema: Self::base_schema(),
            device: self.device(gen),
        }
    }

    /// A chain of 0..=3 filters/identity-projects over the base columns.
    fn chain(&self, gen: &mut Gen, mut node: PhysNode) -> PhysNode {
        for _ in 0..gen.usize_in(0, 3) {
            node = if gen.bool() {
                PhysNode::Filter {
                    input: Box::new(node),
                    predicate: col("id").lt(lit(gen.i64_in(-10, 90))),
                    device: self.device(gen),
                    use_kernel: false,
                }
            } else {
                PhysNode::Project {
                    exprs: vec![
                        (col("id"), "id".to_string()),
                        (col("v"), "v".to_string()),
                        (col("g"), "g".to_string()),
                    ],
                    schema: Self::base_schema(),
                    input: Box::new(node),
                    device: self.device(gen),
                }
            };
        }
        node
    }

    fn final_agg(&self, gen: &mut Gen, node: PhysNode) -> PhysNode {
        let final_schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("n", DataType::Int64),
            Field::new("s", DataType::Int64),
        ])
        .into_ref();
        PhysNode::Aggregate {
            input: Box::new(node),
            group_by: vec!["g".into()],
            aggs: vec![AggCall::count_star("n"), AggCall::new(AggFn::Sum, "v", "s")],
            mode: AggMode::Final,
            final_schema,
            device: self.stateful_device(gen),
        }
    }

    /// Optional breaker / trailer on top of a chain.
    fn terminal(&self, gen: &mut Gen, node: PhysNode) -> PhysNode {
        let node = match gen.usize_in(0, 3) {
            0 => node,
            1 => self.final_agg(gen, node),
            2 => PhysNode::Sort {
                input: Box::new(node),
                keys: vec![("id".into(), gen.bool()), ("v".into(), true)],
                device: self.stateful_device(gen),
            },
            _ => PhysNode::TopK {
                input: Box::new(node),
                keys: vec![("id".into(), gen.bool()), ("v".into(), true)],
                k: gen.usize_in(0, 12) as u64,
                device: self.stateful_device(gen),
            },
        };
        if gen.bool() {
            PhysNode::Limit {
                input: Box::new(node),
                n: gen.usize_in(0, 15) as u64,
            }
        } else {
            node
        }
    }

    /// A small build side with column names disjoint from the base schema.
    fn build_side(&self, gen: &mut Gen) -> PhysNode {
        let rows = gen.usize_in(0, 8);
        let mut bks = Vec::with_capacity(rows);
        let mut bvs = Vec::with_capacity(rows);
        for _ in 0..rows {
            bks.push(gen.i64_in(-20, 100));
            bvs.push(gen.i64_in(0, 9));
        }
        let batches = if rows == 0 {
            vec![]
        } else {
            vec![batch_of(vec![
                ("bk", Column::from_i64(bks)),
                ("bv", Column::from_i64(bvs)),
            ])]
        };
        PhysNode::Values {
            batches,
            schema: Schema::new(vec![
                Field::new("bk", DataType::Int64),
                Field::new("bv", DataType::Int64),
            ])
            .into_ref(),
            device: self.device(gen),
        }
    }

    fn join(&self, gen: &mut Gen, probe: PhysNode) -> PhysNode {
        let build = self.build_side(gen);
        let mut fields: Vec<Field> = build.schema().fields().to_vec();
        fields.extend(probe.schema().fields().to_vec());
        PhysNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(probe),
            on: vec![("bk".into(), "id".into())],
            join_type: JoinType::Inner,
            schema: Schema::new(fields).into_ref(),
            device: self.stateful_device(gen),
        }
    }

    fn plan(&self, gen: &mut Gen) -> PhysicalPlan {
        let source = self.values(gen);
        let mut node = self.chain(gen, source);
        if gen.usize_in(0, 3) == 0 {
            node = self.join(gen, node);
            node = self.chain(gen, node);
        }
        node = self.terminal(gen, node);
        PhysicalPlan::new(node, "prop")
    }
}

// ------------------------------------------------------------ properties

#[test]
fn graph_push_matches_seed_semantics_on_random_plans() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = PlanGen::new(&topo);
    check("pipeline-graph-push-equivalence", 96, |gen: &mut Gen| {
        let plan = gens.plan(gen);
        let env = ExecEnv {
            storage: None,
            topology: Some(&topo),
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        };
        let got = execute(&plan, &env).expect("graph-driven execution");
        let (batches, ledger, stats) = oracle(&plan, None);
        assert_equivalent(&got, &batches, &ledger, &stats);
    });
}

#[test]
fn fan_out_matches_push_rows_and_ledger() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = PlanGen::new(&topo);
    check("pipeline-graph-fan-out-equivalence", 48, |gen: &mut Gen| {
        // The generator's shapes minus joins and sorts: a chain, an
        // optional final aggregate, an optional limit.
        let source = gens.values(gen);
        let mut node = gens.chain(gen, source);
        if gen.bool() {
            node = gens.final_agg(gen, node);
        }
        let limited = gen.bool();
        if limited {
            node = PhysNode::Limit {
                input: Box::new(node),
                n: gen.usize_in(0, 15) as u64,
            };
        }
        let plan = PhysicalPlan::new(node, "prop-fan-out");
        let fanned = fan_out(&plan, gen.usize_in(1, 4));
        if limited {
            assert!(matches!(fanned, Err(EngineError::Plan(_))), "{fanned:?}");
            return;
        }
        let fanned = fanned.expect("supported shape fans out");
        let env = ExecEnv {
            storage: None,
            topology: Some(&topo),
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        };
        let sequential = execute(&plan, &env).expect("push execution");
        let parallel = execute(&fanned, &env).expect("fan-out execution");
        let rows = |batches: &[Batch]| -> Vec<Vec<rheo::data::Scalar>> {
            if batches.is_empty() {
                return Vec::new();
            }
            Batch::concat(batches).expect("concat").canonical_rows()
        };
        assert_eq!(
            rows(&parallel.batches),
            rows(&sequential.batches),
            "fan-out rows diverge from push rows"
        );
        // Fragments cross devices exactly where the sequential chain did;
        // only the partials' hop to the gather adds (local) bytes.
        assert_eq!(
            ledger_edges(&parallel.ledger),
            ledger_edges(&sequential.ledger)
        );
        let graph = PipelineGraph::compile(&fanned, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let report = deadlock::analyze(&graph);
        assert!(report.is_verified_deadlock_free(), "{:?}", report.findings);
    });
}

#[test]
fn fan_out_refuses_joins_and_sorts() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = PlanGen::new(&topo);
    let mut gen = Gen::new(7);
    let probe = gens.values(&mut gen);
    let join = gens.join(&mut gen, probe);
    let sort = PhysNode::Sort {
        input: Box::new(gens.values(&mut gen)),
        keys: vec![("id".into(), true)],
        device: None,
    };
    for node in [join, sort] {
        let plan = PhysicalPlan::new(node, "unsupported");
        assert!(matches!(fan_out(&plan, 2), Err(EngineError::Plan(_))));
    }
}

#[test]
fn graph_push_matches_seed_semantics_with_storage_scans() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let ssd = topo.expect_device("storage.ssd");
    let cpu = topo.expect_device("compute0.cpu");

    let tables = TableStore::new(MemObjectStore::shared());
    let rows: Vec<i64> = (0..1_000).collect();
    let groups: Vec<i64> = (0..1_000).map(|i| i % 7).collect();
    tables
        .create_and_load(
            "t",
            &[batch_of(vec![
                ("id", Column::from_i64(rows)),
                ("g", Column::from_i64(groups)),
            ])],
        )
        .expect("load");
    let storage = SmartStorage::new(tables);

    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("g", DataType::Int64),
    ])
    .into_ref();
    let scan = PhysNode::StorageScan {
        table: "t".into(),
        request: ScanRequest::full().filter(StoragePredicate::cmp("id", CmpOp::Lt, 400i64)),
        schema: schema.clone(),
        device: Some(ssd),
    };
    let agg = PhysNode::Aggregate {
        input: Box::new(scan),
        group_by: vec!["g".into()],
        aggs: vec![AggCall::count_star("n")],
        mode: AggMode::Final,
        final_schema: Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("n", DataType::Int64),
        ])
        .into_ref(),
        device: Some(cpu),
    };
    let plan = PhysicalPlan::new(agg, "scan-prop");

    let env = ExecEnv {
        storage: Some(&storage),
        topology: Some(&topo),
        wire: None,
        tracer: None,
        gate: None,
        codec: CodecPolicy::AsCompiled,
    };
    let got = execute(&plan, &env).expect("graph-driven execution");
    let (batches, ledger, stats) = oracle(&plan, Some(&storage));
    assert_equivalent(&got, &batches, &ledger, &stats);
    assert_eq!(got.scan_stats.len(), 1);
    assert!(
        got.ledger.cross_device_bytes() > 0,
        "ssd→cpu hop must be charged"
    );
}
