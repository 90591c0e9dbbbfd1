//! Mutation-based property tests for the pipeline-graph verifier.
//!
//! Two directions:
//!
//! - **Soundness of compile**: every graph the compiler emits for a random
//!   legally-placed plan verifies clean and is proven deadlock-free by the
//!   credit-flow analysis.
//! - **Sensitivity of verify**: five single mutations of a clean graph —
//!   swapped route, placement on an incapable device, dropped join-build
//!   wiring, zero credit capacity, schema break at a pipeline cut — are
//!   each rejected with the expected typed [`VerifyError`] variant.
//!
//! Seeds are deterministic per property (see `rheo::check`); failing seeds
//! land in `proptest-regressions/` and replay first on later runs.

use rheo::analysis::deadlock;
use rheo::check::{check, Gen};
use rheo::core::expr::{col, lit};
use rheo::core::logical::{AggCall, AggFn, JoinType};
use rheo::core::ops::AggMode;
use rheo::core::physical::{PhysNode, PhysicalPlan};
use rheo::core::pipeline::{EdgeKind, PipelineGraph, VerifyError, DEFAULT_QUEUE_CAPACITY};
use rheo::data::batch::batch_of;
use rheo::data::{Column, DataType, Field, Schema, SchemaRef};
use rheo::fabric::topology::DisaggregatedConfig;
use rheo::fabric::{DeviceId, Topology};

// ------------------------------------------------------- plan generation

/// Random placed plans with a guaranteed fabric cut: the source chain
/// lives on the NIC (or SSD), the stateful tip on the CPU.
struct MutGen {
    nic: DeviceId,
    ssd: DeviceId,
    cpu: DeviceId,
}

impl MutGen {
    fn new(topo: &Topology) -> MutGen {
        MutGen {
            nic: topo.expect_device("compute0.nic"),
            ssd: topo.expect_device("storage.ssd"),
            cpu: topo.expect_device("compute0.cpu"),
        }
    }

    fn base_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Int64),
            Field::new("g", DataType::Int64),
        ])
        .into_ref()
    }

    /// Streaming-side placement: NIC or SSD, both capable of filters.
    fn edge_device(&self, gen: &mut Gen) -> DeviceId {
        *gen.pick(&[self.nic, self.ssd])
    }

    fn values(&self, gen: &mut Gen, device: DeviceId) -> PhysNode {
        let rows = gen.usize_in(1, 24);
        let mut ids = Vec::with_capacity(rows);
        let mut vs = Vec::with_capacity(rows);
        let mut gs = Vec::with_capacity(rows);
        for _ in 0..rows {
            ids.push(gen.i64_in(-20, 100));
            vs.push(gen.i64_in(-1_000, 1_000));
            gs.push(gen.i64_in(0, 4));
        }
        PhysNode::Values {
            batches: vec![batch_of(vec![
                ("id", Column::from_i64(ids)),
                ("v", Column::from_i64(vs)),
                ("g", Column::from_i64(gs)),
            ])],
            schema: Self::base_schema(),
            device: Some(device),
        }
    }

    /// 0..=2 filters/identity-projects, all on the streaming device.
    fn chain(&self, gen: &mut Gen, mut node: PhysNode, device: DeviceId) -> PhysNode {
        for _ in 0..gen.usize_in(0, 2) {
            node = if gen.bool() {
                PhysNode::Filter {
                    input: Box::new(node),
                    predicate: col("id").lt(lit(gen.i64_in(-10, 90))),
                    device: Some(device),
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
                    device: Some(device),
                }
            };
        }
        node
    }

    /// A breaker on the CPU: sort, top-k, or final aggregate.
    fn breaker(&self, gen: &mut Gen, node: PhysNode) -> PhysNode {
        match gen.usize_in(0, 2) {
            0 => PhysNode::Sort {
                input: Box::new(node),
                keys: vec![("id".into(), gen.bool()), ("v".into(), true)],
                device: Some(self.cpu),
            },
            1 => PhysNode::TopK {
                input: Box::new(node),
                keys: vec![("id".into(), gen.bool()), ("v".into(), true)],
                k: gen.usize_in(1, 12) as u64,
                device: Some(self.cpu),
            },
            _ => PhysNode::Aggregate {
                input: Box::new(node),
                group_by: vec!["g".into()],
                aggs: vec![AggCall::count_star("n"), AggCall::new(AggFn::Sum, "v", "s")],
                mode: AggMode::Final,
                final_schema: Schema::new(vec![
                    Field::new("g", DataType::Int64),
                    Field::new("n", DataType::Int64),
                    Field::new("s", DataType::Int64),
                ])
                .into_ref(),
                device: Some(self.cpu),
            },
        }
    }

    /// A hash join on the CPU whose build side streams in from the NIC.
    fn join(&self, gen: &mut Gen, probe: PhysNode) -> PhysNode {
        let rows = gen.usize_in(1, 8);
        let mut bks = Vec::with_capacity(rows);
        for _ in 0..rows {
            bks.push(gen.i64_in(-20, 100));
        }
        let build = PhysNode::Values {
            batches: vec![batch_of(vec![("bk", Column::from_i64(bks))])],
            schema: Schema::new(vec![Field::new("bk", DataType::Int64)]).into_ref(),
            device: Some(self.nic),
        };
        let mut fields: Vec<Field> = build.schema().fields().to_vec();
        fields.extend(probe.schema().fields().to_vec());
        PhysNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(probe),
            on: vec![("bk".into(), "id".into())],
            join_type: JoinType::Inner,
            schema: Schema::new(fields).into_ref(),
            device: Some(self.cpu),
        }
    }

    /// A random plan with at least one fabric edge and one breaker.
    /// `with_join`: `Some(true)` always joins, `Some(false)` never,
    /// `None` joins a third of the time.
    fn plan(&self, gen: &mut Gen, with_join: Option<bool>) -> PhysicalPlan {
        let dev = self.edge_device(gen);
        let source = self.values(gen, dev);
        let mut node = self.chain(gen, source, dev);
        if with_join.unwrap_or_else(|| gen.usize_in(0, 2) == 0) {
            node = self.join(gen, node);
        }
        node = self.breaker(gen, node);
        PhysicalPlan::new(node, "verify-mutations")
    }

    fn compile(&self, gen: &mut Gen, topo: &Topology, with_join: Option<bool>) -> PipelineGraph {
        PipelineGraph::compile(
            &self.plan(gen, with_join),
            None,
            Some(topo),
            DEFAULT_QUEUE_CAPACITY,
        )
    }
}

fn has<F: Fn(&VerifyError) -> bool>(errs: &[VerifyError], f: F) -> bool {
    errs.iter().any(f)
}

// ------------------------------------------------------------ properties

#[test]
fn random_placed_plans_verify_clean_and_deadlock_free() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = MutGen::new(&topo);
    check("verify-random-plans-clean", 64, |gen: &mut Gen| {
        let g = gens.compile(gen, &topo, None);
        g.verify(Some(&topo))
            .expect("compiled graph verifies clean");
        let r = deadlock::analyze(&g);
        assert!(r.is_deadlock_free(), "deadlock findings: {:?}", r.findings);
    });
}

#[test]
fn mutation_swapped_route_is_rejected() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = MutGen::new(&topo);
    check("verify-mut-swapped-route", 32, |gen: &mut Gen| {
        let mut g = gens.compile(gen, &topo, None);
        // Swap in a route between two unrelated adjacent devices.
        let ssd = topo.expect_device("storage.ssd");
        let snic = topo.expect_device("storage.nic");
        let bogus = topo.route(ssd, snic).expect("ssd and its nic are adjacent");
        let fabric: Vec<usize> = g
            .edges
            .iter()
            .filter(|e| {
                matches!(e.kind, EdgeKind::Fabric { .. })
                    && !(e.from_device == Some(ssd) && e.to_device == Some(snic))
            })
            .map(|e| e.id)
            .collect();
        let victim = *gen.pick(&fabric);
        g.edges[victim].kind = EdgeKind::Fabric { route: Some(bogus) };
        let errs = g.verify(Some(&topo)).expect_err("swapped route must fail");
        assert!(
            has(
                &errs,
                |e| matches!(e, VerifyError::RouteMismatch { edge, .. } if *edge == victim)
            ),
            "expected RouteMismatch for edge {victim}, got {errs:?}"
        );
    });
}

#[test]
fn mutation_illegal_placement_is_rejected() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = MutGen::new(&topo);
    check("verify-mut-illegal-placement", 32, |gen: &mut Gen| {
        let mut g = gens.compile(gen, &topo, None);
        // Move the root pipeline's breaker onto a streaming device that
        // cannot host unbounded state.
        let nic = topo.expect_device("compute0.nic");
        let root = g.root;
        let op = g.pipelines[root].ops.last_mut().expect("breaker at tip");
        op.device = Some(nic);
        let errs = g
            .verify(Some(&topo))
            .expect_err("illegal placement must fail");
        assert!(
            has(&errs, |e| matches!(e, VerifyError::IllegalPlacement { .. })),
            "expected IllegalPlacement, got {errs:?}"
        );
    });
}

#[test]
fn mutation_dropped_join_build_is_rejected() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = MutGen::new(&topo);
    check("verify-mut-dropped-join-build", 32, |gen: &mut Gen| {
        let mut g = gens.compile(gen, &topo, Some(true));
        // Sever every probe's reference to its build edge.
        for p in &mut g.pipelines {
            for op in &mut p.ops {
                op.build_edge = None;
            }
        }
        let errs = g
            .verify(Some(&topo))
            .expect_err("dropped join build must fail");
        assert!(
            has(&errs, |e| matches!(e, VerifyError::MissingJoinBuild { .. })),
            "expected MissingJoinBuild, got {errs:?}"
        );
        assert!(
            has(&errs, |e| matches!(
                e,
                VerifyError::DanglingJoinBuild { .. }
            )),
            "expected DanglingJoinBuild, got {errs:?}"
        );
    });
}

#[test]
fn mutation_zero_capacity_is_rejected_by_verify_and_deadlock() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = MutGen::new(&topo);
    check("verify-mut-zero-capacity", 32, |gen: &mut Gen| {
        let mut g = gens.compile(gen, &topo, None);
        let fabric: Vec<usize> = g
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Fabric { .. }))
            .map(|e| e.id)
            .collect();
        let victim = *gen.pick(&fabric);
        g.edges[victim].queue_capacity = 0;
        let errs = g.verify(Some(&topo)).expect_err("zero capacity must fail");
        assert!(
            has(
                &errs,
                |e| matches!(e, VerifyError::ZeroCapacity { edge } if *edge == victim)
            ),
            "expected ZeroCapacity for edge {victim}, got {errs:?}"
        );
        // The credit-flow analysis independently rejects the same graph.
        let r = deadlock::analyze(&g);
        assert!(
            r.findings.iter().any(
                |f| matches!(f, deadlock::DeadlockFinding::ZeroCapacity { edge } if *edge == victim)
            ),
            "deadlock analysis missed the zero-capacity channel: {:?}",
            r.findings
        );
    });
}

#[test]
fn mutation_broken_codec_pair_is_rejected() {
    use rheo::codec::edge::EdgeEncoding;
    use rheo::fabric::OpClass;
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = MutGen::new(&topo);
    // The near-memory accelerator decompresses but cannot compress.
    let nma = topo.expect_device("compute0.mem");
    check("verify-mut-broken-codec-pair", 32, |gen: &mut Gen| {
        // A limit above the CPU breaker adds a local edge to the NIC or
        // SSD fabric edge.
        let plan = gens.plan(gen, None);
        let limit = PhysNode::Limit {
            input: Box::new(plan.root),
            n: 1_000,
        };
        let mut g = PipelineGraph::compile(
            &PhysicalPlan::new(limit, "verify-mutations"),
            None,
            Some(&topo),
            DEFAULT_QUEUE_CAPACITY,
        );
        // Fabric edges whose endpoints can legally host the codec.
        let eligible: Vec<usize> = g
            .edges
            .iter()
            .filter(|e| {
                matches!(e.kind, EdgeKind::Fabric { .. })
                    && e.from_device
                        .is_some_and(|d| topo.device(d).profile.supports(OpClass::Compress))
                    && e.to_device
                        .is_some_and(|d| topo.device(d).profile.supports(OpClass::Decompress))
            })
            .map(|e| e.id)
            .collect();
        let local: Vec<usize> = g
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Local))
            .map(|e| e.id)
            .collect();
        let encoding = *gen.pick(&[
            EdgeEncoding::Columnar,
            EdgeEncoding::Lz,
            EdgeEncoding::ColumnarLz,
        ]);
        let mut victim = *gen.pick(&eligible);
        g.set_edge_encoding(victim, encoding, 0.5);
        g.verify(Some(&topo)).expect("a codec edge verifies clean");
        // Break the codec one of three ways; verify must name the edge.
        let pairing = match gen.usize_in(0, 2) {
            0 => {
                // A codec on a local edge: nothing crosses the fabric.
                g.set_edge_encoding(victim, EdgeEncoding::Plain, 1.0);
                victim = *gen.pick(&local);
                g.set_edge_encoding(victim, encoding, 0.5);
                true
            }
            1 => {
                let ratio = *gen.pick(&[0.0, -0.5, f64::NAN, f64::INFINITY]);
                g.set_edge_encoding(victim, encoding, ratio);
                true
            }
            _ => {
                // Move the producer tip, and with it the encode, onto a
                // device without the Compress class.
                let from = g.edges[victim].from;
                if let Some(op) = g.pipelines[from].ops.last_mut() {
                    op.device = Some(nma);
                }
                g.edges[victim].from_device = Some(nma);
                false
            }
        };
        let errs = g.verify(Some(&topo)).expect_err("broken codec must fail");
        let named = has(&errs, |e| match e {
            VerifyError::CodecPairingBroken { edge, .. } => pairing && *edge == victim,
            VerifyError::IllegalCodecPlacement { edge, class, .. } => {
                !pairing && *edge == victim && *class == OpClass::Compress
            }
            _ => false,
        });
        assert!(
            named,
            "expected a codec error for edge {victim}, got {errs:?}"
        );
    });
}

#[test]
fn mutation_schema_break_at_cut_is_rejected() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let gens = MutGen::new(&topo);
    check("verify-mut-schema-break", 32, |gen: &mut Gen| {
        // Join-free plans: the root pipeline's first op is then always a
        // breaker fed over a cut, so a mutation target always exists.
        let mut g = gens.compile(gen, &topo, Some(false));
        // Declare a wrong input layout on the first op of some pipeline fed
        // over a cut (breakers re-declare their input schema there).
        let wrong = Schema::new(vec![Field::new("id", DataType::Float64)]).into_ref();
        use rheo::core::pipeline::OperatorSpec;
        let candidates: Vec<usize> = g
            .edges
            .iter()
            .filter(|e| {
                g.pipelines[e.to].ops.first().is_some_and(|op| {
                    matches!(
                        op.spec,
                        OperatorSpec::Sort { .. }
                            | OperatorSpec::TopK { .. }
                            | OperatorSpec::Filter { .. }
                            | OperatorSpec::Aggregate { .. }
                    )
                })
            })
            .map(|e| e.to)
            .collect();
        let victim = *gen.pick(&candidates);
        match &mut g.pipelines[victim].ops[0].spec {
            OperatorSpec::Sort { input_schema, .. }
            | OperatorSpec::TopK { input_schema, .. }
            | OperatorSpec::Filter { input_schema, .. }
            | OperatorSpec::Aggregate { input_schema, .. } => *input_schema = wrong,
            other => panic!("unexpected op {other:?}"),
        }
        let errs = g.verify(Some(&topo)).expect_err("schema break must fail");
        assert!(
            has(&errs, |e| matches!(e, VerifyError::SchemaMismatch { .. })),
            "expected SchemaMismatch, got {errs:?}"
        );
    });
}

// --------------------------------------------------- streaming mutations
// Sensitivity of the streaming verify rules: each single mutation of a
// clean windowed-stream graph — dropped punctuation, forged punctuation,
// a window keyed on a missing or non-timestamp column, an unbounded
// source under a blocking breaker or a join build — is rejected with the
// expected typed variant.

mod streaming {
    use super::*;
    use rheo::core::ops::AggMode;
    use rheo::core::pipeline::{EdgeRole, OperatorSpec, PipelineSource};
    use rheo::core::streaming::{windowed_stream_plan, StreamSourceSpec, WindowSpec};

    /// A random bounded windowed-stream plan with the NIC-Rx placement
    /// (source + partial window on the NIC, merge on the CPU) so the
    /// partial->merge cut is a punctuated fabric Input edge.
    fn stream_graph(gen: &mut Gen, topo: &Topology) -> PipelineGraph {
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let spec = StreamSourceSpec {
            seed: gen.u64(),
            rows_per_batch: gen.usize_in(8, 64),
            batches: Some(gen.usize_in(2, 8) as u64),
            sensors: gen.usize_in(1, 6) as u64,
            start_ts: gen.i64_in(-32, 32),
            punct_every: gen.usize_in(1, 4) as u64,
        };
        let size = gen.i64_in(8, 64);
        let window = if gen.bool() {
            WindowSpec::tumbling(size)
        } else {
            WindowSpec::sliding(size, gen.i64_in(1, size))
        };
        let plan = windowed_stream_plan(
            &spec,
            window,
            vec!["sensor".into()],
            vec![AggCall::count_star("n")],
            gen.usize_in(1, 64),
            Some(nic),
            Some(nic),
            Some(cpu),
        )
        .expect("windowed stream plan");
        PipelineGraph::compile(&plan, None, Some(topo), DEFAULT_QUEUE_CAPACITY)
    }

    #[test]
    fn random_stream_graphs_verify_clean() {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        check("verify-stream-clean", 32, |gen: &mut Gen| {
            let g = stream_graph(gen, &topo);
            g.verify(Some(&topo)).expect("clean streaming graph");
            let r = deadlock::analyze(&g);
            assert!(r.is_deadlock_free(), "{:?}", r.findings);
        });
    }

    #[test]
    fn mutation_dropped_punctuation_is_rejected() {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        check("verify-mut-dropped-punctuation", 32, |gen: &mut Gen| {
            let mut g = stream_graph(gen, &topo);
            let punctuated: Vec<usize> = g
                .edges
                .iter()
                .filter(|e| e.role == EdgeRole::Input && e.punctuated)
                .map(|e| e.id)
                .collect();
            let victim = *gen.pick(&punctuated);
            g.edges[victim].punctuated = false;
            let errs = g
                .verify(Some(&topo))
                .expect_err("dropped punctuation must fail");
            assert!(
                has(
                    &errs,
                    |e| matches!(e, VerifyError::PunctuationDropped { edge } if *edge == victim)
                ),
                "expected PunctuationDropped for edge {victim}, got {errs:?}"
            );
        });
    }

    #[test]
    fn mutation_forged_punctuation_is_rejected() {
        // Punctuation on an edge whose producer spine has no stream
        // source, or on a non-Input edge, is bookkeeping corruption.
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let gens = MutGen::new(&topo);
        check("verify-mut-forged-punctuation", 32, |gen: &mut Gen| {
            let mut g = gens.compile(gen, &topo, Some(true));
            let victim = *gen.pick(&g.edges.iter().map(|e| e.id).collect::<Vec<_>>());
            g.edges[victim].punctuated = true;
            let errs = g
                .verify(Some(&topo))
                .expect_err("forged punctuation must fail");
            assert!(
                has(&errs, |e| matches!(e, VerifyError::Malformed { .. })),
                "expected Malformed, got {errs:?}"
            );
        });
    }

    #[test]
    fn mutation_window_on_non_timestamp_column_is_rejected() {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        check(
            "verify-mut-window-without-timestamp",
            32,
            |gen: &mut Gen| {
                let mut g = stream_graph(gen, &topo);
                // "level" exists but is Utf8; "ghost" does not exist at all.
                let column = if gen.bool() { "level" } else { "ghost" };
                let mut mutated = false;
                for p in &mut g.pipelines {
                    for op in &mut p.ops {
                        if let OperatorSpec::WindowAggregate { ts_col, mode, .. } = &mut op.spec {
                            if !matches!(mode, AggMode::Merge { .. }) && !mutated {
                                *ts_col = column.to_string();
                                mutated = true;
                            }
                        }
                    }
                }
                assert!(mutated, "plan carries a partial window op");
                let errs = g
                    .verify(Some(&topo))
                    .expect_err("non-timestamp window key must fail");
                assert!(
                    has(&errs, |e| matches!(
                        e,
                        VerifyError::WindowWithoutTimestamp { column: c, .. } if c == column
                    )),
                    "expected WindowWithoutTimestamp({column}), got {errs:?}"
                );
            },
        );
    }

    #[test]
    fn mutation_unhorizoned_source_under_breaker_is_rejected() {
        // A blocking aggregate over a *bounded* stream is legal; removing
        // the horizon (the single mutation) makes it an UnboundedBreaker.
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        check("verify-mut-unbounded-breaker", 32, |gen: &mut Gen| {
            let spec = StreamSourceSpec {
                seed: gen.u64(),
                batches: Some(gen.usize_in(1, 6) as u64),
                ..StreamSourceSpec::default()
            };
            let scan = PhysNode::StreamScan {
                spec,
                schema: StreamSourceSpec::schema(),
                device: Some(nic),
            };
            let plan = PhysicalPlan::new(
                PhysNode::Aggregate {
                    input: Box::new(scan),
                    group_by: vec!["sensor".into()],
                    aggs: vec![AggCall::count_star("n")],
                    mode: AggMode::Final,
                    final_schema: Schema::new(vec![
                        Field::new("sensor", DataType::Int64),
                        Field::nullable("n", DataType::Int64),
                    ])
                    .into_ref(),
                    device: Some(cpu),
                },
                "stream-breaker",
            );
            let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
            g.verify(Some(&topo))
                .expect("bounded stream under a breaker is legal");

            for p in &mut g.pipelines {
                if let PipelineSource::Stream { spec, .. } = &mut p.source {
                    spec.batches = None;
                }
            }
            let errs = g
                .verify(Some(&topo))
                .expect_err("unbounded breaker must fail");
            assert!(
                has(&errs, |e| matches!(e, VerifyError::UnboundedBreaker { .. })),
                "expected UnboundedBreaker, got {errs:?}"
            );
        });
    }

    #[test]
    fn mutation_unhorizoned_join_build_is_rejected() {
        // An unbounded stream on a hash-join build side can never finish
        // building: StreamingUnsupported.
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        check("verify-mut-unbounded-join-build", 32, |gen: &mut Gen| {
            let build = PhysNode::StreamScan {
                spec: StreamSourceSpec {
                    seed: gen.u64(),
                    batches: Some(gen.usize_in(1, 4) as u64),
                    ..StreamSourceSpec::default()
                },
                schema: StreamSourceSpec::schema(),
                device: Some(nic),
            };
            let probe = PhysNode::Values {
                batches: vec![batch_of(vec![(
                    "sensor_id",
                    Column::from_i64((0..gen.i64_in(1, 8)).collect()),
                )])],
                schema: Schema::new(vec![Field::new("sensor_id", DataType::Int64)]).into_ref(),
                device: Some(cpu),
            };
            let mut fields: Vec<Field> = build.schema().fields().to_vec();
            fields.extend(probe.schema().fields().to_vec());
            let plan = PhysicalPlan::new(
                PhysNode::HashJoin {
                    build: Box::new(build),
                    probe: Box::new(probe),
                    on: vec![("sensor".into(), "sensor_id".into())],
                    join_type: JoinType::Inner,
                    schema: Schema::new(fields).into_ref(),
                    device: Some(cpu),
                },
                "stream-build",
            );
            let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
            g.verify(Some(&topo))
                .expect("bounded stream build is legal");

            for p in &mut g.pipelines {
                if let PipelineSource::Stream { spec, .. } = &mut p.source {
                    spec.batches = None;
                }
            }
            let errs = g
                .verify(Some(&topo))
                .expect_err("unbounded join build must fail");
            assert!(
                has(&errs, |e| matches!(
                    e,
                    VerifyError::StreamingUnsupported { .. }
                )),
                "expected StreamingUnsupported, got {errs:?}"
            );
        });
    }
}
