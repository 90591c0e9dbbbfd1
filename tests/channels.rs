//! The channel runtime: every fabric edge and every exchange runs as one
//! kind of credit-bounded channel ([`PipelineGraph::channels`]). These
//! tests pin what that one runtime guarantees on exchange plans: a codec
//! decision only where a codec was compiled or [`CodecPolicy::Auto`] asks
//! for one, a producer failure that reaches every consumer of its
//! channel, typed, without hanging, and a consumer's own failure that ends
//! the query.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use rheo::bench::workload;
use rheo::codec::wire::WireOptions;
use rheo::core::error::{EngineError, Result};
use rheo::core::exec::push::{execute, execute_graph, CodecPolicy, ExecEnv, ExecGate};
use rheo::core::expr::{col, lit};
use rheo::core::logical::LogicalPlan;
use rheo::core::physical::{PhysNode, PhysicalPlan};
use rheo::core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use rheo::core::scaleout::{cluster_hash_join_plan, fan_out, split_round_robin};
use rheo::data::{Batch, SchemaRef};
use rheo::fabric::{ClusterConfig, Topology};

const ON: (&str, &str) = ("o_orderkey", "l_orderkey");

fn join_schema(orders: &Batch, lineitem: &Batch) -> SchemaRef {
    LogicalPlan::values(vec![orders.clone()])
        .unwrap()
        .join(
            LogicalPlan::values(vec![lineitem.clone()]).unwrap(),
            vec![ON],
        )
        .unwrap()
        .schema()
}

/// The smart-NIC partitioned join over the topology's hosts, with each
/// host's share of each table in the given batches.
fn cluster_join(
    topology: &Topology,
    orders: &Batch,
    order_parts: &[Vec<Batch>],
    lineitem: &Batch,
    lineitem_parts: &[Vec<Batch>],
) -> PhysicalPlan {
    cluster_hash_join_plan(
        topology,
        order_parts,
        orders.schema().clone(),
        lineitem_parts,
        lineitem.schema().clone(),
        ON,
        join_schema(orders, lineitem),
        true,
    )
    .expect("cluster plan")
}

/// `batch` in `rows`-row pieces, dealt alternately to two hosts.
fn deal(batch: &Batch, rows: usize) -> Vec<Vec<Batch>> {
    let mut parts = vec![Vec::new(), Vec::new()];
    for (i, piece) in batch.split(rows).unwrap().into_iter().enumerate() {
        parts[i % 2].push(piece);
    }
    parts
}

fn env<'a>(topology: &'a Topology, codec: CodecPolicy) -> ExecEnv<'a> {
    ExecEnv {
        topology: Some(topology),
        wire: Some(WireOptions::plain()),
        codec,
        ..ExecEnv::in_memory()
    }
}

/// Fails every batch boundary of one pipeline (or of all, for `None`)
/// from its `after`-th on with a placement error.
struct FailingGate {
    pipeline: Option<usize>,
    after: usize,
    seen: AtomicUsize,
}

impl ExecGate for FailingGate {
    fn acquire(&self, pipeline: usize) -> Result<()> {
        if self.pipeline.is_some_and(|p| p != pipeline) {
            return Ok(());
        }
        if self.seen.fetch_add(1, Ordering::SeqCst) >= self.after {
            return Err(EngineError::Placement("device lost mid-query".into()));
        }
        Ok(())
    }
}

#[test]
fn exchange_pairs_honor_as_compiled() {
    // Every exchange pair edge compiles plain. Under the default policy
    // none may price or record a codec; under Auto each of the 2x2 pairs
    // of both hash exchanges and the 2 gather pairs decides once.
    let topology = Topology::cluster(2, &ClusterConfig::default());
    let orders = workload::orders(2000, 1);
    let lineitem = workload::lineitem(8000, 1);
    let plan = cluster_join(
        &topology,
        &orders,
        &split_round_robin(&orders, 2),
        &lineitem,
        &split_round_robin(&lineitem, 2),
    );
    let compiled = execute(&plan, &env(&topology, CodecPolicy::AsCompiled)).unwrap();
    let auto = execute(&plan, &env(&topology, CodecPolicy::Auto)).unwrap();
    assert!(
        compiled.codec_decisions.is_empty(),
        "{:?}",
        compiled.codec_decisions
    );
    assert_eq!(auto.codec_decisions.len(), 10);
    assert!(auto.codec_decisions.iter().all(|d| d.auto));
    assert_eq!(compiled.ledger.cross_device_bytes(), 820_643);
    assert_eq!(auto.ledger.cross_device_bytes(), 820_643);
    assert_eq!(
        compiled.collect().unwrap().canonical_rows(),
        auto.collect().unwrap().canonical_rows()
    );
}

#[test]
fn one_part_channel_returns_the_producers_typed_error() {
    // fan_out's fragments gather into one part; both fail in the gate.
    let orders = workload::orders(2000, 1);
    let plan = PhysicalPlan::new(
        PhysNode::Filter {
            input: Box::new(PhysNode::Values {
                schema: orders.schema().clone(),
                batches: orders.split(250).unwrap(),
                device: None,
            }),
            predicate: col("o_orderkey").lt(lit(1000)),
            device: None,
            use_kernel: false,
        },
        "filter",
    );
    let env = ExecEnv {
        gate: Some(Arc::new(FailingGate {
            pipeline: None,
            after: 0,
            seen: AtomicUsize::new(0),
        })),
        ..ExecEnv::in_memory()
    };
    let err = execute(&fan_out(&plan, 2).unwrap(), &env).expect_err("gate fails the query");
    assert!(matches!(err, EngineError::Placement(_)), "{err:?}");
}

#[test]
fn failing_build_producer_fails_every_join_fragment() {
    // Two 2-part hash exchanges, each producer carrying 20 batches against
    // 8 credits per part queue. The build exchange's first producer fails
    // after 3 batches: both join fragments must fail, or the fragment
    // that went on would drain the probe exchange while its producers
    // block on the part nobody drains.
    let topology = Topology::cluster(2, &ClusterConfig::default());
    let orders = workload::orders(2000, 1);
    let lineitem = workload::lineitem(8000, 1);
    let deal = |batch: &Batch, rows: usize| -> Vec<Vec<Batch>> {
        let mut parts = vec![Vec::new(), Vec::new()];
        for (i, piece) in batch.split(rows).unwrap().into_iter().enumerate() {
            parts[i % 2].push(piece);
        }
        parts
    };
    let plan = cluster_join(
        &topology,
        &orders,
        &deal(&orders, 50),
        &lineitem,
        &deal(&lineitem, 200),
    );
    let graph = PipelineGraph::compile(&plan, None, Some(&topology), DEFAULT_QUEUE_CAPACITY);
    let channels = graph.channels();
    let build = &channels[0];
    assert_eq!((build.producers.len(), build.parts), (2, 2));
    assert!(build.credits.iter().all(|&c| c < 20));
    let gate = Arc::new(FailingGate {
        pipeline: Some(build.producers[0]),
        after: 3,
        seen: AtomicUsize::new(0),
    });
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let gated = ExecEnv {
            gate: Some(gate),
            ..env(&topology, CodecPolicy::AsCompiled)
        };
        let _ = done.send(execute_graph(&graph, &gated, "failing").map(|o| o.rows()));
    });
    let err = result
        .recv_timeout(Duration::from_secs(20))
        .expect("query returns within 20 s")
        .expect_err("a failed build producer fails the query");
    assert!(err.to_string().contains("device lost mid-query"), "{err}");
}

#[test]
fn failing_join_fragment_ends_the_query() {
    // The same two-exchange join, but the failure is a consumer's own:
    // host 0's build side runs `o_orderkey AND o_orderkey`, a type error
    // at its first batch. Host 0 never drains its probe part, so the probe
    // producers block on it unless the failure aborts the whole query.
    let topology = Topology::cluster(2, &ClusterConfig::default());
    let orders = workload::orders(2000, 1);
    let lineitem = workload::lineitem(8000, 1);
    let mut plan = cluster_join(
        &topology,
        &orders,
        &deal(&orders, 50),
        &lineitem,
        &deal(&lineitem, 200),
    );
    let PhysNode::Exchange { inputs, .. } = &mut plan.root else {
        panic!("the plan gathers its join fragments");
    };
    let PhysNode::HashJoin { build, device, .. } = &mut inputs[0] else {
        panic!("host 0 runs a join fragment");
    };
    **build = PhysNode::Filter {
        input: build.clone(),
        predicate: col("o_orderkey").and(col("o_orderkey")),
        device: *device,
        use_kernel: false,
    };
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let env = env(&topology, CodecPolicy::AsCompiled);
        let _ = done.send(execute(&plan, &env).map(|o| o.rows()));
    });
    let err = result
        .recv_timeout(Duration::from_secs(10))
        .expect("query returns within 10 s")
        .expect_err("a failed join fragment fails the query");
    assert!(matches!(err, EngineError::Data(_)), "{err:?}");
}
