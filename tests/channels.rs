//! The channel runtime: every fabric edge and every exchange runs as one
//! kind of credit-bounded channel ([`PipelineGraph::channels`]). These
//! tests pin what that one runtime guarantees on exchange plans: a codec
//! decision only where a codec was compiled or [`CodecPolicy::Auto`] asks
//! for one, a producer failure that reaches every consumer of its
//! channel without hanging, a consumer's own failure that ends the query,
//! the query's first typed error as its result, and sources that stop at
//! their next batch once a failure has ended it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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
use rheo::storage::object::{MemObjectStore, ObjectStoreRef};
use rheo::storage::smart::{ScanRequest, SmartStorage};
use rheo::storage::table::TableStore;

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
fn first_typed_error_wins_every_run() {
    // The plan above, 100 times over. Every run must return the gate's own
    // placement error, not the `query aborted` error of a sibling whose
    // source stopped after the abort and whose failure reached the root's
    // gather first.
    let topology = Topology::cluster(2, &ClusterConfig::default());
    let orders = workload::orders(2000, 1);
    let lineitem = workload::lineitem(8000, 1);
    let plan = cluster_join(
        &topology,
        &orders,
        &deal(&orders, 50),
        &lineitem,
        &deal(&lineitem, 200),
    );
    let graph = PipelineGraph::compile(&plan, None, Some(&topology), DEFAULT_QUEUE_CAPACITY);
    let failing = graph.channels()[0].producers[0];
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..100 {
            let gated = ExecEnv {
                gate: Some(Arc::new(FailingGate {
                    pipeline: Some(failing),
                    after: 3,
                    seen: AtomicUsize::new(0),
                })),
                ..env(&topology, CodecPolicy::AsCompiled)
            };
            let _ = done.send(execute_graph(&graph, &gated, "failing").map(|o| o.rows()));
        }
    });
    for run in 0..100 {
        let err = result
            .recv_timeout(Duration::from_secs(20))
            .expect("every run returns within 20 s")
            .expect_err("a failed build producer fails the query");
        assert!(
            matches!(err, EngineError::Placement(_)),
            "run {run}: {err:?}"
        );
    }
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

#[test]
fn failing_filter_stops_its_storage_scan() {
    // One pipeline: a scan of orders(20k), five pages, under
    // `o_orderkey AND o_orderkey`, a type error at the first batch. The
    // scan ends there and reads one page's blocks, not every page's.
    let store: ObjectStoreRef = Arc::new(MemObjectStore::new());
    let tables = TableStore::new(store.clone());
    let orders = workload::orders(20_000, 1);
    tables
        .create_and_load("orders", std::slice::from_ref(&orders))
        .unwrap();
    let storage = SmartStorage::new(tables);
    let readers = storage.tables().open_segments("orders").unwrap();
    let [reader] = &readers[..] else {
        panic!("one segment");
    };
    assert_eq!(reader.n_pages(), 5);
    let page_bytes = |page| -> u64 { reader.page(page).blocks.iter().map(|b| b.len).sum() };
    let every_page: u64 = (0..reader.n_pages()).map(page_bytes).sum();
    let filter = |predicate| {
        let scan = PhysNode::StorageScan {
            table: "orders".into(),
            request: ScanRequest::full(),
            schema: orders.schema().clone(),
            device: None,
        };
        PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(scan),
                predicate,
                device: None,
                use_kernel: false,
            },
            "filter",
        )
    };
    let env = ExecEnv {
        storage: Some(&storage),
        ..ExecEnv::in_memory()
    };
    store.reset_stats();
    execute(&filter(col("o_orderkey").lt(lit(0))), &env).unwrap();
    let opening = store.stats().bytes_read - every_page;
    store.reset_stats();
    let err = execute(&filter(col("o_orderkey").and(col("o_orderkey"))), &env)
        .expect_err("the filter fails");
    assert!(matches!(err, EngineError::Data(_)), "{err:?}");
    assert_eq!(store.stats().bytes_read, opening + page_bytes(0));
}

/// Fails pipeline `failing` at its first batch. Every other pipeline's
/// first batch waits until the failed producer's thread has exited, which
/// it does after recording the abort; the gate counts every batch the
/// others start.
struct AbortWatch {
    failing: usize,
    exited: Arc<(Mutex<bool>, Condvar)>,
    sibling_batches: AtomicUsize,
}

/// Raises its flag when the thread holding it exits.
struct OnExit(Arc<(Mutex<bool>, Condvar)>);

impl Drop for OnExit {
    fn drop(&mut self) {
        let (exited, signal) = &*self.0;
        if let Ok(mut exited) = exited.lock() {
            *exited = true;
        }
        signal.notify_all();
    }
}

thread_local! {
    static ON_EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
}

impl ExecGate for AbortWatch {
    fn acquire(&self, pipeline: usize) -> Result<()> {
        if pipeline == self.failing {
            ON_EXIT.with(|slot| *slot.borrow_mut() = Some(OnExit(self.exited.clone())));
            return Err(EngineError::Placement("device lost mid-query".into()));
        }
        if self.sibling_batches.fetch_add(1, Ordering::SeqCst) == 0 {
            let (exited, signal) = &*self.exited;
            let timeout = Duration::from_secs(10);
            let (guard, wait) = signal
                .wait_timeout_while(exited.lock().unwrap(), timeout, |exited| !*exited)
                .unwrap();
            drop(guard);
            assert!(!wait.timed_out(), "the failing fragment never exited");
        }
        Ok(())
    }
}

#[test]
fn sibling_fragment_stops_after_an_abort() {
    // A gather over two fragments of 10 batches each. Fragment 0 fails
    // at its first batch; fragment 1 may finish the batch it is in but
    // must start no other.
    let orders = workload::orders(2000, 1);
    let plan = PhysicalPlan::new(
        PhysNode::Filter {
            input: Box::new(PhysNode::Values {
                schema: orders.schema().clone(),
                batches: orders.split(100).unwrap(),
                device: None,
            }),
            predicate: col("o_orderkey").lt(lit(1000)),
            device: None,
            use_kernel: false,
        },
        "filter",
    );
    let graph = PipelineGraph::compile(
        &fan_out(&plan, 2).unwrap(),
        None,
        None,
        DEFAULT_QUEUE_CAPACITY,
    );
    let gather = &graph.channels()[0];
    assert_eq!((gather.producers.len(), gather.parts), (2, 1));
    let gate = Arc::new(AbortWatch {
        failing: gather.producers[0],
        exited: Arc::new((Mutex::new(false), Condvar::new())),
        sibling_batches: AtomicUsize::new(0),
    });
    let env = ExecEnv {
        gate: Some(gate.clone()),
        ..ExecEnv::in_memory()
    };
    let err = execute_graph(&graph, &env, "fan-out").expect_err("fragment 0 fails");
    assert!(matches!(err, EngineError::Placement(_)), "{err:?}");
    // 0 when the abort lands before fragment 1's first batch.
    let started = gate.sibling_batches.load(Ordering::SeqCst);
    assert!(started <= 1, "fragment 1 started {started} batches");
}
