//! Cross-crate integration tests: SQL queries through the full stack, with
//! every plan variant and both executors agreeing.

use rheo::bench::workload;
use rheo::core::exec::push::{execute, CodecPolicy, ExecEnv};
use rheo::core::exec::volcano;
use rheo::core::session::Session;
use rheo::data::Scalar;

fn session(rows: usize) -> Session {
    let s = Session::in_memory().expect("session");
    s.create_table("lineitem", &[workload::lineitem(rows, 42)])
        .expect("load lineitem");
    s.create_table("orders", &[workload::orders(rows / 4, 42)])
        .expect("load orders");
    s
}

/// A battery of queries exercising every operator the SQL layer supports.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*) AS n FROM lineitem",
    "SELECT l_orderkey, l_price FROM lineitem WHERE l_quantity < 3 LIMIT 50",
    "SELECT l_region, COUNT(*) AS n, SUM(l_quantity) AS q, MIN(l_price) AS lo, \
     MAX(l_price) AS hi, AVG(l_discount) AS d FROM lineitem GROUP BY l_region",
    "SELECT l_region, COUNT(*) AS n FROM lineitem \
     WHERE l_shipdate BETWEEN 10 AND 60 AND l_comment LIKE '%urgent%' \
     GROUP BY l_region",
    "SELECT o_priority, COUNT(*) AS n FROM orders \
     JOIN lineitem ON o_orderkey = l_orderkey \
     WHERE l_quantity > 40 GROUP BY o_priority ORDER BY o_priority",
    "SELECT l_orderkey FROM lineitem WHERE l_quantity * 2 > 95 \
     ORDER BY l_orderkey DESC LIMIT 10",
    "SELECT l_orderkey, l_price FROM lineitem \
     WHERE l_region = 'europe' OR l_region = 'asia' LIMIT 25",
    "SELECT o_orderkey, l_quantity FROM orders \
     LEFT JOIN lineitem ON o_orderkey = l_orderkey \
     WHERE o_priority = 4 ORDER BY o_orderkey LIMIT 40",
];

#[test]
fn every_variant_agrees_on_every_query() {
    let s = session(8_000);
    for query in QUERIES {
        let logical = s
            .logical_plan(query)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let variants = s.variants(&logical).expect("variants");
        let reference = s
            .execute_plan(&variants[0].plan)
            .unwrap_or_else(|e| panic!("{query} [{}]: {e}", variants[0].plan.variant));
        for v in &variants[1..] {
            let got = s
                .execute_plan(&v.plan)
                .unwrap_or_else(|e| panic!("{query} [{}]: {e}", v.plan.variant));
            assert_eq!(
                reference.batch.canonical_rows(),
                got.batch.canonical_rows(),
                "{query}: variant {} != {}",
                v.plan.variant,
                variants[0].plan.variant
            );
        }
    }
}

#[test]
fn volcano_agrees_with_push_on_storage_plans() {
    let s = session(4_000);
    // Limit to queries Volcano supports directly (final aggregation only).
    for query in QUERIES {
        let logical = s.logical_plan(query).unwrap();
        let variants = s.variants(&logical).unwrap();
        let cpu_only = variants
            .iter()
            .find(|v| v.plan.variant == "cpu-only")
            .expect("cpu-only exists");
        let push = execute(
            &cpu_only.plan,
            &ExecEnv {
                storage: Some(s.storage()),
                topology: Some(s.topology()),
                wire: None,
                tracer: None,
                gate: None,
                codec: CodecPolicy::AsCompiled,
            },
        )
        .expect("push runs");
        let volcano = volcano::execute(&cpu_only.plan, Some(s.storage())).expect("volcano runs");
        let push_batch = if push.batches.is_empty() {
            rheo::data::Batch::empty(cpu_only.plan.schema())
        } else {
            push.collect().unwrap()
        };
        assert_eq!(
            push_batch.canonical_rows(),
            volcano.canonical_rows(),
            "executors disagree on {query}"
        );
    }
}

#[test]
fn golden_results_fixed_seed() {
    // Pin exact values so a behavioural regression anywhere in the stack
    // (generator, codecs, storage, engine) trips this test.
    let s = session(10_000);
    let r = s
        .sql("SELECT COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem")
        .unwrap();
    assert_eq!(r.batch.row(0)[0], Scalar::Int(10_000));
    let q = r.batch.row(0)[1].as_int().unwrap();
    // Quantities are 1..=50 uniform: mean ~25.5.
    assert!(
        (q - 255_000).unsigned_abs() < 10_000,
        "sum of quantities drifted: {q}"
    );

    let filtered = s
        .sql("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity = 7")
        .unwrap();
    let n = filtered.batch.row(0)[0].as_int().unwrap();
    assert!((100..350).contains(&n), "selectivity drifted: {n}");

    // Determinism: running the same query twice gives identical bytes.
    let again = s
        .sql("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity = 7")
        .unwrap();
    assert_eq!(
        filtered.batch.canonical_rows(),
        again.batch.canonical_rows()
    );
}

#[test]
fn pushdown_reduces_measured_movement() {
    let s = session(20_000);
    let query = "SELECT l_orderkey FROM lineitem WHERE l_orderkey < 100";
    let logical = s.logical_plan(query).unwrap();
    let variants = s.variants(&logical).unwrap();
    let cpu_only = variants
        .iter()
        .find(|v| v.plan.variant == "cpu-only")
        .unwrap();
    let pushdown = variants
        .iter()
        .find(|v| v.plan.variant == "storage-pushdown")
        .unwrap();
    let a = s.execute_plan(&cpu_only.plan).unwrap();
    let b = s.execute_plan(&pushdown.plan).unwrap();
    assert!(
        b.ledger.cross_device_bytes() * 10 < a.ledger.cross_device_bytes(),
        "pushdown moved {} vs cpu-only {}",
        b.ledger.cross_device_bytes(),
        a.ledger.cross_device_bytes()
    );
    // Zone maps pruned pages on the clustered key.
    assert!(b.scan_stats[0].pages_pruned > 0);
}

#[test]
fn scheduler_and_optimizer_integrate() {
    // Priced admission chooses among the optimizer's ranked variants, and
    // the variant it admits is an executable plan.
    use rheo::core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
    use rheo::serve::admission::{AdmissionController, Verdict};
    let s = session(5_000);
    let logical = s.logical_plan("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10");
    let variants = s.variants(&logical.unwrap()).unwrap();
    let mut admission = AdmissionController::new(s.topology().clone());
    for _ in 0..2 {
        let ranked = variants.iter().enumerate().map(|(i, v)| {
            let graph =
                PipelineGraph::compile(&v.plan, Some(&s.profiles()), None, DEFAULT_QUEUE_CAPACITY);
            (
                i,
                graph.to_flow_specs(s.optimizer().site().cpu, "q").unwrap(),
            )
        });
        let (index, verdict) = admission.offer_ranked(ranked).unwrap();
        assert!(matches!(verdict, Verdict::Admitted(_)), "{verdict:?}");
        let result = s.execute_plan(&variants[index].plan).unwrap();
        assert_eq!(result.batch.rows(), 1);
    }
    assert_eq!(admission.admitted_count(), 2);
}

#[test]
fn wire_format_survives_the_network_between_sessions() {
    // Storage results encoded as wire frames and decoded elsewhere stay
    // intact (cross-crate: storage -> codec -> data).
    use rheo::codec::wire::{decode_batch, encode_batch, WireOptions};
    use rheo::storage::smart::ScanRequest;

    let s = session(3_000);
    let (batches, _) = s
        .storage()
        .scan(
            "lineitem",
            &ScanRequest::full().project(&["l_orderkey", "l_region"]),
        )
        .unwrap();
    let received: Vec<_> = batches
        .iter()
        .map(|b| decode_batch(&encode_batch(b, &WireOptions::compressed()), None).unwrap())
        .collect();
    let sent = rheo::data::Batch::concat(&batches).unwrap();
    let got = rheo::data::Batch::concat(&received).unwrap();
    assert_eq!(sent.canonical_rows(), got.canonical_rows());
}
