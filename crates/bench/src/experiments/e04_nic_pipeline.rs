//! E4 — Figure 3 / §4.3–4.4: streaming pipelines between NICs, and the
//! staged pre-aggregation cascade.
//!
//! "Pre-aggregation could be done first at the storage layer, once more on
//! the sending NIC, and then again on the receiving NIC, thereby creating a
//! pipeline of group-by stages that ... significantly cut down the amount
//! of work needed at the final stage of processing."
//!
//! We run the cascade on real data with genuinely bounded group tables at
//! every in-path stage (16 → 48 → 64 slots, straddling the 50-group
//! cardinality, so upstream stages flush partials). Each cascade is one
//! plan placed on the disaggregated rack ([`cascade_plan`]) and driven by
//! the push executor: storage pre-aggregates inside its scan, both NICs run
//! bounded `Merge` aggregates, and the CPU merges what is left. The
//! movement ledger counts the rows crossing each hop. The Figure 3 hashing
//! path (projection at storage, hashing at the receiving NIC) is exercised
//! alongside.

use std::sync::Arc;

use df_core::exec::ledger::MovementLedger;
use df_core::exec::push::{execute, ExecEnv};
use df_core::logical::{AggCall, AggFn, LogicalPlan};
use df_core::ops::AggMode;
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::scaleout::SHUFFLE_SEED;
use df_data::{Batch, HashPartitioner};
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_sim::Tracer;
use df_storage::smart::{PreAggSpec, ScanRequest, SmartStorage};

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// Storage's pre-aggregation: COUNT and SUM of `l_orderkey` by
/// `l_quantity` (50 groups), holding at most `max_groups` groups. Integer
/// aggregates, so staged merging is bit-exact regardless of accumulation
/// order (float sums are not associative).
fn spec(max_groups: usize) -> PreAggSpec {
    PreAggSpec {
        group_by: vec!["l_quantity".into()],
        aggs: vec![
            (AggFn::Count, "l_orderkey".into()),
            (AggFn::Sum, "l_orderkey".into()),
        ],
        max_groups,
    }
}

/// E4's cascade over `storage`'s `lineitem` as a plan placed on the
/// disaggregated rack, with `stages` group-by stages ahead of the CPU:
///
/// - 0: storage.ssd ships `l_orderkey, l_quantity`; compute0.cpu runs a
///   `Final` aggregate over the raw rows.
/// - 1: storage.ssd pre-aggregates inside its scan (16 groups); the CPU
///   merges the partials.
/// - 2: the sending NIC (storage.nic) adds a 48-group `Merge`.
/// - 3: the receiving NIC (compute0.nic) adds a 64-group `Merge`.
pub fn cascade_plan(storage: &SmartStorage, topology: &Topology, stages: usize) -> PhysicalPlan {
    let device = |name| Some(topology.expect_device(name));
    let group_by = vec!["l_quantity".to_string()];
    let calls = vec![
        AggCall::new(AggFn::Count, "l_orderkey", "n"),
        AggCall::new(AggFn::Sum, "l_orderkey", "orderkey_sum"),
    ];
    let raw = ScanRequest::full().project(&["l_orderkey", "l_quantity"]);
    let raw_schema = storage.output_schema("lineitem", &raw).expect("lineitem");
    let final_schema = LogicalPlan::scan("lineitem", raw_schema)
        .aggregate(group_by.clone(), calls.clone())
        .expect("aggregate plan")
        .schema();
    let request = if stages == 0 {
        raw
    } else {
        ScanRequest::full().pre_aggregate(spec(16))
    };
    let mut node = PhysNode::StorageScan {
        table: "lineitem".into(),
        schema: storage
            .output_schema("lineitem", &request)
            .expect("lineitem"),
        request,
        device: device("storage.ssd"),
    };
    let nics = [(48, "storage.nic"), (64, "compute0.nic")];
    for (max_groups, nic) in nics.into_iter().take(stages.saturating_sub(1)) {
        node = PhysNode::Aggregate {
            input: Box::new(node),
            group_by: group_by.clone(),
            aggs: calls.clone(),
            mode: AggMode::Merge {
                max_groups: Some(max_groups),
            },
            final_schema: final_schema.clone(),
            device: device(nic),
        };
    }
    let mode = if stages == 0 {
        AggMode::Final
    } else {
        AggMode::Merge { max_groups: None }
    };
    PhysicalPlan::new(
        PhysNode::Aggregate {
            input: Box::new(node),
            group_by,
            aggs: calls,
            mode,
            final_schema,
            device: device("compute0.cpu"),
        },
        "nic-cascade",
    )
}

/// Ledger rows leaving storage.ssd and rows entering compute0.cpu.
fn hop_rows(ledger: &MovementLedger, topology: &Topology) -> (u64, u64) {
    let ssd = topology.expect_device("storage.ssd");
    let cpu = topology.expect_device("compute0.cpu");
    ledger
        .edges()
        .fold((0, 0), |(out, into), (&(from, to), stats)| {
            (
                out + if from == ssd { stats.rows } else { 0 },
                into + if to == cpu { stats.rows } else { 0 },
            )
        })
}

/// Run E4.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E4",
        "Figure 3 / §4.3–4.4 — NIC streaming pipeline and the group-by cascade",
        "A cascade of bounded pre-aggregation stages (storage → sending NIC \
         → receiving NIC) achieves more than a single accelerator and cuts \
         the work left for the final CPU stage.",
    )
    .headers(&[
        "cascade",
        "rows into network",
        "rows into CPU",
        "CPU work vs no cascade",
        "groups correct",
    ]);

    let storage = workload::lineitem_storage(scale.rows, scale.seed);
    let topology = Topology::disaggregated(&DisaggregatedConfig::default());
    let env = ExecEnv {
        storage: Some(&storage),
        topology: Some(&topology),
        ..ExecEnv::in_memory()
    };

    // Reference: exact group totals, merged from one unbounded storage
    // pre-aggregation.
    let (partials, _) = storage
        .scan(
            "lineitem",
            &ScanRequest::full().pre_aggregate(spec(usize::MAX)),
        )
        .expect("reference scan");
    let mut merge = spec(usize::MAX)
        .kernel(AggMode::Merge { max_groups: None }, partials[0].schema())
        .expect("merge kernel");
    for batch in partials {
        merge.push(batch).expect("merge");
    }
    let reference = Batch::concat(&merge.finish().expect("merge"))
        .expect("one layout")
        .canonical_rows();

    let baseline_rows = scale.rows as u64;
    for stages in 0..=3usize {
        let out = execute(&cascade_plan(&storage, &topology, stages), &env).expect("cascade runs");
        let (into_network, into_cpu) = hop_rows(&out.ledger, &topology);
        let correct = out.collect().expect("groups").canonical_rows() == reference;

        report.row(vec![
            match stages {
                0 => "none (ship raw rows)".into(),
                1 => "storage".into(),
                2 => "storage → tx NIC".into(),
                _ => "storage → tx NIC → rx NIC".into(),
            },
            into_network.to_string(),
            into_cpu.to_string(),
            format!("{:.1}%", 100.0 * into_cpu as f64 / baseline_rows as f64),
            correct.to_string(),
        ]);
        assert!(correct, "cascade with {stages} stages corrupted totals");
    }

    // Figure 3's hashing path: projection at storage, then the partition
    // hash a NIC-tip exchange computes (E5's), host CPU untouched.
    let (projected, scan_stats) = storage
        .scan(
            "lineitem",
            &ScanRequest::full().project(&["l_orderkey", "l_partkey"]),
        )
        .expect("projection at storage");
    let partitioner = HashPartitioner::with_seed(vec!["l_partkey".into()], 4, SHUFFLE_SEED)
        .expect("one key, four hosts");
    let hashed_rows: usize = projected
        .iter()
        .map(|batch| partitioner.assignments(batch).expect("l_partkey").len())
        .sum();
    report.observe(format!(
        "Figure 3 path: storage projected {} ({} of the table) and the \
         receiving NIC hashed all {hashed_rows} rows in-path — build-side \
         hashing without the CPU touching a byte",
        fmt_util::bytes(scan_stats.bytes_returned),
        fmt_util::factor(scan_stats.reduction_factor())
    ));
    report.observe(
        "every added group-by stage shrinks the partial stream again; the \
         final CPU merge sees a small fraction of the raw rows while totals \
         stay exact"
            .to_string(),
    );
    report
}

/// Trace E4's full cascade: the storage scan and both NIC merge stages
/// feed fabric edges, so each runs on its own `exec.push.p<pid>` lane.
pub fn trace_run(scale: Scale) -> Arc<Tracer> {
    let tracer = Arc::new(Tracer::new());
    let storage = workload::lineitem_storage(scale.rows, scale.seed);
    let topology = Topology::disaggregated(&DisaggregatedConfig::default());
    let env = ExecEnv {
        storage: Some(&storage),
        topology: Some(&topology),
        tracer: Some(tracer.clone()),
        ..ExecEnv::in_memory()
    };
    execute(&cascade_plan(&storage, &topology, 3), &env).expect("cascade runs");
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::lane_spans;

    #[test]
    fn cascade_monotonically_reduces_cpu_work() {
        let report = run(Scale::quick());
        let rows_into_cpu: Vec<u64> = report.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // Each added stage reduces (or keeps) the rows reaching the CPU.
        for pair in rows_into_cpu.windows(2) {
            assert!(pair[1] <= pair[0], "cascade grew: {rows_into_cpu:?}");
        }
        // With the full cascade, the CPU sees far fewer rows than raw.
        assert!(rows_into_cpu[3] * 10 < rows_into_cpu[0]);
        // Every cascade produced exact totals.
        for row in &report.rows {
            assert_eq!(row[4], "true");
        }
        // The cells `figures --exp e4 --quick` prints, pinned so that no
        // executor change moves one unnoticed.
        let hops: Vec<(&str, &str)> = report
            .rows
            .iter()
            .map(|r| (r[1].as_str(), r[2].as_str()))
            .collect();
        assert_eq!(
            hops,
            [
                ("20000", "20000"),
                ("16336", "16336"),
                ("16336", "5638"),
                ("16336", "50")
            ]
        );
    }

    #[test]
    fn trace_has_a_lane_per_nic_fed_producer() {
        let tracer = trace_run(Scale::quick());
        tracer.validate().unwrap();
        // Scan → tx NIC → rx NIC → CPU: three fabric producers.
        for pid in 0..3 {
            let lane = format!("exec.push.p{pid}");
            assert!(lane_spans(&tracer, &lane) > 0, "{lane}");
        }
    }
}
