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
//! cardinality, so upstream stages flush partials) and count the rows that reach
//! each hop. Every stage runs the one aggregation kernel: storage
//! pre-aggregates, the two NICs run bounded `MergeAggregate` kernels, and
//! the CPU merges what is left. The Figure 3 hashing path (projection at
//! storage, hashing at the receiving NIC) is exercised alongside.

use df_data::Batch;
use df_net::nic::{NicKernel, NicPipeline};
use df_storage::agg::{AggFn, AggMode};
use df_storage::object::MemObjectStore;
use df_storage::smart::{PreAggSpec, ScanRequest, SmartStorage};
use df_storage::table::TableStore;

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// Stream `stream` through a one-kernel NIC program and collect its output.
fn nic_stage(kernel: NicKernel, stream: Vec<Batch>) -> Vec<Batch> {
    let mut nic = NicPipeline::new(vec![kernel]).expect("nic program");
    let mut out = Vec::new();
    for batch in stream {
        out.extend(
            nic.push(batch)
                .expect("nic stage")
                .into_iter()
                .map(|(_, b)| b),
        );
    }
    out.extend(
        nic.finish()
            .expect("nic finish")
            .into_iter()
            .map(|(_, b)| b),
    );
    out
}

/// The final stage at the CPU: the same kernel, holding every group.
fn cpu_stage(spec: &PreAggSpec, mode: AggMode, stream: Vec<Batch>) -> Batch {
    let mut kernel = spec.kernel(mode, stream[0].schema()).expect("cpu kernel");
    let mut out = Vec::new();
    for batch in stream {
        out.extend(kernel.push(batch).expect("cpu stage"));
    }
    out.extend(kernel.finish().expect("cpu finish"));
    Batch::concat(&out).expect("one layout")
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

    let tables = TableStore::new(MemObjectStore::shared());
    let fact = workload::lineitem(scale.rows, scale.seed);
    tables
        .create_and_load("lineitem", std::slice::from_ref(&fact))
        .expect("load");
    let storage = SmartStorage::new(tables);

    // Group by quantity (50 distinct groups). The cascade bounds straddle
    // that cardinality — 16 < 48 < 64 — so the storage stage flushes
    // constantly, the sending NIC still flushes, and the receiving NIC can
    // hold the full group set: every stage visibly shrinks the stream.
    let spec = |max_groups| PreAggSpec {
        group_by: vec!["l_quantity".into()],
        // Integer aggregates so staged merging is bit-exact regardless of
        // accumulation order (float sums are not associative).
        aggs: vec![
            (AggFn::Count, "l_orderkey".into()),
            (AggFn::Sum, "l_orderkey".into()),
        ],
        max_groups,
    };

    // Reference: exact group totals computed with unbounded state.
    let (raw, _) = storage
        .scan(
            "lineitem",
            &ScanRequest::full().pre_aggregate(spec(usize::MAX)),
        )
        .expect("reference scan");
    let all_groups = AggMode::Merge {
        max_groups: Some(usize::MAX),
    };
    let reference = cpu_stage(&spec(usize::MAX), all_groups, raw);

    let baseline_rows = scale.rows as u64;
    for stages in 0..=3usize {
        // Stage 0 (storage): bounded pre-agg, or raw ship when stages == 0.
        let (mut stream, into_network): (Vec<Batch>, u64) = if stages == 0 {
            let (batches, _) = storage
                .scan(
                    "lineitem",
                    &ScanRequest::full().project(&["l_orderkey", "l_quantity"]),
                )
                .expect("raw scan");
            // With no cascade, raw rows enter the network; the CPU does the
            // whole aggregation.
            let rows: usize = batches.iter().map(Batch::rows).sum();
            (batches, rows as u64)
        } else {
            let (partials, _) = storage
                .scan("lineitem", &ScanRequest::full().pre_aggregate(spec(16)))
                .expect("preagg scan");
            let rows: usize = partials.iter().map(Batch::rows).sum();
            (partials, rows as u64)
        };
        // Stage 1 (sending NIC) and stage 2 (receiving NIC): bounded merges.
        if stages >= 2 {
            stream = nic_stage(NicKernel::MergeAggregate(spec(48)), stream);
        }
        if stages >= 3 {
            stream = nic_stage(NicKernel::MergeAggregate(spec(64)), stream);
        }
        let into_cpu: u64 = stream.iter().map(|b| b.rows() as u64).sum();

        // Final stage at the CPU.
        let final_result = if stages == 0 {
            // CPU aggregates raw rows (count + sum per group).
            let raw_rows = AggMode::Partial {
                max_groups: usize::MAX,
            };
            cpu_stage(&spec(usize::MAX), raw_rows, stream)
        } else {
            cpu_stage(&spec(usize::MAX), all_groups, stream)
        };
        let correct = final_result.canonical_rows() == reference.canonical_rows();

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

    // Figure 3's hashing path: projection at storage, hashing at the
    // receiving NIC, host CPU untouched.
    let (projected, scan_stats) = storage
        .scan(
            "lineitem",
            &ScanRequest::full().project(&["l_orderkey", "l_partkey"]),
        )
        .expect("projection at storage");
    let mut nic = NicPipeline::new(vec![NicKernel::AppendHash {
        columns: vec!["l_partkey".into()],
        output: "h".into(),
    }])
    .expect("nic program");
    let mut hashed_rows = 0usize;
    for batch in projected {
        for (_, out) in nic.push(batch).expect("hash kernel") {
            hashed_rows += out.rows();
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
