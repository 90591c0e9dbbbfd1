//! E6 — §4.4: a query that completes *on the NIC*.
//!
//! "A query returning only a COUNT can be executed directly on the NIC that
//! simply counts the data as it arrives and discards it, providing the
//! final results at the end" — potentially "without even involving the CPU
//! or transferring data to the host memory."

use std::sync::Arc;

use df_core::exec::push::{execute, ExecEnv};
use df_core::logical::AggCall;
use df_core::ops::AggMode;
use df_core::optimizer::{Profiles, TableProfile};
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_data::{Batch, DataType, Field, Schema};
use df_fabric::flow::FlowSim;
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_fabric::DeviceId;
use df_sim::Tracer;
use df_storage::predicate::StoragePredicate;
use df_storage::smart::{ScanRequest, SmartStorage};
use df_storage::zonemap::CmpOp;

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// E6's query, `SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity >= 25`:
/// storage.ssd filters and projects, and the count runs on `count_at`.
/// A count-only aggregate maps to the stream-friendly `Count` op class, so
/// a NIC placement is legal (§4.4's "query on the NIC").
fn count_plan(topology: &Topology, count_at: DeviceId) -> PhysicalPlan {
    let scan = PhysNode::StorageScan {
        table: "lineitem".into(),
        request: ScanRequest::full()
            .filter(StoragePredicate::cmp("l_quantity", CmpOp::Ge, 25i64))
            .project(&["l_orderkey", "l_quantity"]),
        schema: Schema::new(vec![
            Field::new("l_orderkey", DataType::Int64),
            Field::new("l_quantity", DataType::Int64),
        ])
        .into_ref(),
        device: Some(topology.expect_device("storage.ssd")),
    };
    let agg = PhysNode::Aggregate {
        input: Box::new(scan),
        group_by: vec![],
        aggs: vec![AggCall::count_star("n")],
        mode: AggMode::Final,
        final_schema: Schema::new(vec![Field::new("n", DataType::Int64)]).into_ref(),
        device: Some(count_at),
    };
    PhysicalPlan::new(agg, "count")
}

/// The executor environment for E6's plans over `storage`.
fn env<'a>(storage: &'a SmartStorage, topology: &'a Topology) -> ExecEnv<'a> {
    ExecEnv {
        storage: Some(storage),
        topology: Some(topology),
        ..ExecEnv::in_memory()
    }
}

/// Run E6.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E6",
        "§4.4 — COUNT executed entirely on the NIC",
        "The NIC counts rows as they arrive and discards the data; the \
         host CPU receives one number instead of the table.",
    )
    .headers(&[
        "where counting runs",
        "count",
        "bytes into host memory",
        "sim completion time",
    ]);

    let storage = workload::lineitem_storage(scale.rows, scale.seed);
    let tables = storage.tables();
    let mut profiles = Profiles::new();
    profiles.insert(
        "lineitem".to_string(),
        TableProfile::from_stats(
            &tables.stats("lineitem").expect("stats"),
            tables.schema("lineitem").expect("schema").as_ref().clone(),
        ),
    );
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let ssd = topo.expect_device("storage.ssd");
    let cnic = topo.expect_device("compute0.nic");
    let cpu = topo.expect_device("compute0.cpu");

    // NIC path: the count absorbs the stream on compute0.nic, and only
    // the one-row result reaches host memory.
    let nic_out = execute(&count_plan(&topo, cnic), &env(&storage, &topo)).expect("NIC count");
    let host_bytes_nic: u64 = nic_out.batches.iter().map(|b| b.byte_size() as u64).sum();
    let count = |result: Batch| result.column(0).i64_values().expect("count")[0];
    let nic_count = count(nic_out.collect().expect("one row"));

    // Host path: every scanned batch crosses into host memory first.
    let cpu_out = execute(&count_plan(&topo, cpu), &env(&storage, &topo)).expect("CPU count");
    let host_bytes_cpu: u64 = cpu_out
        .ledger
        .edges()
        .filter(|(&edge, _)| edge == (ssd, cpu))
        .map(|(_, stats)| stats.bytes)
        .sum();
    let host_count = count(cpu_out.collect().expect("one row"));
    assert_eq!(nic_count, host_count, "NIC count is wrong");

    // Simulated completion times for both placements: the same COUNT plan
    // compiled to the pipeline graph and replayed as a derived flow spec.
    let sim_time = |count_at: DeviceId| {
        let graph = PipelineGraph::compile(
            &count_plan(&topo, count_at),
            Some(&profiles),
            None,
            DEFAULT_QUEUE_CAPACITY,
        );
        let spec = graph
            .to_flow_specs(cpu, "count")
            .expect("verified graph")
            .remove(0);
        let mut sim = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim.add_pipeline(spec);
        sim.run().pipelines[0].duration()
    };
    let nic_time = sim_time(cnic);
    let cpu_time = sim_time(cpu);

    report.row(vec![
        "compute NIC (query ends in-path)".into(),
        nic_count.to_string(),
        fmt_util::bytes(host_bytes_nic),
        fmt_util::dur(nic_time),
    ]);
    report.row(vec![
        "host CPU (conventional)".into(),
        host_count.to_string(),
        fmt_util::bytes(host_bytes_cpu),
        fmt_util::dur(cpu_time),
    ]);

    report.observe(format!(
        "the NIC path delivered {} into host memory instead of {} — a {} \
         reduction — and returned the identical count",
        fmt_util::bytes(host_bytes_nic),
        fmt_util::bytes(host_bytes_cpu),
        fmt_util::factor(host_bytes_cpu as f64 / host_bytes_nic.max(1) as f64)
    ));
    report
}

/// Trace E6's NIC count: the storage scan feeds compute0.nic over a
/// fabric edge, so it runs on its own `exec.push.p<pid>` lane.
pub fn trace_run(scale: Scale) -> Arc<Tracer> {
    let tracer = Arc::new(Tracer::new());
    let storage = workload::lineitem_storage(scale.rows, scale.seed);
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let env = ExecEnv {
        tracer: Some(tracer.clone()),
        ..env(&storage, &topo)
    };
    let cnic = topo.expect_device("compute0.nic");
    execute(&count_plan(&topo, cnic), &env).expect("NIC count");
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::lane_spans;

    #[test]
    fn nic_count_moves_almost_nothing_to_host() {
        let report = run(Scale::quick());
        assert_eq!(report.rows[0][1], report.rows[1][1], "counts differ");
        // NIC row ships bytes in the tens, host row in the hundreds of KB.
        assert!(report.rows[0][2].ends_with(" B"), "{:?}", report.rows[0]);
        let nic_bytes: f64 = report.rows[0][2]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(nic_bytes < 200.0, "NIC shipped too much: {nic_bytes}");
        // The cells `figures --exp e6 --quick` prints, pinned so that no
        // executor change moves one unnoticed.
        assert_eq!(report.rows[0][1], "10445");
        assert_eq!(report.rows[0][2], "8 B");
        assert_eq!(report.rows[1][2], "167.1 KB");
    }

    #[test]
    fn trace_has_a_lane_for_the_nic_fed_scan() {
        let tracer = trace_run(Scale::quick());
        tracer.validate().unwrap();
        assert!(lane_spans(&tracer, "exec.push.p0") > 0);
    }
}
