//! E7 — Figure 5 / §5: filtering along the data path from memory to the
//! caches, with decompress-on-demand.
//!
//! The near-memory accelerator sees the full controller bandwidth no core
//! can sustain (§5.1) and forwards only the qualifying rows, so the cache
//! hierarchy — and the CPU behind it — receives a fraction of the data.
//! The CPU baseline streams everything at a core's sustainable share and
//! filters in software. Both paths are one plan placed on the
//! disaggregated rack ([`filter_plan`]) and driven by the push executor;
//! the bytes that reach the caches are the movement ledger's bytes into
//! compute0.cpu, and the time columns price those bytes with the cache
//! model and the device profiles. We sweep selectivity and verify both
//! paths select identical rows.

use std::sync::Arc;

use df_codec::edge::EdgeEncoding;
use df_core::exec::ledger::MovementLedger;
use df_core::exec::push::{execute, execute_graph, ExecEnv};
use df_core::expr::{col, lit, Expr};
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_data::Batch;
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_fabric::{DeviceId, DeviceKind, DeviceProfile, OpClass};
use df_mem::cache::{AccessPattern, CacheModel};
use df_sim::Tracer;

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::e16_scaleout::reshape_on;
use super::Scale;

/// E7's query over `batch`: `Values` on `source` → `Filter(predicate)` on
/// `filter_at` → an identity projection on compute0.cpu, the consumer
/// behind the caches. Filtering on compute0.mem forwards only the
/// survivors to the CPU; filtering on compute0.cpu moves every byte first.
pub fn filter_plan(
    topology: &Topology,
    batch: &Batch,
    predicate: Expr,
    source: DeviceId,
    filter_at: DeviceId,
) -> PhysicalPlan {
    let filter = PhysNode::Filter {
        input: Box::new(PhysNode::Values {
            batches: vec![batch.clone()],
            schema: batch.schema().clone(),
            device: Some(source),
        }),
        predicate,
        device: Some(filter_at),
        use_kernel: false,
    };
    let cpu = topology.expect_device("compute0.cpu");
    PhysicalPlan::new(reshape_on(filter, batch.schema(), cpu), "filter")
}

/// Decompress-on-demand (§5.4): [`filter_plan`] with `batch` written by
/// compute0.cpu and filtered on compute0.mem, its edge into the
/// accelerator compiled as `columnar+lz`. The CPU encodes, the accelerator
/// decodes in-path, and `verify` checks both ends' codec rates.
pub fn decompress_graph(topology: &Topology, batch: &Batch, predicate: Expr) -> PipelineGraph {
    let cpu = topology.expect_device("compute0.cpu");
    let mem = topology.expect_device("compute0.mem");
    let plan = filter_plan(topology, batch, predicate, cpu, mem);
    let mut graph = PipelineGraph::compile(&plan, None, Some(topology), DEFAULT_QUEUE_CAPACITY);
    let into_mem = graph
        .edges
        .iter()
        .position(|e| e.to_device == Some(mem))
        .expect("an edge into the accelerator");
    // Priced at about the ratio E7 measures.
    graph.set_edge_encoding(into_mem, EdgeEncoding::ColumnarLz, 0.4);
    graph
}

/// The predicate `l_quantity <= bound` (quantities run 1 to 50).
pub fn at_most(bound: i64) -> Expr {
    col("l_quantity").le(lit(bound))
}

/// Ledger bytes that crossed into `to`.
pub fn bytes_into(ledger: &MovementLedger, to: DeviceId) -> u64 {
    ledger
        .edges()
        .filter(|(&(_, into), _)| into == to)
        .map(|(_, stats)| stats.bytes)
        .sum()
}

/// The columns E7 filters.
fn measures(scale: Scale) -> Batch {
    workload::lineitem(scale.rows, scale.seed)
        .project_names(&["l_orderkey", "l_quantity", "l_price"])
        .expect("projection")
}

/// Run E7.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E7",
        "Figure 5 / §5 — near-memory filtering on the DRAM→cache path",
        "A filter unit at the memory controller reduces data before the \
         caches: the cores see only filtered (and already decompressed) \
         data, while a CPU core cannot even sustain the controller's \
         bandwidth.",
    )
    .headers(&[
        "selectivity",
        "bytes to caches (CPU path)",
        "bytes to caches (near-mem)",
        "reduction",
        "CPU-filter time",
        "near-mem time",
        "speedup",
    ]);

    let measures = measures(scale);
    let topology = Topology::disaggregated(&DisaggregatedConfig::default());
    let cpu = topology.expect_device("compute0.cpu");
    let mem = topology.expect_device("compute0.mem");
    let env = ExecEnv {
        topology: Some(&topology),
        ..ExecEnv::in_memory()
    };
    let cache = CacheModel::default();
    let accel_profile = DeviceProfile::reference(DeviceKind::NearMemAccel);
    let cpu_profile = DeviceProfile::reference(DeviceKind::Cpu { cores: 1 });

    for (label, bound) in [("0.02", 1i64), ("0.1", 5), ("0.5", 25), ("1.0", 50)] {
        let filter_on = |device| {
            let plan = filter_plan(&topology, &measures, at_most(bound), mem, device);
            execute(&plan, &env).expect("E7 plan runs")
        };
        let near = filter_on(mem);
        let host = filter_on(cpu);
        assert_eq!(
            near.collect().expect("rows").canonical_rows(),
            host.collect().expect("rows").canonical_rows(),
            "accelerator and CPU disagree at selectivity {label}"
        );
        let all_bytes = bytes_into(&host.ledger, cpu);
        let survivor_bytes = bytes_into(&near.ledger, cpu);

        // Times: the CPU streams every byte from DRAM at its core share and
        // filters; the accelerator filters every byte at controller
        // bandwidth and only the survivors stream up.
        let stream =
            |bytes: u64| cache.access_time(AccessPattern::Sequential, bytes, bytes.max(1), false);
        let filter = |on: &DeviceProfile| on.service_time(OpClass::Filter, all_bytes).unwrap();
        let cpu_time = stream(all_bytes) + filter(&cpu_profile);
        let accel_time = filter(&accel_profile) + stream(survivor_bytes);

        report.row(vec![
            label.to_string(),
            fmt_util::bytes(all_bytes),
            fmt_util::bytes(survivor_bytes),
            fmt_util::factor(all_bytes as f64 / survivor_bytes.max(1) as f64),
            fmt_util::dur(cpu_time),
            fmt_util::dur(accel_time),
            fmt_util::factor(cpu_time.as_secs_f64() / accel_time.as_secs_f64()),
        ]);
    }

    // Decompress-on-demand, keeping every row: the edge into the
    // accelerator carries the compressed bytes, the edge out of it the
    // decoded ones.
    let decoded = execute_graph(
        &decompress_graph(&topology, &measures, at_most(50)),
        &env,
        "decompress-on-demand",
    )
    .expect("decompress-on-demand runs");
    assert_eq!(
        decoded.collect().expect("rows").canonical_rows(),
        measures.canonical_rows(),
        "decompress-on-demand corrupted data"
    );
    let compressed_bytes = bytes_into(&decoded.ledger, mem);
    report.observe(format!(
        "decompress-on-demand: {} rest compressed in DRAM ({} of the \
         decoded size); the accelerator decodes at {} GB/s so the cores \
         never see compressed bytes",
        fmt_util::bytes(compressed_bytes),
        fmt_util::factor(compressed_bytes as f64 / bytes_into(&decoded.ledger, cpu) as f64),
        accel_profile
            .rate(OpClass::Decompress)
            .unwrap()
            .as_gbytes_per_sec()
    ));
    report.observe(
        "the near-memory path wins everywhere and grows with selectivity: \
         at 2% selectivity the caches receive ~2% of the bytes; at 1.0 the \
         advantage reduces to the bandwidth gap between the controller and \
         a single core (§5.1)"
            .to_string(),
    );
    report
}

/// Trace E7's near-memory path at 10% selectivity: the filter on
/// compute0.mem feeds the CPU over a fabric edge, so it runs on its own
/// `exec.push.p0` lane.
pub fn trace_run(scale: Scale) -> Arc<Tracer> {
    let tracer = Arc::new(Tracer::new());
    let topology = Topology::disaggregated(&DisaggregatedConfig::default());
    let env = ExecEnv {
        topology: Some(&topology),
        tracer: Some(tracer.clone()),
        ..ExecEnv::in_memory()
    };
    let mem = topology.expect_device("compute0.mem");
    let plan = filter_plan(&topology, &measures(scale), at_most(5), mem, mem);
    execute(&plan, &env).expect("near-memory filter");
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::lane_spans;

    #[test]
    fn speedup_grows_with_selectivity() {
        let report = run(Scale::quick());
        let speedups: Vec<f64> = report
            .rows
            .iter()
            .map(|r| r[6].trim_end_matches('x').parse().unwrap())
            .collect();
        // Most selective first: monotone non-increasing speedups.
        for pair in speedups.windows(2) {
            assert!(
                pair[0] >= pair[1] * 0.9,
                "speedups not decreasing: {speedups:?}"
            );
        }
        // Even at selectivity 1.0 the accelerator is not slower.
        assert!(*speedups.last().unwrap() >= 1.0);
        // At 2% selectivity the advantage is large.
        assert!(speedups[0] > 3.0, "{speedups:?}");
        // The byte cells `figures --exp e7 --quick` prints, pinned so that
        // no executor change moves one unnoticed.
        let near = ["9864 B", "48.0 KB", "239.7 KB", "480.0 KB"];
        for (row, near) in report.rows.iter().zip(near) {
            assert_eq!([row[1].as_str(), row[2].as_str()], ["480.0 KB", near]);
        }
    }

    #[test]
    fn trace_has_a_lane_for_the_near_memory_filter() {
        let tracer = trace_run(Scale::quick());
        tracer.validate().unwrap();
        assert!(lane_spans(&tracer, "exec.push.p0") > 0);
    }
}
