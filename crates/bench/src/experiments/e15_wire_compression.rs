//! E15 — §1/§7.2 — wire compression as an explicit data-path stage.
//!
//! The paper folds compression into the data path itself: a smart NIC
//! compresses the stream before the network hop and the consumer
//! decompresses on arrival, trading accelerator cycles for bytes on the
//! bottleneck link. We shuffle a string-heavy log-analytics stream
//! (telemetry: ascending timestamps, low-cardinality level strings) from
//! the storage-side NIC to the compute CPU over 25 GbE, once per edge
//! encoding plus once under the cost-based selector, and account both the
//! executed fabric-edge ledger bytes and the simulated completion time.

use std::sync::Arc;

use df_codec::edge::EdgeEncoding;
use df_core::exec::push::{execute_graph, CodecPolicy, ExecEnv, ExecOutcome};
use df_core::expr::{col, lit};
use df_core::logical::{AggCall, LogicalPlan};
use df_core::ops::AggMode;
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_data::Batch;
use df_fabric::flow::FlowSim;
use df_fabric::link::LinkTech;
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_sim::Tracer;

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// The shuffle under test: telemetry filtered at the storage NIC (keeps
/// every row — the transfer is the subject), grouped by `level` on the
/// compute CPU. One fabric edge crosses the cluster network.
fn placed_shuffle(topo: &Topology, stream: &Batch) -> PhysicalPlan {
    let nic = topo.expect_device("storage.nic");
    let cpu = topo.expect_device("compute0.cpu");
    let calls = vec![AggCall::count_star("n")];
    let logical = LogicalPlan::values(vec![stream.clone()])
        .expect("values plan")
        .aggregate(vec!["level".into()], calls.clone())
        .expect("aggregate plan");
    PhysicalPlan::new(
        PhysNode::Aggregate {
            input: Box::new(PhysNode::Filter {
                input: Box::new(PhysNode::Values {
                    schema: stream.schema().clone(),
                    batches: stream.split(8192).expect("split"),
                    device: None,
                }),
                predicate: col("sensor").lt(lit(1 << 20)),
                device: Some(nic),
                use_kernel: false,
            }),
            group_by: vec!["level".into()],
            aggs: calls,
            mode: AggMode::Final,
            final_schema: logical.schema(),
            device: Some(cpu),
        },
        "log-shuffle",
    )
}

/// The disaggregated cluster with a 25 GbE network.
fn ethernet() -> Topology {
    Topology::disaggregated(&DisaggregatedConfig {
        network: LinkTech::Ethernet { gbits: 25 },
        ..DisaggregatedConfig::default()
    })
}

fn sim_completion(graph: &PipelineGraph, topo: &Topology, name: &str) -> df_sim::SimDuration {
    let cpu = topo.expect_device("compute0.cpu");
    let specs = graph.to_flow_specs(cpu, name).expect("verified graph");
    let mut sim = FlowSim::new(topo.clone());
    for spec in specs {
        sim.add_pipeline(spec);
    }
    let outcome = sim.run();
    outcome
        .pipelines
        .iter()
        .map(|p| p.duration())
        .max()
        .expect("at least one pipeline")
}

/// Run E15.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E15",
        "§1/§7.2 — wire compression as placeable pipeline stages",
        "Compression belongs on the data path itself: the smart NIC \
         encodes the stream before the bottleneck hop and the consumer \
         decodes on arrival, so fabric bytes shrink by the codec ratio \
         while completion time is bounded by the cheaper of link and \
         codec rates.",
    )
    .headers(&[
        "edge encoding",
        "fabric bytes",
        "vs plain",
        "sim completion",
        "sim vs plain",
    ]);

    let stream = workload::telemetry(scale.rows, 64, scale.seed);
    let topo = ethernet();
    let plan = placed_shuffle(&topo, &stream);
    let env = |codec: CodecPolicy| ExecEnv {
        storage: None,
        topology: Some(&topo),
        wire: None,
        tracer: None,
        gate: None,
        codec,
    };

    // Plain baseline: as-compiled graph, every edge un-encoded.
    let graph = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
    let eid = graph
        .edges
        .iter()
        .position(|e| e.crosses_devices())
        .expect("one fabric edge");
    let plain = execute_graph(&graph, &env(CodecPolicy::AsCompiled), "plain").expect("plain");
    let baseline_rows = plain.collect().expect("plain result").canonical_rows();
    let plain_bytes = plain.ledger.cross_device_bytes();
    let sim_plain = sim_completion(&graph, &topo, "shuffle-plain");
    report.row(vec![
        "plain".into(),
        fmt_util::bytes(plain_bytes),
        "1.0x".into(),
        fmt_util::dur(sim_plain),
        "1.0x".into(),
    ]);

    // Each forced encoding, then the cost-based selector. `auto = true`
    // leaves the compiled edge plain and lets the executor's cost model
    // sample the first batch.
    let mut auto_pick = EdgeEncoding::Plain;
    let mut auto_reduction = 0.0f64;
    let mut auto_sim = sim_plain;
    for (label, forced) in [
        ("columnar", Some(EdgeEncoding::Columnar)),
        ("lz", Some(EdgeEncoding::Lz)),
        ("columnar+lz", Some(EdgeEncoding::ColumnarLz)),
        ("cost-selected", None),
    ] {
        let mut graph = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        if let Some(enc) = forced {
            // The sim ratio is refined below from the executed decision.
            graph.set_edge_encoding(eid, enc, 0.5);
        }
        let policy = if forced.is_some() {
            CodecPolicy::AsCompiled
        } else {
            CodecPolicy::Auto
        };
        let out = execute_graph(&graph, &env(policy), label).expect(label);
        assert_eq!(
            out.collect().expect("result").canonical_rows(),
            baseline_rows,
            "{label}: encoded shuffle changed the query result"
        );
        let decision = out
            .codec_decisions
            .first()
            .expect("fabric edge must record a codec decision");
        let bytes = out.ledger.cross_device_bytes();
        // Re-price the flow specs with the ratio the executor measured.
        graph.set_edge_encoding(eid, decision.encoding, decision.ratio());
        let sim = sim_completion(&graph, &topo, label);
        if forced.is_none() {
            auto_pick = decision.encoding;
            auto_reduction = plain_bytes as f64 / bytes.max(1) as f64;
            auto_sim = sim;
        }
        let name = if forced.is_none() {
            format!("cost-selected ({})", decision.encoding.name())
        } else {
            label.to_string()
        };
        report.row(vec![
            name,
            fmt_util::bytes(bytes),
            fmt_util::factor(plain_bytes as f64 / bytes.max(1) as f64),
            fmt_util::dur(sim),
            fmt_util::factor(sim_plain.as_secs_f64() / sim.as_secs_f64()),
        ]);
    }

    assert!(
        !auto_pick.is_plain(),
        "the cost model must pick a codec on the 25 GbE bottleneck"
    );
    assert!(
        auto_reduction >= 2.0,
        "cost-selected encoding must at least halve fabric-edge bytes \
         on the log-analytics shuffle (got {auto_reduction:.2}x)"
    );
    assert!(
        auto_sim <= sim_plain,
        "codec-priced shuffle must not regress simulated completion time"
    );

    report.observe(format!(
        "the cost model picks {} on the 25 GbE hop: {auto_reduction:.1}x fewer \
         fabric-edge ledger bytes than the plain shuffle, and the simulated \
         completion improves {} — the NIC's codec rate outruns the link, so \
         bytes saved are time saved",
        auto_pick.name(),
        fmt_util::factor(sim_plain.as_secs_f64() / auto_sim.as_secs_f64()),
    ));
    report.observe(
        "same placement over the default 100 Gb RDMA fabric picks plain: \
         the link outruns the NIC compress rate, so the selector keeps the \
         codec stages off the plan (no encoding is free when the wire is \
         faster than the accelerator)",
    );
    report
}

/// The shuffle under the cost-based selector on `topo`.
fn cost_selected(topo: &Topology, scale: Scale, tracer: Option<Arc<Tracer>>) -> ExecOutcome {
    let stream = workload::telemetry(scale.rows, 64, scale.seed);
    let graph = PipelineGraph::compile(
        &placed_shuffle(topo, &stream),
        None,
        Some(topo),
        DEFAULT_QUEUE_CAPACITY,
    );
    let env = ExecEnv {
        topology: Some(topo),
        tracer,
        codec: CodecPolicy::Auto,
        ..ExecEnv::in_memory()
    };
    execute_graph(&graph, &env, "cost-selected").expect("cost-selected shuffle")
}

/// Trace E15's cost-selected shuffle on 25 GbE: the filter on storage.nic,
/// with the edge encode the cost model picks, feeds the CPU's aggregate
/// over a fabric edge, so it runs on its own `exec.push.p0` lane.
pub fn trace_run(scale: Scale) -> Arc<Tracer> {
    let tracer = Arc::new(Tracer::new());
    cost_selected(&ethernet(), scale, Some(tracer.clone()));
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::lane_spans;

    #[test]
    fn cost_model_compresses_on_25gbe_and_keeps_rdma_plain() {
        let rdma = Topology::disaggregated(&DisaggregatedConfig::default());
        for (topo, pick) in [
            (ethernet(), EdgeEncoding::ColumnarLz),
            (rdma, EdgeEncoding::Plain),
        ] {
            let out = cost_selected(&topo, Scale::quick(), None);
            assert_eq!(out.codec_decisions[0].encoding, pick);
        }
    }

    #[test]
    fn trace_has_a_lane_for_the_nic_producer() {
        let tracer = trace_run(Scale::quick());
        tracer.validate().unwrap();
        assert!(lane_spans(&tracer, "exec.push.p0") > 0);
    }
}
