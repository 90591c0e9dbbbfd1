//! E13 — §7.3: interference and the scheduler's two levers.
//!
//! "The enemy of sustained performance in this environment is
//! interference ... a scheduler may decide which plan variation to
//! activate at runtime \[and\] should be able to rate limit the bandwidth
//! used."
//!
//! A big analytical scan and a small latency-sensitive query share the
//! fabric. Both are *placed physical plans* compiled through the
//! pipeline-graph IR and replayed as derived flow specs. Naive admission
//! lets the big query monopolize the network and the small query's
//! latency balloons; the scheduler admits the big query rate-limited to
//! its fair share, restoring the small query's latency at modest cost to
//! the big one. A join-shaped plan then replays through the same
//! derivation — the build side becomes its own spine — demonstrating the
//! mapping is no longer restricted to linear plans.

use df_core::expr::{col, lit};
use df_core::logical::{AggCall, LogicalPlan};
use df_core::ops::AggMode;
use df_core::optimizer::{Optimizer, Profiles, TableProfile};
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_data::{Column, DataType, Field, Schema};
use df_fabric::flow::{FlowSim, PipelineSpec};
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_fabric::DeviceId;
use df_sim::{Bandwidth, SimTime};
use df_storage::predicate::StoragePredicate;
use df_storage::smart::ScanRequest;
use df_storage::zonemap::{CmpOp, ZoneMap};

use crate::report::{fmt_util, ExpReport};

use super::Scale;

/// A profile for a synthetic table of 40-byte rows (5 Int64 columns) whose
/// stored width equals its in-memory width, with a zone map on `k`.
fn table(profiles: &mut Profiles, name: &str, rows: u64) -> df_data::SchemaRef {
    let fields: Vec<Field> = ["k", "a", "b", "c", "d"]
        .iter()
        .map(|n| Field::new(*n, DataType::Int64))
        .collect();
    let schema = Schema::new(fields).into_ref();
    let mut zones = vec![Some(ZoneMap::of(&Column::from_i64(vec![
        0,
        rows as i64 - 1,
    ])))];
    zones.extend((0..4).map(|_| None));
    profiles.insert(
        name.to_string(),
        TableProfile {
            rows,
            stored_bytes: rows * 40,
            zones,
            schema: schema.as_ref().clone(),
        },
    );
    schema
}

fn scan_to_agg(
    table_name: &str,
    schema: df_data::SchemaRef,
    request: ScanRequest,
    ssd: DeviceId,
    cpu: DeviceId,
    variant: &str,
) -> PhysicalPlan {
    let scan = PhysNode::StorageScan {
        table: table_name.into(),
        request,
        schema,
        device: Some(ssd),
    };
    let final_schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("n", DataType::Int64),
    ])
    .into_ref();
    let agg = PhysNode::Aggregate {
        input: Box::new(scan),
        group_by: vec!["k".into()],
        aggs: vec![AggCall::count_star("n")],
        mode: AggMode::Final,
        final_schema,
        device: Some(cpu),
    };
    PhysicalPlan::new(agg, variant)
}

/// The big analytical query: full scan at the SSD, aggregate on the CPU.
fn big_pipeline(topo: &Topology, rows: u64) -> PipelineSpec {
    let ssd = topo.expect_device("storage.ssd");
    let cpu = topo.expect_device("compute0.cpu");
    let mut profiles = Profiles::new();
    let schema = table(&mut profiles, "fact", rows);
    let plan = scan_to_agg("fact", schema, ScanRequest::full(), ssd, cpu, "big");
    let graph = PipelineGraph::compile(&plan, Some(&profiles), None, 4);
    graph
        .to_flow_specs(cpu, "big-scan")
        .expect("verified graph")
        .remove(0)
}

/// The small latency-sensitive query: a selective pushed-down filter (the
/// zone map prices it at ~10%), aggregate on the CPU.
fn small_pipeline(topo: &Topology, rows: u64) -> PipelineSpec {
    let ssd = topo.expect_device("storage.ssd");
    let cpu = topo.expect_device("compute0.cpu");
    let mut profiles = Profiles::new();
    let schema = table(&mut profiles, "dim", rows);
    let request =
        ScanRequest::full().filter(StoragePredicate::cmp("k", CmpOp::Lt, (rows as i64) / 10));
    let plan = scan_to_agg("dim", schema, request, ssd, cpu, "small");
    let graph = PipelineGraph::compile(&plan, Some(&profiles), None, 4);
    graph
        .to_flow_specs(cpu, "small-query")
        .expect("verified graph")
        .remove(0)
        // The small query arrives while the big one is in full flight.
        .starting_at(SimTime(2_000_000))
}

/// Run E13.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E13",
        "§7.3 — interference between concurrent queries and scheduling",
        "Without scheduling, co-located plans interfere on shared links; \
         rate-limiting the DMA engines of the heavy query preserves the \
         latency-sensitive one.",
    )
    .headers(&[
        "policy",
        "big-scan time",
        "small-query time",
        "small-query slowdown vs solo",
    ]);

    let big_rows = (scale.rows as u64).max(100_000) * 40;
    let small_rows = big_rows / 200;

    // Solo baseline for the small query.
    let solo = {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let spec = small_pipeline(&topo, small_rows);
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(spec);
        sim.run().pipelines[0].duration()
    };

    let mut measured = Vec::new();
    for (policy, limit) in [
        ("naive (no scheduling)", None),
        (
            "scheduled (big query rate-limited to fair share)",
            Some(Bandwidth::gbits_per_sec(50.0)), // half of the 100G link
        ),
    ] {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let mut big = big_pipeline(&topo, big_rows);
        if let Some(bw) = limit {
            big = big.with_rate_limit(bw);
        }
        let small = small_pipeline(&topo, small_rows);
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(big);
        sim.add_pipeline(small);
        let outcome = sim.run();
        let big_time = outcome.pipelines[0].duration();
        let small_time = outcome.pipelines[1].duration();
        measured.push((big_time, small_time));
        report.row(vec![
            policy.to_string(),
            fmt_util::dur(big_time),
            fmt_util::dur(small_time),
            fmt_util::factor(small_time.as_secs_f64() / solo.as_secs_f64()),
        ]);
    }

    let (naive_big, naive_small) = measured[0];
    let (sched_big, sched_small) = measured[1];
    report.observe(format!(
        "scheduling cuts the small query's completion from {} to {} ({} \
         better) while the big scan pays only {} extra",
        fmt_util::dur(naive_small),
        fmt_util::dur(sched_small),
        fmt_util::factor(naive_small.as_secs_f64() / sched_small.as_secs_f64()),
        fmt_util::factor(sched_big.as_secs_f64() / naive_big.as_secs_f64()),
    ));
    report.observe(format!(
        "solo baseline for the small query: {} — the scheduled policy gets \
         within a small factor of isolation",
        fmt_util::dur(solo)
    ));

    // A join-shaped plan through the same derivation: the optimizer plans
    // it, the pipeline graph cuts the build side into its own spine, and
    // both spines replay concurrently in the simulator.
    let (probe_t, build_t) = join_replay();
    report.observe(format!(
        "a hash-join plan admits through the same flow mapping (build \
         spine {} alongside the probe spine {}) — the linear-plan-only \
         restriction is gone",
        fmt_util::dur(build_t),
        fmt_util::dur(probe_t),
    ));
    report
}

/// Plan a join with the optimizer, derive its flow specs, and replay both
/// spines; returns (probe spine time, build spine time).
fn join_replay() -> (df_sim::SimDuration, df_sim::SimDuration) {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let mut profiles = Profiles::new();
    let dim_schema = Schema::new(vec![Field::new("dk", DataType::Int64)]).into_ref();
    profiles.insert(
        "dim".to_string(),
        TableProfile {
            rows: 10_000,
            stored_bytes: 80_000,
            zones: vec![None],
            schema: dim_schema.as_ref().clone(),
        },
    );
    let fact_schema = table(&mut profiles, "fact", 1_000_000);
    let logical = LogicalPlan::scan("dim", dim_schema)
        .join(
            LogicalPlan::scan("fact", fact_schema)
                .filter(col("k").lt(lit(500_000)))
                .unwrap(),
            vec![("dk", "k")],
        )
        .unwrap();
    let optimizer = Optimizer::new(std::sync::Arc::new(Topology::disaggregated(
        &DisaggregatedConfig::default(),
    )))
    .unwrap();
    let best = optimizer.best(&logical, &profiles).expect("join plans");
    let specs = PipelineGraph::compile(&best.plan, Some(&profiles), None, DEFAULT_QUEUE_CAPACITY)
        .to_flow_specs(optimizer.site().cpu, "join")
        .expect("verified graph");
    assert!(specs.len() >= 2, "join plan must yield a build spine");
    let mut sim = FlowSim::new(topo);
    for spec in specs {
        sim.add_pipeline(spec);
    }
    let report = sim.run();
    (
        report.pipelines[0].duration(),
        report.pipelines[1].duration(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_protects_the_small_query() {
        let report = run(Scale::quick());
        let slowdown =
            |row: usize| -> f64 { report.rows[row][3].trim_end_matches('x').parse().unwrap() };
        let naive = slowdown(0);
        let scheduled = slowdown(1);
        assert!(
            scheduled < naive,
            "scheduling did not help: naive {naive}x vs scheduled {scheduled}x"
        );
        assert!(naive > 1.5, "interference too mild to matter: {naive}x");
    }

    #[test]
    fn join_plan_flow_replays_end_to_end() {
        let (probe, build) = join_replay();
        assert!(probe.nanos() > 0, "probe spine must make progress");
        assert!(build.nanos() > 0, "build spine must make progress");
    }
}
