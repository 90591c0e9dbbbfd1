//! E5 — Figure 4 / §4.4: the scattering pipeline for a distributed,
//! partitioned hash join.
//!
//! "Smart NICs can be used to partition the data on the fly, perform
//! collective communication, and orchestrate distributed query execution
//! without involvement of the CPU."
//!
//! The same join runs across 2/4/8 cluster hosts as a placed Exchange
//! plan over the pipeline-graph IR, with the producer tips (and so the
//! partitioning) on the smart NICs (smart) or on the host CPUs
//! (baseline). Results are identical; the table shows the host-partitioned
//! bytes collapsing to zero on the smart path.

use std::sync::Arc;
use std::time::Instant;

use df_core::exec::push::{execute, ExecEnv};
use df_core::logical::LogicalPlan;
use df_core::physical::PhysicalPlan;
use df_core::scaleout::{
    cluster_hash_join_plan, exchange_broadcast_join, exchange_hash_join, split_round_robin,
    ScaleoutConfig,
};
use df_data::{Batch, SchemaRef};
use df_fabric::Topology;
use df_sim::Tracer;

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// The join key: orders' key against lineitem's foreign key.
const ON: (&str, &str) = ("o_orderkey", "l_orderkey");

fn join_schema(orders: &Batch, fact: &Batch) -> SchemaRef {
    LogicalPlan::values(vec![orders.clone()])
        .unwrap()
        .join(LogicalPlan::values(vec![fact.clone()]).unwrap(), vec![ON])
        .unwrap()
        .schema()
}

/// Run E5.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E5",
        "Figure 4 / §4.4 — NIC-orchestrated distributed partitioned hash join",
        "The exchange (hash partition + scatter) runs on the smart NICs; \
         the host CPUs never touch in-flight data, and the join completes \
         with identical results.",
    )
    .headers(&[
        "nodes",
        "exchange",
        "result rows",
        "host bytes",
        "nic bytes",
        "wire bytes",
        "wall time",
    ]);

    let orders = workload::orders(scale.rows / 4, scale.seed);
    let fact = workload::lineitem(scale.rows, scale.seed);
    let join_schema = join_schema(&orders, &fact);

    let mut reference: Option<Vec<Vec<df_data::Scalar>>> = None;
    for nodes in [2usize, 4, 8] {
        for smart in [true, false] {
            let config = ScaleoutConfig {
                hosts: nodes,
                smart_exchange: smart,
                ..ScaleoutConfig::default()
            };
            let t = Instant::now();
            let (result, stats) =
                exchange_hash_join(&orders, &fact, ON, join_schema.clone(), &config)
                    .expect("scale-out join");
            let wall = t.elapsed();
            let rows = result.canonical_rows();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(
                    r, &rows,
                    "scale-out join diverged (nodes={nodes}, smart={smart})"
                ),
            }
            report.row(vec![
                nodes.to_string(),
                if smart { "smart NIC" } else { "host CPU" }.to_string(),
                stats.result_rows.to_string(),
                fmt_util::bytes(stats.host_bytes),
                fmt_util::bytes(stats.nic_bytes),
                fmt_util::bytes(stats.cross_host_bytes),
                fmt_util::wall(wall),
            ]);
        }
    }

    // The §4.4 small-table alternative: broadcast the dimension table and
    // never move the fact side.
    let (broadcast_result, bc) = exchange_broadcast_join(
        &orders,
        &fact,
        ON,
        join_schema.clone(),
        &ScaleoutConfig {
            hosts: 4,
            ..ScaleoutConfig::default()
        },
    )
    .expect("broadcast join");
    assert_eq!(
        reference.as_ref().expect("reference set"),
        &broadcast_result.canonical_rows(),
        "broadcast join diverged"
    );
    report.observe(format!(
        "broadcast alternative (4 nodes): replicating the small table moves \
         {} across nodes vs {} for the partitioned exchange — the fact side \
         never travels, the paper's 'joins involving a small table' case",
        fmt_util::bytes(bc.cross_host_bytes),
        fmt_util::bytes({
            let (_, partitioned) = exchange_hash_join(
                &orders,
                &fact,
                ON,
                join_schema.clone(),
                &ScaleoutConfig {
                    hosts: 4,
                    ..ScaleoutConfig::default()
                },
            )
            .expect("partitioned reference");
            partitioned.cross_host_bytes
        }),
    ));
    report.observe(
        "the smart exchange reports zero host-partitioned bytes at every \
         host count; on the baseline every shuffled byte leaves a host \
         CPU, which partitioned it before the NIC ever saw it"
            .to_string(),
    );
    report.observe(
        "results are bit-identical across node counts and exchange \
         implementations — partitioning is deterministic, so every key \
         meets its match on exactly one node"
            .to_string(),
    );
    report
}

/// E5's 4-host smart-NIC partitioned join (the default
/// [`ScaleoutConfig`]) over `topology`, with the tables `run` joins.
fn smart_join_plan(scale: Scale, topology: &Topology, config: &ScaleoutConfig) -> PhysicalPlan {
    let orders = workload::orders(scale.rows / 4, scale.seed);
    let fact = workload::lineitem(scale.rows, scale.seed);
    cluster_hash_join_plan(
        topology,
        &split_round_robin(&orders, config.hosts),
        orders.schema().clone(),
        &split_round_robin(&fact, config.hosts),
        fact.schema().clone(),
        ON,
        join_schema(&orders, &fact),
        config.smart_exchange,
    )
    .expect("cluster plan")
}

/// Trace E5's 4-host smart-NIC join: every exchange producer (the build
/// and probe leaves on the NICs, the join fragments feeding the gather)
/// runs on its own `exec.push.p<pid>` lane.
pub fn trace_run(scale: Scale) -> Arc<Tracer> {
    let tracer = Arc::new(Tracer::new());
    let config = ScaleoutConfig::default();
    let topology = Topology::cluster(config.hosts as u32, &config.cluster);
    let env = ExecEnv {
        topology: Some(&topology),
        wire: Some(config.wire),
        tracer: Some(tracer.clone()),
        ..ExecEnv::in_memory()
    };
    execute(&smart_join_plan(scale, &topology, &config), &env).expect("scale-out join");
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
    use std::collections::BTreeMap;

    #[test]
    fn smart_rows_have_zero_host_bytes() {
        let report = run(Scale::quick());
        for row in &report.rows {
            if row[1] == "smart NIC" {
                assert_eq!(row[3], "0 B", "smart exchange touched the host: {row:?}");
            } else {
                assert_ne!(row[3], "0 B", "host exchange reported no host bytes");
            }
        }
        // Same result cardinality everywhere.
        let rows: Vec<&String> = report.rows.iter().map(|r| &r[2]).collect();
        assert!(rows.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn trace_has_a_lane_per_exchange_producer() {
        let tracer = trace_run(Scale::quick());
        tracer.validate().unwrap();
        // `exchange-producer` spans per lane, read from the export (a
        // lane's `tid` is its index in creation order).
        let lanes = tracer.lane_names();
        let mut spans: BTreeMap<String, usize> = BTreeMap::new();
        for line in tracer.chrome_trace_json().lines() {
            if line.contains(r#""ph":"B""#) && line.contains(r#""name":"exchange-producer""#) {
                let tid = line
                    .split(r#""tid":"#)
                    .nth(1)
                    .and_then(|t| t.split(',').next());
                let tid: usize = tid.and_then(|t| t.parse().ok()).expect("tid");
                *spans.entry(lanes[tid].clone()).or_default() += 1;
            }
        }
        let config = ScaleoutConfig::default();
        let topology = Topology::cluster(config.hosts as u32, &config.cluster);
        let plan = smart_join_plan(Scale::quick(), &topology, &config);
        let graph = PipelineGraph::compile(&plan, None, Some(&topology), DEFAULT_QUEUE_CAPACITY);
        // 4 build leaves, 4 probe leaves, 4 join fragments.
        let want: BTreeMap<String, usize> = graph
            .exchanges
            .iter()
            .flat_map(|x| &x.producers)
            .map(|pid| (format!("exec.push.p{pid}"), 1))
            .collect();
        assert_eq!(want.len(), 12);
        assert_eq!(spans, want);
    }
}
