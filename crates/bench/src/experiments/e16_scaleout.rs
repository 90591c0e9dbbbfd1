//! E16 — §8: multi-host scale-out through the Exchange operator.
//!
//! The paper's single-box data paths (storage → NIC → CPU) generalize to a
//! rack: N hosts behind one switch, with the pipeline-graph IR's `Exchange`
//! operator redistributing rows between hosts. This experiment sweeps
//! 1 → 16 hosts over two workloads:
//!
//! * **scan-heavy**: every host scans its partition of a fact table and the
//!   results are gathered to host 0 for the final aggregation. The *nic*
//!   variant pre-aggregates on each host's SmartNIC before the gather (the
//!   in-path device discipline of §3.3 applied across hosts); the *cpu*
//!   variant ships raw rows and aggregates only at the destination.
//! * **join-heavy**: both join sides are hash-partitioned across all hosts
//!   (two `Exchange` groups), each host joins its partition, partial
//!   aggregates are gathered to host 0 and merged. The *nic* variant puts
//!   the partition tip on the SmartNIC, the *cpu* variant on the host CPU.
//!
//! Every generated multi-host graph is run through
//! [`PipelineGraph::verify`] *and* df-check's deadlock analysis (static
//! wait-graph reduction, plus exhaustive model checking where the graph is
//! small enough) before it is priced in the flow simulator — the sweep
//! doubles as an end-to-end exercise of the scale-out verifier.

use std::collections::BTreeSet;

use df_check::deadlock;
use df_core::expr::col;
use df_core::logical::{AggCall, AggFn, JoinType};
use df_core::ops::aggregate::partial_schema;
use df_core::ops::AggMode;
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{ExchangeKind, PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::scaleout::SHUFFLE_SEED;
use df_data::{Batch, Column, DataType, Field, Schema, SchemaRef};
use df_fabric::device::DeviceId;
use df_fabric::flow::FlowSim;
use df_fabric::link::LinkId;
use df_fabric::topology::{ClusterConfig, Topology};

use crate::report::{fmt_util, ExpReport};

use super::Scale;

/// The host counts the sweep visits.
pub const HOST_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Which device carries each host's exchange tip (the last producer-side
/// stage before rows leave the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeTip {
    /// Partition/pre-aggregate on the SmartNIC (in-path offload).
    Nic,
    /// Conventional software exchange on the host CPU.
    Cpu,
}

impl ExchangeTip {
    fn tag(self) -> &'static str {
        match self {
            ExchangeTip::Nic => "nic",
            ExchangeTip::Cpu => "cpu",
        }
    }

    fn device(self, topo: &Topology, host: usize) -> DeviceId {
        match self {
            ExchangeTip::Nic => topo.expect_device(&format!("host{host}.nic")),
            ExchangeTip::Cpu => topo.expect_device(&format!("host{host}.cpu")),
        }
    }
}

fn int_fields(names: &[&str]) -> SchemaRef {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::Int64))
            .collect::<Vec<_>>(),
    )
    .into_ref()
}

/// One host's slice of a table: deterministic Int64 columns, `rows` rows.
fn host_batch(schema: &SchemaRef, rows: usize, host: usize) -> Batch {
    let cols = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(c, _)| {
            let mul = c as i64 + 1;
            Column::from_i64(
                (0..rows as i64)
                    .map(|i| (i * mul + host as i64) % 97)
                    .collect(),
            )
        })
        .collect();
    Batch::new(schema.clone(), cols).expect("host batch")
}

/// Identity projection pinned to `device` — moves the stream onto that
/// device (an exchange tip, E7's CPU) without changing it.
pub(crate) fn reshape_on(input: PhysNode, schema: &SchemaRef, device: DeviceId) -> PhysNode {
    PhysNode::Project {
        exprs: schema
            .fields()
            .iter()
            .map(|f| (col(f.name.clone()), f.name.clone()))
            .collect(),
        schema: schema.clone(),
        input: Box::new(input),
        device: Some(device),
    }
}

/// Scan-heavy: per-host partition scans gathered to host 0 for a grouped
/// aggregation. `Nic` pre-aggregates on each SmartNIC before the gather.
fn scan_heavy_plan(
    topo: &Topology,
    hosts: usize,
    rows_per_host: usize,
    tip: ExchangeTip,
) -> PhysicalPlan {
    let raw = int_fields(&["g", "v", "a", "b"]);
    let group_by = vec!["g".to_string()];
    let aggs = vec![
        AggCall::new(AggFn::Sum, "v", "total"),
        AggCall::count_star("n"),
    ];
    let final_schema = int_fields(&["g", "total", "n"]);
    let partial = partial_schema(&group_by, &aggs, raw.as_ref())
        .expect("partial schema")
        .into_ref();

    let producers: Vec<PhysNode> = (0..hosts)
        .map(|h| {
            let ssd = topo.expect_device(&format!("host{h}.ssd"));
            let leaf = PhysNode::Values {
                batches: vec![host_batch(&raw, rows_per_host, h)],
                schema: raw.clone(),
                device: Some(ssd),
            };
            match tip {
                ExchangeTip::Nic => PhysNode::Aggregate {
                    input: Box::new(leaf),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    mode: AggMode::Partial { max_groups: 1024 },
                    final_schema: final_schema.clone(),
                    device: Some(tip.device(topo, h)),
                },
                ExchangeTip::Cpu => reshape_on(leaf, &raw, tip.device(topo, h)),
            }
        })
        .collect();

    let root_cpu = topo.expect_device("host0.cpu");
    let gather_schema = match tip {
        ExchangeTip::Nic => partial,
        ExchangeTip::Cpu => raw,
    };
    let gather = PhysNode::Exchange {
        group: 0,
        kind: ExchangeKind::Gather,
        index: 0,
        parts: 1,
        inputs: producers,
        schema: gather_schema,
        device: Some(root_cpu),
    };
    let root = PhysNode::Aggregate {
        input: Box::new(gather),
        group_by,
        aggs,
        mode: match tip {
            ExchangeTip::Nic => AggMode::Merge { max_groups: None },
            ExchangeTip::Cpu => AggMode::Final,
        },
        final_schema,
        device: Some(root_cpu),
    };
    PhysicalPlan::new(root, format!("scan{}-{}", hosts, tip.tag()))
}

/// Join-heavy: both sides hash-partitioned across all hosts, per-host
/// joins feed per-host partial aggregates, gathered and merged on host 0.
fn join_heavy_plan(
    topo: &Topology,
    hosts: usize,
    build_rows_per_host: usize,
    probe_rows_per_host: usize,
    tip: ExchangeTip,
) -> PhysicalPlan {
    let build_schema = int_fields(&["k", "w"]);
    let probe_schema = int_fields(&["fk", "x"]);
    let join_schema = int_fields(&["k", "w", "fk", "x"]);
    let aggs = vec![
        AggCall::count_star("n"),
        AggCall::new(AggFn::Sum, "x", "sx"),
    ];
    let final_schema = int_fields(&["n", "sx"]);
    let partial = partial_schema(&[], &aggs, join_schema.as_ref())
        .expect("partial schema")
        .into_ref();

    let side = |schema: &SchemaRef, rows: usize| -> Vec<PhysNode> {
        (0..hosts)
            .map(|h| {
                let ssd = topo.expect_device(&format!("host{h}.ssd"));
                let leaf = PhysNode::Values {
                    batches: vec![host_batch(schema, rows, h)],
                    schema: schema.clone(),
                    device: Some(ssd),
                };
                reshape_on(leaf, schema, tip.device(topo, h))
            })
            .collect()
    };
    // Every fragment carries the producer subtrees (clones share the
    // Arc-backed batches): the compiler only compiles the first one, but
    // per-fragment cost estimates stay consistent this way — a fragment
    // with empty `inputs` would price its join at the one-row floor.
    let build_producers = side(&build_schema, build_rows_per_host);
    let probe_producers = side(&probe_schema, probe_rows_per_host);

    let partials: Vec<PhysNode> = (0..hosts)
        .map(|j| {
            let cpu_j = topo.expect_device(&format!("host{j}.cpu"));
            let frag_dev = cpu_j;
            let bx = PhysNode::Exchange {
                group: 0,
                kind: ExchangeKind::Hash {
                    keys: vec!["k".into()],
                    seed: SHUFFLE_SEED,
                },
                index: j,
                parts: hosts,
                inputs: build_producers.clone(),
                schema: build_schema.clone(),
                device: Some(frag_dev),
            };
            let px = PhysNode::Exchange {
                group: 1,
                kind: ExchangeKind::Hash {
                    keys: vec!["fk".into()],
                    seed: SHUFFLE_SEED,
                },
                index: j,
                parts: hosts,
                inputs: probe_producers.clone(),
                schema: probe_schema.clone(),
                device: Some(frag_dev),
            };
            let join = PhysNode::HashJoin {
                build: Box::new(bx),
                probe: Box::new(px),
                on: vec![("k".into(), "fk".into())],
                join_type: JoinType::Inner,
                schema: join_schema.clone(),
                device: Some(cpu_j),
            };
            // Partial-aggregate on the near-memory accelerator (§5), then
            // hop back to the CPU: the gather tip must run `Partition`,
            // which the accelerator's op set doesn't include.
            let agg = PhysNode::Aggregate {
                input: Box::new(join),
                group_by: vec![],
                aggs: aggs.clone(),
                mode: AggMode::Partial { max_groups: 16 },
                final_schema: final_schema.clone(),
                device: Some(topo.expect_device(&format!("host{j}.mem"))),
            };
            reshape_on(agg, &partial, cpu_j)
        })
        .collect();

    let root_cpu = topo.expect_device("host0.cpu");
    let gather = PhysNode::Exchange {
        group: 2,
        kind: ExchangeKind::Gather,
        index: 0,
        parts: 1,
        inputs: partials,
        schema: partial,
        device: Some(root_cpu),
    };
    let root = PhysNode::Aggregate {
        input: Box::new(gather),
        group_by: vec![],
        aggs,
        mode: AggMode::Merge { max_groups: None },
        final_schema,
        device: Some(root_cpu),
    };
    PhysicalPlan::new(root, format!("join{}-{}", hosts, tip.tag()))
}

/// One sweep point, after verification and simulation.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// `"scan-heavy"` or `"join-heavy"`.
    pub workload: &'static str,
    /// Cluster size.
    pub hosts: usize,
    /// Exchange-tip placement.
    pub tip: &'static str,
    /// Simulated completion time in nanoseconds.
    pub makespan_ns: u64,
    /// Bytes that crossed any switch-attached link.
    pub switch_bytes: u64,
    /// Pipelines in the compiled graph.
    pub pipelines: usize,
    /// States explored by the bounded model check (None = static only).
    pub model_states: Option<usize>,
}

/// Verify, deadlock-check, and flow-price one placed plan on `topo`.
fn check_and_simulate(
    topo: &Topology,
    plan: &PhysicalPlan,
    workload: &'static str,
    hosts: usize,
    tip: ExchangeTip,
) -> SweepPoint {
    let graph = PipelineGraph::compile(plan, None, Some(topo), DEFAULT_QUEUE_CAPACITY);
    if let Err(errors) = graph.verify(Some(topo)) {
        panic!("{workload} x{hosts}: verify: {errors:?}");
    }
    let dl = deadlock::analyze(&graph);
    assert!(
        dl.is_deadlock_free(),
        "{workload} x{hosts}: deadlock analysis: {:?}",
        dl.findings
    );

    let root_cpu = topo.expect_device("host0.cpu");
    let switch = topo.expect_device("switch");
    let switch_links: BTreeSet<LinkId> = topo
        .links()
        .iter()
        .filter(|l| l.a == switch || l.b == switch)
        .map(|l| l.id)
        .collect();

    let specs = graph
        .to_flow_specs(root_cpu, &format!("{workload}-{}h-{}", hosts, tip.tag()))
        .expect("verified graph prices");
    let mut sim = FlowSim::new(topo.clone());
    for spec in specs {
        sim.add_pipeline(spec.with_chunk(256 << 10));
    }
    let outcome = sim.run();
    let switch_bytes = outcome
        .link_bytes
        .iter()
        .filter(|(id, _)| switch_links.contains(id))
        .map(|(_, b)| *b)
        .sum();
    SweepPoint {
        workload,
        hosts,
        tip: tip.tag(),
        makespan_ns: outcome.makespan.nanos().max(1),
        switch_bytes,
        pipelines: graph.pipelines.len(),
        model_states: dl.model_states,
    }
}

/// Run the full sweep (also used by the `scaleout` artifact binary).
pub fn sweep(scale: Scale) -> Vec<SweepPoint> {
    // Below ~200k rows the per-chunk and route latencies dominate the
    // 16-host runs (2.5 KB of data per host is all set-up cost) and the
    // sweep measures the fabric, not the workload.
    let rows = scale.rows.max(200_000);
    let mut points = Vec::new();
    for workload in ["scan-heavy", "join-heavy"] {
        for tip in [ExchangeTip::Nic, ExchangeTip::Cpu] {
            for hosts in HOST_SWEEP {
                let topo = Topology::cluster(hosts as u32, &ClusterConfig::default());
                let per_host = (rows / hosts).max(1);
                let plan = match workload {
                    "scan-heavy" => scan_heavy_plan(&topo, hosts, per_host, tip),
                    _ => join_heavy_plan(&topo, hosts, per_host / 4, per_host, tip),
                };
                points.push(check_and_simulate(&topo, &plan, workload, hosts, tip));
            }
        }
    }
    points
}

/// Speedup of `point` relative to the 1-host run of the same
/// workload/tip combination.
pub fn speedup(points: &[SweepPoint], point: &SweepPoint) -> f64 {
    let base = points
        .iter()
        .find(|p| p.workload == point.workload && p.tip == point.tip && p.hosts == 1)
        .expect("1-host baseline present");
    base.makespan_ns as f64 / point.makespan_ns as f64
}

/// Run E16.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E16",
        "§8 — multi-host scale-out via the Exchange operator",
        "Hash-partitioned and gathered exchanges over a switched N-host \
         cluster scale near-linearly when the exchange tip pre-reduces on \
         the NIC; every generated graph passes the scale-out verifier and \
         df-check's deadlock analysis.",
    )
    .headers(&[
        "workload",
        "hosts",
        "exchange tip",
        "makespan",
        "speedup vs 1 host",
        "switch bytes",
        "pipelines",
        "deadlock model",
    ]);

    let points = sweep(scale);
    for p in &points {
        report.row(vec![
            p.workload.to_string(),
            p.hosts.to_string(),
            p.tip.to_string(),
            format!("{:.3} ms", p.makespan_ns as f64 / 1e6),
            format!("{:.1}x", speedup(&points, p)),
            p.switch_bytes.to_string(),
            p.pipelines.to_string(),
            match p.model_states {
                Some(s) => format!("{s} states"),
                None => "static".to_string(),
            },
        ]);
    }

    let at = |workload: &str, tip: &str, hosts: usize| -> &SweepPoint {
        points
            .iter()
            .find(|p| p.workload == workload && p.tip == tip && p.hosts == hosts)
            .expect("sweep point present")
    };
    let scan16 = speedup(&points, at("scan-heavy", "nic", 16));
    let join16 = speedup(&points, at("join-heavy", "nic", 16));
    report.observe(format!(
        "with NIC-side exchange tips the simulated 16-host speedup is \
         {scan16:.1}x (scan-heavy) and {join16:.1}x (join-heavy) — \
         near-linear because nothing serial touches the full input",
    ));
    let nic_bytes = at("scan-heavy", "nic", 16).switch_bytes;
    let cpu_bytes = at("scan-heavy", "cpu", 16).switch_bytes;
    report.observe(format!(
        "NIC pre-aggregation moves {} through the switch where the \
         ship-everything plan moves {} ({}) — the in-path reduction \
         argument of §3.3, applied to the network fabric",
        fmt_util::bytes(nic_bytes),
        fmt_util::bytes(cpu_bytes),
        fmt_util::factor(cpu_bytes as f64 / nic_bytes.max(1) as f64),
    ));
    let cpu_scan16 = speedup(&points, at("scan-heavy", "cpu", 16));
    report.observe(format!(
        "shipping raw rows caps the scan-heavy speedup at {cpu_scan16:.1}x: \
         the host-0 gather consumer re-serializes the whole table — \
         Amdahl's law surfaces as a single hot pipeline in the flow report",
    ));
    report.observe(
        "all 20 graphs verified clean (exchange routes complete, partition \
         maps consistent) and deadlock-free; 1–2 host graphs additionally \
         pass exhaustive bounded model checking of their credit channels"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_up_is_near_linear_with_nic_tips() {
        let points = sweep(Scale::quick());
        assert_eq!(points.len(), 2 * 2 * HOST_SWEEP.len());
        for workload in ["scan-heavy", "join-heavy"] {
            let p16 = points
                .iter()
                .find(|p| p.workload == workload && p.tip == "nic" && p.hosts == 16)
                .unwrap();
            let s = speedup(&points, p16);
            assert!(s >= 10.0, "{workload} nic 16-host speedup {s:.2} < 10x");
        }
    }

    #[test]
    fn nic_preaggregation_moves_fewer_switch_bytes() {
        let points = sweep(Scale::quick());
        for hosts in [2, 4, 8, 16] {
            let bytes = |tip: &str| {
                points
                    .iter()
                    .find(|p| p.workload == "scan-heavy" && p.tip == tip && p.hosts == hosts)
                    .unwrap()
                    .switch_bytes
            };
            let (nic, cpu) = (bytes("nic"), bytes("cpu"));
            assert!(
                nic * 2 < cpu,
                "{hosts} hosts: nic {nic} not measurably under cpu {cpu}"
            );
        }
    }

    #[test]
    fn single_host_plans_keep_traffic_off_the_switch() {
        let points = sweep(Scale::quick());
        for p in points.iter().filter(|p| p.hosts == 1) {
            assert_eq!(
                p.switch_bytes, 0,
                "{}-{} crossed the switch",
                p.workload, p.tip
            );
        }
    }
}
