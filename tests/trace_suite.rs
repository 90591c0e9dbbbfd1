//! The tracing test suite: golden-trace determinism, Chrome trace_event
//! structural soundness, and a property test over arbitrary span nesting.

use rheo::bench::experiments::{e01_conventional, e10_full_pipeline, Scale};
use rheo::check::{check, Gen};
use rheo::sim::{LaneKind, SimTime, SpanGuard, Tracer};

const SCALE: Scale = Scale {
    rows: 4_000,
    seed: 42,
};

/// Golden trace: E10 replayed twice with the same seed produces
/// byte-identical simulated-time timelines (the determinism contract from
/// DESIGN.md §4). Wall-clock lanes are excluded by `sim_timeline`.
#[test]
fn golden_trace_e10_is_deterministic() {
    let a = e10_full_pipeline::trace_flow(SCALE);
    let b = e10_full_pipeline::trace_flow(SCALE);
    a.validate().expect("first trace well-formed");
    b.validate().expect("second trace well-formed");
    let ta = a.sim_timeline();
    let tb = b.sim_timeline();
    assert!(!ta.is_empty(), "trace recorded nothing");
    assert_eq!(ta, tb, "sim-time trace is not deterministic");

    // The full pipeline exercises every stage of the data path: storage,
    // NIC, the fabric links between them, and the compute node.
    for lane in [
        "storage.ssd",
        "compute0.nic",
        "compute0.cpu",
        "link.storage.ssd-storage.nic.",
    ] {
        assert!(
            ta.lines().any(|l| l.starts_with(lane)),
            "no events on lane {lane}"
        );
    }
}

/// E1's trace shows parallel work per worker: the fanned-out run puts each
/// fragment on its own `exec.push.p<pid>` lane under an
/// `exchange-producer` span.
#[test]
fn e1_trace_has_a_lane_per_fan_out_fragment() {
    let tracer = e01_conventional::trace_run(Scale::quick());
    tracer.validate().expect("E1 trace well-formed");
    let json = tracer.chrome_trace_json();
    let mut lanes: Vec<(&str, &str)> = Vec::new(); // (tid, lane name)
    let mut producer_lanes: Vec<&str> = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(tid) = field(line, "tid") else {
            continue;
        };
        match field(line, "name") {
            Some("thread_name") => {
                let name = line
                    .split_once(r#""args":{"name":""#)
                    .and_then(|(_, rest)| rest.split('"').next());
                lanes.push((tid, name.unwrap_or_default()));
            }
            Some("exchange-producer") if !producer_lanes.contains(&tid) => producer_lanes.push(tid),
            _ => {}
        }
    }
    let fragment_lanes = producer_lanes
        .iter()
        .filter_map(|tid| lanes.iter().find(|(t, _)| t == tid))
        .filter(|(_, name)| {
            name.strip_prefix("exec.push.p")
                .is_some_and(|pid| pid.parse::<usize>().is_ok())
        })
        .count();
    assert!(
        fragment_lanes >= 2,
        "want >=2 exec.push.p<pid> lanes with exchange-producer spans: {lanes:?}"
    );
}

/// A minimal reader for the known shape of our own Chrome trace_event
/// output: one JSON object per line, fields in a fixed order.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn ts_nanos(raw: &str) -> u64 {
    // "123.456" microseconds -> nanoseconds.
    let (us, frac) = raw.split_once('.').expect("fractional ts");
    us.parse::<u64>().unwrap() * 1_000 + frac.parse::<u64>().unwrap()
}

/// Structural soundness of the Chrome export: every `B` has a matching `E`
/// on its lane, spans never partially overlap (stack discipline), and
/// timestamps are monotone per lane.
#[test]
fn chrome_trace_json_is_structurally_sound() {
    let tracer = e10_full_pipeline::trace_flow(SCALE);
    let json = tracer.chrome_trace_json();
    assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));

    use std::collections::HashMap;
    let mut stacks: HashMap<(u32, u32), Vec<()>> = HashMap::new();
    let mut last_ts: HashMap<(u32, u32), u64> = HashMap::new();
    let mut events = 0usize;
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let ph = field(line, "ph").expect("ph field");
        if ph == "M" {
            continue;
        }
        let pid: u32 = field(line, "pid").unwrap().parse().unwrap();
        let tid: u32 = field(line, "tid").unwrap().parse().unwrap();
        let ts = ts_nanos(field(line, "ts").expect("ts field"));
        let lane = (pid, tid);
        events += 1;

        let prev = last_ts.entry(lane).or_insert(0);
        assert!(
            ts >= *prev,
            "lane {lane:?}: ts {ts} goes backwards (prev {prev})"
        );
        *prev = ts;

        match ph {
            "B" => {
                assert!(
                    field(line, "name").is_some(),
                    "B event without a name: {line}"
                );
                stacks.entry(lane).or_default().push(());
            }
            "E" => {
                assert!(
                    stacks.entry(lane).or_default().pop().is_some(),
                    "lane {lane:?}: E with no open B"
                );
            }
            "i" => {
                assert_eq!(field(line, "s"), Some("t"), "instant without scope");
            }
            other => panic!("unexpected phase {other:?} in {line}"),
        }
    }
    assert!(events > 0, "no events in the export");
    for (lane, stack) in stacks {
        assert!(
            stack.is_empty(),
            "lane {lane:?}: {} unclosed B",
            stack.len()
        );
    }
}

/// Property: any sequence of open/close/instant operations expressed through
/// the RAII [`SpanGuard`] API yields a properly nested span tree — guards
/// drop in LIFO order by construction, so `validate` must always pass and
/// begin/end events must balance exactly.
#[test]
fn arbitrary_span_guard_nesting_is_well_formed() {
    check("trace-span-guard-nesting", 64, |gen: &mut Gen| {
        let tracer = Tracer::new();
        let lane = tracer.lane("prop.lane", LaneKind::Wall);
        let sim_lane = tracer.lane("prop.sim", LaneKind::Sim);
        let mut open: Vec<SpanGuard> = Vec::new();
        let mut begins = 0u64;
        let mut instants = 0u64;
        let mut clock = 0u64;
        let steps = gen.usize_in(0, 60);
        for _ in 0..steps {
            match gen.usize_in(0, 3) {
                0 => {
                    let mut guard = tracer.span(lane, "op");
                    if gen.bool() {
                        guard.annotate("rows", gen.u64() % 1_000);
                    }
                    open.push(guard);
                    begins += 1;
                }
                1 => {
                    // Close the innermost span, if any (LIFO drop).
                    open.pop();
                }
                2 => {
                    tracer.instant(lane, "tick");
                    instants += 1;
                }
                _ => {
                    // Sim-lane spans with a monotone clock stay valid too.
                    let start = clock;
                    clock += gen.u64() % 50;
                    tracer.span_at(
                        sim_lane,
                        "svc",
                        SimTime(start),
                        SimTime(clock),
                        &[("bytes", gen.u64() % 4_096)],
                    );
                    begins += 1;
                }
            }
        }
        // Close whatever is still open, innermost first (LIFO).
        while open.pop().is_some() {}
        tracer.validate().expect("trace from guards is well-formed");
        // Every begin got an end; instants stand alone.
        assert_eq!(tracer.event_count() as u64, 2 * begins + instants);
    });
}

/// Satellite of the pipeline-graph refactor: the executor's new
/// `fabric-edge` / `credit-wait` spans live on wall-clock lanes only. A
/// flow replay traced alongside a real cross-device execution yields a
/// simulated-time timeline byte-identical to the same replay traced alone
/// — executor spans cannot perturb the sim-lane golden traces.
#[test]
fn fabric_edge_spans_stay_out_of_sim_lanes() {
    use rheo::core::exec::push::{execute, CodecPolicy, ExecEnv};
    use rheo::core::logical::AggCall;
    use rheo::core::ops::AggMode;
    use rheo::core::physical::{PhysNode, PhysicalPlan};
    use rheo::data::batch::batch_of;
    use rheo::data::{Column, DataType, Field, Schema};
    use rheo::fabric::flow::{FlowSim, PipelineSpec, StageSpec};
    use rheo::fabric::topology::{DisaggregatedConfig, Topology};
    use rheo::fabric::OpClass;
    use std::sync::Arc;

    let replay = |with_exec: bool| -> Arc<Tracer> {
        let tracer = Arc::new(Tracer::new());
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let ssd = topo.expect_device("storage.ssd");
        let cpu = topo.expect_device("compute0.cpu");
        if with_exec {
            // A placed plan with a device cut: source on the SSD, final
            // aggregation on the CPU — the handoff is a fabric edge.
            let schema = Schema::new(vec![
                Field::new("g", DataType::Int64),
                Field::new("v", DataType::Int64),
            ])
            .into_ref();
            let values = PhysNode::Values {
                batches: vec![batch_of(vec![
                    ("g", Column::from_i64(vec![0, 1, 0, 1])),
                    ("v", Column::from_i64(vec![10, 20, 30, 40])),
                ])],
                schema,
                device: Some(ssd),
            };
            let agg = PhysNode::Aggregate {
                input: Box::new(values),
                group_by: vec!["g".into()],
                aggs: vec![AggCall::count_star("n")],
                mode: AggMode::Final,
                final_schema: Schema::new(vec![
                    Field::new("g", DataType::Int64),
                    Field::new("n", DataType::Int64),
                ])
                .into_ref(),
                device: Some(cpu),
            };
            let env = ExecEnv {
                storage: None,
                topology: Some(&topo),
                wire: None,
                tracer: Some(tracer.clone()),
                gate: None,
                codec: CodecPolicy::AsCompiled,
            };
            execute(&PhysicalPlan::new(agg, "traced"), &env).expect("traced execution");
        }
        let mut sim = FlowSim::new(topo);
        sim.set_tracer(tracer.clone());
        sim.add_pipeline(PipelineSpec::new(
            "replay",
            vec![
                StageSpec::new(ssd, OpClass::Scan, 1.0),
                StageSpec::new(cpu, OpClass::AggregateFinal, 0.01),
            ],
            1 << 20,
        ));
        sim.run();
        tracer
    };

    let sim_only = replay(false);
    let mixed = replay(true);

    // Wall lanes carry the new executor spans...
    let json = mixed.chrome_trace_json();
    assert!(
        json.contains("fabric-edge"),
        "no fabric-edge span in export"
    );
    // ...but the simulated-time timeline never sees them, and stays
    // byte-identical to a replay with no execution at all.
    let sim_lane = mixed.sim_timeline();
    for needle in ["fabric-edge", "credit-wait", "exec.push"] {
        assert!(!sim_lane.contains(needle), "{needle} leaked into sim lanes");
    }
    assert_eq!(
        sim_only.sim_timeline(),
        sim_lane,
        "executor spans perturbed the sim-lane golden trace"
    );
}

/// Golden multi-query trace: the serving harness replays a three-tenant
/// weighted mix (with a high-priority tenant arriving into a backlog) on
/// the sim clock. The per-tenant lanes must carry the full credit story —
/// `arrive`/`done` instants, `batch` spans, `credit-wait` spans while
/// queries sit without credits, and `preempt` instants when a
/// lower-priority query yields — and the whole timeline must be
/// byte-identical across same-seed runs, per-tenant slices included.
#[test]
fn golden_trace_multi_query_harness() {
    use rheo::serve::harness::{run, TenantLoad, Workload};
    use rheo::serve::tenant::TenantSpec;
    use rheo::sim::SimDuration;

    let workload = || {
        // Long low-priority queries arrive first: the head of the line
        // takes a quantum-2 grant (one batch in flight plus a spare
        // credit), saturating both slots …
        let mut batch_tenant = TenantLoad::new(TenantSpec::new("batch", 2), 2);
        batch_tenant.mean_interarrival = SimDuration::from_secs_f64(1e-6);
        batch_tenant.batches = (20, 30);
        batch_tenant.mean_service = SimDuration::from_secs_f64(300e-6);
        let mut scavenger = TenantLoad::new(TenantSpec::new("scavenger", 1), 2);
        scavenger.mean_interarrival = SimDuration::from_secs_f64(1e-6);
        scavenger.batches = (20, 30);
        scavenger.mean_service = SimDuration::from_secs_f64(300e-6);
        // … while short high-priority queries pile up in the wait queue
        // before the first batch boundary, forcing the holder to yield
        // its spare credit.
        let mut interactive =
            TenantLoad::new(TenantSpec::new("interactive", 1).with_priority(2), 8);
        interactive.mean_interarrival = SimDuration::from_secs_f64(100e-6);
        interactive.batches = (1, 3);
        interactive.mean_service = SimDuration::from_secs_f64(100e-6);
        Workload {
            tenants: vec![interactive, batch_tenant, scavenger],
            seed: 7,
            slots: 2,
            quantum: 2,
        }
    };

    let a = run(&workload());
    let b = run(&workload());
    assert_eq!(a.decisions, b.decisions, "scheduler decisions diverged");
    assert_eq!(a.timeline, b.timeline, "sim timeline diverged");

    // Every tenant has a lane, and lanes slice cleanly out of the whole.
    for tenant in ["interactive", "batch", "scavenger"] {
        let lane = format!("tenant.{tenant}");
        assert!(
            a.timeline.lines().any(|l| l.starts_with(&lane)),
            "no events on lane {lane}"
        );
    }

    // The credit story is visible: waits under contention, preemption
    // yields when the high-priority tenant arrives into the backlog.
    assert!(
        a.timeline.contains("credit-wait"),
        "no credit-wait span in a saturated mix:\n{}",
        a.timeline
    );
    assert!(
        a.timeline.contains("preempt"),
        "no preemption instant despite a priority-2 tenant:\n{}",
        a.timeline
    );
    assert!(
        a.decisions.contains("yield"),
        "no yield decision despite quantum 2 under preemption:\n{}",
        a.decisions
    );
    // Preemption yields belong to the low-priority tenants only.
    for line in a.timeline.lines() {
        if line.contains("preempt") {
            assert!(
                !line.starts_with("tenant.interactive"),
                "the high-priority tenant must never be preempted: {line}"
            );
        }
    }
}

/// The summary exporter agrees with the timeline on which lanes did work.
#[test]
fn summary_lists_every_lane_once() {
    let tracer = e10_full_pipeline::trace_flow(SCALE);
    let summary = tracer.summary();
    // First token of each data row is the lane name.
    let rows: Vec<&str> = summary
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for name in tracer.lane_names() {
        assert_eq!(
            rows.iter().filter(|r| **r == name).count(),
            1,
            "lane {name} missing or duplicated in summary"
        );
    }
}
