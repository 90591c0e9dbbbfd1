//! `log_shuffle`: one caller runs `execute` back to back on E15's placed
//! shuffle — seeded telemetry filtered at `storage.nic`, grouped by `level`
//! at `compute0.cpu` — over a 25 GbE disaggregated topology under
//! `CodecPolicy::Auto`, which picks `columnar+lz` for the one fabric edge.
//!
//! Here the edge codec encodes and decodes real frames, where
//! `exchange_join` only sizes plain ones: a change that speeds up sizing
//! at the cost of encoding slows this workload, and a faster bitpack or LZ
//! shows here and not on `exchange_join`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use df_bench::workload;
use df_codec::edge::EdgeEncoding;
use df_core::exec::push::{execute, execute_graph, CodecPolicy, ExecEnv, ExecOutcome};
use df_core::expr::{col, lit};
use df_core::logical::{AggCall, LogicalPlan};
use df_core::ops::AggMode;
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{EdgeKind, PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_data::{Batch, Scalar};
use df_fabric::link::LinkTech;
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_sim::Tracer;

use crate::layers::Layers;
use crate::probe::{timed, Setups};
use crate::spans;
use crate::stats::ms;
use crate::{Outcome, RunConfig, Size};

fn rows(size: Size) -> usize {
    match size {
        Size::Full => 800_000,
        Size::Tiny => 16_000,
    }
}

const SENSORS: usize = 64;
const BATCH_ROWS: usize = 8192;

struct Inputs {
    stream: Batch,
    topology: Topology,
    plan: PhysicalPlan,
}

/// The filter keeps every row (`sensor < 2^20`): the transfer is the
/// subject, as in E15.
fn set_up(size: Size, seed: u64) -> Inputs {
    let stream = workload::telemetry(rows(size), SENSORS, seed);
    let topology = Topology::disaggregated(&DisaggregatedConfig {
        network: LinkTech::Ethernet { gbits: 25 },
        ..DisaggregatedConfig::default()
    });
    let nic = topology.expect_device("storage.nic");
    let cpu = topology.expect_device("compute0.cpu");
    let calls = vec![AggCall::count_star("n")];
    let logical = LogicalPlan::values(vec![stream.clone()])
        .expect("values plan")
        .aggregate(vec!["level".into()], calls.clone())
        .expect("aggregate plan");
    let plan = PhysicalPlan::new(
        PhysNode::Aggregate {
            input: Box::new(PhysNode::Filter {
                input: Box::new(PhysNode::Values {
                    schema: stream.schema().clone(),
                    batches: stream.split(BATCH_ROWS).expect("split"),
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
    );
    Inputs {
        stream,
        topology,
        plan,
    }
}

fn env(topology: &Topology, tracer: Option<Arc<Tracer>>) -> ExecEnv<'_> {
    ExecEnv {
        storage: None,
        topology: Some(topology),
        wire: None,
        tracer,
        gate: None,
        codec: CodecPolicy::Auto,
    }
}

/// `(level, COUNT(*))`, sorted by level, computed from the generated rows.
fn expected(stream: &Batch) -> Vec<(String, i64)> {
    let level = stream.column_by_name("level").expect("level column");
    let mut counts: BTreeMap<String, i64> = BTreeMap::new();
    for i in 0..stream.rows() {
        *counts.entry(level.str_at(i).to_string()).or_default() += 1;
    }
    counts.into_iter().collect()
}

fn answer(outcome: &ExecOutcome) -> Vec<(String, i64)> {
    let mut got: Vec<(String, i64)> = outcome
        .batches
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |i| b.row(i)))
        .filter_map(|row| match row.as_slice() {
            [Scalar::Str(level), Scalar::Int(n)] => Some((level.clone(), *n)),
            _ => None,
        })
        .collect();
    got.sort();
    got
}

/// The exact counts one execution must repeat: ledger bytes, and the
/// codec decision's encoding and encoded sample size.
fn exact(outcome: &ExecOutcome) -> (u64, Option<(EdgeEncoding, u64)>) {
    (
        outcome.ledger.cross_device_bytes(),
        outcome
            .codec_decisions
            .first()
            .map(|d| (d.encoding, d.encoded_bytes)),
    )
}

/// Check one execution: the answer, and that its exact counts match the
/// first execution's.
fn check(
    out: &mut Outcome,
    ran: df_core::error::Result<ExecOutcome>,
    want: &[(String, i64)],
    first: &mut Option<(u64, Option<(EdgeEncoding, u64)>)>,
) -> Option<ExecOutcome> {
    let Ok(outcome) = ran else {
        out.count(false);
        return None;
    };
    out.count(answer(&outcome) == want);
    let now = exact(&outcome);
    let then = *first.get_or_insert(now);
    out.guard("ledger bytes", then.0, now.0);
    if then.1 != now.1 {
        out.guard_failures.push(format!(
            "codec decision {:?} differs from {:?}",
            now.1, then.1
        ));
    }
    Some(outcome)
}

/// Run the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let make = || set_up(config.size, config.seed);
    let (setups, inputs) = if config.trace {
        (None, make())
    } else {
        let (setups, inputs) = Setups::start(make);
        (Some(setups), inputs)
    };
    let mut want = expected(&inputs.stream);
    if config.corrupt_oracle {
        want[0].1 += 1;
    }
    out.lines.push(format!(
        "single caller, back to back; telemetry {} rows ({} bytes in memory) in {BATCH_ROWS}-row batches, 25 GbE, CodecPolicy::Auto",
        inputs.stream.rows(),
        inputs.stream.byte_size()
    ));
    let mut first = None;
    let warm = check(
        &mut out,
        execute(&inputs.plan, &env(&inputs.topology, None)),
        &want,
        &mut first,
    );
    let encoding = warm
        .as_ref()
        .and_then(|o| o.codec_decisions.first())
        .map_or(EdgeEncoding::ColumnarLz, |d| d.encoding);
    out.lines.push(format!(
        "Auto picked {} for the fabric edge",
        encoding.name()
    ));

    if config.trace {
        run_traced(config, &inputs, &want, &mut first, &mut out);
        out.edge_codec_probe(
            &inputs.stream.split(BATCH_ROWS).expect("split"),
            encoding,
            "the shuffle's batches (Auto's choice)",
        );
        return out;
    }

    let mut setups = setups.expect("end-to-end run");
    let mut samples = Vec::new();
    setups.measure(config.seconds, || {
        let (ran, d) = timed(|| execute(&inputs.plan, &env(&inputs.topology, None)));
        let failed_before = out.failed;
        check(&mut out, ran, &want, &mut first);
        if out.failed == failed_before {
            samples.push(ms(d));
        }
    });
    out.setup(&setups.finish());
    out.single_caller(&samples);
    out
}

fn run_traced(
    config: &RunConfig,
    inputs: &Inputs,
    want: &[(String, i64)],
    first: &mut Option<(u64, Option<(EdgeEncoding, u64)>)>,
    out: &mut Outcome,
) {
    let mut layers = Layers::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut fabric_edges = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut done = 0usize;
    while done < 1 || Instant::now() < deadline {
        done += 1;
        let (ran, d) = timed(|| execute(&inputs.plan, &env(&inputs.topology, None)));
        check(out, ran, want, first);
        untraced.push(ms(d));

        let tracer = Arc::new(Tracer::new());
        let mut steps = Vec::new();
        let start = Instant::now();
        let (graph, dc) = timed(|| {
            PipelineGraph::compile(
                &inputs.plan,
                None,
                Some(&inputs.topology),
                DEFAULT_QUEUE_CAPACITY,
            )
        });
        steps.push(("pipeline.compile_us", dc));
        let traced_env = env(&inputs.topology, Some(tracer.clone()));
        let (ran, execute) = timed(|| execute_graph(&graph, &traced_env, &inputs.plan.variant));
        let Some(outcome) = check(out, ran, want, first) else {
            continue;
        };
        let (_, dc) = timed(|| outcome.collect());
        steps.push(("data.concat_ms", dc));
        let wall = start.elapsed();
        let (_, dv) = timed(|| graph.verify_or_err(Some(&inputs.topology)));
        steps.push(("pipeline.verify_us", dv));
        traced.push(ms(wall));
        fabric_edges = graph
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Fabric { .. }))
            .count() as u64;
        let spans = spans::summarize(&tracer.chrome_trace_json());
        layers.add(wall, execute, &steps, &spans, Duration::ZERO);
    }
    layers.emit(&mut out.metrics, &mut out.lines);
    if let Some((bytes, _)) = *first {
        out.metrics.insert("exec.ledger_bytes", bytes as f64);
    }
    out.metrics.insert("exec.fabric_edges", fabric_edges as f64);
    out.overhead(&traced, &untraced, "execute");
}
