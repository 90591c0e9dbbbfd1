//! `exchange_join`: one caller runs `df_core::scaleout::exchange_hash_join`
//! back to back — 4 hosts, a smart (NIC-partitioned) exchange, ledger
//! sizing under `WireOptions::plain()` — joining `orders(rows/4)` with
//! `lineitem(rows)` on `o_orderkey = l_orderkey`.
//!
//! This is Figure 4's scattering pipeline (E5): 17 pipelines and 36 fabric
//! edges, each edge a producer thread behind a credit channel, each
//! cross-device batch sized by `wire::wire_size`. Storage, SQL, the gate
//! and the protocol do no work here.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

use df_bench::workload;
use df_core::exec::push::{execute_graph, CodecPolicy, ExecEnv};
use df_core::logical::LogicalPlan;
use df_core::pipeline::{EdgeKind, PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::scaleout::{
    cluster_hash_join_plan, exchange_hash_join, split_round_robin, ScaleoutConfig, ScaleoutReport,
};
use df_data::{Batch, Column, SchemaRef};
use df_fabric::Topology;
use df_sim::Tracer;

use crate::layers::Layers;
use crate::probe::{timed, Setups};
use crate::spans;
use crate::stats::ms;
use crate::{Outcome, RunConfig, Size};

/// Fact-table rows; the orders table has a quarter as many.
fn rows(size: Size) -> usize {
    match size {
        Size::Full => 400_000,
        Size::Tiny => 8_000,
    }
}

const ON: (&str, &str) = ("o_orderkey", "l_orderkey");
const ORDER_COLUMNS: [&str; 4] = ["o_orderkey", "o_custkey", "o_priority", "o_region"];
const LINE_COLUMNS: [&str; 8] = [
    "l_orderkey",
    "l_partkey",
    "l_quantity",
    "l_price",
    "l_discount",
    "l_shipdate",
    "l_region",
    "l_comment",
];

/// The generated inputs.
struct Inputs {
    orders: Batch,
    fact: Batch,
    schema: SchemaRef,
    config: ScaleoutConfig,
}

fn set_up(size: Size, seed: u64) -> Inputs {
    let fact = workload::lineitem(rows(size), seed);
    let orders = workload::orders(rows(size) / 4, seed);
    let schema = LogicalPlan::values(vec![orders.clone()])
        .expect("orders plan")
        .join(
            LogicalPlan::values(vec![fact.clone()]).expect("lineitem plan"),
            vec![ON],
        )
        .expect("join plan")
        .schema();
    Inputs {
        orders,
        fact,
        schema,
        config: ScaleoutConfig {
            hosts: 4,
            ..ScaleoutConfig::default()
        },
    }
}

/// One column's values, for order-independent row fingerprints.
enum View<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a Column),
}

impl View<'_> {
    fn of<'a>(batch: &'a Batch, name: &str) -> Option<View<'a>> {
        let c = batch.column_by_name(name).ok()?;
        Some(match (c.i64_values(), c.f64_values()) {
            (Ok(v), _) => View::Int(v),
            (_, Ok(v)) => View::Float(v),
            _ => View::Str(c),
        })
    }

    fn write(&self, i: usize, h: &mut DefaultHasher) {
        match self {
            View::Int(v) => h.write_i64(v[i]),
            View::Float(v) => h.write_u64(v[i].to_bits()),
            View::Str(c) => h.write(c.str_at(i).as_bytes()),
        }
    }
}

fn views<'a>(batch: &'a Batch, names: &[&str]) -> Option<Vec<View<'a>>> {
    names.iter().map(|n| View::of(batch, n)).collect()
}

/// Row count and the wrapping sum of per-row hashes over every order and
/// lineitem column: equal for equal multisets of joined rows.
pub type Fingerprint = (usize, u64);

fn fingerprint(result: &Batch) -> Option<Fingerprint> {
    let cols = views(result, &[&ORDER_COLUMNS[..], &LINE_COLUMNS[..]].concat())?;
    let mut sum = 0u64;
    for i in 0..result.rows() {
        let mut h = DefaultHasher::new();
        cols.iter().for_each(|c| c.write(i, &mut h));
        sum = sum.wrapping_add(h.finish());
    }
    Some((result.rows(), sum))
}

/// The join's answer computed directly: a hash map from order key to row.
fn expected(orders: &Batch, fact: &Batch) -> Fingerprint {
    let o = views(orders, &ORDER_COLUMNS).expect("orders columns");
    let l = views(fact, &LINE_COLUMNS).expect("lineitem columns");
    let okeys = orders
        .column_by_name(ON.0)
        .and_then(|c| c.i64_values())
        .expect("keys");
    let lkeys = fact
        .column_by_name(ON.1)
        .and_then(|c| c.i64_values())
        .expect("keys");
    let mut index: HashMap<i64, Vec<usize>> = HashMap::new();
    for (j, k) in okeys.iter().enumerate() {
        index.entry(*k).or_default().push(j);
    }
    let (mut rows, mut sum) = (0usize, 0u64);
    for (i, k) in lkeys.iter().enumerate() {
        for &j in index.get(k).map_or(&[][..], Vec::as_slice) {
            let mut h = DefaultHasher::new();
            o.iter().for_each(|c| c.write(j, &mut h));
            l.iter().for_each(|c| c.write(i, &mut h));
            sum = sum.wrapping_add(h.finish());
            rows += 1;
        }
    }
    (rows, sum)
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
    let mut want = expected(&inputs.orders, &inputs.fact);
    if config.corrupt_oracle {
        want.1 = want.1.wrapping_add(1);
    }
    out.lines.push(format!(
        "single caller, back to back; orders {} rows ⋈ lineitem {} rows ({} + {} bytes in memory), {} hosts, smart exchange, plain wire sizing",
        inputs.orders.rows(),
        inputs.fact.rows(),
        inputs.orders.byte_size(),
        inputs.fact.byte_size(),
        inputs.config.hosts
    ));
    if config.trace {
        run_traced(config, &inputs, want, &mut out);
        return out;
    }

    let join = || {
        exchange_hash_join(
            &inputs.orders,
            &inputs.fact,
            ON,
            inputs.schema.clone(),
            &inputs.config,
        )
    };
    let mut first_bytes = None;
    let mut check = |out: &mut Outcome, ran: df_core::error::Result<(Batch, ScaleoutReport)>| {
        let ok = match ran {
            Ok((result, report)) => {
                let bytes = report.total_bytes;
                out.guard("ledger bytes", *first_bytes.get_or_insert(bytes), bytes);
                fingerprint(&result) == Some(want)
            }
            Err(_) => false,
        };
        out.count(ok);
    };
    let (warm, _) = timed(join);
    check(&mut out, warm);

    let mut setups = setups.expect("end-to-end run");
    let mut samples = Vec::new();
    setups.measure(config.seconds, || {
        let (ran, d) = timed(join);
        let failed_before = out.failed;
        check(&mut out, ran);
        if out.failed == failed_before {
            samples.push(ms(d));
        }
    });
    out.setup(&setups.finish());
    out.single_caller(&samples);
    out
}

/// `exchange_hash_join`'s steps, each behind a benchmark-side timer, with
/// the executor tracing.
struct Replayed {
    result: Batch,
    wall: Duration,
    execute: Duration,
    steps: Vec<(&'static str, Duration)>,
    spans: spans::SpanTotals,
    fabric_edges: u64,
    ledger_bytes: u64,
}

fn replay(inputs: &Inputs) -> Result<Replayed, String> {
    let tracer = Arc::new(Tracer::new());
    let hosts = inputs.config.hosts;
    let mut steps = Vec::new();
    let start = Instant::now();
    let (topology, d) = timed(|| Topology::cluster(hosts as u32, &inputs.config.cluster));
    steps.push(("fabric.cluster_build_ms", d));
    let ((build, probe), d) = timed(|| {
        (
            split_round_robin(&inputs.orders, hosts),
            split_round_robin(&inputs.fact, hosts),
        )
    });
    steps.push(("data.split_ms", d));
    let plan = cluster_hash_join_plan(
        &topology,
        &build,
        inputs.orders.schema().clone(),
        &probe,
        inputs.fact.schema().clone(),
        ON,
        inputs.schema.clone(),
        inputs.config.smart_exchange,
    )
    .map_err(|e| e.to_string())?;
    let (graph, d) =
        timed(|| PipelineGraph::compile(&plan, None, Some(&topology), DEFAULT_QUEUE_CAPACITY));
    steps.push(("pipeline.compile_us", d));
    let env = ExecEnv {
        storage: None,
        topology: Some(&topology),
        wire: Some(inputs.config.wire),
        tracer: Some(tracer.clone()),
        gate: None,
        codec: CodecPolicy::AsCompiled,
    };
    let (outcome, execute) = timed(|| execute_graph(&graph, &env, &plan.variant));
    let outcome = outcome.map_err(|e| e.to_string())?;
    let (result, d) = timed(|| {
        if outcome.batches.is_empty() {
            Ok(Batch::empty(inputs.schema.clone()))
        } else {
            outcome.collect()
        }
    });
    steps.push(("data.concat_ms", d));
    let result = result.map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    // `execute_graph` verifies the graph before running it; time the same
    // call on its own so that part of the executor's time is attributed.
    let (_, d) = timed(|| graph.verify_or_err(Some(&topology)));
    steps.push(("pipeline.verify_us", d));
    Ok(Replayed {
        result,
        wall,
        execute,
        steps,
        spans: spans::summarize(&tracer.chrome_trace_json()),
        fabric_edges: graph
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Fabric { .. }))
            .count() as u64,
        ledger_bytes: outcome.ledger.cross_device_bytes(),
    })
}

fn run_traced(config: &RunConfig, inputs: &Inputs, want: Fingerprint, out: &mut Outcome) {
    let mut layers = Layers::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut exact: Option<(u64, u64)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut done = 0usize;
    while done < 2 || Instant::now() < deadline {
        let warm = done == 0;
        done += 1;
        let (ran, d) = timed(|| {
            exchange_hash_join(
                &inputs.orders,
                &inputs.fact,
                ON,
                inputs.schema.clone(),
                &inputs.config,
            )
        });
        out.count(ran.is_ok_and(|(r, _)| fingerprint(&r) == Some(want)));
        match replay(inputs) {
            Ok(r) => {
                out.count(fingerprint(&r.result) == Some(want));
                let (edges, bytes) = *exact.get_or_insert((r.fabric_edges, r.ledger_bytes));
                out.guard("fabric edges", edges, r.fabric_edges);
                out.guard("ledger bytes", bytes, r.ledger_bytes);
                if !warm {
                    untraced.push(ms(d));
                    traced.push(ms(r.wall));
                    layers.add(r.wall, r.execute, &r.steps, &r.spans, Duration::ZERO);
                }
            }
            Err(e) => {
                out.count(false);
                out.lines.push(format!("replay failed: {e}"));
            }
        }
    }
    layers.emit(&mut out.metrics, &mut out.lines);
    if let Some((edges, bytes)) = exact {
        out.metrics.insert("exec.fabric_edges", edges as f64);
        out.metrics.insert("exec.ledger_bytes", bytes as f64);
    }
    out.overhead(&traced, &untraced, "exchange_hash_join");

    let (build, probe) = (
        split_round_robin(&inputs.orders, inputs.config.hosts),
        split_round_robin(&inputs.fact, inputs.config.hosts),
    );
    let parts: Vec<Batch> = build.into_iter().chain(probe).flatten().collect();
    out.wire_size_probe(&parts, "the join's per-host partitions");
}
