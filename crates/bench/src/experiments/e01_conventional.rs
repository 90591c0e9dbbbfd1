//! E1 — Figure 1 / §2.1: the conventional CPU-centric data path, and the
//! execution-model departure point (§1: pull-based Volcano vs streaming
//! push).
//!
//! One query — scan, filter, group-aggregate over the fact table — executed
//! three ways on the conventional-server platform: tuple-at-a-time Volcano
//! (the 1990s model), the vectorized push engine single-threaded, and
//! morsel-parallel (the same plan fanned out over a gather exchange).
//! Everything flows disk → CPU first (no offloading exists on this
//! platform); the ledger shows all bytes crossing to the CPU regardless of
//! how few survive the filter.

use std::sync::Arc;
use std::time::Instant;

use df_core::exec::push::{execute, ExecEnv};
use df_core::exec::volcano;
use df_core::expr::{col, lit};
use df_core::logical::{AggCall, AggFn, LogicalPlan};
use df_core::ops::AggMode;
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::scaleout::fan_out;
use df_data::{Batch, Scalar};
use df_sim::Tracer;

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// E1's plan: `fact` in `batch_rows`-row batches, filtered on
/// `l_quantity < 10` (natively or through the lowered offload predicate a
/// device filter runs), then grouped by `l_region` with a count and a
/// revenue sum. Unplaced throughout.
pub fn plan(fact: &Batch, batch_rows: usize, use_kernel: bool) -> PhysicalPlan {
    let calls = vec![
        AggCall::count_star("n"),
        AggCall::new(AggFn::Sum, "l_price", "revenue"),
    ];
    let logical = LogicalPlan::values(vec![fact.clone()])
        .expect("values plan")
        .filter(col("l_quantity").lt(lit(10)))
        .expect("filter plan")
        .aggregate(vec!["l_region".into()], calls.clone())
        .expect("aggregate plan");
    PhysicalPlan::new(
        PhysNode::Aggregate {
            input: Box::new(PhysNode::Filter {
                input: Box::new(PhysNode::Values {
                    schema: fact.schema().clone(),
                    batches: fact.split(batch_rows).expect("batch_rows > 0"),
                    device: None,
                }),
                predicate: col("l_quantity").lt(lit(10)),
                device: None,
                use_kernel,
            }),
            group_by: vec!["l_region".into()],
            aggs: calls,
            mode: AggMode::Final,
            final_schema: logical.schema(),
            device: None,
        },
        "conventional",
    )
}

/// Run E1.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E1",
        "Figure 1 / §2.1 — conventional data path, pull vs push execution",
        "Engines are still designed for disk→memory→cache→register data \
         paths and pull-based Volcano execution; all data reaches the CPU \
         before any of it is discarded.",
    )
    .headers(&["engine", "wall time", "rows out", "bytes to CPU"]);

    let fact = workload::lineitem(scale.rows, scale.seed);
    let plan = plan(&fact, 8192, false);

    let env = ExecEnv::in_memory();
    // Volcano: tuple-at-a-time pull.
    let t = Instant::now();
    let volcano_out = volcano::execute(&plan, None).expect("volcano runs");
    let volcano_time = t.elapsed();
    // Push: vectorized streaming.
    let t = Instant::now();
    let push_out = execute(&plan, &env).expect("push runs");
    let push_time = t.elapsed();
    // Morsel-parallel push: the plan fanned out over a gather exchange.
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let t = Instant::now();
    let par_out =
        execute(&fan_out(&plan, threads).expect("E1's plan fans out"), &env).expect("fan-out runs");
    let par_time = t.elapsed();

    // All three agree; morsel-parallel float sums may differ in the last ulps.
    let reference = push_out.collect().unwrap().canonical_rows();
    assert_eq!(reference, volcano_out.canonical_rows(), "volcano disagrees");
    let parallel = par_out.collect().unwrap().canonical_rows();
    let close = |a: &Scalar, b: &Scalar| match (a, b) {
        (Scalar::Float(x), Scalar::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => a == b,
    };
    let (r, p) = (reference.concat(), parallel.concat());
    let agree = r.len() == p.len() && r.iter().zip(&p).all(|(a, b)| close(a, b));
    assert!(agree, "parallel disagrees: {reference:?} vs {parallel:?}");

    let input_bytes = fact.byte_size() as u64;
    report.row(vec![
        "volcano (tuple-at-a-time pull)".into(),
        fmt_util::wall(volcano_time),
        volcano_out.rows().to_string(),
        fmt_util::bytes(input_bytes),
    ]);
    report.row(vec![
        "push (vectorized, 1 thread)".into(),
        fmt_util::wall(push_time),
        push_out.rows().to_string(),
        fmt_util::bytes(input_bytes),
    ]);
    let thread_word = if threads == 1 { "thread" } else { "threads" };
    report.row(vec![
        format!("push (morsel-parallel, {threads} {thread_word})"),
        fmt_util::wall(par_time),
        par_out.rows().to_string(),
        fmt_util::bytes(input_bytes),
    ]);

    let speedup = volcano_time.as_secs_f64() / push_time.as_secs_f64();
    report.observe(format!(
        "vectorized push is {} faster than tuple-at-a-time Volcano on the \
         same plan (results identical)",
        fmt_util::factor(speedup)
    ));
    report.observe(format!(
        "every engine moved all {} to the CPU although the filter keeps \
         only ~{:.0}% of rows — the Figure 1 pathology the rest of the \
         experiments attack",
        fmt_util::bytes(input_bytes),
        100.0 * 9.0 / 50.0
    ));
    report
}

/// Trace E1's plan into one tracer: push at 1 thread (lane `exec.push`),
/// then fanned out over 2 workers, each fragment on its own
/// `exec.push.p<pid>` lane under an `exchange-producer` span.
pub fn trace_run(scale: Scale) -> Arc<Tracer> {
    let tracer = Arc::new(Tracer::new());
    let env = ExecEnv {
        tracer: Some(tracer.clone()),
        ..ExecEnv::in_memory()
    };
    let plan = plan(&workload::lineitem(scale.rows, scale.seed), 8192, false);
    execute(&plan, &env).expect("push runs");
    execute(&fan_out(&plan, 2).expect("E1's plan fans out"), &env).expect("fan-out runs");
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_beats_volcano() {
        let report = run(Scale::quick());
        // The observation records the speedup; sanity-check its direction
        // by re-deriving from the table (wall strings "x.xx ms").
        let volcano: f64 = report.rows[0][1]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let push: f64 = report.rows[1][1]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            volcano > 2.0 * push,
            "volcano {volcano}ms should be >2x push {push}ms"
        );
    }
}
