//! Per-layer accounting of traced operations.
//!
//! Each traced operation contributes the benchmark-side timings of the
//! public calls it made on the caller's thread, and the span self times the
//! engine recorded on every executor thread. Wall time per operation is
//! counted as thread time: the caller's wall plus the busy time of every
//! producer thread the executor started. What no layer accounts for is that
//! thread time minus every attributed part.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::spans::SpanTotals;

/// Span categories reported as per-layer metrics (ms per operation).
const SPAN_METRICS: &[(&str, &str)] = &[
    ("ops.filter", "ops.filter_ms"),
    ("ops.aggregate", "ops.aggregate_ms"),
    ("ops.hash_join", "ops.hash_join_ms"),
    ("ops.join_build", "ops.join_build_ms"),
    ("ops.other", "ops.other_ms"),
    ("exec.credit_wait", "exec.credit_wait_ms"),
    ("exec.input_wait", "exec.input_wait_ms"),
];

/// Accumulates traced operations of one run.
#[derive(Debug, Default)]
pub struct Layers {
    ops: u64,
    thread_ns: f64,
    attributed_ns: f64,
    op_ns: f64,
    execute_ns: f64,
    /// Nanoseconds in the `ExecGate` inside storage-scan spans.
    gate_ns: f64,
    steps: BTreeMap<&'static str, f64>,
    spans: SpanTotals,
}

impl Layers {
    /// Add one traced operation.
    ///
    /// `steps` are benchmark-timed calls on the caller's thread, named by
    /// their metric (`_us` or `_ms` suffix), disjoint from each other and
    /// from `execute`, the executor call whose inside `spans` covers.
    /// `wall` is the operation's wall time on the caller's thread; `gate`
    /// is time in the scheduling gate, which runs inside source spans.
    pub fn add(
        &mut self,
        wall: Duration,
        execute: Duration,
        steps: &[(&'static str, Duration)],
        spans: &SpanTotals,
        gate: Duration,
    ) {
        self.ops += 1;
        let wall_ns = wall.as_nanos() as f64;
        self.op_ns += wall_ns;
        self.thread_ns += wall_ns + spans.producer_busy_ns as f64;
        self.execute_ns += execute.as_nanos() as f64;
        self.gate_ns += gate.as_nanos() as f64;
        for (name, d) in steps {
            let ns = d.as_nanos() as f64;
            *self.steps.entry(name).or_default() += ns;
            self.attributed_ns += ns;
        }
        self.attributed_ns += spans.attributed_ns() as f64;
        self.spans.add(spans);
    }

    /// Per-operation means of every timed layer, the remainder no layer
    /// accounts for, and the categories of that remainder for the report.
    pub fn emit(&self, metrics: &mut BTreeMap<&'static str, f64>, lines: &mut Vec<String>) {
        let n = self.ops.max(1) as f64;
        for (name, ns) in &self.steps {
            let scale = if name.ends_with("_us") { 1e3 } else { 1e6 };
            metrics.insert(name, ns / n / scale);
        }
        for (category, metric) in SPAN_METRICS {
            metrics.insert(metric, self.spans.get(category) as f64 / n / 1e6);
        }
        let scan = self.spans.get("storage.scan") as f64;
        if scan > 0.0 {
            metrics.insert("storage.scan_ms", (scan - self.gate_ns).max(0.0) / n / 1e6);
        }
        if self.gate_ns > 0.0 {
            metrics.insert("serve.gate_wait_ms", self.gate_ns / n / 1e6);
        }
        metrics.insert("exec.execute_ms", self.execute_ns / n / 1e6);
        metrics.insert("exec.credit_waits", self.spans.credit_waits as f64 / n);
        let unattributed = self.thread_ns - self.attributed_ns;
        metrics.insert("trace.op_ms", self.op_ns / n / 1e6);
        metrics.insert("trace.thread_ms", self.thread_ns / n / 1e6);
        metrics.insert("trace.unattributed_ms", unattributed / n / 1e6);
        metrics.insert(
            "trace.unattributed_share",
            unattributed / self.thread_ns.max(1.0),
        );
        lines.push(format!(
            "traced operations {}; thread time per op {:.3} ms (caller wall {:.3} ms + producer threads {:.3} ms)",
            self.ops,
            self.thread_ns / n / 1e6,
            self.op_ns / n / 1e6,
            self.spans.producer_busy_ns as f64 / n / 1e6
        ));
        let parts: Vec<String> = self
            .spans
            .self_ns
            .iter()
            .filter(|(k, _)| k.starts_with("unattributed:"))
            .map(|(k, v)| {
                format!(
                    "{} {:.3} ms",
                    &k["unattributed:".len()..],
                    *v as f64 / n / 1e6
                )
            })
            .collect();
        lines.push(format!(
            "unattributed {:.3} ms per op; untimed spans inside it: {}",
            unattributed / n / 1e6,
            if parts.is_empty() {
                "none".into()
            } else {
                parts.join(", ")
            }
        ));
    }
}
