//! rheo's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mix|exchange_join|log_shuffle> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that replays the same operations step by step under
//! the engine's wall-clock tracer and reports per-layer metrics, the wall
//! time no layer accounts for, and the tracing overhead. Every answer is
//! checked against an oracle computed directly from the generated input.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the same
//! numbers for people, with sample counts. Metric names and units are the
//! tables below, which `BENCHMARK.json` repeats.

mod exchange_join;
mod layers;
mod log_shuffle;
mod probe;
mod serve_mix;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use df_codec::edge::EdgeEncoding;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one; see `perfbench/README.md` for what each means per workload.
/// Tail percentiles are printed with their sample counts in the report
/// lines but are not among them: on `serve_mix` the tail flips between two
/// levels from run to run (delayed-ACK stalls on small reply frames).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. Times and counts are per
/// operation (query, join or shuffle). A layer the workload's path does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.transport_range_ms", "ms"),
    ("serve.transport_like_ms", "ms"),
    ("serve.transport_group_ms", "ms"),
    ("serve.frames_per_query", "count"),
    ("serve.reply_bytes_per_query", "B"),
    ("serve.encode_result_ms", "ms"),
    ("serve.decode_result_ms", "ms"),
    ("serve.gate_wait_ms", "ms"),
    ("serve.gate_acquires", "count"),
    ("serve.admission_us", "us"),
    ("sql.parse_us", "us"),
    ("optimizer.variants_us", "us"),
    ("pipeline.compile_us", "us"),
    ("pipeline.verify_us", "us"),
    ("pipeline.flow_specs_us", "us"),
    ("check.deadlock_us", "us"),
    ("check.model_states", "count"),
    ("storage.scan_ms", "ms"),
    ("storage.bytes_scanned", "B"),
    ("storage.bytes_returned", "B"),
    ("storage.pages_pruned_ratio", "ratio"),
    ("ops.filter_ms", "ms"),
    ("ops.aggregate_ms", "ms"),
    ("ops.hash_join_ms", "ms"),
    ("ops.join_build_ms", "ms"),
    ("ops.other_ms", "ms"),
    ("exec.execute_ms", "ms"),
    ("exec.input_wait_ms", "ms"),
    ("exec.fabric_edges", "count"),
    ("exec.credit_wait_ms", "ms"),
    ("exec.credit_waits", "count"),
    ("exec.ledger_bytes", "B"),
    ("codec.wire_size_gbps", "GB/s"),
    ("codec.edge_encode_gbps", "GB/s"),
    ("codec.edge_decode_gbps", "GB/s"),
    ("codec.crc_gbps", "GB/s"),
    ("codec.ratio", "ratio"),
    ("fabric.cluster_build_ms", "ms"),
    ("data.split_ms", "ms"),
    ("data.concat_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.thread_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve_mix", "exchange_join", "log_shuffle"];

/// Input sizes: the benchmark's own, or a tiny pass for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// A few thousand rows, for the benchmark's own tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Corrupt every expected answer (self-test of the checker).
    pub corrupt_oracle: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, joins or shuffles), warm-up included.
    pub attempted: u64,
    /// Errors, rejections and wrong answers among them.
    pub failed: u64,
    /// Exact counts that had to repeat across repetitions and did not.
    pub guard_failures: Vec<String>,
    /// Metric values by name, in the unit the tables above give.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (sample counts, per-class figures).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Record one checked operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record that an exact count differed between repetitions.
    pub fn guard(&mut self, what: &str, first: u64, now: u64) {
        if first != now {
            self.guard_failures
                .push(format!("{what}: {now} differs from {first}"));
        }
    }

    /// Record `setup_s`, the median of the run's set-up times in seconds.
    pub fn setup(&mut self, secs: &[f64]) {
        let setup_s = stats::median(secs);
        self.metrics.insert("setup_s", setup_s);
        self.lines.push(format!(
            "set-up n={} median {setup_s:.4} s min {:.4} s max {:.4} s",
            secs.len(),
            stats::percentile(secs, 0.0).unwrap_or(0.0),
            stats::percentile(secs, 100.0).unwrap_or(0.0)
        ));
    }

    /// The other end-to-end metrics of a single-caller workload, from its
    /// correctly answered operations' wall times in ms. `latency_ms` is
    /// their mean, not their median: a run mixes stretches of a few seconds
    /// at different machine speeds, and the median jumps between those
    /// levels where the mean moves with their mix. `qps` is the same mean
    /// as a rate.
    pub fn single_caller(&mut self, samples: &[f64]) {
        let mean = stats::mean(samples);
        self.metrics.insert("qps", 1e3 / mean);
        self.metrics.insert("latency_ms", mean);
        self.metrics
            .insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        self.lines.push(format!(
            "operations n={} mean {mean:.3} ms p50 {:.3} ms p95 {:.3} ms",
            samples.len(),
            stats::median(samples),
            stats::percentile(samples, 95.0).unwrap_or(0.0)
        ));
    }

    /// Run the wire-size probe on `batches` and record its metric.
    pub fn wire_size_probe(&mut self, batches: &[df_data::Batch], on: &str) {
        self.metrics
            .insert("codec.wire_size_gbps", probe::wire_size_gbps(batches));
        self.lines.push(format!(
            "wire-size probe on {on}: median of {} passes",
            probe::PROBE_REPS
        ));
    }

    /// Run the edge-codec probes on `batches` and record their metrics.
    pub fn edge_codec_probe(
        &mut self,
        batches: &[df_data::Batch],
        encoding: EdgeEncoding,
        on: &str,
    ) {
        let p = probe::edge_codec(batches, encoding);
        if !p.round_trip_ok {
            self.guard_failures.push("edge codec round trip".into());
        }
        self.metrics.insert("codec.edge_encode_gbps", p.encode_gbps);
        self.metrics.insert("codec.edge_decode_gbps", p.decode_gbps);
        self.metrics.insert("codec.crc_gbps", p.crc_gbps);
        self.metrics.insert("codec.ratio", p.ratio);
        self.lines.push(format!(
            "edge-codec probes on {on} with {}: median of {} passes",
            encoding.name(),
            probe::PROBE_REPS
        ));
    }

    /// Record the tracing overhead: the traced replay's mean wall time
    /// minus the untraced entry point's, both in ms.
    pub fn overhead(&mut self, traced: &[f64], untraced: &[f64], entry: &str) {
        let overhead = stats::mean(traced) - stats::mean(untraced);
        self.metrics.insert("trace.overhead_ms", overhead);
        self.lines.push(format!(
            "tracing overhead {overhead:.3} ms per op: traced replay {:.3} ms vs untraced {entry} {:.3} ms (means, n={})",
            stats::mean(traced),
            stats::mean(untraced),
            untraced.len()
        ));
    }

    /// True when every answer was right and every exact count repeated.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.guard_failures.is_empty()
    }
}

/// Run one workload.
pub fn run(workload: &str, config: &RunConfig) -> Option<Outcome> {
    Some(match workload {
        "serve_mix" => serve_mix::run(config),
        "exchange_join" => exchange_join::run(config),
        "log_shuffle" => log_shuffle::run(config),
        _ => return None,
    })
}

/// The metric table the run reports.
pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The JSON result line. Per-layer metrics a workload does not reach read
/// 0; an end-to-end metric must always be present.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in table(trace).iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    out
}

/// The human-readable report: notes, then every metric with its unit.
pub fn report_lines(workload: &str, outcome: &Outcome, trace: bool) -> Vec<String> {
    let mut lines = vec![format!(
        "workload {workload} ({} run)",
        if trace { "traced" } else { "end-to-end" }
    )];
    lines.extend(outcome.lines.iter().map(|l| format!("  {l}")));
    let rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    lines.push(format!(
        "  error_rate {rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    ));
    for g in &outcome.guard_failures {
        lines.push(format!("  GUARD FAILED {g}"));
    }
    for (name, unit) in table(trace) {
        match outcome.metrics.get(name) {
            Some(v) => lines.push(format!("  {name:<30} {v:>16.6} {unit}")),
            None => lines.push(format!(
                "  {name:<30} {:>16} {unit} (not on this workload's path)",
                0
            )),
        }
    }
    lines
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size: Size::Full,
            corrupt_oracle: false,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&workload, &config).expect("workload name was validated");
    for line in report_lines(&workload, &outcome, config.trace) {
        println!("{line}");
    }
    println!("{}", result_json(&outcome, config.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool, corrupt_oracle: bool) -> Outcome {
        let config = RunConfig {
            seed: 7,
            seconds: 0.3,
            trace,
            size: Size::Tiny,
            corrupt_oracle,
        };
        run(workload, &config).expect("known workload")
    }

    /// The JSON line's metric names and units, in order.
    fn printed(json: &str) -> Vec<(String, String)> {
        let body = json.split("\"metrics\": {").nth(1).expect("metrics object");
        body.split("}, ")
            .map(|entry| {
                let name = entry.trim_start_matches('"').split('"').next().unwrap();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                let unit = unit.split('"').next().unwrap();
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn every_metric_prints_with_its_unit_and_matches_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not print"
        );
        for workload in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{workload}\"")));
            for trace in [false, true] {
                let outcome = tiny(workload, trace, false);
                assert!(
                    outcome.correct(),
                    "{workload} trace={trace}: {} of {} failed, guards {:?}",
                    outcome.failed,
                    outcome.attempted,
                    outcome.guard_failures
                );
                let json = result_json(&outcome, trace);
                let want: Vec<(String, String)> = table(trace)
                    .iter()
                    .map(|(n, u)| (n.to_string(), u.to_string()))
                    .collect();
                assert_eq!(printed(&json), want, "{workload} trace={trace}");
                if !trace {
                    for (name, _) in END_TO_END {
                        assert!(outcome.metrics[name] > 0.0, "{workload}: {name} is 0");
                    }
                }
            }
        }
    }

    #[test]
    fn a_corrupted_expected_answer_counts_as_a_failure() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let outcome = tiny(workload, trace, true);
                assert!(outcome.failed > 0, "{workload} trace={trace}");
                assert!(!outcome.correct());
                assert!(result_json(&outcome, trace).starts_with("{\"correct\": false"));
            }
        }
    }

    #[test]
    fn same_seed_runs_give_identical_exact_counts() {
        // Credit waits depend on thread timing; every other count is exact.
        let exact = |o: &Outcome| -> Vec<(&'static str, f64)> {
            PER_LAYER
                .iter()
                .filter(|(name, unit)| {
                    (matches!(*unit, "count" | "B") || name.ends_with("ratio"))
                        && *name != "exec.credit_waits"
                })
                .map(|(name, _)| (*name, o.metrics.get(name).copied().unwrap_or(0.0)))
                .collect()
        };
        for workload in WORKLOADS {
            let a = tiny(workload, true, false);
            let b = tiny(workload, true, false);
            assert!(a.guard_failures.is_empty() && b.guard_failures.is_empty());
            assert_eq!(exact(&a), exact(&b), "{workload}");
        }
    }

    #[test]
    fn codec_probes_run_only_where_the_path_runs_the_codec() {
        let probed = |workload: &str| -> Vec<&'static str> {
            let o = tiny(workload, true, false);
            PER_LAYER
                .iter()
                .map(|(name, _)| *name)
                .filter(|name| name.starts_with("codec.") && o.metrics.contains_key(name))
                .collect()
        };
        assert!(probed("serve_mix").is_empty());
        assert_eq!(probed("exchange_join"), ["codec.wire_size_gbps"]);
        assert_eq!(
            probed("log_shuffle"),
            [
                "codec.edge_encode_gbps",
                "codec.edge_decode_gbps",
                "codec.crc_gbps",
                "codec.ratio"
            ]
        );
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload serve_mix --seed 1 --seconds 10 --trace 0"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload serve_mix --seed x --seconds 10 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload serve_mix --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve_mix --seed 1 --trace 0")).is_err());
    }
}
