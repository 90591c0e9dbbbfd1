//! Regenerate every paper figure/scenario as a measured experiment.
//!
//! ```text
//! cargo run -p df-bench --release --bin figures -- --all
//! cargo run -p df-bench --release --bin figures -- E2 E10
//! cargo run -p df-bench --release --bin figures -- --exp e10
//! cargo run -p df-bench --release --bin figures -- --exp e10 --trace /tmp/e10.json
//! cargo run -p df-bench --release --bin figures -- --all --quick
//! cargo run -p df-bench --release --bin figures -- --all --write EXPERIMENTS.md
//! cargo run -p df-bench --release --bin figures -- --list
//! ```
//!
//! `--trace <path>` writes a Chrome `trace_event` JSON file (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>) for the selected
//! traceable experiment, and prints the per-lane utilization summary to
//! stderr. `--trace`, `--write` and `--exp` need a value: one that is
//! missing or starts with `--` exits 2.

use std::time::Instant;

use df_bench::experiments::{all, traceable, Scale};

/// The value following flag `name`: `Ok(None)` when the flag is absent, an
/// error naming the flag when the value is missing or is itself a flag.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{name} needs a value")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        flag_value(&args, name).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    };
    let write_path = flag("--write");
    let trace_path = flag("--trace");
    let exp_flag = flag("--exp");

    // Positional ids, skipping flag values.
    let flag_values: Vec<&String> = [&write_path, &trace_path, &exp_flag]
        .iter()
        .filter_map(|v| v.as_ref())
        .collect();
    let mut requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !flag_values.iter().any(|v| v.as_str() == a.as_str()))
        .cloned()
        .collect();
    if let Some(e) = exp_flag {
        requested.push(e);
    }

    if args.iter().any(|a| a == "--list") {
        for (id, _) in all() {
            println!("{id}");
        }
        return;
    }

    // Resolve requested ids case-insensitively against the registry.
    let known: Vec<&str> = all().iter().map(|(id, _)| *id).collect();
    let mut wanted: Vec<&str> = Vec::new();
    for r in &requested {
        match known.iter().find(|id| id.eq_ignore_ascii_case(r)) {
            Some(id) => wanted.push(id),
            None => {
                eprintln!("unknown experiment '{r}' (try --list)");
                std::process::exit(2);
            }
        }
    }
    let run_all = args.iter().any(|a| a == "--all") || requested.is_empty();

    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut sections = Vec::new();
    for (id, run) in all() {
        if !run_all && !wanted.contains(&id) {
            continue;
        }
        eprintln!("running {id} (rows={})...", scale.rows);
        let t = Instant::now();
        let report = run(scale);
        eprintln!("  done in {:.2}s", t.elapsed().as_secs_f64());
        println!("{report}");
        sections.push(report.to_markdown());
    }

    if let Some(path) = trace_path {
        let target = traceable()
            .into_iter()
            .find(|(id, _)| run_all || wanted.contains(id));
        let Some((id, trace)) = target else {
            let ids: Vec<&str> = traceable().iter().map(|(id, _)| *id).collect();
            eprintln!(
                "--trace: none of the selected experiments support tracing \
                 (supported: {})",
                ids.join(", ")
            );
            std::process::exit(2);
        };
        eprintln!("tracing {id}...");
        let tracer = trace(scale);
        if let Err(e) = tracer.validate() {
            eprintln!("internal error: trace failed validation: {e}");
            std::process::exit(1);
        }
        std::fs::write(&path, tracer.chrome_trace_json()).expect("write trace");
        eprint!("{}", tracer.summary());
        eprintln!("wrote {path} ({} events)", tracer.event_count());
    }

    if let Some(path) = write_path {
        let header = format!(
            "# EXPERIMENTS — paper vs measured\n\n\
             Reproduction of every figure and quantitative scenario in \
             *\"Data Flow Architectures for Data Processing on Modern \
             Hardware\"* (Lerner & Alonso, ICDE 2024). Regenerate with:\n\n\
             ```\ncargo run -p df-bench --release --bin figures -- --all --write EXPERIMENTS.md\n```\n\n\
             Scale: {} fact rows, seed {}. Absolute numbers come from the \
             fabric simulator calibrated in DESIGN.md; the *shape* (who \
             wins, by what factor, where crossovers fall) is the claim \
             under test.\n\n",
            scale.rows, scale.seed
        );
        let body = sections.join("\n");
        std::fs::write(&path, header + &body).expect("write EXPERIMENTS.md");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::flag_value;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_need_a_value_that_is_not_a_flag() {
        let argv = args("--exp e10 --trace t.json --quick");
        assert_eq!(flag_value(&argv, "--trace"), Ok(Some("t.json".into())));
        assert_eq!(flag_value(&argv, "--write"), Ok(None));
        for (line, name) in [
            ("--exp e10 --trace --quick", "--trace"),
            ("--write --quick", "--write"),
            ("--exp e10 --trace", "--trace"),
            ("--exp --all", "--exp"),
        ] {
            let err = flag_value(&args(line), name).expect_err(line);
            assert!(err.contains(name), "{line}: {err}");
        }
    }
}
