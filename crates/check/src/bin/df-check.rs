//! df-check: one binary for all three static-analysis passes.
//!
//! ```text
//! cargo run -p df-check -- --workspace --json /tmp/df-check.json
//! ```
//!
//! Flags:
//! - `--workspace`    run the invariant lints over the workspace sources
//! - `--json PATH`    write the machine-readable report to PATH
//! - `--root PATH`    workspace root (default: the df-check crate's ../..)
//! - `--bless`        rewrite the lint allowlists from current findings,
//!   dropping entries that suppress nothing
//! - `--demo-broken`  verify a deliberately broken plan and show findings
//! - `--demo-cluster` verify + deadlock-analyze generated 2/4/8/16-host
//!   exchange graphs (hash-partitioned and broadcast)
//!
//! The graph-verification and deadlock passes always run, on built-in
//! sample graphs covering a fabric-cut spine and a distributed hash
//! join; `--workspace` adds the source lints and `--demo-cluster` adds
//! the multi-host exchange graphs — every graph is model-checked with
//! partial-order reduction, and a graph whose model check exceeds its
//! budget surfaces as a `model-budget-exceeded` finding (so CI fails
//! rather than silently accepting static-only coverage). Exit status is
//! non-zero whenever any pass (other than `--demo-broken`) produced
//! findings.

use std::path::PathBuf;
use std::process::ExitCode;

use df_check::deadlock;
use df_check::lint;
use df_check::report::{LintCount, ModelStat, Section, SectionFinding};
use df_core::expr::{col, lit};
use df_core::logical::JoinType;
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{OperatorSpec, PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_data::batch::batch_of;
use df_data::{Batch, Column, Field, Schema};
use df_fabric::topology::DisaggregatedConfig;
use df_fabric::Topology;

struct Args {
    workspace: bool,
    json: Option<PathBuf>,
    root: PathBuf,
    bless: bool,
    demo_broken: bool,
    demo_cluster: bool,
}

fn parse_args() -> Result<Args, String> {
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut args = Args {
        workspace: false,
        json: None,
        root: default_root,
        bless: false,
        demo_broken: false,
        demo_cluster: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => {
                let p = it.next().ok_or("--json needs a path")?;
                args.json = Some(PathBuf::from(p));
            }
            "--root" => {
                let p = it.next().ok_or("--root needs a path")?;
                args.root = PathBuf::from(p);
            }
            "--bless" => args.bless = true,
            "--demo-broken" => args.demo_broken = true,
            "--demo-cluster" => args.demo_cluster = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn sample(n: usize) -> Batch {
    batch_of(vec![
        ("id", Column::from_i64((0..n as i64).collect())),
        (
            "g",
            Column::from_i64((0..n as i64).map(|i| i % 4).collect()),
        ),
    ])
}

/// A placed spine: scan-shaped Values on the NIC, filter on the NIC,
/// sort on the CPU — one fabric cut.
fn spine_plan(topo: &Topology) -> PhysicalPlan {
    let nic = topo.expect_device("compute0.nic");
    let cpu = topo.expect_device("compute0.cpu");
    PhysicalPlan::new(
        PhysNode::Sort {
            input: Box::new(PhysNode::Filter {
                input: Box::new(PhysNode::Values {
                    schema: sample(8).schema().clone(),
                    batches: vec![sample(8)],
                    device: Some(nic),
                }),
                predicate: col("id").lt(lit(5)),
                device: Some(nic),
                use_kernel: false,
            }),
            keys: vec![("id".into(), true)],
            device: Some(cpu),
        },
        "df-check sample: fabric spine",
    )
}

/// A distributed hash join: build side on the NIC, probe and join on the
/// CPU — exercises the JoinBuild edge rules.
fn join_plan(topo: &Topology) -> PhysicalPlan {
    let nic = topo.expect_device("compute0.nic");
    let cpu = topo.expect_device("compute0.cpu");
    let b = batch_of(vec![("bk", Column::from_i64(vec![0, 1, 2]))]);
    let p = sample(8);
    let schema = {
        let mut fields: Vec<Field> = b.schema().fields().to_vec();
        fields.extend(p.schema().fields().iter().cloned());
        Schema::new(fields).into_ref()
    };
    PhysicalPlan::new(
        PhysNode::HashJoin {
            build: Box::new(PhysNode::Values {
                schema: b.schema().clone(),
                batches: vec![b],
                device: Some(nic),
            }),
            probe: Box::new(PhysNode::Values {
                schema: p.schema().clone(),
                batches: vec![p],
                device: Some(cpu),
            }),
            on: vec![("bk".into(), "g".into())],
            join_type: JoinType::Inner,
            schema,
            device: Some(cpu),
        },
        "df-check sample: distributed join",
    )
}

/// The N-host exchange graphs the scaleout module generates: the
/// hash-partitioned join (both exchange flavors compile identically up to
/// placement, so the smart-NIC variant stands in for both) and the
/// broadcast join. Returns `(name, graph, topology)` triples.
fn cluster_graphs(hosts: usize) -> Vec<(String, PipelineGraph, Topology)> {
    use df_core::scaleout::{
        cluster_broadcast_join_plan, cluster_hash_join_plan, split_round_robin,
    };
    use df_fabric::topology::ClusterConfig;
    let build = batch_of(vec![
        ("k", Column::from_i64((0..64).collect())),
        ("v", Column::from_i64((0..64).collect())),
    ]);
    let probe = batch_of(vec![
        ("fk", Column::from_i64((0..256).map(|i| i % 64).collect())),
        ("amount", Column::from_i64((0..256).collect())),
    ]);
    let join_schema = {
        let mut fields: Vec<Field> = build.schema().fields().to_vec();
        fields.extend(probe.schema().fields().iter().cloned());
        Schema::new(fields).into_ref()
    };
    let mut out = Vec::new();
    for smart in [true, false] {
        let topo = Topology::cluster(hosts as u32, &ClusterConfig::default());
        let tag = if smart { "nic" } else { "cpu" };
        let hash = cluster_hash_join_plan(
            &topo,
            &split_round_robin(&build, hosts),
            build.schema().clone(),
            &split_round_robin(&probe, hosts),
            probe.schema().clone(),
            ("k", "fk"),
            join_schema.clone(),
            smart,
        )
        .expect("hash plan");
        let g = PipelineGraph::compile(&hash, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        out.push((format!("cluster{hosts}-hash-{tag}"), g, topo));

        let topo = Topology::cluster(hosts as u32, &ClusterConfig::default());
        let bc = cluster_broadcast_join_plan(
            &topo,
            build.clone(),
            &split_round_robin(&probe, hosts),
            probe.schema().clone(),
            ("k", "fk"),
            join_schema.clone(),
            smart,
        )
        .expect("broadcast plan");
        let g = PipelineGraph::compile(&bc, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        out.push((format!("cluster{hosts}-broadcast-{tag}"), g, topo));
    }
    out
}

/// Verify + deadlock-analyze one compiled graph, appending findings and
/// model-checking stats.
fn check_graph(
    name: &str,
    graph: &PipelineGraph,
    topo: &Topology,
    verify_out: &mut Vec<SectionFinding>,
    deadlock_out: &mut Vec<SectionFinding>,
    models: &mut Vec<ModelStat>,
) {
    if let Err(errs) = graph.verify(Some(topo)) {
        for e in errs {
            verify_out.push(SectionFinding {
                code: e.code().to_string(),
                location: None,
                message: format!("{name}: {e}"),
            });
        }
    }
    let r = deadlock::analyze(graph);
    for f in &r.findings {
        deadlock_out.push(SectionFinding {
            code: f.code().to_string(),
            location: None,
            message: format!("{name}: {f}"),
        });
    }
    if r.budget_exceeded {
        // Not a deadlock, but not verified either: fail the run instead
        // of silently downgrading to static-only coverage.
        deadlock_out.push(SectionFinding {
            code: "model-budget-exceeded".to_string(),
            location: None,
            message: format!(
                "{name}: model check exceeded its state/time budget; \
                 interleaving coverage not verified"
            ),
        });
    }
    models.push(ModelStat {
        graph: name.to_string(),
        threads: r.threads,
        channels: r.channels,
        model_states: r.model_states,
        budget_exceeded: r.budget_exceeded,
        transitions: r.reduction.as_ref().map(|s| s.transitions),
        reduction_ratio: r.reduction.as_ref().map(|s| s.reduction_ratio()),
    });
    match (r.model_states, &r.reduction) {
        (Some(states), Some(stats)) => println!(
            "  {name}: {} thread(s), {} channel(s); model checked {} state(s), \
             reduction ratio {:.3}",
            r.threads,
            r.channels,
            states,
            stats.reduction_ratio()
        ),
        (Some(states), None) => println!(
            "  {name}: {} thread(s), {} channel(s); model checked {} state(s)",
            r.threads, r.channels, states
        ),
        (None, _) if r.budget_exceeded => println!(
            "  {name}: {} thread(s), {} channel(s); MODEL BUDGET EXCEEDED",
            r.threads, r.channels
        ),
        (None, _) => println!(
            "  {name}: {} thread(s), {} channel(s); static checks only",
            r.threads, r.channels
        ),
    }
}

/// `--demo-broken`: mutate a clean graph three ways and show what the
/// verifier reports. This is the README example; it always exits 0.
fn demo_broken() {
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let plan = spine_plan(&topo);
    let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);

    // 1. Move the sort (a breaker with unbounded state) onto the NIC.
    let nic = topo.expect_device("compute0.nic");
    let root = g.pipelines.len() - 1;
    if let Some(op) = g.pipelines[root].ops.last_mut() {
        op.device = Some(nic);
    }
    // 2. Drop the credit bound on the fabric edge.
    g.edges[0].queue_capacity = 0;
    // 3. Declare the wrong schema on the consumer side of the cut.
    let wrong = Schema::new(vec![Field::new("id", df_data::DataType::Float64)]).into_ref();
    let consumer = g.edges[0].to;
    if let OperatorSpec::Sort { input_schema, .. } = &mut g.pipelines[consumer].ops[0].spec {
        *input_schema = wrong;
    }

    println!("df-check --demo-broken: verifying a deliberately broken plan\n");
    match g.verify(Some(&topo)) {
        Ok(()) => println!("unexpectedly clean"),
        Err(errs) => {
            for e in &errs {
                println!("  [{}] {e}", e.code());
            }
            println!("\n{} finding(s).", errs.len());
        }
    }
    let r = deadlock::analyze(&g);
    if !r.findings.is_empty() {
        println!("\ndeadlock analysis:");
        for f in &r.findings {
            println!("  [{}] {f}", f.code());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("df-check: {e}");
            return ExitCode::from(2);
        }
    };

    if args.demo_broken {
        demo_broken();
        return ExitCode::SUCCESS;
    }

    let mut sections = Vec::new();
    let mut models = Vec::new();
    let mut lint_counts: Vec<LintCount> = Vec::new();

    // Pass 1 + 2: graph verification and deadlock analysis on the
    // built-in sample graphs.
    println!("df-check: graph verification + deadlock analysis");
    let topo = Topology::disaggregated(&DisaggregatedConfig::default());
    let mut verify_findings = Vec::new();
    let mut deadlock_findings = Vec::new();
    for (name, plan) in [
        ("fabric-spine", spine_plan(&topo)),
        ("distributed-join", join_plan(&topo)),
    ] {
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        check_graph(
            name,
            &g,
            &topo,
            &mut verify_findings,
            &mut deadlock_findings,
            &mut models,
        );
    }
    // `--demo-cluster`: the generated multi-host exchange graphs go
    // through the same verify + deadlock pipeline as the samples. The
    // 16-host graphs are the E16 scale-out shapes; partial-order
    // reduction keeps them in model-check scope.
    if args.demo_cluster {
        println!("df-check: generated cluster exchange graphs");
        for hosts in [2usize, 4, 8, 16] {
            for (name, g, topo) in cluster_graphs(hosts) {
                check_graph(
                    &name,
                    &g,
                    &topo,
                    &mut verify_findings,
                    &mut deadlock_findings,
                    &mut models,
                );
            }
        }
    }

    sections.push(Section {
        pass: "graph-verify".into(),
        findings: verify_findings,
    });
    sections.push(Section {
        pass: "deadlock".into(),
        findings: deadlock_findings,
    });

    // Pass 3: workspace invariant lints.
    if args.workspace {
        println!("df-check: workspace lints under {}", args.root.display());
        if args.bless {
            return match lint::bless(&args.root) {
                Ok(entries) => {
                    println!("  blessed {entries} entries into crates/check/allowlists/");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("df-check: --bless failed: {e}");
                    ExitCode::from(2)
                }
            };
        }
        match lint::run(&args.root) {
            Ok(findings) => {
                for f in &findings {
                    println!("  {f}");
                }
                // Per-rule counts: surfaced findings plus allowlisted
                // debt (the difference against the unsuppressed run).
                if let Ok(all) = lint::run_unsuppressed(&args.root) {
                    for name in lint::lint_names() {
                        let surfaced = findings.iter().filter(|f| f.lint == name).count();
                        let total = all.iter().filter(|f| f.lint == name).count();
                        lint_counts.push(LintCount {
                            lint: name.to_string(),
                            findings: surfaced,
                            allowlisted: total.saturating_sub(surfaced),
                        });
                    }
                }
                sections.push(Section {
                    pass: "lints".into(),
                    findings: findings.iter().map(SectionFinding::from_lint).collect(),
                });
            }
            Err(e) => {
                eprintln!("df-check: lint walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let total: usize = sections.iter().map(|s| s.findings.len()).sum();
    if let Some(path) = &args.json {
        let json = df_check::report::to_json_full(&sections, &models, &lint_counts);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("df-check: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("report written to {}", path.display());
    }

    if total == 0 {
        println!("df-check: clean ({} pass(es))", sections.len());
        ExitCode::SUCCESS
    } else {
        for s in &sections {
            for f in &s.findings {
                eprintln!("[{}] {}", s.pass, f.message);
            }
        }
        eprintln!("df-check: {total} finding(s)");
        ExitCode::FAILURE
    }
}
