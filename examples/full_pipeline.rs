//! Figure 6 in motion: one query planned as every data-path alternative,
//! executed for real, replayed through the credit-based flow simulator
//! (§7.1), then admitted by priced admission control, which picks the plan
//! variant to run at admission time (§7.3).
//!
//! ```text
//! cargo run --release --example full_pipeline
//! ```

use rheo::bench::workload;
use rheo::core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use rheo::core::session::Session;
use rheo::fabric::flow::FlowSim;
use rheo::fabric::topology::{DisaggregatedConfig, Topology};
use rheo::serve::admission::{AdmissionController, Verdict};
use rheo::sim::SimDuration;

const QUERY: &str = "SELECT l_region, COUNT(*) AS n, SUM(l_price) AS revenue \
                     FROM lineitem WHERE l_shipdate BETWEEN 100 AND 1500 \
                     GROUP BY l_region";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::in_memory()?;
    session.create_table("lineitem", &[workload::lineitem(300_000, 5)])?;
    let profiles = session.profiles();
    let cpu = session.optimizer().site().cpu;

    println!("query: {QUERY}\n");
    let logical = session.logical_plan(QUERY)?;
    let variants = session.variants(&logical)?;

    // Execute every alternative for real and replay it in simulated time.
    println!(
        "{:<20} {:>14} {:>14} {:>12}",
        "variant", "bytes moved", "sim time", "result rows"
    );
    let mut reference = None;
    let mut ranked = Vec::new();
    for (i, v) in variants.iter().enumerate() {
        let result = session.execute_plan(&v.plan)?;
        match &reference {
            None => reference = Some(result.batch.canonical_rows()),
            Some(r) => assert_eq!(r, &result.batch.canonical_rows()),
        }
        let specs = PipelineGraph::compile(&v.plan, Some(&profiles), None, DEFAULT_QUEUE_CAPACITY)
            .to_flow_specs(cpu, &v.plan.variant)?;
        let mut sim = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim.add_pipeline(specs[0].clone());
        let sim_time = sim.run().pipelines[0].duration().to_string();
        println!(
            "{:<20} {:>14} {:>14} {:>12}",
            v.plan.variant,
            result.ledger.cross_device_bytes(),
            sim_time,
            result.batch.rows()
        );
        ranked.push((i, specs));
    }

    // Priced admission at work: three copies of the query back to back,
    // against a window that fits the best variant's busiest link once and
    // a half. Later copies run the first alternative that still fits, or
    // wait in the queue when none does.
    let topology = session.topology().clone();
    let probe = AdmissionController::new(topology.clone());
    let busiest = probe
        .demand_of(&ranked[0].1)?
        .iter()
        .map(|(&link, &bytes)| bytes as f64 / probe.link_capacity(link) as f64)
        .fold(0.0, f64::max);
    let window = SimDuration::from_secs_f64(0.1 * 1.5 * busiest);
    println!("\nadmissions (§7.3), {window} window:");
    let mut admission = AdmissionController::with_window(topology, window, 4);
    let mut tickets = Vec::new();
    for q in 0..3 {
        let (i, verdict) = admission.offer_ranked(ranked.iter().cloned())?;
        println!("  query {q}: '{}' {verdict:?}", variants[i].plan.variant);
        if let Verdict::Admitted(t) | Verdict::Queued(t) = verdict {
            tickets.push(t);
        }
    }
    for t in tickets {
        admission.release(t);
    }
    println!("  all released — links free again");
    Ok(())
}
