//! The per-figure experiments. Each module regenerates one figure or
//! quantitative scenario from the paper as a measured table; the registry
//! in [`all`] drives the `figures` binary.

pub mod e01_conventional;
pub mod e02_pushdown;
pub mod e03_like_offload;
pub mod e04_nic_pipeline;
pub mod e05_scatter_join;
pub mod e06_nic_count;
pub mod e07_near_memory;
pub mod e08_pointer_chase;
pub mod e09_transpose;
pub mod e10_full_pipeline;
pub mod e11_interconnect;
pub mod e12_flow_control;
pub mod e13_scheduling;
pub mod e14_bufferpool;
pub mod e15_wire_compression;
pub mod e16_scaleout;
pub mod e17_streaming;

use crate::report::ExpReport;

/// Experiment scale: number of fact-table rows most experiments use.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fact-table rows.
    pub rows: usize,
    /// Seed for all generators.
    pub seed: u64,
}

impl Scale {
    /// Quick scale for tests/CI.
    pub fn quick() -> Scale {
        Scale {
            rows: 20_000,
            seed: 42,
        }
    }

    /// Full scale for the recorded EXPERIMENTS.md numbers.
    pub fn full() -> Scale {
        Scale {
            rows: 400_000,
            seed: 42,
        }
    }
}

/// Signature every experiment runner implements.
pub type ExperimentFn = fn(Scale) -> ExpReport;

/// Signature for experiments that can record a query-level trace.
pub type TraceFn = fn(Scale) -> std::sync::Arc<df_sim::Tracer>;

/// Experiments that support `figures --trace`: `(id, tracer)`. When several
/// are selected, `figures` traces the first listed.
pub fn traceable() -> Vec<(&'static str, TraceFn)> {
    vec![
        ("E10", e10_full_pipeline::trace_flow),
        ("E1", e01_conventional::trace_run),
        ("E4", e04_nic_pipeline::trace_run),
        ("E5", e05_scatter_join::trace_run),
        ("E6", e06_nic_count::trace_run),
        ("E7", e07_near_memory::trace_run),
        ("E15", e15_wire_compression::trace_run),
    ]
}

/// All experiments: `(id, runner)` in paper order.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("E1", e01_conventional::run),
        ("E2", e02_pushdown::run),
        ("E3", e03_like_offload::run),
        ("E4", e04_nic_pipeline::run),
        ("E5", e05_scatter_join::run),
        ("E6", e06_nic_count::run),
        ("E7", e07_near_memory::run),
        ("E8", e08_pointer_chase::run),
        ("E9", e09_transpose::run),
        ("E10", e10_full_pipeline::run),
        ("E11", e11_interconnect::run),
        ("E12", e12_flow_control::run),
        ("E13", e13_scheduling::run),
        ("E14", e14_bufferpool::run),
        ("E15", e15_wire_compression::run),
        ("E16", e16_scaleout::run),
        ("E17", e17_streaming::run),
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Spans recorded on the lane named `lane` (0 when absent), read from
    /// the tracer's utilization summary.
    pub(crate) fn lane_spans(tracer: &df_sim::Tracer, lane: &str) -> u64 {
        tracer
            .summary()
            .lines()
            .find_map(|line| {
                let mut fields = line.split_whitespace();
                (fields.next() == Some(lane)).then(|| fields.nth(1)?.parse().ok())?
            })
            .unwrap_or(0)
    }

    /// Smoke: every experiment runs at quick scale and produces a table.
    /// (Heavier shape assertions live in each module and tests/.)
    #[test]
    fn all_experiments_run() {
        for (id, run) in all() {
            let report = run(Scale::quick());
            assert_eq!(report.id, id);
            assert!(!report.rows.is_empty(), "{id} produced no rows");
            assert!(
                !report.observations.is_empty(),
                "{id} recorded no observations"
            );
        }
    }
}
