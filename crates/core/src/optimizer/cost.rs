//! The movement-aware cost model (§1: "optimizers will need to consider
//! data movement cost in a disaggregated setting as a first-class concern
//! when ranking query plans").
//!
//! A physical plan is costed as a streaming pipeline: every operator is a
//! stage with a service time (input bytes / device rate) and every
//! placement boundary is a transfer (bytes / bottleneck route bandwidth).
//! Throughput of a pipeline is set by its slowest stage, so the *time*
//! estimate is `max(stage times) + sum(route latencies)`; `moved_bytes`
//! is kept separately because the paper treats it as its own objective
//! (it is also what the datacenter bills for).

use df_fabric::{DeviceId, OpClass, Topology};
use df_sim::SimDuration;
use df_storage::predicate::StoragePredicate;

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::ops::AggMode;
use crate::optimizer::stats::{avg_row_width, selectivity, Profiles, TableProfile};
use crate::physical::PhysNode;
use crate::pipeline::ExchangeKind;

/// Cost of a plan variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated completion time (pipeline bottleneck + latencies).
    pub time: SimDuration,
    /// Bytes crossing device boundaries.
    pub moved_bytes: u64,
    /// Sum of compute stage times (resource consumption, not wall time).
    pub compute: SimDuration,
    /// The single slowest stage's time (the bottleneck).
    pub bottleneck: SimDuration,
}

impl PlanCost {
    fn zero() -> PlanCost {
        PlanCost {
            time: SimDuration::ZERO,
            moved_bytes: 0,
            compute: SimDuration::ZERO,
            bottleneck: SimDuration::ZERO,
        }
    }
}

struct CostAcc {
    stage_times: Vec<SimDuration>,
    latency: SimDuration,
    moved_bytes: u64,
    compute: SimDuration,
}

/// Selectivity of a storage predicate (mirrors the expression estimator).
pub fn storage_selectivity(pred: &StoragePredicate, profile: Option<&TableProfile>) -> f64 {
    match pred {
        StoragePredicate::True => 1.0,
        StoragePredicate::And(children) => children
            .iter()
            .map(|c| storage_selectivity(c, profile))
            .product(),
        StoragePredicate::Or(children) => {
            1.0 - children
                .iter()
                .map(|c| 1.0 - storage_selectivity(c, profile))
                .product::<f64>()
        }
        StoragePredicate::Not(inner) => 1.0 - storage_selectivity(inner, profile),
        StoragePredicate::Cmp {
            column,
            op,
            literal,
        } => {
            // Route through the expression estimator for one source of truth.
            let expr = crate::expr::col(column.clone()).cmp(*op, Expr::Lit(literal.clone()));
            selectivity(&expr, profile)
        }
        StoragePredicate::Between { column, low, high } => {
            let expr = Expr::Between {
                expr: Box::new(crate::expr::col(column.clone())),
                low: low.clone(),
                high: high.clone(),
            };
            selectivity(&expr, profile)
        }
        StoragePredicate::Like { column, pattern } => {
            let expr = crate::expr::col(column.clone()).like(pattern.clone());
            selectivity(&expr, profile)
        }
        StoragePredicate::IsNull { column, negated } => {
            let expr = Expr::IsNull {
                expr: Box::new(crate::expr::col(column.clone())),
                negated: *negated,
            };
            selectivity(&expr, profile)
        }
    }
}

/// The table profile a physical subtree scans, if exactly one.
fn scan_profile<'a>(node: &PhysNode, profiles: &'a Profiles) -> Option<&'a TableProfile> {
    match node {
        PhysNode::StorageScan { table, .. } => profiles.get(table),
        PhysNode::Filter { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::Aggregate { input, .. }
        | PhysNode::WindowAggregate { input, .. }
        | PhysNode::Sort { input, .. }
        | PhysNode::TopK { input, .. }
        | PhysNode::Limit { input, .. } => scan_profile(input, profiles),
        _ => None,
    }
}

/// Estimated output (rows, bytes) of a physical node.
pub fn estimate_node(node: &PhysNode, profiles: &Profiles) -> (f64, f64) {
    match node {
        PhysNode::StorageScan {
            table,
            request,
            schema,
            ..
        } => {
            let profile = profiles.get(table);
            let rows = profile.map_or(10_000.0, |p| p.rows as f64);
            let sel = storage_selectivity(&request.predicate, profile);
            let mut rows = rows * sel;
            if request.preagg.is_some() {
                rows = rows.sqrt().max(1.0);
            }
            if let Some(limit) = request.limit {
                rows = rows.min(limit as f64);
            }
            (rows, rows * avg_row_width(schema) as f64)
        }
        PhysNode::Values {
            batches, schema, ..
        } => {
            let rows: usize = batches.iter().map(df_data::Batch::rows).sum();
            (rows as f64, rows as f64 * avg_row_width(schema) as f64)
        }
        PhysNode::StreamScan { spec, schema, .. } => {
            // Unbounded sources are priced at the spec's horizon (or the
            // default pricing horizon): sustained-rate demand, not totals.
            let rows = (spec.priced_batches() * spec.rows_per_batch.max(1) as u64) as f64;
            (rows, rows * avg_row_width(schema) as f64)
        }
        PhysNode::Filter {
            input, predicate, ..
        } => {
            let (rows, bytes) = estimate_node(input, profiles);
            let sel = selectivity(predicate, scan_profile(input, profiles));
            (rows * sel, bytes * sel)
        }
        PhysNode::Project { input, schema, .. } => {
            let (rows, _) = estimate_node(input, profiles);
            (rows, rows * avg_row_width(schema) as f64)
        }
        PhysNode::Aggregate {
            input,
            group_by,
            mode,
            final_schema,
            ..
        } => {
            let (in_rows, _) = estimate_node(input, profiles);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                in_rows.sqrt().max(1.0).min(in_rows)
            };
            let rows = match mode {
                // Partial stages may flush several copies of a group.
                AggMode::Partial { .. } => (groups * 1.5).min(in_rows.max(1.0)),
                _ => groups,
            };
            (rows, rows * avg_row_width(final_schema) as f64)
        }
        PhysNode::WindowAggregate {
            input,
            group_by,
            mode,
            final_schema,
            ..
        } => {
            // Same group-cardinality heuristic as Aggregate; the wstart
            // column multiplies groups by the open-window count, which the
            // sqrt heuristic already absorbs at estimate precision.
            let (in_rows, _) = estimate_node(input, profiles);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                in_rows.sqrt().max(1.0).min(in_rows)
            };
            let rows = match mode {
                AggMode::Partial { .. } => (groups * 1.5).min(in_rows.max(1.0)),
                _ => groups,
            };
            (rows, rows * avg_row_width(final_schema) as f64)
        }
        PhysNode::HashJoin {
            build,
            probe,
            schema,
            ..
        } => {
            let (b, _) = estimate_node(build, profiles);
            let (p, _) = estimate_node(probe, profiles);
            let rows = b.max(p);
            (rows, rows * avg_row_width(schema) as f64)
        }
        PhysNode::Sort { input, .. } => estimate_node(input, profiles),
        PhysNode::TopK { input, k, .. } => {
            let (rows, bytes) = estimate_node(input, profiles);
            let capped = rows.min(*k as f64);
            let frac = if rows > 0.0 { capped / rows } else { 1.0 };
            (capped, bytes * frac)
        }
        PhysNode::Limit { input, n } => {
            let (rows, bytes) = estimate_node(input, profiles);
            let capped = rows.min(*n as f64);
            let frac = if rows > 0.0 { capped / rows } else { 1.0 };
            (capped, bytes * frac)
        }
        PhysNode::Exchange {
            kind,
            parts,
            inputs,
            schema,
            ..
        } => {
            // One fragment sees its share of the combined producer
            // output. Fragments that do not carry the producer subtrees
            // (`inputs` empty) fall back to a one-row floor — graph-level
            // pricing in `to_flow_specs` resolves the real share.
            let (in_rows, in_bytes) = inputs.iter().fold((0.0, 0.0), |(r, b), n| {
                let (nr, nb) = estimate_node(n, profiles);
                (r + nr, b + nb)
            });
            let share = match kind {
                ExchangeKind::Hash { .. } => 1.0 / (*parts).max(1) as f64,
                ExchangeKind::Broadcast | ExchangeKind::Gather => 1.0,
            };
            let rows = (in_rows * share).max(1.0);
            let bytes = (in_bytes * share).max(avg_row_width(schema) as f64);
            (rows, bytes)
        }
    }
}

/// The fabric op class a physical node maps to (drives device service
/// rates and placement legality).
pub fn op_class_of(node: &PhysNode) -> OpClass {
    match node {
        PhysNode::StorageScan { request, .. } => {
            let has_like = predicate_has_like(&request.predicate);
            if has_like {
                OpClass::Regex
            } else if request.preagg.is_some() {
                OpClass::AggregatePartial
            } else if !matches!(request.predicate, StoragePredicate::True) {
                OpClass::Filter
            } else {
                OpClass::Scan
            }
        }
        PhysNode::Values { .. } => OpClass::Scan,
        // A stream source is the *ingest point* of a continuous query —
        // the rows arrive at the device (NIC-Rx, storage feed) rather than
        // being read from it, so it prices and places as `Ingest`.
        PhysNode::StreamScan { .. } => OpClass::Ingest,
        PhysNode::Filter { predicate, .. } => {
            if expr_has_like(predicate) {
                OpClass::Regex
            } else {
                OpClass::Filter
            }
        }
        PhysNode::Project { .. } => OpClass::Project,
        PhysNode::Aggregate {
            group_by,
            aggs,
            mode,
            ..
        } => {
            // §4.4: a pure COUNT keeps no group state — it can terminate
            // in-path on stream-only devices (the NIC's count engine).
            if group_by.is_empty()
                && aggs
                    .iter()
                    .all(|a| matches!(a.func, crate::logical::AggFn::Count))
            {
                OpClass::Count
            } else {
                // A bounded merge holds at most `max_groups` groups and
                // flushes like a partial stage, so it places like one.
                match mode {
                    AggMode::Partial { .. }
                    | AggMode::Merge {
                        max_groups: Some(_),
                    } => OpClass::AggregatePartial,
                    AggMode::Final | AggMode::Merge { max_groups: None } => OpClass::AggregateFinal,
                }
            }
        }
        PhysNode::WindowAggregate { mode, .. } => match mode {
            AggMode::Partial { .. } => OpClass::AggregatePartial,
            _ => OpClass::AggregateFinal,
        },
        PhysNode::HashJoin { .. } => OpClass::JoinProbe,
        PhysNode::Sort { .. } | PhysNode::TopK { .. } => OpClass::Sort,
        PhysNode::Limit { .. } => OpClass::Project,
        PhysNode::Exchange { .. } => OpClass::Partition,
    }
}

fn predicate_has_like(p: &StoragePredicate) -> bool {
    match p {
        StoragePredicate::Like { .. } => true,
        StoragePredicate::And(v) | StoragePredicate::Or(v) => v.iter().any(predicate_has_like),
        StoragePredicate::Not(inner) => predicate_has_like(inner),
        _ => false,
    }
}

fn expr_has_like(e: &Expr) -> bool {
    match e {
        Expr::Like { .. } => true,
        Expr::And(v) | Expr::Or(v) => v.iter().any(expr_has_like),
        Expr::Not(inner) => expr_has_like(inner),
        Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
            expr_has_like(left) || expr_has_like(right)
        }
        _ => false,
    }
}

/// Cost a physical plan against a topology. `default_device` stands in for
/// unplaced nodes (the session's CPU).
pub fn cost_plan(
    root: &PhysNode,
    topology: &Topology,
    profiles: &Profiles,
    default_device: DeviceId,
) -> Result<PlanCost> {
    let mut acc = CostAcc {
        stage_times: Vec::new(),
        latency: SimDuration::ZERO,
        moved_bytes: 0,
        compute: SimDuration::ZERO,
    };
    // Results are consumed at the default (CPU) device: the final hop
    // from the root's placement to the consumer counts too.
    walk(
        root,
        topology,
        profiles,
        default_device,
        Some(default_device),
        &mut acc,
    )?;
    if acc.stage_times.is_empty() {
        return Ok(PlanCost::zero());
    }
    let bottleneck = acc
        .stage_times
        .iter()
        .copied()
        .max()
        .unwrap_or(SimDuration::ZERO);
    Ok(PlanCost {
        time: bottleneck + acc.latency,
        moved_bytes: acc.moved_bytes,
        compute: acc.compute,
        bottleneck,
    })
}

fn children_of(node: &PhysNode) -> Vec<&PhysNode> {
    match node {
        PhysNode::StorageScan { .. } | PhysNode::Values { .. } | PhysNode::StreamScan { .. } => {
            vec![]
        }
        PhysNode::Filter { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::Aggregate { input, .. }
        | PhysNode::WindowAggregate { input, .. }
        | PhysNode::Sort { input, .. }
        | PhysNode::TopK { input, .. }
        | PhysNode::Limit { input, .. } => vec![input],
        PhysNode::HashJoin { build, probe, .. } => vec![build, probe],
        PhysNode::Exchange { inputs, .. } => inputs.iter().collect(),
    }
}

fn walk(
    node: &PhysNode,
    topology: &Topology,
    profiles: &Profiles,
    default_device: DeviceId,
    parent_device: Option<DeviceId>,
    acc: &mut CostAcc,
) -> Result<()> {
    let device = node.device().unwrap_or(default_device);
    // Input bytes the stage processes = sum of child outputs (scan: stored
    // bytes it touches).
    let input_bytes = node_input_bytes(node, profiles);
    let op = op_class_of(node);
    let profile = &topology.device(device).profile;
    let service = profile
        .service_time(op, input_bytes.max(0.0) as u64)
        .ok_or_else(|| {
            EngineError::Placement(format!(
                "device '{}' cannot run {op}",
                topology.device(device).name
            ))
        })?;
    acc.stage_times.push(service);
    acc.compute += service;

    // Transfer to the parent.
    if let Some(parent) = parent_device {
        if parent != device {
            let (_, out_bytes) = estimate_node(node, profiles);
            let route = topology.route(device, parent).ok_or_else(|| {
                EngineError::Placement(format!(
                    "no route from {} to {}",
                    topology.device(device).name,
                    topology.device(parent).name
                ))
            })?;
            let bytes = out_bytes.max(0.0) as u64;
            if let Some(bw) = topology.route_bandwidth(&route) {
                acc.stage_times.push(bw.time_for_bytes(bytes));
            }
            acc.latency += topology.route_latency(&route);
            acc.moved_bytes += bytes;
        }
    }

    for child in children_of(node) {
        walk(child, topology, profiles, default_device, Some(device), acc)?;
    }
    Ok(())
}

/// Bytes a node consumes: for scans, the projected fraction of stored
/// bytes; otherwise the sum of child output estimates.
pub fn node_input_bytes(node: &PhysNode, profiles: &Profiles) -> f64 {
    match node {
        PhysNode::StorageScan { table, request, .. } => {
            // Bytes scanned: projected fraction of the stored bytes.
            let profile = profiles.get(table);
            let stored = profile.map_or(1 << 20, |p| p.stored_bytes) as f64;
            let frac = match (&request.projection, profile) {
                (Some(cols), Some(p)) if !p.schema.is_empty() => {
                    cols.len() as f64 / p.schema.len() as f64
                }
                _ => 1.0,
            };
            stored * frac
        }
        other => children_of(other)
            .iter()
            .map(|c| estimate_node(c, profiles).1)
            .sum(),
    }
}

/// Selectivity helper exposed for the flow-mapping layer: output bytes /
/// input bytes of one node.
pub fn reduction_of(node: &PhysNode, profiles: &Profiles) -> f64 {
    let (_, out_bytes) = estimate_node(node, profiles);
    let in_bytes: f64 = node_input_bytes(node, profiles);
    if matches!(node, PhysNode::Values { .. }) {
        return 1.0; // in-memory sources have no meaningful input size
    }
    if in_bytes <= 0.0 {
        1.0
    } else {
        (out_bytes / in_bytes).clamp(0.0, 10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::{Column, DataType, Field, Schema};
    use df_fabric::topology::DisaggregatedConfig;
    use df_storage::smart::ScanRequest;
    use df_storage::zonemap::{CmpOp, ZoneMap};

    fn profile(rows: u64) -> TableProfile {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("v", DataType::Float64),
        ]);
        TableProfile {
            rows,
            stored_bytes: rows * 24,
            zones: vec![
                Some(ZoneMap::of(&Column::from_i64(vec![0, rows as i64 - 1]))),
                None,
                None,
            ],
            schema,
        }
    }

    fn profiles(rows: u64) -> Profiles {
        let mut p = Profiles::new();
        p.insert("t".to_string(), profile(rows));
        p
    }

    fn scan(device: Option<DeviceId>, request: ScanRequest) -> PhysNode {
        PhysNode::StorageScan {
            table: "t".into(),
            schema: profile(1).schema.clone().into_ref(),
            request,
            device,
        }
    }

    #[test]
    fn pushdown_moves_fewer_bytes_than_ship_all() {
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let ssd = topo.expect_device("storage.ssd");
        let cpu = topo.expect_device("compute0.cpu");
        let profiles = profiles(1_000_000);

        // Ship-all: scan at storage, filter at CPU.
        let ship_all = PhysNode::Filter {
            input: Box::new(scan(Some(ssd), ScanRequest::full())),
            predicate: crate::expr::col("id").lt(crate::expr::lit(10_000)),
            device: Some(cpu),
            use_kernel: false,
        };
        // Pushdown: filter inside the scan request.
        let pushdown = scan(
            Some(ssd),
            ScanRequest::full().filter(StoragePredicate::cmp("id", CmpOp::Lt, 10_000i64)),
        );
        let pushdown = PhysNode::Project {
            exprs: vec![(crate::expr::col("id"), "id".into())],
            schema: Schema::new(vec![Field::new("id", DataType::Int64)]).into_ref(),
            input: Box::new(pushdown),
            device: Some(cpu),
        };

        let cost_ship = cost_plan(&ship_all, &topo, &profiles, cpu).unwrap();
        let cost_push = cost_plan(&pushdown, &topo, &profiles, cpu).unwrap();
        assert!(
            cost_push.moved_bytes * 10 < cost_ship.moved_bytes,
            "push {} !<< ship {}",
            cost_push.moved_bytes,
            cost_ship.moved_bytes
        );
        assert!(cost_push.time < cost_ship.time);
    }

    #[test]
    fn unsupported_placement_is_an_error() {
        let topo = Topology::disaggregated(&DisaggregatedConfig {
            smart_storage: false,
            ..DisaggregatedConfig::default()
        });
        let ssd = topo.expect_device("storage.ssd");
        let cpu = topo.expect_device("compute0.cpu");
        // Plain storage cannot run a filter.
        let plan = scan(
            Some(ssd),
            ScanRequest::full().filter(StoragePredicate::cmp("id", CmpOp::Lt, 1i64)),
        );
        assert!(matches!(
            cost_plan(&plan, &topo, &profiles(1000), cpu),
            Err(EngineError::Placement(_))
        ));
    }

    #[test]
    fn estimates_respond_to_selectivity() {
        let profiles = profiles(1_000_000);
        let node = scan(
            None,
            ScanRequest::full().filter(StoragePredicate::cmp("id", CmpOp::Lt, 100_000i64)),
        );
        let (rows, _) = estimate_node(&node, &profiles);
        assert!((rows - 100_000.0).abs() / 100_000.0 < 0.05, "rows={rows}");
    }

    #[test]
    fn preagg_scan_shrinks_estimate() {
        let profiles = profiles(1_000_000);
        let plain = scan(None, ScanRequest::full());
        let agg = scan(
            None,
            ScanRequest::full().pre_aggregate(df_storage::smart::PreAggSpec {
                group_by: vec!["grp".into()],
                aggs: vec![(df_storage::agg::AggFn::Count, "id".into())],
                max_groups: 1024,
            }),
        );
        let (plain_rows, _) = estimate_node(&plain, &profiles);
        let (agg_rows, _) = estimate_node(&agg, &profiles);
        assert!(agg_rows * 100.0 < plain_rows);
    }

    #[test]
    fn like_costs_as_regex() {
        let node = PhysNode::Filter {
            input: Box::new(scan(None, ScanRequest::full())),
            predicate: crate::expr::col("grp").like("a%"),
            device: None,
            use_kernel: false,
        };
        assert_eq!(op_class_of(&node), OpClass::Regex);
    }

    #[test]
    fn reduction_of_filter_matches_selectivity() {
        let profiles = profiles(1_000_000);
        let node = PhysNode::Filter {
            input: Box::new(scan(None, ScanRequest::full())),
            predicate: crate::expr::col("id").lt(crate::expr::lit(100_000)),
            device: None,
            use_kernel: false,
        };
        let r = reduction_of(&node, &profiles);
        assert!((r - 0.1).abs() < 0.02, "r={r}");
    }
}
