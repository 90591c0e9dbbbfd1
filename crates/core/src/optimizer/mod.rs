//! The optimizer: rewrites, placement enumeration, and variant ranking.
//!
//! §7.3 requires that "query plans in this architecture should contain
//! several data path alternatives ... a plan that uses every available
//! accelerator on the data path and a plan entirely executed on a compute
//! node". [`Optimizer::variants`] produces exactly that spectrum — every
//! *applicable* offload combination, costed by the movement-aware model and
//! ranked — for the serving layer's admission to choose among at runtime.

pub mod cost;
pub mod rewrite;
pub mod stats;

use std::sync::Arc;

use df_fabric::{DeviceId, DeviceKind, Topology};
use df_storage::predicate::StoragePredicate;
use df_storage::smart::{PreAggSpec, ScanRequest};

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::kernel::to_storage_predicate;
use crate::logical::{AggCall, AggFn, LogicalPlan};
use crate::ops::AggMode;
use crate::physical::{PhysNode, PhysicalPlan};

pub use cost::PlanCost;
pub use stats::{Profiles, TableProfile};

/// Where the interesting devices of the session's platform live.
#[derive(Debug, Clone, Copy)]
pub struct SiteMap {
    /// The storage controller serving table scans.
    pub storage: DeviceId,
    /// Whether it can execute pushed-down kernels.
    pub storage_is_smart: bool,
    /// The compute node's NIC, if smart.
    pub smart_nic: Option<DeviceId>,
    /// The near-memory accelerator, if present.
    pub near_mem: Option<DeviceId>,
    /// The CPU every plan can fall back to.
    pub cpu: DeviceId,
}

impl SiteMap {
    /// Discover a site map from a topology by device kinds, preferring the
    /// conventional names of [`Topology::disaggregated`].
    pub fn discover(topology: &Topology) -> Result<SiteMap> {
        let by_kind = |pred: &dyn Fn(&DeviceKind) -> bool| {
            topology
                .devices()
                .iter()
                .find(|d| pred(&d.profile.kind))
                .map(|d| d.id)
        };
        let storage =
            by_kind(&|k| matches!(k, DeviceKind::SmartStorage | DeviceKind::PlainStorage))
                .ok_or_else(|| EngineError::Placement("topology has no storage device".into()))?;
        let storage_is_smart = matches!(
            topology.device(storage).profile.kind,
            DeviceKind::SmartStorage
        );
        let cpu = by_kind(&|k| matches!(k, DeviceKind::Cpu { .. }))
            .ok_or_else(|| EngineError::Placement("topology has no CPU".into()))?;
        // Prefer the compute-side NIC (closest to the CPU) over storage's.
        let smart_nic = topology
            .device_by_name("compute0.nic")
            .filter(|&d| matches!(topology.device(d).profile.kind, DeviceKind::SmartNic))
            .or_else(|| by_kind(&|k| matches!(k, DeviceKind::SmartNic)));
        let near_mem = by_kind(&|k| matches!(k, DeviceKind::NearMemAccel));
        Ok(SiteMap {
            storage,
            storage_is_smart,
            smart_nic,
            near_mem,
            cpu,
        })
    }
}

/// How far a variant offloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OffloadPolicy {
    name: &'static str,
    /// Push projection into the scan request.
    projection: bool,
    /// Push offloadable filter conjuncts into the scan request.
    filter: bool,
    /// Push partial aggregation into the scan request.
    preagg: bool,
    /// Run the residual filter on the smart NIC via a kernel.
    nic_filter: bool,
    /// Run the residual filter on the near-memory accelerator.
    near_mem_filter: bool,
}

const POLICIES: [OffloadPolicy; 5] = [
    OffloadPolicy {
        name: "cpu-only",
        projection: true,
        filter: false,
        preagg: false,
        nic_filter: false,
        near_mem_filter: false,
    },
    OffloadPolicy {
        name: "storage-pushdown",
        projection: true,
        filter: true,
        preagg: false,
        nic_filter: false,
        near_mem_filter: false,
    },
    OffloadPolicy {
        name: "nic-filter",
        projection: true,
        filter: false,
        preagg: false,
        nic_filter: true,
        near_mem_filter: false,
    },
    OffloadPolicy {
        name: "near-mem-filter",
        projection: true,
        filter: false,
        preagg: false,
        nic_filter: false,
        near_mem_filter: true,
    },
    OffloadPolicy {
        name: "full-dataflow",
        projection: true,
        filter: true,
        preagg: true,
        nic_filter: true,
        near_mem_filter: false,
    },
];

/// A costed plan alternative.
#[derive(Debug, Clone)]
pub struct RankedPlan {
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// Its estimated cost.
    pub cost: PlanCost,
}

/// The optimizer, bound to a topology.
pub struct Optimizer {
    topology: Arc<Topology>,
    site: SiteMap,
}

impl Optimizer {
    /// Create for a topology (discovers the site map).
    pub fn new(topology: Arc<Topology>) -> Result<Optimizer> {
        let site = SiteMap::discover(&topology)?;
        Ok(Optimizer { topology, site })
    }

    /// The discovered site map.
    pub fn site(&self) -> &SiteMap {
        &self.site
    }

    /// Produce ranked plan variants for a logical plan: rewritten,
    /// physically placed under each applicable offload policy, costed, and
    /// sorted best-first. Always contains at least the CPU-only variant.
    pub fn variants(&self, logical: &LogicalPlan, profiles: &Profiles) -> Result<Vec<RankedPlan>> {
        let rewritten = rewrite::rewrite(logical.clone())?;
        let mut out: Vec<RankedPlan> = Vec::new();
        for policy in POLICIES {
            if (policy.filter || policy.preagg) && !self.site.storage_is_smart {
                continue;
            }
            if policy.nic_filter && self.site.smart_nic.is_none() {
                continue;
            }
            if policy.near_mem_filter && self.site.near_mem.is_none() {
                continue;
            }
            let Some(root) = self.build(&rewritten, policy)? else {
                continue; // policy not applicable to this plan shape
            };
            // Skip duplicates (a policy that changed nothing vs another).
            let explain = root.explain();
            if out.iter().any(|r| r.plan.root.explain() == explain) {
                continue;
            }
            let cost = match cost::cost_plan(&root, &self.topology, profiles, self.site.cpu) {
                Ok(c) => c,
                // The policy produced an illegal placement (e.g. a regex
                // filter on a device without a pattern matcher): not an
                // error, just not a viable variant.
                Err(EngineError::Placement(_)) => continue,
                Err(other) => return Err(other),
            };
            out.push(RankedPlan {
                plan: PhysicalPlan::new(root, policy.name),
                cost,
            });
        }
        if out.is_empty() {
            return Err(EngineError::Placement(
                "no plan variant could be constructed".into(),
            ));
        }
        out.sort_by(|a, b| {
            a.cost
                .time
                .cmp(&b.cost.time)
                .then(a.cost.moved_bytes.cmp(&b.cost.moved_bytes))
        });
        Ok(out)
    }

    /// Best variant only.
    pub fn best(&self, logical: &LogicalPlan, profiles: &Profiles) -> Result<RankedPlan> {
        Ok(self.variants(logical, profiles)?.remove(0))
    }

    /// Build a physical plan for one policy. `Ok(None)` means the policy
    /// does not change anything applicable and should be skipped (except
    /// cpu-only, which always applies).
    fn build(&self, plan: &LogicalPlan, policy: OffloadPolicy) -> Result<Option<PhysNode>> {
        Ok(Some(match plan {
            LogicalPlan::Scan {
                table, projection, ..
            } => {
                let mut request = ScanRequest::full();
                if policy.projection {
                    if let Some(cols) = projection {
                        request.projection = Some(cols.clone());
                    }
                }
                PhysNode::StorageScan {
                    table: table.clone(),
                    schema: plan.schema(),
                    request,
                    device: Some(self.site.storage),
                }
            }
            LogicalPlan::Values { batches, schema } => PhysNode::Values {
                batches: batches.clone(),
                schema: schema.clone(),
                device: None,
            },
            LogicalPlan::Filter { input, predicate } => {
                // Try to push conjuncts into a directly-underlying scan.
                if let LogicalPlan::Scan { .. } = input.as_ref() {
                    let Some(scan_node) = self.build(input, policy)? else {
                        return Ok(None);
                    };
                    return self.place_filter(scan_node, predicate, policy).map(Some);
                }
                let Some(child) = self.build(input, policy)? else {
                    return Ok(None);
                };
                PhysNode::Filter {
                    input: Box::new(child),
                    predicate: predicate.clone(),
                    device: Some(self.site.cpu),
                    use_kernel: false,
                }
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let Some(child) = self.build(input, policy)? else {
                    return Ok(None);
                };
                PhysNode::Project {
                    input: Box::new(child),
                    exprs: exprs.clone(),
                    schema: schema.clone(),
                    device: Some(self.site.cpu),
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
            } => {
                // Full pushdown: scan (+fully pushed filter) + pre-agg at
                // storage, merge at CPU.
                if policy.preagg {
                    if let Some(node) =
                        self.try_pushdown_aggregate(input, group_by, aggs, schema)?
                    {
                        return Ok(Some(node));
                    }
                }
                let Some(child) = self.build(input, policy)? else {
                    return Ok(None);
                };
                PhysNode::Aggregate {
                    input: Box::new(child),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    mode: AggMode::Final,
                    final_schema: schema.clone(),
                    device: Some(self.site.cpu),
                }
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
                schema,
            } => {
                let Some(build) = self.build(left, policy)? else {
                    return Ok(None);
                };
                let Some(probe) = self.build(right, policy)? else {
                    return Ok(None);
                };
                PhysNode::HashJoin {
                    build: Box::new(build),
                    probe: Box::new(probe),
                    on: on.clone(),
                    join_type: *join_type,
                    schema: schema.clone(),
                    device: Some(self.site.cpu),
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let Some(child) = self.build(input, policy)? else {
                    return Ok(None);
                };
                PhysNode::Sort {
                    input: Box::new(child),
                    keys: keys.clone(),
                    device: Some(self.site.cpu),
                }
            }
            LogicalPlan::Limit { input, n } => {
                // Sort directly under Limit fuses into bounded-state TopK.
                if let LogicalPlan::Sort {
                    input: sort_input,
                    keys,
                } = input.as_ref()
                {
                    let Some(child) = self.build(sort_input, policy)? else {
                        return Ok(None);
                    };
                    return Ok(Some(PhysNode::TopK {
                        input: Box::new(child),
                        keys: keys.clone(),
                        k: *n,
                        device: Some(self.site.cpu),
                    }));
                }
                let Some(child) = self.build(input, policy)? else {
                    return Ok(None);
                };
                PhysNode::Limit {
                    input: Box::new(child),
                    n: *n,
                }
            }
        }))
    }

    /// Place a filter over a freshly built scan node according to policy:
    /// push what lowers to the storage language, then place the residual.
    fn place_filter(
        &self,
        scan: PhysNode,
        predicate: &Expr,
        policy: OffloadPolicy,
    ) -> Result<PhysNode> {
        let conjuncts: Vec<Expr> = match predicate {
            Expr::And(children) => children.clone(),
            other => vec![other.clone()],
        };
        // The one lowering decides both placements: a conjunct that lowers
        // may go to storage, and the residual may go to the NIC or the
        // near-memory unit only if every one of its conjuncts lowers.
        let mut pushed: Vec<StoragePredicate> = Vec::new();
        let mut residual: Vec<Expr> = Vec::new();
        let mut offloadable = true;
        for c in conjuncts {
            match to_storage_predicate(&c) {
                Some(p) if policy.filter && self.site.storage_is_smart => pushed.push(p),
                lowered => {
                    offloadable &= lowered.is_some();
                    residual.push(c);
                }
            }
        }
        let node = if pushed.is_empty() {
            scan
        } else {
            match scan {
                PhysNode::StorageScan {
                    table,
                    mut request,
                    schema,
                    device,
                } => {
                    request.predicate = if pushed.len() == 1 {
                        pushed.pop().expect("len checked")
                    } else {
                        StoragePredicate::And(pushed)
                    };
                    PhysNode::StorageScan {
                        table,
                        request,
                        schema,
                        device,
                    }
                }
                other => other,
            }
        };
        if residual.is_empty() {
            return Ok(node);
        }
        let residual_pred = if residual.len() == 1 {
            residual.pop().expect("len checked")
        } else {
            Expr::And(residual)
        };
        // Residual placement: NIC or near-memory accelerator when the
        // policy asks for it and the residual lowers; otherwise CPU.
        let (device, use_kernel) = if policy.nic_filter && offloadable {
            (self.site.smart_nic, true)
        } else if policy.near_mem_filter && offloadable {
            (self.site.near_mem, true)
        } else {
            (Some(self.site.cpu), false)
        };
        Ok(PhysNode::Filter {
            input: Box::new(node),
            predicate: residual_pred,
            device,
            use_kernel,
        })
    }

    /// Try to push an aggregate down to storage as bounded pre-aggregation.
    fn try_pushdown_aggregate(
        &self,
        input: &LogicalPlan,
        group_by: &[String],
        aggs: &[AggCall],
        final_schema: &df_data::SchemaRef,
    ) -> Result<Option<PhysNode>> {
        // The input must be Scan or Filter(Scan) with a fully pushable
        // predicate.
        let (scan, filter) = match input {
            LogicalPlan::Scan { .. } => (input, None),
            LogicalPlan::Filter {
                input: scan,
                predicate,
            } => {
                if !matches!(scan.as_ref(), LogicalPlan::Scan { .. }) {
                    return Ok(None);
                }
                match to_storage_predicate(predicate) {
                    Some(p) => (scan.as_ref(), Some(p)),
                    None => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        let input_schema = scan.schema();
        // Map AggCalls to storage calls (positional contract).
        let mut storage_aggs: Vec<(AggFn, String)> = Vec::new();
        for call in aggs {
            match (call.func, &call.column) {
                (AggFn::Count, None) => {
                    // COUNT(*) needs a non-nullable column to count.
                    let Some(field) = input_schema.fields().iter().find(|f| !f.nullable) else {
                        return Ok(None);
                    };
                    storage_aggs.push((AggFn::Count, field.name.clone()));
                }
                (AggFn::Avg, Some(c)) => {
                    // AVG decomposes positionally into (sum, count).
                    storage_aggs.push((AggFn::Sum, c.clone()));
                    storage_aggs.push((AggFn::Count, c.clone()));
                }
                (func, Some(c)) => storage_aggs.push((func, c.clone())),
                (_, None) => return Ok(None),
            }
        }
        let LogicalPlan::Scan { table, .. } = scan else {
            return Ok(None);
        };
        let spec = PreAggSpec {
            group_by: group_by.to_vec(),
            aggs: storage_aggs,
            max_groups: 1 << 16,
        };
        // The scan emits the storage partial layout; the Merge aggregate
        // consumes it positionally.
        let scan_schema = spec.output_schema(&input_schema)?;
        let mut request = ScanRequest::full().pre_aggregate(spec);
        if let Some(p) = filter {
            request.predicate = p;
        }
        Ok(Some(PhysNode::Aggregate {
            input: Box::new(PhysNode::StorageScan {
                table: table.clone(),
                request,
                schema: scan_schema,
                device: Some(self.site.storage),
            }),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            mode: AggMode::Merge { max_groups: None },
            final_schema: final_schema.clone(),
            device: Some(self.site.cpu),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use df_data::{DataType, Field, Schema};
    use df_fabric::topology::DisaggregatedConfig;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::disaggregated(&DisaggregatedConfig::default()))
    }

    fn table_schema() -> df_data::SchemaRef {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("v", DataType::Float64),
            Field::new("note", DataType::Utf8),
        ])
        .into_ref()
    }

    fn profiles() -> Profiles {
        let mut p = Profiles::new();
        p.insert(
            "t".to_string(),
            TableProfile {
                rows: 1_000_000,
                stored_bytes: 40_000_000,
                zones: vec![
                    Some(df_storage::zonemap::ZoneMap::of(
                        &df_data::Column::from_i64(vec![0, 999_999]),
                    )),
                    None,
                    None,
                    None,
                ],
                schema: table_schema().as_ref().clone(),
            },
        );
        p
    }

    fn selective_query() -> LogicalPlan {
        LogicalPlan::scan("t", table_schema())
            .filter(col("id").lt(lit(1000)))
            .unwrap()
            .project(&["id", "v"])
            .unwrap()
    }

    #[test]
    fn site_discovery() {
        let t = topo();
        let site = SiteMap::discover(&t).unwrap();
        assert!(site.storage_is_smart);
        assert!(site.smart_nic.is_some());
        assert!(site.near_mem.is_some());
    }

    #[test]
    fn variants_include_cpu_only_and_pushdown() {
        let optimizer = Optimizer::new(topo()).unwrap();
        let variants = optimizer.variants(&selective_query(), &profiles()).unwrap();
        let names: Vec<&str> = variants.iter().map(|v| v.plan.variant.as_str()).collect();
        assert!(names.contains(&"cpu-only"), "{names:?}");
        assert!(names.contains(&"storage-pushdown"), "{names:?}");
        assert!(names.len() >= 3, "{names:?}");
    }

    #[test]
    fn pushdown_wins_for_selective_queries() {
        let optimizer = Optimizer::new(topo()).unwrap();
        let best = optimizer.best(&selective_query(), &profiles()).unwrap();
        assert_eq!(best.plan.variant, "storage-pushdown");
        // And its cost is strictly better than cpu-only.
        let variants = optimizer.variants(&selective_query(), &profiles()).unwrap();
        let cpu_only = variants
            .iter()
            .find(|v| v.plan.variant == "cpu-only")
            .unwrap();
        assert!(best.cost.moved_bytes < cpu_only.cost.moved_bytes);
        assert!(best.cost.time < cpu_only.cost.time);
    }

    #[test]
    fn dumb_storage_disables_pushdown_variants() {
        let t = Arc::new(Topology::disaggregated(&DisaggregatedConfig {
            smart_storage: false,
            smart_nics: false,
            near_memory_accel: false,
            ..DisaggregatedConfig::default()
        }));
        let optimizer = Optimizer::new(t).unwrap();
        let variants = optimizer.variants(&selective_query(), &profiles()).unwrap();
        for v in &variants {
            assert_eq!(v.plan.variant, "cpu-only", "unexpected {}", v.plan.variant);
        }
    }

    #[test]
    fn aggregate_pushes_to_preagg() {
        let optimizer = Optimizer::new(topo()).unwrap();
        let plan = LogicalPlan::scan("t", table_schema())
            .aggregate(
                vec!["grp".into()],
                vec![
                    crate::logical::AggCall::new(AggFn::Sum, "v", "sv"),
                    crate::logical::AggCall::new(AggFn::Avg, "v", "av"),
                ],
            )
            .unwrap();
        let variants = optimizer.variants(&plan, &profiles()).unwrap();
        let full = variants
            .iter()
            .find(|v| v.plan.variant == "full-dataflow")
            .expect("full-dataflow variant exists");
        let text = full.plan.explain();
        assert!(text.contains("preagg"), "{text}");
        assert!(text.contains("Aggregate[merge]"), "{text}");
        // Pre-aggregation moves far fewer bytes than cpu-only.
        let cpu_only = variants
            .iter()
            .find(|v| v.plan.variant == "cpu-only")
            .unwrap();
        assert!(full.cost.moved_bytes < cpu_only.cost.moved_bytes / 10);
    }

    #[test]
    fn arithmetic_residual_stays_on_cpu() {
        let optimizer = Optimizer::new(topo()).unwrap();
        let plan = LogicalPlan::scan("t", table_schema())
            .filter(
                col("id")
                    .add(lit(1))
                    .gt(lit(100))
                    .and(col("id").lt(lit(50))),
            )
            .unwrap();
        let variants = optimizer.variants(&plan, &profiles()).unwrap();
        let pushdown = variants
            .iter()
            .find(|v| v.plan.variant == "storage-pushdown")
            .unwrap();
        let text = pushdown.plan.explain();
        // Pushable conjunct went down; arithmetic one stayed as a Filter.
        assert!(text.contains("pushdown-filter"), "{text}");
        assert!(text.contains("Filter: ((id + 1) > 100)"), "{text}");
    }

    #[test]
    fn nic_filter_variant_places_kernel_on_nic() {
        let optimizer = Optimizer::new(topo()).unwrap();
        let variants = optimizer.variants(&selective_query(), &profiles()).unwrap();
        let nic = variants
            .iter()
            .find(|v| v.plan.variant == "nic-filter")
            .expect("nic-filter variant");
        let text = nic.plan.explain();
        assert!(text.contains("[kernel]"), "{text}");
    }

    #[test]
    fn column_pair_residual_stays_on_cpu() {
        // `id < v` compares two columns, which the offload predicate
        // language cannot express: the device policies keep the filter on
        // the CPU (their plans then duplicate cpu-only's and are dropped).
        let optimizer = Optimizer::new(topo()).unwrap();
        let plan = LogicalPlan::scan("t", table_schema())
            .filter(col("id").lt(col("v")))
            .unwrap();
        let rewritten = rewrite::rewrite(plan.clone()).unwrap();
        let on_cpu = format!("Filter: (id < v) @{}", optimizer.site.cpu);
        for policy in POLICIES {
            if policy.nic_filter || policy.near_mem_filter {
                let node = optimizer.build(&rewritten, policy).unwrap().unwrap();
                let text = node.explain();
                assert!(text.contains(&on_cpu), "{}: {text}", policy.name);
            }
        }
        let variants = optimizer.variants(&plan, &profiles()).unwrap();
        assert!(variants
            .iter()
            .all(|v| !v.plan.explain().contains("[kernel]")));
    }

    #[test]
    fn variants_sorted_by_cost() {
        let optimizer = Optimizer::new(topo()).unwrap();
        let variants = optimizer.variants(&selective_query(), &profiles()).unwrap();
        for pair in variants.windows(2) {
            assert!(pair[0].cost.time <= pair[1].cost.time);
        }
    }
}
