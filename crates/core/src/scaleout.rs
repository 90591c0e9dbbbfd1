//! Scale-out execution over N-host cluster topologies — Figure 4's
//! "scattering pipeline to support a distributed, partitioned hash join",
//! expressed as placed plans over the pipeline-graph IR.
//!
//! Each host contributes producer fragments (its slice of the table,
//! streamed through the device that partitions it: the smart NIC on the
//! paper's proposed path, the host CPU on the baseline), a first-class
//! [`Exchange`](crate::pipeline::Exchange) redistributes rows by join key
//! across per-host join fragments, and a final gather exchange lands the
//! result in the coordinator's memory. The executor drives all N² shuffle
//! streams through the same credit-bounded channels and single ledger
//! charge site as any other fabric edge, so the [`ScaleoutReport`] is read
//! straight off the movement ledger instead of being hand-counted.
//!
//! [`fan_out`] applies the same gather to one compute node: morsel
//! parallelism as a plan rewrite that deals a `Values` leaf across N
//! fragments behind a gather exchange, with a partial/merge aggregate
//! split, so the push driver runs the fragments on parallel threads.

use df_codec::wire::WireOptions;
use df_data::{Batch, SchemaRef};
use df_fabric::{ClusterConfig, DeviceId, DeviceKind, Topology};

use crate::error::{EngineError, Result};
use crate::exec::push::{execute, ExecEnv};
use crate::logical::JoinType;
use crate::ops::AggMode;
use crate::physical::{PhysNode, PhysicalPlan};
use crate::pipeline::ExchangeKind;

/// Seed every scale-out hash exchange partitions with, so plans are
/// deterministic across runs and hosts agree on the partition function.
pub const SHUFFLE_SEED: u64 = 0xE5_CA1E;

/// Configuration of a scale-out join run.
#[derive(Debug, Clone)]
pub struct ScaleoutConfig {
    /// Number of hosts in the cluster.
    pub hosts: usize,
    /// Partition at the smart NIC (true, the paper's §4.4 path: the host
    /// CPU never touches in-flight bytes) or on the host CPU (false).
    pub smart_exchange: bool,
    /// Per-host hardware of the cluster topology.
    pub cluster: ClusterConfig,
    /// Wire options cross-device moves are charged under.
    pub wire: WireOptions,
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        ScaleoutConfig {
            hosts: 4,
            smart_exchange: true,
            cluster: ClusterConfig::default(),
            wire: WireOptions::plain(),
        }
    }
}

/// What a scale-out join run measured, classified from the movement
/// ledger by device kind and host.
#[derive(Debug, Clone, Default)]
pub struct ScaleoutReport {
    /// Total join result rows across hosts.
    pub result_rows: usize,
    /// Result rows each host's join fragment sent to the coordinator.
    pub per_host_rows: Vec<usize>,
    /// Ledger bytes leaving each host's devices.
    pub per_host_bytes: Vec<u64>,
    /// Exchange bytes a host CPU partitioned (the baseline's cost).
    pub host_bytes: u64,
    /// Exchange bytes a NIC partitioned in-path (§4.4's smart path).
    pub nic_bytes: u64,
    /// Bytes whose endpoints live on different hosts (switch traffic).
    pub cross_host_bytes: u64,
    /// All ledger bytes the run charged.
    pub total_bytes: u64,
}

/// Run a hash-partitioned join across `config.hosts` hosts of a simulated
/// cluster.
///
/// `build` and `probe` are the two tables, pre-partitioned round-robin
/// across hosts (as cloud object storage would hand them out). `on` is
/// the `(build_column, probe_column)` key pair. Returns the joined result
/// (concatenated across hosts) plus the ledger-derived report.
pub fn exchange_hash_join(
    build: &Batch,
    probe: &Batch,
    on: (&str, &str),
    join_schema: SchemaRef,
    config: &ScaleoutConfig,
) -> Result<(Batch, ScaleoutReport)> {
    let topology = cluster_topology(config)?;
    let build_parts = split_round_robin(build, config.hosts.max(1));
    let probe_parts = split_round_robin(probe, config.hosts.max(1));
    let plan = cluster_hash_join_plan(
        &topology,
        &build_parts,
        build.schema().clone(),
        &probe_parts,
        probe.schema().clone(),
        on,
        join_schema.clone(),
        config.smart_exchange,
    )?;
    run_plan(&plan, &topology, join_schema, config)
}

/// The broadcast-join alternative (§4.4: "joins involving a small
/// table"): host 0 owns the small build side and an exchange replicates
/// it to every host; each host probes only its local slice — no
/// probe-side exchange at all. Pays `hosts × |build|` on the wire to save
/// `|probe|`; the right choice when the build side is small.
pub fn exchange_broadcast_join(
    build: &Batch,
    probe: &Batch,
    on: (&str, &str),
    join_schema: SchemaRef,
    config: &ScaleoutConfig,
) -> Result<(Batch, ScaleoutReport)> {
    let topology = cluster_topology(config)?;
    let probe_parts = split_round_robin(probe, config.hosts.max(1));
    let plan = cluster_broadcast_join_plan(
        &topology,
        build.clone(),
        &probe_parts,
        probe.schema().clone(),
        on,
        join_schema.clone(),
        config.smart_exchange,
    )?;
    run_plan(&plan, &topology, join_schema, config)
}

/// Build the N-host partitioned-join plan over an existing cluster
/// topology: per-host producer leaves, hash exchanges on both join sides,
/// per-host join fragments, and a gather into the coordinator's memory.
///
/// Exposed so experiments can compile, verify, and flow-price the exact
/// plans the executor runs.
#[allow(clippy::too_many_arguments)]
pub fn cluster_hash_join_plan(
    topology: &Topology,
    build_parts: &[Vec<Batch>],
    build_schema: SchemaRef,
    probe_parts: &[Vec<Batch>],
    probe_schema: SchemaRef,
    on: (&str, &str),
    join_schema: SchemaRef,
    smart_exchange: bool,
) -> Result<PhysicalPlan> {
    let hosts = cluster_hosts(topology, build_parts.len())?;
    let joins = (0..hosts)
        .map(|j| {
            let build_inputs = if j == 0 {
                leaves(topology, build_parts, &build_schema, smart_exchange)?
            } else {
                Vec::new()
            };
            let probe_inputs = if j == 0 {
                leaves(topology, probe_parts, &probe_schema, smart_exchange)?
            } else {
                Vec::new()
            };
            let cpu = host_device(topology, j, "cpu")?;
            Ok(PhysNode::HashJoin {
                build: Box::new(PhysNode::Exchange {
                    group: 0,
                    kind: ExchangeKind::Hash {
                        keys: vec![on.0.to_string()],
                        seed: SHUFFLE_SEED,
                    },
                    index: j,
                    parts: hosts,
                    inputs: build_inputs,
                    schema: build_schema.clone(),
                    device: Some(cpu),
                }),
                probe: Box::new(PhysNode::Exchange {
                    group: 1,
                    kind: ExchangeKind::Hash {
                        keys: vec![on.1.to_string()],
                        seed: SHUFFLE_SEED,
                    },
                    index: j,
                    parts: hosts,
                    inputs: probe_inputs,
                    schema: probe_schema.clone(),
                    device: Some(cpu),
                }),
                on: vec![(on.0.to_string(), on.1.to_string())],
                join_type: JoinType::Inner,
                schema: join_schema.clone(),
                device: Some(cpu),
            })
        })
        .collect::<Result<Vec<PhysNode>>>()?;
    let root = gather(
        2,
        joins,
        join_schema,
        Some(host_device(topology, 0, "mem")?),
    );
    Ok(PhysicalPlan::new(
        root,
        if smart_exchange {
            "scaleout-hash-nic"
        } else {
            "scaleout-hash-cpu"
        },
    ))
}

/// Build the N-host broadcast-join plan: host 0's leaf carries the whole
/// build side, a broadcast exchange replicates it, and each host joins
/// against its local probe slice (streamed out of host memory).
pub fn cluster_broadcast_join_plan(
    topology: &Topology,
    build: Batch,
    probe_parts: &[Vec<Batch>],
    probe_schema: SchemaRef,
    on: (&str, &str),
    join_schema: SchemaRef,
    smart_exchange: bool,
) -> Result<PhysicalPlan> {
    let hosts = cluster_hosts(topology, probe_parts.len())?;
    let build_schema = build.schema().clone();
    let joins = (0..hosts)
        .map(|j| {
            let build_inputs = if j == 0 {
                vec![PhysNode::Values {
                    batches: vec![build.clone()],
                    schema: build_schema.clone(),
                    device: Some(host_device(
                        topology,
                        0,
                        if smart_exchange { "nic" } else { "cpu" },
                    )?),
                }]
            } else {
                Vec::new()
            };
            let cpu = host_device(topology, j, "cpu")?;
            Ok(PhysNode::HashJoin {
                build: Box::new(PhysNode::Exchange {
                    group: 0,
                    kind: ExchangeKind::Broadcast,
                    index: j,
                    parts: hosts,
                    inputs: build_inputs,
                    schema: build_schema.clone(),
                    device: Some(cpu),
                }),
                probe: Box::new(PhysNode::Values {
                    batches: probe_parts[j].clone(),
                    schema: probe_schema.clone(),
                    device: Some(host_device(topology, j, "mem")?),
                }),
                on: vec![(on.0.to_string(), on.1.to_string())],
                join_type: JoinType::Inner,
                schema: join_schema.clone(),
                device: Some(cpu),
            })
        })
        .collect::<Result<Vec<PhysNode>>>()?;
    let root = gather(
        1,
        joins,
        join_schema,
        Some(host_device(topology, 0, "mem")?),
    );
    Ok(PhysicalPlan::new(
        root,
        if smart_exchange {
            "scaleout-broadcast-nic"
        } else {
            "scaleout-broadcast-cpu"
        },
    ))
}

/// Split a batch round-robin across hosts at batch granularity — the
/// arbitrary initial placement cloud object storage would produce.
pub fn split_round_robin(batch: &Batch, hosts: usize) -> Vec<Vec<Batch>> {
    let mut parts: Vec<Vec<Batch>> = vec![Vec::new(); hosts];
    if batch.rows() == 0 {
        return parts;
    }
    let chunk = (batch.rows() / (hosts * 4)).max(1);
    let pieces = batch.split(chunk).unwrap_or_else(|_| vec![batch.clone()]);
    for (i, piece) in pieces.into_iter().enumerate() {
        parts[i % hosts].push(piece);
    }
    parts
}

fn cluster_topology(config: &ScaleoutConfig) -> Result<Topology> {
    if config.hosts == 0 {
        return Err(EngineError::Placement(
            "a scale-out run needs at least one host".into(),
        ));
    }
    if config.smart_exchange && !config.cluster.smart_nics {
        return Err(EngineError::Placement(
            "smart_exchange requires smart NICs in the cluster config \
             (plain NICs cannot partition in-path)"
                .into(),
        ));
    }
    Ok(Topology::cluster(config.hosts as u32, &config.cluster))
}

fn cluster_hosts(topology: &Topology, parts: usize) -> Result<usize> {
    let hosts = topology.host_count();
    if hosts == 0 {
        return Err(EngineError::Placement(
            "topology has no hosts; build it with Topology::cluster".into(),
        ));
    }
    if parts != hosts {
        return Err(EngineError::Placement(format!(
            "{parts} input partitions for a {hosts}-host cluster"
        )));
    }
    Ok(hosts)
}

fn host_device(topology: &Topology, host: usize, part: &str) -> Result<DeviceId> {
    let name = format!("host{host}.{part}");
    topology
        .device_by_name(&name)
        .ok_or_else(|| EngineError::Placement(format!("cluster topology lacks device '{name}'")))
}

/// Per-host producer leaves, placed on the device that will partition the
/// stream: the smart NIC on the §4.4 path, the host CPU on the baseline.
fn leaves(
    topology: &Topology,
    parts: &[Vec<Batch>],
    schema: &SchemaRef,
    smart_exchange: bool,
) -> Result<Vec<PhysNode>> {
    let tip = if smart_exchange { "nic" } else { "cpu" };
    parts
        .iter()
        .enumerate()
        .map(|(h, batches)| {
            Ok(PhysNode::Values {
                batches: batches.clone(),
                schema: schema.clone(),
                device: Some(host_device(topology, h, tip)?),
            })
        })
        .collect()
}

/// A gather exchange concatenating every fragment into one consumer.
fn gather(
    group: usize,
    inputs: Vec<PhysNode>,
    schema: SchemaRef,
    device: Option<DeviceId>,
) -> PhysNode {
    PhysNode::Exchange {
        group,
        kind: ExchangeKind::Gather,
        index: 0,
        parts: 1,
        inputs,
        schema,
        device,
    }
}

/// Rewrite a plan into `workers` parallel fragments behind a gather
/// exchange: morsel parallelism in the IR.
///
/// Accepts exactly `[Aggregate(Final)]? (Filter|Project)* Values`; any
/// other shape (a root `Limit`, joins, sorts, storage or stream scans, a
/// plan that already exchanges) returns `EngineError::Plan`. The leaf's
/// batches are dealt round-robin, whole, over `min(workers,
/// batches).max(1)` fragments, each the chain over its share with every
/// device unchanged. With an aggregate, every fragment ends in a `Partial`
/// aggregate and a `Merge` aggregate sits on the gather, all on the
/// `Final` aggregate's device; without one, the gather sits on the chain
/// tip's device.
pub fn fan_out(plan: &PhysicalPlan, workers: usize) -> Result<PhysicalPlan> {
    let (chain, agg) = match &plan.root {
        PhysNode::Aggregate {
            input,
            group_by,
            aggs,
            mode: AggMode::Final,
            final_schema,
            device,
        } => (
            input.as_ref(),
            Some((group_by, aggs, final_schema, *device)),
        ),
        root => (root, None),
    };
    let mut leaf = chain;
    while let PhysNode::Filter { input, .. } | PhysNode::Project { input, .. } = leaf {
        leaf = input;
    }
    let PhysNode::Values { batches, .. } = leaf else {
        return Err(EngineError::Plan(format!(
            "fan_out needs [Aggregate(final)]? (Filter|Project)* Values, found {}",
            leaf.explain().lines().next().unwrap_or_default()
        )));
    };
    let k = workers.min(batches.len()).max(1);
    let mut shares = vec![Vec::new(); k];
    for (i, batch) in batches.iter().enumerate() {
        shares[i % k].push(batch.clone());
    }
    let fragments = shares.into_iter().map(|share| with_share(chain, share));
    let root = match agg {
        None => gather(0, fragments.collect(), chain.schema(), chain.device()),
        Some((group_by, aggs, final_schema, device)) => {
            let aggregate = |input: PhysNode, mode: AggMode| PhysNode::Aggregate {
                input: Box::new(input),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                mode,
                final_schema: final_schema.clone(),
                device,
            };
            let partial = AggMode::Partial {
                max_groups: 1 << 20,
            };
            let partials: Vec<PhysNode> = fragments.map(|f| aggregate(f, partial)).collect();
            let schema = partials[0].schema();
            aggregate(
                gather(0, partials, schema, device),
                AggMode::Merge { max_groups: None },
            )
        }
    };
    Ok(PhysicalPlan::new(root, plan.variant.clone()))
}

/// `chain` with its `Values` leaf's batches replaced by `share`.
fn with_share(chain: &PhysNode, share: Vec<Batch>) -> PhysNode {
    let mut node = chain.clone();
    match &mut node {
        PhysNode::Filter { input, .. } | PhysNode::Project { input, .. } => {
            **input = with_share(input, share);
        }
        PhysNode::Values { batches, .. } => *batches = share,
        _ => {}
    }
    node
}

/// Execute a scale-out plan and classify its ledger into the report.
fn run_plan(
    plan: &PhysicalPlan,
    topology: &Topology,
    join_schema: SchemaRef,
    config: &ScaleoutConfig,
) -> Result<(Batch, ScaleoutReport)> {
    let env = ExecEnv {
        storage: None,
        topology: Some(topology),
        wire: Some(config.wire),
        tracer: None,
        gate: None,
        codec: crate::exec::push::CodecPolicy::AsCompiled,
    };
    let outcome = execute(plan, &env)?;
    let result = if outcome.batches.is_empty() {
        Batch::empty(join_schema)
    } else {
        outcome.collect()?
    };

    let hosts = topology.host_count();
    let mut report = ScaleoutReport {
        result_rows: result.rows(),
        per_host_rows: vec![0; hosts],
        per_host_bytes: vec![0; hosts],
        ..ScaleoutReport::default()
    };
    for (&(from, to), stats) in outcome.ledger.edges() {
        report.total_bytes += stats.bytes;
        let from_host = topology.host_of(from);
        let to_host = topology.host_of(to);
        if let Some(h) = from_host {
            report.per_host_bytes[h as usize] += stats.bytes;
        }
        if let (Some(f), Some(t)) = (from_host, to_host) {
            if f != t {
                report.cross_host_bytes += stats.bytes;
            }
        }
        // Scatter edges leave the partitioning device toward a join
        // fragment's CPU; gather edges land in the coordinator's memory.
        let from_kind = topology.device(from).profile.kind;
        let to_kind = topology.device(to).profile.kind;
        match (from_kind, to_kind) {
            (DeviceKind::SmartNic | DeviceKind::PlainNic, DeviceKind::Cpu { .. }) => {
                report.nic_bytes += stats.bytes;
            }
            (DeviceKind::Cpu { .. }, DeviceKind::Cpu { .. }) => {
                report.host_bytes += stats.bytes;
            }
            (DeviceKind::Cpu { .. }, DeviceKind::NearMemAccel | DeviceKind::MemoryController) => {
                if let Some(h) = from_host {
                    report.per_host_rows[h as usize] += stats.rows as usize;
                }
            }
            _ => {}
        }
    }
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalPlan;
    use crate::ops::{HashJoinOp, Operator};
    use df_data::batch::batch_of;
    use df_data::Column;

    fn build_side(n: usize) -> Batch {
        batch_of(vec![
            ("k", Column::from_i64((0..n as i64).collect())),
            (
                "name",
                Column::from_strs(&(0..n).map(|i| format!("n{i}")).collect::<Vec<_>>()),
            ),
        ])
    }

    fn probe_side(n: usize) -> Batch {
        batch_of(vec![
            (
                "fk",
                Column::from_i64((0..n as i64).map(|i| i % 100).collect()),
            ),
            ("amount", Column::from_i64((0..n as i64).collect())),
        ])
    }

    fn join_schema() -> SchemaRef {
        LogicalPlan::values(vec![build_side(1)])
            .unwrap()
            .join(
                LogicalPlan::values(vec![probe_side(1)]).unwrap(),
                vec![("k", "fk")],
            )
            .unwrap()
            .schema()
    }

    fn single_node_reference(build: &Batch, probe: &Batch) -> Batch {
        let mut op = HashJoinOp::new(
            vec![("k".into(), "fk".into())],
            build.schema().clone(),
            join_schema(),
        );
        op.build(build.clone()).unwrap();
        let mut outs = op.push(probe.clone()).unwrap();
        outs.extend(op.finish().unwrap());
        Batch::concat(&outs).unwrap()
    }

    #[test]
    fn exchange_join_matches_single_node() {
        let build = build_side(100);
        let probe = probe_side(1000);
        let reference = single_node_reference(&build, &probe);
        for hosts in [1, 2, 4] {
            let (result, report) = exchange_hash_join(
                &build,
                &probe,
                ("k", "fk"),
                join_schema(),
                &ScaleoutConfig {
                    hosts,
                    ..ScaleoutConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                result.canonical_rows(),
                reference.canonical_rows(),
                "hosts={hosts}"
            );
            assert_eq!(report.result_rows, 1000);
            assert_eq!(report.per_host_rows.iter().sum::<usize>(), 1000);
        }
    }

    #[test]
    fn smart_and_host_exchange_agree() {
        let build = build_side(100);
        let probe = probe_side(500);
        let smart = exchange_hash_join(
            &build,
            &probe,
            ("k", "fk"),
            join_schema(),
            &ScaleoutConfig {
                hosts: 3,
                smart_exchange: true,
                ..ScaleoutConfig::default()
            },
        )
        .unwrap();
        let host = exchange_hash_join(
            &build,
            &probe,
            ("k", "fk"),
            join_schema(),
            &ScaleoutConfig {
                hosts: 3,
                smart_exchange: false,
                ..ScaleoutConfig::default()
            },
        )
        .unwrap();
        assert_eq!(smart.0.canonical_rows(), host.0.canonical_rows());
        // The headline metric: NIC exchange keeps host-partitioned bytes
        // at zero.
        assert_eq!(smart.1.host_bytes, 0);
        assert!(host.1.host_bytes > 0);
        assert!(smart.1.nic_bytes > 0);
        assert_eq!(host.1.nic_bytes, 0);
    }

    #[test]
    fn every_host_contributes() {
        let build = build_side(64);
        let probe = probe_side(4096);
        let (_, report) = exchange_hash_join(
            &build,
            &probe,
            ("k", "fk"),
            join_schema(),
            &ScaleoutConfig {
                hosts: 4,
                ..ScaleoutConfig::default()
            },
        )
        .unwrap();
        // Keys spread over the hash space: every host sees some rows.
        assert_eq!(report.per_host_rows.len(), 4);
        for (h, rows) in report.per_host_rows.iter().enumerate() {
            assert!(*rows > 0, "host {h} produced nothing: {report:?}");
        }
        assert!(report.cross_host_bytes > 0);
    }

    #[test]
    fn broadcast_join_matches_partitioned() {
        let build = build_side(50); // small table: broadcast territory
        let probe = probe_side(2000);
        let (partitioned, part_report) = exchange_hash_join(
            &build,
            &probe,
            ("k", "fk"),
            join_schema(),
            &ScaleoutConfig {
                hosts: 4,
                ..ScaleoutConfig::default()
            },
        )
        .unwrap();
        let (broadcast, bc_report) = exchange_broadcast_join(
            &build,
            &probe,
            ("k", "fk"),
            join_schema(),
            &ScaleoutConfig {
                hosts: 4,
                ..ScaleoutConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            partitioned.canonical_rows(),
            broadcast.canonical_rows(),
            "broadcast join changed the answer"
        );
        // With a tiny build side and a large probe side, broadcasting
        // moves far fewer bytes across hosts (the probe never travels).
        assert!(
            bc_report.cross_host_bytes < part_report.cross_host_bytes / 2,
            "broadcast {} !<< partitioned {}",
            bc_report.cross_host_bytes,
            part_report.cross_host_bytes
        );
    }

    #[test]
    fn empty_probe_yields_empty_result() {
        let build = build_side(10);
        let probe = probe_side(0);
        let (result, report) = exchange_hash_join(
            &build,
            &probe,
            ("k", "fk"),
            join_schema(),
            &ScaleoutConfig::default(),
        )
        .unwrap();
        assert!(result.is_empty());
        assert_eq!(report.result_rows, 0);
    }

    #[test]
    fn matches_hand_rolled_distributed_join() {
        // The retired hand-rolled scatter (crate::distributed) and the
        // Exchange-based plan must agree; the single-node operator is the
        // shared oracle both were verified against.
        let build = build_side(80);
        let probe = probe_side(1200);
        let reference = single_node_reference(&build, &probe);
        let (result, _) = exchange_hash_join(
            &build,
            &probe,
            ("k", "fk"),
            join_schema(),
            &ScaleoutConfig {
                hosts: 4,
                ..ScaleoutConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.canonical_rows(), reference.canonical_rows());
    }
}
