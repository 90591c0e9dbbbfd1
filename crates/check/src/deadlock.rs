//! Credit-flow deadlock analysis for compiled pipeline graphs.
//!
//! The push executor runs every hop in the graph's channel table
//! ([`PipelineGraph::channels`]) on one threading rule: each channel
//! producer pipeline runs on its own thread and sends over its pair edges
//! into the channel's part queues, `sync_channel`s holding the table's
//! credits, shared by every producer of the channel. A fabric edge is a
//! channel with one producer and one part; an exchange has its producer ×
//! part matrix, whatever the placement of its pair edges. Every other
//! edge is [`EdgeKind::Local`] and runs its producer inline on the
//! consumer's thread. This module reconstructs that threading statically
//! from the same table:
//!
//! 1. **Collapse** local edges with a union-find — pipelines joined by
//!    local edges share one OS thread, exactly as in the executor.
//! 2. **Wait graph** — each pair edge induces the two blocking waits of
//!    the credit protocol: the producer thread can block sending into its
//!    queue (out of credits) and the consumer thread can block receiving
//!    from it (no data). A deadlock requires a cycle of threads all
//!    blocked on each other, so a channel graph that is a DAG with all
//!    capacities ≥ 1 is deadlock-free; a capacity-0 pair edge or a wait
//!    cycle is rejected statically.
//! 3. **Model check with partial-order reduction** — the credit protocol
//!    is abstracted to a [`ChannelSystem`] — chunk counts and blocking
//!    behavior only — and explored with dynamic partial-order reduction
//!    ([`ChannelSystem::check_reduced`]): a deadlock-complete subset of
//!    interleavings covering every reachable blocking pattern, under a
//!    configurable [`Budget`]. The reduction makes the full 16-host
//!    exchange graphs (49 threads) tractable, so *every* graph whose
//!    static analysis is clean gets model-checked; if the budget runs
//!    out the report says so ([`DeadlockReport::budget_exceeded`])
//!    instead of silently downgrading to static-only.
//!    Join consumers drain their build queues to completion before
//!    streaming their input (the executor's build-before-probe order,
//!    which also covers exchange-fed build sides), breaker tips consume
//!    all input before emitting, and producers send one chunk to every
//!    part queue of their channel per round.
//!
//! [`EdgeKind::Local`]: df_core::pipeline::EdgeKind::Local

use std::fmt;

use df_core::pipeline::{Channel, EdgeRole, PipelineEdge, PipelineGraph};

use crate::model::{Budget, ChanOp, ChannelSystem, ReductionStats, Verdict};

/// Chunks each source emits in the model. Two is enough to exercise both
/// the empty-channel and the at-capacity blocking condition for the
/// default credit budgets.
const MODEL_CHUNKS: usize = 2;

/// One deadlock-analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DeadlockFinding {
    /// A pair edge with zero credits: its producer can never complete a
    /// send, so the first chunk wedges the producer thread forever.
    ZeroCapacity {
        /// The pair edge.
        edge: usize,
    },
    /// The blocking-wait graph contains a cycle of threads that can all
    /// be blocked on each other.
    WaitCycle {
        /// Thread ids (collapsed pipeline representatives) on the cycle.
        threads: Vec<usize>,
    },
    /// The model check reached a state with all threads blocked.
    ModelDeadlock {
        /// Schedule (thread per step) reproducing the stuck state.
        schedule: Vec<usize>,
    },
}

impl DeadlockFinding {
    /// Stable machine-readable tag for reports.
    pub fn code(&self) -> &'static str {
        match self {
            DeadlockFinding::ZeroCapacity { .. } => "zero-capacity",
            DeadlockFinding::WaitCycle { .. } => "wait-cycle",
            DeadlockFinding::ModelDeadlock { .. } => "model-deadlock",
        }
    }
}

impl fmt::Display for DeadlockFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlockFinding::ZeroCapacity { edge } => {
                write!(
                    f,
                    "fabric edge {edge} has zero credits: send can never complete"
                )
            }
            DeadlockFinding::WaitCycle { threads } => {
                write!(f, "blocking-wait cycle through threads {threads:?}")
            }
            DeadlockFinding::ModelDeadlock { schedule } => write!(
                f,
                "model checker reached an all-blocked state via schedule {schedule:?}"
            ),
        }
    }
}

/// Outcome of analyzing one graph.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Number of OS threads the executor would use (pipelines collapsed
    /// over local edges).
    pub threads: usize,
    /// Number of credit-bounded pair edges: one per fabric edge, one per
    /// exchange producer × part.
    pub channels: usize,
    /// States the model checker explored to a verdict; `None` when the
    /// model check did not run to completion (static findings preempted
    /// it, or the [`Budget`] ran out — see
    /// [`budget_exceeded`](Self::budget_exceeded)).
    pub model_states: Option<usize>,
    /// Work done by the reduced search, whenever the model ran at all
    /// (including a run cut short by the budget).
    pub reduction: Option<ReductionStats>,
    /// True when the model check hit its budget before covering the
    /// state space. Not a finding — the graph is statically clean and
    /// nothing wrong was observed — but the interleaving space is *not
    /// verified*; [`is_verified_deadlock_free`] returns false.
    ///
    /// [`is_verified_deadlock_free`]: Self::is_verified_deadlock_free
    pub budget_exceeded: bool,
    /// All findings; empty = no deadlock found.
    pub findings: Vec<DeadlockFinding>,
}

impl DeadlockReport {
    /// True when no finding was produced. A budget-exceeded model run
    /// still counts as "free" here (nothing wrong was found); use
    /// [`is_verified_deadlock_free`](Self::is_verified_deadlock_free)
    /// when full interleaving coverage is required.
    pub fn is_deadlock_free(&self) -> bool {
        self.findings.is_empty()
    }

    /// True when no finding was produced *and* the model check covered
    /// the whole (reduced) interleaving space within budget.
    pub fn is_verified_deadlock_free(&self) -> bool {
        self.findings.is_empty() && self.model_states.is_some()
    }
}

/// Union-find over pipeline ids.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The executor's threading of a graph: threads (pipelines collapsed over
/// local edges) and the channel table's pair edges between them.
struct ThreadGraph<'g> {
    /// Thread id (dense) of each pipeline.
    thread_of: Vec<usize>,
    threads: usize,
    /// The graph's channel table ([`PipelineGraph::channels`]).
    table: Vec<Channel>,
    /// `(pair edge, producer thread, consumer thread)` per channel pair
    /// edge, in edge order.
    pairs: Vec<(&'g PipelineEdge, usize, usize)>,
}

fn thread_graph(graph: &PipelineGraph) -> ThreadGraph<'_> {
    let n = graph.pipelines.len();
    let table = graph.channels();
    let mut paired = vec![false; graph.edges.len()];
    for &eid in table.iter().flat_map(|ch| &ch.edges) {
        if let Some(slot) = paired.get_mut(eid) {
            *slot = true;
        }
    }
    let mut dsu = Dsu::new(n);
    for (edge, &paired) in graph.edges.iter().zip(&paired) {
        if !paired {
            // Local edge: producer runs inline on the consumer's thread.
            dsu.union(edge.from, edge.to);
        }
    }
    // Dense thread ids.
    let mut dense: Vec<Option<usize>> = vec![None; n];
    let mut threads = 0usize;
    let mut thread_of = vec![0usize; n];
    for (pid, slot) in thread_of.iter_mut().enumerate() {
        let root = dsu.find(pid);
        *slot = *dense[root].get_or_insert_with(|| {
            let t = threads;
            threads += 1;
            t
        });
    }
    let pairs = graph
        .edges
        .iter()
        .zip(&paired)
        .filter(|(_, &paired)| paired)
        .map(|(e, _)| (e, thread_of[e.from], thread_of[e.to]))
        .collect();
    ThreadGraph {
        thread_of,
        threads,
        table,
        pairs,
    }
}

/// Detect a cycle in the thread-level pair-edge graph; returns the threads
/// on one cycle if present.
fn find_wait_cycle(
    threads: usize,
    channels: &[(&PipelineEdge, usize, usize)],
) -> Option<Vec<usize>> {
    let mut state = vec![0u8; threads]; // 0 new, 1 on stack, 2 done
    let succ = |t: usize| {
        channels
            .iter()
            .filter(move |(_, from, _)| *from == t)
            .map(|(_, _, to)| *to)
            .collect::<Vec<_>>()
    };
    for start in 0..threads {
        if state[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = 1;
        while let Some(&mut (t, ref mut next)) = stack.last_mut() {
            let succs = succ(t);
            if *next < succs.len() {
                let to = succs[*next];
                *next += 1;
                match state[to] {
                    0 => {
                        state[to] = 1;
                        stack.push((to, 0));
                    }
                    1 => {
                        let at = stack.iter().position(|&(p, _)| p == to).unwrap_or(0);
                        return Some(stack[at..].iter().map(|&(p, _)| p).collect());
                    }
                    _ => {}
                }
            } else {
                state[t] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// The queues one thread receives from, by drain phase, and the queues it
/// sends into. Each receive entry is `(queue, chunks)`.
#[derive(Clone, Default)]
struct ThreadQueues {
    /// Fabric join-build queues.
    builds: Vec<(usize, usize)>,
    /// Fabric input queues.
    inputs: Vec<(usize, usize)>,
    /// Exchange parts feeding a join build on the same thread.
    x_builds: Vec<(usize, usize)>,
    /// Other exchange parts.
    x_inputs: Vec<(usize, usize)>,
    /// Every part queue of the channel this thread produces into.
    outs: Vec<usize>,
    /// The punctuated ones among `outs`.
    puncts: Vec<usize>,
}

/// Abstract the graph's credit protocol into a [`ChannelSystem`]: one
/// model channel per channel-table queue, in table order, holding that
/// queue's credits.
///
/// Each thread's script reproduces the executor's blocking structure for
/// [`MODEL_CHUNKS`] chunks per producer and pair edge:
///
/// - a consumer drains every incoming join-build queue (fabric or
///   exchange-fed) to completion before touching its streaming input
///   (build-before-probe);
/// - a thread whose tip is a breaker receives its whole input before
///   sending anything downstream;
/// - a streaming thread interleaves receives with send rounds;
/// - a producer's send round sends one chunk to *every* part queue of its
///   channel (the partition loop; a fabric edge has one part), and all
///   producers of a channel share its part queues;
/// - sources only send, the root only receives;
/// - a punctuated pair edge (fed by a stream source) carries
///   one trailing frontier marker on top of its data chunks, as
///   `EdgeMsg::Punct` rides the same queue in the executor. Streams are
///   modeled over finitely many chunks — deadlock here is a property of
///   the blocking structure per round, not of stream length.
fn to_channel_system(graph: &PipelineGraph, tg: &ThreadGraph<'_>) -> ChannelSystem {
    let mut capacities = Vec::new();
    let mut queues = vec![ThreadQueues::default(); tg.threads];
    for ch in &tg.table {
        let first = capacities.len();
        capacities.extend(&ch.credits);
        // The pair edge of producer `i` into part `j` (None in a malformed
        // exchange matrix, which the verifier reports).
        let pair = |i: usize, j: usize| {
            let eid = ch.edges.get(i * ch.parts + j)?;
            graph.edges.get(*eid)
        };
        for j in 0..ch.parts {
            let recvs = (0..ch.producers.len())
                .filter_map(|i| pair(i, j))
                .map(|e| MODEL_CHUNKS + usize::from(e.punctuated))
                .sum();
            let Some(edge) = pair(0, j) else { continue };
            let t = tg.thread_of[edge.to];
            let builds_here = |pid: usize| {
                graph.edges.iter().any(|e| {
                    e.from == pid && e.role == EdgeRole::JoinBuild && tg.thread_of[e.to] == t
                })
            };
            let q = &mut queues[t];
            let list = match ch.exchange {
                None if edge.role == EdgeRole::JoinBuild => &mut q.builds,
                None => &mut q.inputs,
                Some(_) if builds_here(edge.to) => &mut q.x_builds,
                Some(_) => &mut q.x_inputs,
            };
            list.push((first + j, recvs));
        }
        for (i, &pid) in ch.producers.iter().enumerate() {
            let q = &mut queues[tg.thread_of[pid]];
            for j in 0..ch.parts {
                q.outs.push(first + j);
                if pair(i, j).is_some_and(|e| e.punctuated) {
                    q.puncts.push(first + j);
                }
            }
        }
    }

    let mut scripts = Vec::with_capacity(tg.threads);
    for (t, q) in queues.into_iter().enumerate() {
        let ThreadQueues {
            builds,
            mut inputs,
            x_builds,
            mut x_inputs,
            outs,
            puncts,
        } = q;
        // A collapsed thread can own several input queues (one per merged
        // pipeline); the graph driver drains nested producers to
        // completion before the outermost stream, so all but the last
        // behave like build queues here. A fabric input is the stream
        // when there is one.
        let (stream, recvs) = if inputs.is_empty() {
            x_inputs.pop()
        } else {
            inputs.pop()
        }
        .unwrap_or((usize::MAX, 0));
        let mut script: Vec<ChanOp> = builds
            .into_iter()
            .chain(inputs)
            .chain(x_builds)
            .chain(x_inputs)
            .flat_map(|(c, n)| std::iter::repeat_n(ChanOp::Recv(c), n))
            .collect();
        // Does any pipeline on this thread end in a breaker? Then the
        // thread's output is only produced after its input is drained;
        // otherwise the send rounds spread through the receives, so
        // mid-stream backpressure is modeled.
        let breaker_tip = graph
            .pipelines
            .iter()
            .enumerate()
            .filter(|(pid, _)| tg.thread_of[*pid] == t)
            .any(|(_, p)| p.ops.last().is_some_and(|op| op.spec.is_breaker()));
        for round in 0..MODEL_CHUNKS {
            let n = match (breaker_tip, round) {
                (true, 0) => recvs,
                (true, _) => 0,
                (false, _) => recvs / MODEL_CHUNKS + usize::from(round < recvs % MODEL_CHUNKS),
            };
            script.extend(std::iter::repeat_n(ChanOp::Recv(stream), n));
            script.extend(outs.iter().map(|&o| ChanOp::Send(o)));
        }
        script.extend(puncts.into_iter().map(ChanOp::Send));
        scripts.push(script);
    }
    ChannelSystem {
        capacities,
        scripts,
    }
}

/// Analyze a compiled graph for credit-flow deadlocks under the default
/// model-checking [`Budget`]. Static analysis always runs; statically
/// clean graphs are additionally model-checked with partial-order
/// reduction, whatever their size.
pub fn analyze(graph: &PipelineGraph) -> DeadlockReport {
    analyze_with(graph, &Budget::default())
}

/// [`analyze`] with an explicit model-checking budget.
pub fn analyze_with(graph: &PipelineGraph, budget: &Budget) -> DeadlockReport {
    let tg = thread_graph(graph);
    let mut findings = Vec::new();
    for (edge, _, _) in &tg.pairs {
        if edge.queue_capacity == 0 {
            findings.push(DeadlockFinding::ZeroCapacity { edge: edge.id });
        }
    }
    if let Some(threads) = find_wait_cycle(tg.threads, &tg.pairs) {
        findings.push(DeadlockFinding::WaitCycle { threads });
    }
    let mut model_states = None;
    let mut reduction = None;
    let mut budget_exceeded = false;
    // Only model-check systems the static analysis already accepts: a
    // zero-capacity channel or a wait cycle is reported above, and the
    // model would just rediscover it.
    if findings.is_empty() {
        let system = to_channel_system(graph, &tg);
        let (verdict, stats) = system.check_reduced(budget);
        match verdict {
            Verdict::DeadlockFree { states } => model_states = Some(states),
            Verdict::Deadlock { schedule, .. } => {
                model_states = Some(stats.states);
                findings.push(DeadlockFinding::ModelDeadlock { schedule });
            }
            Verdict::BudgetExceeded { .. } => budget_exceeded = true,
        }
        reduction = Some(stats);
    }
    DeadlockReport {
        threads: tg.threads,
        channels: tg.pairs.len(),
        model_states,
        reduction,
        budget_exceeded,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::expr::{col, lit};
    use df_core::logical::JoinType;
    use df_core::physical::{PhysNode, PhysicalPlan};
    use df_core::pipeline::DEFAULT_QUEUE_CAPACITY;
    use df_data::batch::batch_of;
    use df_data::{Batch, Column, Field, Schema};
    use df_fabric::topology::DisaggregatedConfig;
    use df_fabric::Topology;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "g",
                Column::from_i64((0..n as i64).map(|i| i % 4).collect()),
            ),
        ])
    }

    fn values(n: usize, device: Option<df_fabric::DeviceId>) -> PhysNode {
        let b = sample(n);
        PhysNode::Values {
            schema: b.schema().clone(),
            batches: vec![b],
            device,
        }
    }

    fn topo() -> Topology {
        Topology::disaggregated(&DisaggregatedConfig::default())
    }

    #[test]
    fn single_pipeline_has_one_thread_no_channels() {
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values(8, None)),
                predicate: col("id").lt(lit(4)),
                device: None,
                use_kernel: false,
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, None, DEFAULT_QUEUE_CAPACITY);
        let r = analyze(&g);
        assert!(r.is_deadlock_free());
        assert_eq!(r.threads, 1);
        assert_eq!(r.channels, 0);
    }

    #[test]
    fn local_breaker_cut_collapses_to_one_thread() {
        // sort | limit: two pipelines, one local edge, still one thread.
        let plan = PhysicalPlan::new(
            PhysNode::Limit {
                input: Box::new(PhysNode::Sort {
                    input: Box::new(values(8, None)),
                    keys: vec![("id".into(), true)],
                    device: None,
                }),
                n: 3,
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, None, DEFAULT_QUEUE_CAPACITY);
        let r = analyze(&g);
        assert!(r.is_deadlock_free());
        assert_eq!(r.threads, 1);
        assert_eq!(r.channels, 0);
        assert!(r.model_states.is_some(), "small graph is model-checked");
    }

    #[test]
    fn fabric_cut_yields_two_threads_and_is_deadlock_free() {
        let topo = topo();
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values(8, Some(nic))),
                predicate: col("id").lt(lit(4)),
                device: Some(cpu),
                use_kernel: false,
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let r = analyze(&g);
        assert!(r.is_deadlock_free(), "{:?}", r.findings);
        assert_eq!(r.threads, 2);
        assert_eq!(r.channels, 1);
        assert!(r.model_states.unwrap() > 0);
    }

    #[test]
    fn join_graph_with_fabric_build_edge_is_deadlock_free() {
        let topo = topo();
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let b = batch_of(vec![("bk", Column::from_i64(vec![0, 1, 2]))]);
        let p = sample(8);
        let schema = {
            let mut fields: Vec<Field> = b.schema().fields().to_vec();
            fields.extend(p.schema().fields().iter().cloned());
            Schema::new(fields).into_ref()
        };
        let plan = PhysicalPlan::new(
            PhysNode::HashJoin {
                build: Box::new(PhysNode::Values {
                    schema: b.schema().clone(),
                    batches: vec![b],
                    device: Some(nic),
                }),
                probe: Box::new(values(8, Some(cpu))),
                on: vec![("bk".into(), "g".into())],
                join_type: JoinType::Inner,
                schema,
                device: Some(cpu),
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let r = analyze(&g);
        assert!(r.is_deadlock_free(), "{:?}", r.findings);
        assert_eq!(r.channels, 1, "build side crosses nic -> cpu");
        assert!(r.model_states.is_some());
    }

    #[test]
    fn zero_capacity_edge_is_rejected_statically() {
        let topo = topo();
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values(8, Some(nic))),
                predicate: col("id").lt(lit(4)),
                device: Some(cpu),
                use_kernel: false,
            },
            "t",
        );
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        g.edges[0].queue_capacity = 0;
        let r = analyze(&g);
        assert_eq!(r.findings, vec![DeadlockFinding::ZeroCapacity { edge: 0 }]);
    }

    #[test]
    fn forged_wait_cycle_is_rejected_statically() {
        let topo = topo();
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values(8, Some(nic))),
                predicate: col("id").lt(lit(4)),
                device: Some(cpu),
                use_kernel: false,
            },
            "t",
        );
        let mut g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        // Forge a reverse fabric edge cpu -> nic so the two threads can
        // block on each other.
        let mut back = g.edges[0].clone();
        back.id = g.edges.len();
        std::mem::swap(&mut back.from, &mut back.to);
        std::mem::swap(&mut back.from_device, &mut back.to_device);
        back.role = EdgeRole::JoinBuild;
        g.edges.push(back);
        let r = analyze(&g);
        assert!(
            r.findings
                .iter()
                .any(|f| matches!(f, DeadlockFinding::WaitCycle { .. })),
            "{:?}",
            r.findings
        );
    }

    /// Compile the N-host partitioned exchange join the scaleout module
    /// runs.
    fn cluster_join_graph(hosts: usize) -> PipelineGraph {
        use df_core::scaleout::{cluster_hash_join_plan, split_round_robin};
        use df_fabric::topology::ClusterConfig;
        let topo = Topology::cluster(hosts as u32, &ClusterConfig::default());
        let build = batch_of(vec![
            ("k", Column::from_i64((0..32).collect())),
            ("v", Column::from_i64((0..32).collect())),
        ]);
        let probe = batch_of(vec![
            ("fk", Column::from_i64((0..128).map(|i| i % 32).collect())),
            ("amount", Column::from_i64((0..128).collect())),
        ]);
        let join_schema = {
            let mut fields: Vec<Field> = build.schema().fields().to_vec();
            fields.extend(probe.schema().fields().iter().cloned());
            Schema::new(fields).into_ref()
        };
        let plan = cluster_hash_join_plan(
            &topo,
            &split_round_robin(&build, hosts),
            build.schema().clone(),
            &split_round_robin(&probe, hosts),
            probe.schema().clone(),
            ("k", "fk"),
            join_schema,
            true,
        )
        .expect("cluster plan");
        PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY)
    }

    #[test]
    fn cluster_exchange_graphs_are_model_checked_and_deadlock_free() {
        for hosts in [2usize, 4, 8, 16] {
            let g = cluster_join_graph(hosts);
            let r = analyze(&g);
            assert!(r.is_deadlock_free(), "hosts={hosts}: {:?}", r.findings);
            assert!(
                r.is_verified_deadlock_free(),
                "hosts={hosts}: model check must complete within the \
                 default budget (budget_exceeded={})",
                r.budget_exceeded
            );
            // 2N producers + N join fragments + the gather root: exchange
            // producers never collapse onto consumer threads.
            assert_eq!(r.threads, 3 * hosts + 1, "hosts={hosts}");
            // N² shuffle edges per hash exchange plus N gather edges.
            assert_eq!(r.channels, 2 * hosts * hosts + hosts, "hosts={hosts}");
        }
    }

    #[test]
    fn sixteen_host_exchange_graph_reduction_is_near_linear() {
        // 49 threads, 2112 script ops: exhaustive enumeration is far out
        // of reach, but under the default credit budgets no exchange
        // channel can fill, so persistent sets collapse to singletons and
        // the reduced search stays close to one state per transition.
        let g = cluster_join_graph(16);
        let r = analyze(&g);
        assert!(r.is_verified_deadlock_free(), "{:?}", r.findings);
        let stats = r.reduction.expect("model ran");
        let steps: usize = 3 * 16 + 1; // threads
        assert!(
            stats.states < 100 * steps,
            "expected near-linear exploration, got {} states",
            stats.states
        );
        assert!(
            stats.reduction_ratio() < 0.5,
            "expected a real reduction, ratio {}",
            stats.reduction_ratio()
        );
    }

    #[test]
    fn two_host_exchange_graph_is_model_checked() {
        let g = cluster_join_graph(2);
        let r = analyze(&g);
        assert!(r.is_deadlock_free(), "{:?}", r.findings);
        let states = r.model_states.expect("model check completes");
        assert!(states > 0);
        assert!(r.reduction.is_some());
    }

    #[test]
    fn exhausted_budget_is_reported_not_silently_downgraded() {
        let g = cluster_join_graph(2);
        let r = analyze_with(
            &g,
            &Budget {
                max_states: 5,
                max_millis: None,
            },
        );
        assert!(r.budget_exceeded);
        assert!(r.model_states.is_none());
        // Nothing wrong was *found*, but nothing was verified either.
        assert!(r.is_deadlock_free());
        assert!(!r.is_verified_deadlock_free());
        assert!(r.reduction.is_some(), "partial stats still reported");
    }

    #[test]
    fn zero_credit_shuffle_edge_is_rejected_statically() {
        let mut g = cluster_join_graph(2);
        let eid = g
            .edges
            .iter()
            .find(|e| e.role == EdgeRole::Shuffle)
            .expect("shuffle edge")
            .id;
        g.edges[eid].queue_capacity = 0;
        let r = analyze(&g);
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, DeadlockFinding::ZeroCapacity { edge } if *edge == eid)));
    }

    fn stream_window_graph(bounded: bool) -> PipelineGraph {
        use df_core::logical::AggCall;
        use df_core::streaming::{windowed_stream_plan, StreamSourceSpec, WindowSpec};
        let topo = topo();
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let spec = StreamSourceSpec {
            batches: if bounded { Some(8) } else { None },
            ..StreamSourceSpec::default()
        };
        let plan = windowed_stream_plan(
            &spec,
            WindowSpec::tumbling(64),
            vec!["sensor".into()],
            vec![AggCall::count_star("n")],
            1 << 20,
            Some(nic),
            Some(nic),
            Some(cpu),
        )
        .expect("stream plan");
        PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY)
    }

    #[test]
    fn streaming_window_graph_is_model_checked_deadlock_free() {
        // NIC-side partial windowing feeding a CPU merge over one fabric
        // channel that carries data and punctuation: the exact §7.4
        // placement E17 benchmarks.
        for bounded in [true, false] {
            let g = stream_window_graph(bounded);
            let punctuated = g.edges.iter().filter(|e| e.punctuated).count();
            assert!(punctuated >= 1, "stream-fed input edges are punctuated");
            let r = analyze(&g);
            assert!(r.is_deadlock_free(), "bounded={bounded}: {:?}", r.findings);
            assert!(
                r.is_verified_deadlock_free(),
                "bounded={bounded}: streaming graphs must be model-checked"
            );
            assert_eq!(r.threads, 2, "nic thread + cpu thread");
            assert_eq!(r.channels, 1, "one punctuated fabric channel");
        }
    }

    #[test]
    fn punctuated_zero_capacity_channel_is_still_rejected() {
        let mut g = stream_window_graph(false);
        let eid = g
            .edges
            .iter()
            .find(|e| e.punctuated)
            .expect("punctuated edge")
            .id;
        g.edges[eid].queue_capacity = 0;
        let r = analyze(&g);
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, DeadlockFinding::ZeroCapacity { edge } if *edge == eid)));
    }

    #[test]
    fn model_covers_four_pipeline_graphs() {
        // values -> sort (cut) -> fabric hop -> limit: 3 pipelines across
        // 2 devices, plus a join build = 4 pipelines, all model-checked.
        let topo = topo();
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let b = batch_of(vec![("bk", Column::from_i64(vec![0, 1]))]);
        let inner = PhysNode::Sort {
            input: Box::new(values(8, Some(nic))),
            keys: vec![("id".into(), true)],
            device: Some(cpu),
        };
        let p_schema = inner.schema();
        let schema = {
            let mut fields: Vec<Field> = b.schema().fields().to_vec();
            fields.extend(p_schema.fields().iter().cloned());
            Schema::new(fields).into_ref()
        };
        let plan = PhysicalPlan::new(
            PhysNode::HashJoin {
                build: Box::new(PhysNode::Values {
                    schema: b.schema().clone(),
                    batches: vec![b],
                    device: Some(nic),
                }),
                probe: Box::new(inner),
                on: vec![("bk".into(), "g".into())],
                join_type: JoinType::Inner,
                schema,
                device: Some(cpu),
            },
            "t",
        );
        let g = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        assert_eq!(g.pipelines.len(), 4);
        let r = analyze(&g);
        assert!(r.is_deadlock_free(), "{:?}", r.findings);
        let states = r.model_states.expect("4-pipeline graph is model-checked");
        // The reduced search visits only a handful of states here — the
        // whole graph is conflict-free — but it must still cover it.
        assert!(states > 0, "expected a covered state space, got {states}");
    }
}
