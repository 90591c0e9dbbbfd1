//! The push-based streaming executor, driving the [`PipelineGraph`] IR.
//!
//! Plans compile into a graph of placed pipelines (see [`crate::pipeline`]);
//! this module executes that graph. Batches flow leaf-to-root through each
//! pipeline's operator chain; nothing materializes between streaming
//! operators. Pipeline breakers (final aggregation, sort, join build)
//! buffer inside their operator. Inter-pipeline edges are where all
//! boundary effects live, in exactly one place each:
//!
//! - **ledger charging** — every batch handed from one operator (or
//!   pipeline) to the next is charged to the [`MovementLedger`], at its
//!   wire-encoded size when the move crosses devices and wire options are
//!   set;
//! - **channels** — every hop in [`PipelineGraph::channels`] runs on one
//!   runtime. A channel's producer pipelines each run on their own thread
//!   and send over their pair edges into `parts` credit-bounded queues
//!   (§7.1), so backpressure exists in real execution: a producer that
//!   outruns a consumer blocks in a `credit-wait` span. A fabric edge is a
//!   channel with one producer and one part (a `fabric-edge` span); an
//!   exchange hash-partitions, broadcasts or gathers each tip batch across
//!   its parts (an `exchange-producer` span). The first consumer to drain a
//!   channel creates its queues and starts its producers;
//! - **edge codecs** — every channel producer's tip batch is charged at
//!   its pair edge, the single charge and encode site. A pair edge compiled
//!   with an [`EdgeEncoding`], or any pair edge under
//!   [`CodecPolicy::Auto`], encodes each batch into a self-describing
//!   frame, charges the ledger the **encoded** bytes, and is decoded on
//!   the consumer side; every other pair edge moves raw batches;
//! - **failure** — the query records its first genuine failure (a
//!   producer's own, a consumer's own or the root's), typed, once, and
//!   returns exactly that error. A producer that fails aborts the query
//!   before its senders drop, so every consumer of the channel sees the
//!   abort at its end of stream and fails too. A consumer that fails hangs
//!   up its queue; a producer stops once every part has hung up and leaves
//!   the consumers' errors to win. The abort hangs up every part queue no
//!   consumer has taken yet, so no producer waits on a part whose consumer
//!   will never come, and no channel starts after that;
//! - **local edges** — same-placement handoffs stay plain function calls
//!   and execute inline, preserving the exact single-threaded behavior.
//! - **punctuation** — a [`PipelineSource::Stream`] emits a frontier
//!   marker every `punct_every` batches; markers flow through the same
//!   sinks and queues as data (in band, so FIFO order is preserved
//!   across local edges and punctuated pair edges alike), advance every
//!   window operator's frontier, and are never ledger-charged — they
//!   carry no payload bytes.
//!
//! Positional partial-aggregate contract: a `Merge`-mode aggregate consumes
//! batches laid out as group columns followed by one partial column per
//! call (two for AVG: sum then count). Both the engine's own `Partial`
//! stage and the storage server's pushed-down pre-aggregation produce this
//! layout, so partials from any device merge interchangeably.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Scope;

use df_codec::edge::{self as edge_codec, EdgeEncoding};
use df_data::{Batch, HashPartitioner};
use df_fabric::{DeviceId, OpClass, Topology};
use df_sim::trace::{LaneId, LaneKind, SpanGuard, Tracer};
use df_storage::smart::{ScanStats, SmartStorage};

use crate::error::{EngineError, Result};
use crate::exec::ledger::MovementLedger;
use crate::exec::source;
use crate::physical::PhysicalPlan;
use crate::pipeline::{
    Channel, EdgeKind, ExchangeKind, PipelineEdge, PipelineGraph, PipelineOp, PipelineSource,
    RuntimeOp, DEFAULT_QUEUE_CAPACITY,
};
use crate::streaming::StreamGen;

/// Cooperative yield point for cross-query scheduling.
///
/// When several queries share the engine, each pipeline checks in with the
/// scheduler at every **batch boundary** — right before a concrete source
/// (Values, storage scan or stream) emits its next batch, on whichever
/// thread runs the pipeline. The implementation (the serving layer's fair-share
/// scheduler) blocks the call until the query holds a credit, which is how
/// a lower-priority pipeline yields device time at the next batch boundary
/// instead of being preempted mid-batch. Returning an error aborts the
/// query; the executor surfaces it as the query result.
pub trait ExecGate: Send + Sync {
    /// Block until the scheduler grants this pipeline one batch's worth of
    /// device time. `pipeline` is the graph pipeline id for tracing.
    fn acquire(&self, pipeline: usize) -> Result<()>;
}

/// How the executor picks the wire encoding of each channel pair edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CodecPolicy {
    /// Honor the encodings compiled onto the graph: `Plain` pair edges,
    /// fabric edges and exchange pairs alike, move raw batches, make no
    /// codec decision and price no candidate. The default.
    #[default]
    AsCompiled,
    /// Cost-select a codec per pair edge that was compiled `Plain`:
    /// sample the edge's first batch, price each candidate encoding
    /// against the devices' Compress/Decompress rates and the route's
    /// bottleneck bandwidth, and keep the cheapest (falling back to
    /// `Plain` when compression would lose, or when the topology gives
    /// no cost basis). Edges with a compiled encoding are honored as-is.
    Auto,
}

/// Execution environment: where stored tables live and (optionally) the
/// fabric for route validation.
pub struct ExecEnv<'a> {
    /// Smart-storage server for `StorageScan` nodes (None = plans must not
    /// contain storage scans).
    pub storage: Option<&'a SmartStorage>,
    /// Fabric topology (resolves fabric-edge routes and ledger route
    /// reports; execution works without it).
    pub topology: Option<&'a Topology>,
    /// When set, batches crossing a device boundary are charged at their
    /// *wire-encoded* size under these options (compression/encryption as
    /// explicit data-path stages, §1) instead of their in-memory size.
    pub wire: Option<df_codec::wire::WireOptions>,
    /// When set, the executor records wall-clock operator and morsel spans
    /// (annotated with rows/bytes) into this tracer. `None` costs one branch
    /// per call site and takes no locks.
    pub tracer: Option<Arc<Tracer>>,
    /// Cross-query scheduling gate, consulted at every batch boundary.
    /// `None` (single-query execution) costs one branch per source batch.
    pub gate: Option<Arc<dyn ExecGate>>,
    /// Pair-edge codec policy. [`CodecPolicy::AsCompiled`] (the
    /// default) keeps plain edges byte-identical to pre-codec behavior.
    pub codec: CodecPolicy,
}

impl<'a> ExecEnv<'a> {
    /// An environment with no storage (Values-only plans).
    pub fn in_memory() -> ExecEnv<'static> {
        ExecEnv {
            storage: None,
            topology: None,
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        }
    }
}

/// What one pair edge decided about its wire encoding, sampled from the
/// edge's first batch. Collected in edge-id order, so same-seed runs log
/// byte-identical decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecDecision {
    /// Graph edge id the decision applies to.
    pub edge: usize,
    /// Encoding used for every frame on the edge.
    pub encoding: EdgeEncoding,
    /// True when [`CodecPolicy::Auto`]'s cost model picked the encoding;
    /// false when it was compiled onto the edge.
    pub auto: bool,
    /// Ledger bytes the sampled batch would have cost as a plain move
    /// (wire-encoded size when wire options are set).
    pub plain_bytes: u64,
    /// Encoded frame size of the sampled batch under `encoding`.
    pub encoded_bytes: u64,
}

impl CodecDecision {
    /// Achieved compression ratio on the sampled batch
    /// (`encoded / plain`; 1.0 for plain or empty batches).
    pub fn ratio(&self) -> f64 {
        if self.plain_bytes == 0 || self.encoding.is_plain() {
            1.0
        } else {
            self.encoded_bytes as f64 / self.plain_bytes as f64
        }
    }
}

/// What one execution produced.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Output batches in production order.
    pub batches: Vec<Batch>,
    /// Data-movement account.
    pub ledger: MovementLedger,
    /// Stats of every storage scan in the plan.
    pub scan_stats: Vec<ScanStats>,
    /// Per-edge codec decisions, in edge-id order (empty when no pair
    /// edge was compiled with a codec and the policy is
    /// [`CodecPolicy::AsCompiled`]).
    pub codec_decisions: Vec<CodecDecision>,
    /// Punctuation sequences observed per pipeline, in pipeline order
    /// (pipelines that saw no punctuation are omitted). Each sequence is
    /// the frontiers the pipeline processed, in arrival order — the
    /// frontier-safety property tests assert these are monotone.
    pub frontiers: Vec<(usize, Vec<i64>)>,
    /// Frontier lag at every window close: how far the input frontier had
    /// advanced past the closing window's bound when it drained. Merged in
    /// pipeline order; E17 reports the p99.
    pub window_lags: Vec<i64>,
}

impl ExecOutcome {
    /// Total output rows.
    pub fn rows(&self) -> usize {
        self.batches.iter().map(Batch::rows).sum()
    }

    /// Concatenate the output into one batch (empty-schema batch if none).
    pub fn collect(&self) -> Result<Batch> {
        if self.batches.is_empty() {
            return Err(EngineError::Internal(
                "no output batches; use batches directly for empty results".into(),
            ));
        }
        Batch::concat(&self.batches).map_err(EngineError::from)
    }
}

/// Execute a physical plan: compile it to a [`PipelineGraph`] and drive
/// the graph.
pub fn execute(plan: &PhysicalPlan, env: &ExecEnv) -> Result<ExecOutcome> {
    let graph = PipelineGraph::compile(plan, None, env.topology, DEFAULT_QUEUE_CAPACITY);
    execute_graph(&graph, env, &plan.variant)
}

/// Execute a compiled pipeline graph.
pub fn execute_graph(graph: &PipelineGraph, env: &ExecEnv, variant: &str) -> Result<ExecOutcome> {
    graph.verify_or_err(env.topology)?;
    let mut runner = Runner::new(graph, env);
    let mut batches = Vec::new();
    {
        let trace = runner.trace(runner.root_lane);
        let _query = open_span(trace, &format!("query [{variant}]"), &[]);
        std::thread::scope(|scope| {
            let root = runner.run_pipeline(scope, graph.root, trace, None, &mut |flow| {
                if let Flow::Data(b) = flow {
                    batches.push(b);
                }
                Ok(())
            });
            if let Err(e) = root {
                runner.abort(e);
            }
        });
    }
    // Once the query has aborted, it fails with its first genuine error.
    match runner.failure.take() {
        Some(e) => Err(e),
        None => Ok(runner.into_outcome(batches)),
    }
}

/// What moves through a pipeline sink: data, or an in-band frontier
/// marker (punctuation). Keeping punctuation in the same stream as data
/// preserves its ordering relative to the batches it follows.
enum Flow {
    Data(Batch),
    Punct(i64),
}

type Sink<'s> = dyn FnMut(Flow) -> Result<()> + 's;

/// What moves through a channel queue: raw batches on plain edges,
/// encoded frames on codec edges, frontier markers on punctuated edges.
enum EdgeMsg {
    Plain(Batch),
    Frame(Vec<u8>),
    Punct(i64),
}

/// A tracer plus the lane the current pipeline records on.
type Trace<'t> = Option<(&'t Tracer, LaneId)>;

fn open_span<'t>(trace: Trace<'t>, name: &str, args: &[(&str, u64)]) -> Option<SpanGuard<'t>> {
    trace.map(|(t, lane)| t.span_with(lane, name, args))
}

/// Open operator spans, popped innermost-first. On unwind (errors) the
/// `Drop` impl pops from the end so per-lane span nesting stays valid.
struct SpanStack<'t>(Vec<SpanGuard<'t>>);

impl<'t> SpanStack<'t> {
    fn push(&mut self, guard: Option<SpanGuard<'t>>) {
        if let Some(g) = guard {
            self.0.push(g);
        }
    }

    fn pop(&mut self) {
        self.0.pop();
    }
}

impl Drop for SpanStack<'_> {
    fn drop(&mut self) {
        while self.0.pop().is_some() {}
    }
}

/// Per-pipeline side effects, merged in pipeline order at the end so
/// totals are independent of thread interleaving.
#[derive(Default)]
struct Account {
    ledger: MovementLedger,
    scan_stats: Vec<ScanStats>,
    /// Frontier markers this pipeline processed, in arrival order.
    frontiers: Vec<i64>,
    /// Frontier minus window bound at every window close in this pipeline.
    window_lags: Vec<i64>,
}

/// Run-time state of one channel: one receiver per part, created by the
/// first consumer to drain the channel (which also starts every
/// producer); each consumer takes its own.
type PartQueues = Option<Vec<Option<Receiver<EdgeMsg>>>>;

/// Lock a mutex, tolerating poisoning: a poisoned channel lock means a
/// producer thread panicked, and that panic is re-raised at scope join —
/// the state behind these locks (channel handles, errors) stays valid
/// either way.
fn lock_tolerant<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How a channel producer splits a tip batch across the parts.
enum Splitter {
    Hash(HashPartitioner),
    Broadcast(usize),
    Gather,
}

impl Splitter {
    /// The `(part, batch)` pairs one tip batch becomes; a hash split
    /// skips empty partitions.
    fn split(&self, batch: Batch) -> Result<Vec<(usize, Batch)>> {
        Ok(match self {
            Splitter::Hash(partitioner) => partitioner
                .partition(&batch)?
                .into_iter()
                .enumerate()
                .filter(|(_, part)| part.rows() > 0)
                .collect(),
            Splitter::Broadcast(parts) => (0..*parts).map(|j| (j, batch.clone())).collect(),
            Splitter::Gather => vec![(0, batch)],
        })
    }
}

struct Runner<'a, 'b> {
    graph: &'b PipelineGraph,
    env: &'b ExecEnv<'a>,
    accounts: Vec<Mutex<Account>>,
    /// Wall lane of each channel producer (None = runs inline on its
    /// consumer's lane).
    lanes: Vec<Option<LaneId>>,
    root_lane: Option<LaneId>,
    /// Per pipeline: true for channel producers, whose tip handoff is
    /// charged at their pair edges instead of inside the operator chain.
    tip_at_edge: Vec<bool>,
    /// Per edge: the codec decision, made on the edge's first batch.
    decisions: Vec<Mutex<Option<CodecDecision>>>,
    /// The graph's channel table.
    channels: Vec<Channel>,
    /// Per edge: the channel and part it feeds (None for local edges).
    part_of_edge: Vec<Option<(usize, usize)>>,
    /// Per channel: its part queues.
    states: Vec<Mutex<PartQueues>>,
    /// The first genuine failure of the query; set once it has aborted.
    failure: OnceLock<EngineError>,
}

impl<'a, 'b> Runner<'a, 'b> {
    fn new(graph: &'b PipelineGraph, env: &'b ExecEnv<'a>) -> Runner<'a, 'b> {
        // Lanes are created up front, in deterministic order: the root
        // lane first, then one lane per channel producer, in table order.
        let root_lane = env
            .tracer
            .as_ref()
            .map(|t| t.lane("exec.push", LaneKind::Wall));
        let channels = graph.channels();
        let mut lanes = vec![None; graph.pipelines.len()];
        let mut tip_at_edge = vec![false; graph.pipelines.len()];
        let mut part_of_edge = vec![None; graph.edges.len()];
        for (cid, ch) in channels.iter().enumerate() {
            for &pid in &ch.producers {
                tip_at_edge[pid] = true;
                if let Some(t) = env.tracer.as_ref() {
                    lanes[pid] = Some(t.lane(&format!("exec.push.p{pid}"), LaneKind::Wall));
                }
            }
            for (k, &eid) in ch.edges.iter().enumerate() {
                part_of_edge[eid] = Some((cid, k % ch.parts));
            }
        }
        Runner {
            graph,
            env,
            accounts: graph.pipelines.iter().map(|_| Mutex::default()).collect(),
            lanes,
            root_lane,
            tip_at_edge,
            decisions: graph.edges.iter().map(|_| Mutex::default()).collect(),
            states: channels.iter().map(|_| Mutex::default()).collect(),
            channels,
            part_of_edge,
            failure: OnceLock::new(),
        }
    }

    /// End the query after the failure `cause`, which becomes the query's
    /// error unless an earlier one already has: every part queue no
    /// consumer has taken hangs up, waking the producers blocked on it, no
    /// channel starts from here on, and every source stops at its next
    /// batch boundary ([`Runner::admit`]), so the parts surviving fragments
    /// hold soon reach their end of stream. Every error the abort causes
    /// arises after `cause` is recorded, so none can take its place.
    fn abort(&self, cause: EngineError) {
        let _ = self.failure.set(cause);
        for state in &self.states {
            if let Some(receivers) = lock_tolerant(state).as_mut() {
                receivers.iter_mut().for_each(|rx| *rx = None);
            }
        }
    }

    /// Fail once the query has aborted.
    fn check_aborted(&self) -> Result<()> {
        match self.failure.get() {
            Some(cause) => Err(EngineError::Internal(format!("query aborted: {cause}"))),
            None => Ok(()),
        }
    }

    /// The step a source takes before every batch it emits: stop if the
    /// query has aborted, then check in with the cross-query gate — the
    /// cooperative yield point where a preempted pipeline gives its
    /// credits back and waits for a new grant.
    fn admit(&self, pid: usize) -> Result<()> {
        self.check_aborted()?;
        match &self.env.gate {
            Some(gate) => gate.acquire(pid),
            None => Ok(()),
        }
    }

    fn trace(&self, lane: Option<LaneId>) -> Trace<'_> {
        match (&self.env.tracer, lane) {
            (Some(t), Some(lane)) => Some((t.as_ref(), lane)),
            _ => None,
        }
    }

    fn into_outcome(self, batches: Vec<Batch>) -> ExecOutcome {
        let mut ledger = MovementLedger::new();
        let mut scan_stats = Vec::new();
        let mut frontiers = Vec::new();
        let mut window_lags = Vec::new();
        for (pid, account) in self.accounts.into_iter().enumerate() {
            let account = account.into_inner().expect("account lock poisoned");
            ledger.merge(&account.ledger);
            scan_stats.extend(account.scan_stats);
            if !account.frontiers.is_empty() {
                frontiers.push((pid, account.frontiers));
            }
            window_lags.extend(account.window_lags);
        }
        let codec_decisions = self
            .decisions
            .into_iter()
            .filter_map(|slot| slot.into_inner().expect("decision lock poisoned"))
            .collect();
        ExecOutcome {
            batches,
            ledger,
            scan_stats,
            codec_decisions,
            frontiers,
            window_lags,
        }
    }

    /// Charge a batch handed from `from` toward `to` at its plain-move
    /// size. Cross-device moves are charged at the wire-encoded size when
    /// the environment carries wire options (what a NIC would actually
    /// put on the link).
    fn charge(&self, pid: usize, from: Option<DeviceId>, to: Option<DeviceId>, batch: &Batch) {
        self.charge_bytes(
            pid,
            from,
            to,
            self.plain_move_bytes(from, to, batch),
            batch.rows() as u64,
        );
    }

    /// Like [`Runner::charge`] but skips the producer-tip handoff of
    /// channel producers, which charge at their pair edges.
    fn charge_handoff(
        &self,
        pid: usize,
        from: Option<DeviceId>,
        to: Option<DeviceId>,
        batch: &Batch,
        is_tip: bool,
    ) {
        if is_tip && self.tip_at_edge[pid] {
            return;
        }
        self.charge(pid, from, to, batch);
    }

    /// Ledger bytes a plain (non-codec) move of `batch` costs.
    fn plain_move_bytes(&self, from: Option<DeviceId>, to: Option<DeviceId>, batch: &Batch) -> u64 {
        let crosses = matches!((from, to), (Some(f), Some(t)) if f != t);
        match (&self.env.wire, crosses) {
            (Some(opts), true) => df_codec::wire::wire_size(batch, opts) as u64,
            _ => batch.byte_size() as u64,
        }
    }

    /// The single ledger-charge site: every byte the execution accounts
    /// flows through here exactly once.
    fn charge_bytes(
        &self,
        pid: usize,
        from: Option<DeviceId>,
        to: Option<DeviceId>,
        bytes: u64,
        rows: u64,
    ) {
        self.accounts[pid]
            .lock()
            .expect("account lock poisoned")
            .ledger
            .charge(from, to, bytes, rows);
    }

    /// Turn one producer-tip batch into the message its pair edge
    /// carries, charging the ledger what actually crosses: raw bytes for
    /// plain edges, the encoded frame size for codec decisions. The single
    /// charge and edge-encode site. Only an edge compiled with a codec, or
    /// any edge under [`CodecPolicy::Auto`], decides an encoding.
    fn edge_message(&self, eid: usize, batch: Batch) -> EdgeMsg {
        let edge = &self.graph.edges[eid];
        let encoding = if edge.encoding.is_plain() && self.env.codec == CodecPolicy::AsCompiled {
            EdgeEncoding::Plain
        } else {
            self.edge_encoding(eid, &batch)
        };
        if encoding.is_plain() {
            self.charge(edge.from, edge.from_device, edge.to_device, &batch);
            return EdgeMsg::Plain(batch);
        }
        let frame = edge_codec::encode(&batch, encoding);
        self.charge_bytes(
            edge.from,
            edge.from_device,
            edge.to_device,
            frame.len() as u64,
            batch.rows() as u64,
        );
        EdgeMsg::Frame(frame)
    }

    /// The encoding `eid` uses, deciding it on the edge's first batch and
    /// memoizing the decision for every later batch.
    fn edge_encoding(&self, eid: usize, batch: &Batch) -> EdgeEncoding {
        let mut slot = self.decisions[eid].lock().expect("decision lock poisoned");
        if let Some(d) = slot.as_ref() {
            return d.encoding;
        }
        let d = self.decide(eid, batch);
        let encoding = d.encoding;
        *slot = Some(d);
        encoding
    }

    /// Decide the edge's encoding from its first batch: honor a compiled
    /// encoding, otherwise run the Auto cost model.
    fn decide(&self, eid: usize, batch: &Batch) -> CodecDecision {
        let edge = &self.graph.edges[eid];
        let plain_bytes = self.plain_move_bytes(edge.from_device, edge.to_device, batch);
        if !edge.encoding.is_plain() {
            let encoded_bytes = edge_codec::encoded_size(batch, edge.encoding) as u64;
            return CodecDecision {
                edge: eid,
                encoding: edge.encoding,
                auto: false,
                plain_bytes,
                encoded_bytes,
            };
        }
        let (encoding, encoded_bytes) = self.auto_select(edge, batch, plain_bytes);
        CodecDecision {
            edge: eid,
            encoding,
            auto: true,
            plain_bytes,
            encoded_bytes,
        }
    }

    /// The Auto cost model: a candidate wins over a plain move when
    /// `plain/compress_rate + encoded/link_bw + encoded/decompress_rate`
    /// beats `plain/link_bw` on the sampled batch. Falls back to plain
    /// when the endpoint devices cannot run the codec stages or the
    /// topology gives no cost basis.
    fn auto_select(
        &self,
        edge: &PipelineEdge,
        batch: &Batch,
        plain_bytes: u64,
    ) -> (EdgeEncoding, u64) {
        let rates = (|| {
            let topo = self.env.topology?;
            let from = edge.from_device?;
            let to = edge.to_device?;
            let compress = topo.device(from).profile.rate(OpClass::Compress)?;
            let decompress = topo.device(to).profile.rate(OpClass::Decompress)?;
            let route = match &edge.kind {
                EdgeKind::Fabric { route: Some(r) } => r.clone(),
                _ => topo.route(from, to)?,
            };
            let link = topo.route_bandwidth(&route)?;
            Some((
                compress.as_bytes_per_sec(),
                decompress.as_bytes_per_sec(),
                link.as_bytes_per_sec(),
            ))
        })();
        let Some((compress, decompress, link)) = rates else {
            return (EdgeEncoding::Plain, plain_bytes);
        };
        let mut best = (EdgeEncoding::Plain, plain_bytes);
        let mut best_cost = plain_bytes as f64 / link;
        for encoding in [
            EdgeEncoding::Columnar,
            EdgeEncoding::Lz,
            EdgeEncoding::ColumnarLz,
        ] {
            let encoded = edge_codec::encoded_size(batch, encoding) as u64;
            let cost =
                plain_bytes as f64 / compress + encoded as f64 / link + encoded as f64 / decompress;
            if cost < best_cost {
                best = (encoding, encoded);
                best_cost = cost;
            }
        }
        best
    }

    /// Run one pipeline to completion: open its operator spans, drain any
    /// join-build edges, stream its source through the operator chain into
    /// `sink`, then cascade `finish()` leaf-to-root.
    fn run_pipeline<'env, 'scope>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        pid: usize,
        trace: Trace<'env>,
        parent_dev: Option<DeviceId>,
        sink: &mut Sink,
    ) -> Result<()> {
        let p = &self.graph.pipelines[pid];
        let specs = &p.ops[..];
        let mut ops = specs
            .iter()
            .map(|o| o.spec.instantiate())
            .collect::<Result<Vec<RuntimeOp>>>()?;

        // Operator spans open root-to-leaf; batches later nest inside all
        // of them. A join drains its build side as soon as its span opens
        // (build before probe), then stays inside a `join-probe` span
        // until the operators below it have finished.
        let mut spans = SpanStack(Vec::new());
        for i in (0..specs.len()).rev() {
            spans.push(open_span(trace, specs[i].spec.label(), &[]));
            if let Some(build_edge) = specs[i].build_edge {
                {
                    let _build = open_span(trace, "join-build", &[]);
                    let op = &mut ops[i];
                    self.drain_edge(scope, build_edge, trace, &mut |flow| match flow {
                        Flow::Data(batch) => op.build(batch),
                        // A bounded stream feeding a join build has no
                        // windows to gate: its markers end here.
                        Flow::Punct(_) => Ok(()),
                    })?;
                }
                spans.push(open_span(trace, "join-probe", &[]));
            }
        }

        // Stream the source through the chain. Concrete sources pass
        // `admit` before every batch they emit.
        let first_target = specs.first().map_or(parent_dev, |o| o.device);
        match &p.source {
            PipelineSource::Values {
                batches, device, ..
            } => {
                let _source = open_span(trace, "values", &[]);
                for batch in batches {
                    self.admit(pid)?;
                    self.charge_handoff(pid, *device, first_target, batch, specs.is_empty());
                    self.feed(pid, &mut ops, specs, parent_dev, trace, batch.clone(), sink)?;
                }
            }
            PipelineSource::Scan {
                table,
                request,
                device,
                ..
            } => {
                let _source = open_span(trace, "storage-scan", &[]);
                let device = *device;
                let ops = &mut ops;
                let stats =
                    source::scan_streaming(self.env.storage, table, request, &mut |batch| {
                        self.admit(pid)?;
                        self.charge_handoff(pid, device, first_target, &batch, specs.is_empty());
                        self.feed(
                            pid,
                            ops.as_mut_slice(),
                            specs,
                            parent_dev,
                            trace,
                            batch,
                            sink,
                        )
                    })?;
                self.accounts[pid]
                    .lock()
                    .expect("account lock poisoned")
                    .scan_stats
                    .push(stats);
            }
            PipelineSource::Stream { spec, device, .. } => {
                if spec.is_unbounded() {
                    return Err(EngineError::Plan(
                        "unbounded stream reached the executor; bound it with \
                         PipelineGraph::with_stream_horizon"
                            .into(),
                    ));
                }
                let _source = open_span(trace, "stream", &[("seed", spec.seed)]);
                let mut gen = StreamGen::new(spec);
                let punct_every = spec.punct_every.max(1);
                let mut since_punct = 0u64;
                while let Some(batch) = gen.next_batch() {
                    self.admit(pid)?;
                    self.charge_handoff(pid, *device, first_target, &batch, specs.is_empty());
                    self.feed(pid, &mut ops, specs, parent_dev, trace, batch, sink)?;
                    since_punct += 1;
                    if since_punct >= punct_every {
                        since_punct = 0;
                        self.punctuate(
                            pid,
                            &mut ops,
                            specs,
                            parent_dev,
                            trace,
                            gen.frontier(),
                            sink,
                        )?;
                    }
                }
                if since_punct > 0 {
                    self.punctuate(
                        pid,
                        &mut ops,
                        specs,
                        parent_dev,
                        trace,
                        gen.frontier(),
                        sink,
                    )?;
                }
            }
            PipelineSource::Edge { .. } | PipelineSource::Exchange { .. } => {
                // An exchange fragment drains its part through the pair
                // edge from the exchange's first producer.
                let edge = match p.source {
                    PipelineSource::Exchange {
                        exchange, index, ..
                    } => self.graph.exchanges[exchange].edge(0, index),
                    PipelineSource::Edge { edge } => edge,
                    _ => unreachable!("matched edge-fed sources"),
                };
                let ops = &mut ops;
                self.drain_edge(scope, edge, trace, &mut |flow| match flow {
                    Flow::Data(batch) => self.feed(
                        pid,
                        ops.as_mut_slice(),
                        specs,
                        parent_dev,
                        trace,
                        batch,
                        sink,
                    ),
                    Flow::Punct(frontier) => self.punctuate(
                        pid,
                        ops.as_mut_slice(),
                        specs,
                        parent_dev,
                        trace,
                        frontier,
                        sink,
                    ),
                })?;
            }
        }

        // Finish cascade, leaf-to-root: each operator flushes through the
        // operators above it before its span closes.
        for i in 0..specs.len() {
            if specs[i].build_edge.is_some() {
                spans.pop(); // close `join-probe`: upstream input is done
            }
            let (head, rest) = ops.split_at_mut(i + 1);
            let target = specs.get(i + 1).map_or(parent_dev, |s| s.device);
            for out in head[i].finish()? {
                self.charge_handoff(pid, specs[i].device, target, &out, i + 1 == specs.len());
                self.feed(pid, rest, &specs[i + 1..], parent_dev, trace, out, sink)?;
            }
            spans.pop();
        }
        Ok(())
    }

    /// Push one batch through the operator chain `ops` (parallel to
    /// `specs`), charging each handoff and forwarding results into `sink`.
    #[allow(clippy::too_many_arguments)]
    fn feed(
        &self,
        pid: usize,
        ops: &mut [RuntimeOp],
        specs: &[PipelineOp],
        parent_dev: Option<DeviceId>,
        trace: Trace<'_>,
        batch: Batch,
        sink: &mut Sink,
    ) -> Result<()> {
        let Some((op, rest)) = ops.split_first_mut() else {
            return sink(Flow::Data(batch));
        };
        let (spec, rest_specs) = specs.split_first().expect("specs parallel to ops");
        // Unary operators get a morsel span; join probes stream inside
        // their `join-probe` span instead.
        let mut morsel = if spec.build_edge.is_some() {
            None
        } else {
            open_span(
                trace,
                "morsel",
                &[
                    ("rows", batch.rows() as u64),
                    ("bytes", batch.byte_size() as u64),
                ],
            )
        };
        let target = rest_specs.first().map_or(parent_dev, |s| s.device);
        let mut out_rows = 0u64;
        for out in op.push(batch)? {
            out_rows += out.rows() as u64;
            self.charge_handoff(pid, spec.device, target, &out, rest_specs.is_empty());
            self.feed(pid, rest, rest_specs, parent_dev, trace, out, sink)?;
        }
        if let Some(span) = morsel.as_mut() {
            span.annotate("out_rows", out_rows);
        }
        Ok(())
    }

    /// Advance every operator's frontier to `frontier`, feed any windows
    /// that closed through the rest of the chain, and forward the marker
    /// downstream. Mirrors the finish cascade: window output produced at
    /// op `i` flows through ops `i+1..` with the usual handoff charges.
    #[allow(clippy::too_many_arguments)]
    fn punctuate(
        &self,
        pid: usize,
        ops: &mut [RuntimeOp],
        specs: &[PipelineOp],
        parent_dev: Option<DeviceId>,
        trace: Trace<'_>,
        frontier: i64,
        sink: &mut Sink,
    ) -> Result<()> {
        if let Some((t, lane)) = trace {
            t.instant(lane, &format!("frontier-advance f={frontier}"));
        }
        self.accounts[pid]
            .lock()
            .expect("account lock poisoned")
            .frontiers
            .push(frontier);
        for i in 0..specs.len() {
            let (head, rest) = ops.split_at_mut(i + 1);
            let closed = head[i].advance(frontier)?;
            if closed.is_empty() {
                continue;
            }
            let target = specs.get(i + 1).map_or(parent_dev, |s| s.device);
            let mut lags = Vec::with_capacity(closed.len());
            for (wend, out) in closed {
                lags.push(frontier.saturating_sub(wend));
                self.charge_handoff(pid, specs[i].device, target, &out, i + 1 == specs.len());
                self.feed(pid, rest, &specs[i + 1..], parent_dev, trace, out, sink)?;
            }
            self.accounts[pid]
                .lock()
                .expect("account lock poisoned")
                .window_lags
                .extend(lags);
        }
        sink(Flow::Punct(frontier))
    }

    /// Drain one inter-pipeline edge into `sink` — the single site where
    /// edges move batches. Local edges run their producer inline on the
    /// consumer's lane; every other edge is a pair edge of a channel, and
    /// the consumer drains that pair's part queue.
    fn drain_edge<'env, 'scope>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        eid: usize,
        consumer_trace: Trace<'env>,
        sink: &mut Sink,
    ) -> Result<()> {
        match self.part_of_edge[eid] {
            Some((cid, part)) => self.drain_channel(scope, cid, part, sink),
            None => {
                let edge = &self.graph.edges[eid];
                self.run_pipeline(scope, edge.from, consumer_trace, edge.to_device, sink)
            }
        }
    }

    /// Drain part `part` of channel `cid` into `sink`.
    ///
    /// The first consumer to arrive creates every part's queue and starts
    /// every producer thread, so all pair streams start at once; later
    /// consumers just take their receiver. A multi-part channel relies on
    /// its consumers themselves running concurrently (as producers of a
    /// downstream channel) — which is how the compiler lays out scale-out
    /// plans, and what the df-check deadlock pass model-checks.
    fn drain_channel<'env, 'scope>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        cid: usize,
        part: usize,
        sink: &mut Sink,
    ) -> Result<()> {
        let rx = {
            let mut state = lock_tolerant(&self.states[cid]);
            self.check_aborted()?;
            let receivers = state.get_or_insert_with(|| {
                let ch = &self.channels[cid];
                let (txs, rxs): (Vec<_>, Vec<_>) = ch
                    .credits
                    .iter()
                    .map(|&credits| sync_channel::<EdgeMsg>(credits))
                    .unzip();
                for producer in 0..ch.producers.len() {
                    let senders = txs.clone();
                    scope.spawn(move || self.run_producer(scope, cid, producer, senders));
                }
                rxs.into_iter().map(Some).collect()
            });
            receivers[part].take()
        };
        let Some(rx) = rx else {
            return Err(EngineError::Internal(format!(
                "channel {cid} part {part} drained twice"
            )));
        };
        // An early return drops `rx`: the producers' next send toward this
        // part observes the hang-up.
        for msg in rx.iter() {
            sink(match msg {
                EdgeMsg::Plain(batch) => Flow::Data(batch),
                EdgeMsg::Frame(frame) => Flow::Data(edge_codec::decode(&frame)?),
                EdgeMsg::Punct(frontier) => Flow::Punct(frontier),
            })?;
        }
        // Clean end of stream means every producer dropped its senders,
        // which a failed producer does only after aborting the query.
        self.check_aborted()
    }

    /// Body of one producer thread: run the producer pipeline, split every
    /// tip batch across the channel's parts (the whole batch for a fabric
    /// edge; hash, broadcast or gather for an exchange), and ship each part
    /// through [`Runner::edge_message`] over its own pair edge. Frontier
    /// markers ride only punctuated pair edges. A part whose consumer hung
    /// up just stops receiving its share; the producer aborts once every
    /// part is gone, and then exits clean because the consumers' own
    /// errors win.
    fn run_producer<'env, 'scope>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        cid: usize,
        producer: usize,
        senders: Vec<SyncSender<EdgeMsg>>,
    ) {
        let ch = &self.channels[cid];
        let pid = ch.producers[producer];
        let trace = self.trace(self.lanes[pid]);
        let mut txs: Vec<Option<SyncSender<EdgeMsg>>> = senders.into_iter().map(Some).collect();
        let mut span = match ch.exchange {
            None => open_span(trace, "fabric-edge", &[("credits", ch.credits[0] as u64)]),
            Some(x) => open_span(
                trace,
                "exchange-producer",
                &[("exchange", x as u64), ("parts", ch.parts as u64)],
            ),
        };
        let mut chunks = 0u64;
        let mut credit_waits = 0u64;
        let splitter = match ch.exchange.map(|x| &self.graph.exchanges[x].kind) {
            Some(ExchangeKind::Hash { keys, seed }) => {
                HashPartitioner::with_seed(keys.clone(), ch.parts, *seed).map(Splitter::Hash)
            }
            Some(ExchangeKind::Broadcast) => Ok(Splitter::Broadcast(ch.parts)),
            _ => Ok(Splitter::Gather),
        };
        let result = splitter.map_err(EngineError::Data).and_then(|splitter| {
            self.run_pipeline(scope, pid, trace, None, &mut |flow| {
                let parts: Vec<(usize, Flow)> = match flow {
                    Flow::Data(batch) => splitter
                        .split(batch)?
                        .into_iter()
                        .map(|(j, part)| (j, Flow::Data(part)))
                        .collect(),
                    Flow::Punct(frontier) => (0..ch.parts)
                        .filter(|&j| self.graph.edges[ch.edge(producer, j)].punctuated)
                        .map(|j| (j, Flow::Punct(frontier)))
                        .collect(),
                };
                for (j, part) in parts {
                    let Some(tx) = txs[j].as_ref() else { continue };
                    let msg = match part {
                        Flow::Data(batch) => self.edge_message(ch.edge(producer, j), batch),
                        Flow::Punct(frontier) => EdgeMsg::Punct(frontier),
                    };
                    match tx.try_send(msg) {
                        Ok(()) => chunks += 1,
                        Err(TrySendError::Full(msg)) => {
                            // Out of credits: block until consumer `j`
                            // frees a slot (§7.1).
                            credit_waits += 1;
                            let _wait = open_span(trace, "credit-wait", &[]);
                            if tx.send(msg).is_ok() {
                                chunks += 1;
                            } else {
                                txs[j] = None;
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => txs[j] = None,
                    }
                }
                if txs.iter().all(Option::is_none) {
                    return Err(hangup());
                }
                Ok(())
            })
        });
        if let Some(span) = span.as_mut() {
            span.annotate("chunks", chunks);
            span.annotate("credit_waits", credit_waits);
        }
        drop(span);
        // Abort before `txs` drops, so every consumer's end of stream
        // finds the abort; a hang-up of every part stays silent — the
        // consumers' own errors win.
        if let Err(e) = result {
            if txs.iter().any(Option::is_some) {
                self.abort(e);
            }
        }
    }
}

fn hangup() -> EngineError {
    EngineError::Internal("every channel consumer disconnected".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::logical::{AggCall, AggFn, LogicalPlan};
    use crate::ops::AggMode;
    use crate::physical::PhysNode;
    use df_data::batch::batch_of;
    use df_data::{Column, Scalar};
    use df_fabric::topology::DisaggregatedConfig;
    use df_storage::object::MemObjectStore;
    use df_storage::smart::{PreAggSpec, ScanRequest};
    use df_storage::table::TableStore;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 4)).collect::<Vec<_>>()),
            ),
            (
                "qty",
                Column::from_i64((0..n as i64).map(|i| i % 10).collect()),
            ),
        ])
    }

    fn values_node(n: usize) -> PhysNode {
        let batch = sample(n);
        let schema = batch.schema().clone();
        PhysNode::Values {
            batches: batch.split(37).unwrap(),
            schema,
            device: None,
        }
    }

    #[test]
    fn filter_project_pipeline() {
        let plan = PhysicalPlan::new(
            PhysNode::Project {
                exprs: vec![(col("qty").mul(lit(2)), "dq".into())],
                schema: df_data::Schema::new(vec![df_data::Field::nullable(
                    "dq",
                    df_data::DataType::Int64,
                )])
                .into_ref(),
                input: Box::new(PhysNode::Filter {
                    input: Box::new(values_node(100)),
                    predicate: col("qty").lt(lit(2)),
                    device: None,
                    use_kernel: false,
                }),
                device: None,
            },
            "test",
        );
        let out = execute(&plan, &ExecEnv::in_memory()).unwrap();
        assert_eq!(out.rows(), 20);
        let merged = out.collect().unwrap();
        for r in 0..merged.rows() {
            let v = merged.row(r)[0].as_int().unwrap();
            assert!(v == 0 || v == 2);
        }
    }

    #[test]
    fn final_aggregate_over_values() {
        let logical = LogicalPlan::values(vec![sample(100)])
            .unwrap()
            .aggregate(
                vec!["grp".into()],
                vec![
                    AggCall::count_star("n"),
                    AggCall::new(AggFn::Sum, "qty", "total"),
                ],
            )
            .unwrap();
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(values_node(100)),
                group_by: vec!["grp".into()],
                aggs: vec![
                    AggCall::count_star("n"),
                    AggCall::new(AggFn::Sum, "qty", "total"),
                ],
                mode: AggMode::Final,
                final_schema: logical.schema(),
                device: None,
            },
            "test",
        );
        let out = execute(&plan, &ExecEnv::in_memory()).unwrap();
        let merged = out.collect().unwrap();
        assert_eq!(merged.rows(), 4);
        let total: i64 = (0..4).map(|r| merged.row(r)[2].as_int().unwrap()).sum();
        let expect: i64 = (0..100i64).map(|i| i % 10).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn partial_then_merge_distributed_shape() {
        // values -> Partial (on "nic") -> Merge (on cpu): the Figure 3 cascade.
        let topo = df_fabric::Topology::disaggregated(&DisaggregatedConfig::default());
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let logical = LogicalPlan::values(vec![sample(1000)])
            .unwrap()
            .aggregate(
                vec!["grp".into()],
                vec![AggCall::new(AggFn::Avg, "qty", "avg_qty")],
            )
            .unwrap();
        let aggs = vec![AggCall::new(AggFn::Avg, "qty", "avg_qty")];
        let partial = PhysNode::Aggregate {
            input: Box::new(values_node(1000)),
            group_by: vec!["grp".into()],
            aggs: aggs.clone(),
            mode: AggMode::Partial { max_groups: 2 },
            final_schema: logical.schema(),
            device: Some(nic),
        };
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(partial),
                group_by: vec!["grp".into()],
                aggs,
                mode: AggMode::Merge { max_groups: None },
                final_schema: logical.schema(),
                device: Some(cpu),
            },
            "nic-cascade",
        );
        let out = execute(&plan, &ExecEnv::in_memory()).unwrap();
        let merged = out.collect().unwrap();
        assert_eq!(merged.rows(), 4);
        // Groups interleave qty values: g0/g2 average 4.0, g1/g3 average 5.0.
        let mut avgs: Vec<f64> = (0..4)
            .map(|r| match merged.row(r)[1] {
                Scalar::Float(f) => f,
                ref other => panic!("expected float, got {other:?}"),
            })
            .collect();
        avgs.sort_by(f64::total_cmp);
        assert_eq!(avgs, vec![4.0, 4.0, 5.0, 5.0]);
        // Ledger saw traffic nic -> cpu.
        let cross = out.ledger.cross_device_bytes();
        assert!(cross > 0);
    }

    #[test]
    fn join_over_values() {
        let build = batch_of(vec![
            ("gname", Column::from_strs(&["g0", "g1"])),
            ("label", Column::from_strs(&["zero", "one"])),
        ]);
        let probe = sample(20);
        let logical = LogicalPlan::values(vec![build.clone()])
            .unwrap()
            .join(
                LogicalPlan::values(vec![probe.clone()]).unwrap(),
                vec![("gname", "grp")],
            )
            .unwrap();
        let plan = PhysicalPlan::new(
            PhysNode::HashJoin {
                build: Box::new(PhysNode::Values {
                    schema: build.schema().clone(),
                    batches: vec![build],
                    device: None,
                }),
                probe: Box::new(PhysNode::Values {
                    schema: probe.schema().clone(),
                    batches: probe.split(7).unwrap(),
                    device: None,
                }),
                on: vec![("gname".into(), "grp".into())],
                join_type: crate::logical::JoinType::Inner,
                schema: logical.schema(),
                device: None,
            },
            "test",
        );
        let out = execute(&plan, &ExecEnv::in_memory()).unwrap();
        // 20 rows, groups g0..g3 round-robin: g0 and g1 appear 5 times each.
        assert_eq!(out.rows(), 10);
    }

    #[test]
    fn storage_scan_with_pushdown_and_ledger() {
        let topo = df_fabric::Topology::disaggregated(&DisaggregatedConfig::default());
        let ssd = topo.expect_device("storage.ssd");
        let cpu = topo.expect_device("compute0.cpu");
        let ts = TableStore::new(MemObjectStore::shared());
        ts.create("t", sample(1).schema()).unwrap();
        ts.append("t", &[sample(10_000)], 100_000, 512).unwrap();
        let storage = SmartStorage::new(ts);

        let request = ScanRequest::full()
            .filter(df_storage::predicate::StoragePredicate::cmp(
                "qty",
                df_storage::zonemap::CmpOp::Lt,
                1i64,
            ))
            .project(&["id", "qty"]);
        let schema = storage.output_schema("t", &request).unwrap();
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::StorageScan {
                    table: "t".into(),
                    request,
                    schema: schema.clone(),
                    device: Some(ssd),
                }),
                group_by: vec![],
                aggs: vec![AggCall::count_star("n")],
                mode: AggMode::Final,
                final_schema: df_data::Schema::new(vec![df_data::Field::nullable(
                    "n",
                    df_data::DataType::Int64,
                )])
                .into_ref(),
                device: Some(cpu),
            },
            "pushdown",
        );
        let env = ExecEnv {
            storage: Some(&storage),
            topology: Some(&topo),
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        };
        let out = execute(&plan, &env).unwrap();
        let merged = out.collect().unwrap();
        assert_eq!(merged.row(0)[0], Scalar::Int(1000));
        // Scan stats captured, pushdown reduced movement.
        assert_eq!(out.scan_stats.len(), 1);
        assert!(out.scan_stats[0].bytes_returned < out.scan_stats[0].bytes_scanned);
        // The ledger charged the ssd->cpu edge with only the filtered bytes.
        assert!(out.ledger.cross_device_bytes() > 0);
        let per_link = out.ledger.per_link(&topo);
        assert!(!per_link.is_empty());
        assert_eq!(out.ledger.unroutable_bytes(&topo), 0);
    }

    #[test]
    fn storage_preagg_merges_positionally() {
        // Storage produces partials; a Merge aggregate combines them. AVG
        // decomposes into (sum, count) at storage.
        let ts = TableStore::new(MemObjectStore::shared());
        ts.create("t", sample(1).schema()).unwrap();
        ts.append("t", &[sample(1000)], 100_000, 128).unwrap();
        let storage = SmartStorage::new(ts);
        let request = ScanRequest::full().pre_aggregate(PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![(AggFn::Sum, "qty".into()), (AggFn::Count, "qty".into())],
            max_groups: 2, // force partial flushes at storage
        });
        let scan_schema = storage.output_schema("t", &request).unwrap();
        let logical = LogicalPlan::values(vec![sample(8)])
            .unwrap()
            .aggregate(
                vec!["grp".into()],
                vec![AggCall::new(AggFn::Avg, "qty", "avg_qty")],
            )
            .unwrap();
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::StorageScan {
                    table: "t".into(),
                    request,
                    schema: scan_schema,
                    device: None,
                }),
                group_by: vec!["grp".into()],
                aggs: vec![AggCall::new(AggFn::Avg, "qty", "avg_qty")],
                mode: AggMode::Merge { max_groups: None },
                final_schema: logical.schema(),
                device: None,
            },
            "storage-preagg",
        );
        let env = ExecEnv {
            storage: Some(&storage),
            topology: None,
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        };
        let out = execute(&plan, &env).unwrap();
        let merged = out.collect().unwrap();
        assert_eq!(merged.rows(), 4);
        let mut avgs: Vec<f64> = (0..4)
            .map(|r| merged.row(r)[1].as_float_lossy().unwrap())
            .collect();
        avgs.sort_by(f64::total_cmp);
        assert_eq!(avgs, vec![4.0, 4.0, 5.0, 5.0]);
    }

    #[test]
    fn three_stage_cascade_keeps_exact_totals() {
        // Figure 3's group-by cascade as one placed plan: storage
        // pre-aggregates, the sending and receiving NICs run bounded
        // merges, and the CPU merges what arrives. Rows come in runs of
        // four per group, cycling over 5 groups: storage (2 slots) folds
        // each run into one partial, the sending NIC (4 slots) still
        // flushes, and the receiving NIC (5 slots) holds every group.
        let topo = df_fabric::Topology::disaggregated(&DisaggregatedConfig::default());
        let device = |name| Some(topo.expect_device(name));
        let group_of = |i: i64| format!("g{}", i / 4 % 5);
        let batch = batch_of(vec![
            ("k", Column::from_i64((0..1000).collect())),
            (
                "grp",
                Column::from_strs(&(0..1000).map(group_of).collect::<Vec<_>>()),
            ),
            ("v", Column::from_i64((0..1000).map(|i| i * 2).collect())),
        ]);
        let ts = TableStore::new(MemObjectStore::shared());
        ts.create("t", batch.schema()).unwrap();
        ts.append("t", std::slice::from_ref(&batch), 100_000, 64)
            .unwrap();
        let storage = SmartStorage::new(ts);
        let calls = vec![
            AggCall::new(AggFn::Count, "k", "n"),
            AggCall::new(AggFn::Sum, "v", "total"),
            AggCall::new(AggFn::Min, "v", "lo"),
            AggCall::new(AggFn::Max, "v", "hi"),
        ];
        let request = ScanRequest::full().pre_aggregate(PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![
                (AggFn::Count, "k".into()),
                (AggFn::Sum, "v".into()),
                (AggFn::Min, "v".into()),
                (AggFn::Max, "v".into()),
            ],
            max_groups: 2,
        });
        let final_schema = LogicalPlan::values(vec![batch.clone()])
            .unwrap()
            .aggregate(vec!["grp".into()], calls.clone())
            .unwrap()
            .schema();
        let aggregate =
            |input: PhysNode, mode: AggMode, device: Option<DeviceId>| PhysNode::Aggregate {
                input: Box::new(input),
                group_by: vec!["grp".into()],
                aggs: calls.clone(),
                mode,
                final_schema: final_schema.clone(),
                device,
            };
        let mut node = PhysNode::StorageScan {
            table: "t".into(),
            schema: storage.output_schema("t", &request).unwrap(),
            request,
            device: device("storage.ssd"),
        };
        for (max_groups, nic) in [(4, "storage.nic"), (5, "compute0.nic")] {
            let mode = AggMode::Merge {
                max_groups: Some(max_groups),
            };
            node = aggregate(node, mode, device(nic));
        }
        let merge = AggMode::Merge { max_groups: None };
        let plan = PhysicalPlan::new(
            aggregate(node, merge, device("compute0.cpu")),
            "nic-cascade",
        );
        let env = ExecEnv {
            storage: Some(&storage),
            topology: Some(&topo),
            ..ExecEnv::in_memory()
        };
        let out = execute(&plan, &env).unwrap();

        // Exactly the groups one `Final` aggregate over the raw rows finds.
        let values = PhysNode::Values {
            schema: batch.schema().clone(),
            batches: vec![batch],
            device: None,
        };
        let direct = PhysicalPlan::new(aggregate(values, AggMode::Final, None), "final");
        let direct = execute(&direct, &ExecEnv::in_memory()).unwrap();
        let cascade = out.collect().unwrap();
        assert_eq!(cascade.rows(), 5);
        assert_eq!(
            cascade.canonical_rows(),
            direct.collect().unwrap().canonical_rows()
        );
        // Each hop carries fewer rows; only the groups reach the CPU.
        let hops: Vec<(&str, &str, u64)> = out
            .ledger
            .edges()
            .map(|(&(from, to), stats)| {
                let name = |d| topo.device(d).name.as_str();
                (name(from), name(to), stats.rows)
            })
            .collect();
        assert_eq!(
            hops,
            [
                ("storage.ssd", "storage.nic", 250),
                ("storage.nic", "compute0.nic", 200),
                ("compute0.nic", "compute0.cpu", 5),
            ]
        );
    }

    #[test]
    fn limit_truncates_stream() {
        let plan = PhysicalPlan::new(
            PhysNode::Limit {
                input: Box::new(values_node(100)),
                n: 5,
            },
            "test",
        );
        let out = execute(&plan, &ExecEnv::in_memory()).unwrap();
        assert_eq!(out.rows(), 5);
    }

    #[test]
    fn kernel_filter_equals_host_filter_end_to_end() {
        let mk = |use_kernel| {
            PhysicalPlan::new(
                PhysNode::Filter {
                    input: Box::new(values_node(500)),
                    predicate: col("qty").between(3, 6),
                    device: None,
                    use_kernel,
                },
                "test",
            )
        };
        let host = execute(&mk(false), &ExecEnv::in_memory()).unwrap();
        let kernel = execute(&mk(true), &ExecEnv::in_memory()).unwrap();
        assert_eq!(
            host.collect().unwrap().canonical_rows(),
            kernel.collect().unwrap().canonical_rows()
        );
    }

    #[test]
    fn missing_storage_env_is_an_error() {
        let plan = PhysicalPlan::new(
            PhysNode::StorageScan {
                table: "t".into(),
                request: ScanRequest::full(),
                schema: sample(1).schema().clone(),
                device: None,
            },
            "test",
        );
        assert!(execute(&plan, &ExecEnv::in_memory()).is_err());
    }

    #[test]
    fn fabric_edge_streams_through_credit_bounded_channel() {
        // A placed filter -> aggregate crossing nic -> cpu: the fabric
        // edge must carry every batch (results identical to the unplaced
        // run) and the producer lane must record the fabric-edge span.
        let topo = df_fabric::Topology::disaggregated(&DisaggregatedConfig::default());
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let logical = LogicalPlan::values(vec![sample(2000)])
            .unwrap()
            .aggregate(vec!["grp".into()], vec![AggCall::count_star("n")])
            .unwrap();
        let mk = |devices: Option<(DeviceId, DeviceId)>| {
            PhysicalPlan::new(
                PhysNode::Aggregate {
                    input: Box::new(PhysNode::Filter {
                        input: Box::new(values_node(2000)),
                        predicate: col("qty").lt(lit(8)),
                        device: devices.map(|(a, _)| a),
                        use_kernel: false,
                    }),
                    group_by: vec!["grp".into()],
                    aggs: vec![AggCall::count_star("n")],
                    mode: AggMode::Final,
                    final_schema: logical.schema(),
                    device: devices.map(|(_, b)| b),
                },
                "placed",
            )
        };
        let unplaced = execute(&mk(None), &ExecEnv::in_memory()).unwrap();

        let tracer = Arc::new(Tracer::new());
        let env = ExecEnv {
            storage: None,
            topology: Some(&topo),
            wire: None,
            tracer: Some(tracer.clone()),
            gate: None,
            codec: CodecPolicy::AsCompiled,
        };
        let placed = execute(&mk(Some((nic, cpu))), &env).unwrap();
        assert_eq!(
            placed.collect().unwrap().canonical_rows(),
            unplaced.collect().unwrap().canonical_rows()
        );
        assert!(placed.ledger.cross_device_bytes() > 0);
        tracer.validate().expect("well-formed trace");
        let json = tracer.chrome_trace_json();
        assert!(json.contains("fabric-edge"));
        assert!(tracer.lane_names().iter().any(|l| l == "exec.push.p0"));
    }

    /// Filter placed on `from` feeding an aggregate placed on `to`: one
    /// fabric edge between them.
    fn placed_filter_agg(topo: &Topology, from: &str, to: &str, rows: usize) -> PhysicalPlan {
        let nic = topo.expect_device(from);
        let cpu = topo.expect_device(to);
        let logical = LogicalPlan::values(vec![sample(rows)])
            .unwrap()
            .aggregate(vec!["grp".into()], vec![AggCall::count_star("n")])
            .unwrap();
        PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Filter {
                    input: Box::new(values_node(rows)),
                    predicate: col("qty").lt(lit(8)),
                    device: Some(nic),
                    use_kernel: false,
                }),
                group_by: vec!["grp".into()],
                aggs: vec![AggCall::count_star("n")],
                mode: AggMode::Final,
                final_schema: logical.schema(),
                device: Some(cpu),
            },
            "placed",
        )
    }

    #[test]
    fn compiled_codec_edge_matches_plain_with_smaller_ledger() {
        let topo = df_fabric::Topology::disaggregated(&DisaggregatedConfig::default());
        let plan = placed_filter_agg(&topo, "compute0.nic", "compute0.cpu", 2000);
        let env = ExecEnv {
            storage: None,
            topology: Some(&topo),
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        };
        let mut graph = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let plain = execute_graph(&graph, &env, "plain").unwrap();
        assert!(plain.codec_decisions.is_empty());

        let eid = graph
            .edges
            .iter()
            .position(PipelineEdge::crosses_devices)
            .expect("one fabric edge");
        graph.set_edge_encoding(eid, df_codec::edge::EdgeEncoding::Columnar, 0.5);
        let coded = execute_graph(&graph, &env, "columnar").unwrap();

        assert_eq!(
            coded.collect().unwrap().canonical_rows(),
            plain.collect().unwrap().canonical_rows()
        );
        // The ledger accounts encoded frames, which beat raw batches on
        // this low-cardinality workload.
        assert!(coded.ledger.cross_device_bytes() < plain.ledger.cross_device_bytes());
        assert_eq!(coded.codec_decisions.len(), 1);
        let d = &coded.codec_decisions[0];
        assert_eq!(d.edge, eid);
        assert_eq!(d.encoding, df_codec::edge::EdgeEncoding::Columnar);
        assert!(!d.auto);
        assert!(d.encoded_bytes < d.plain_bytes);
    }

    #[test]
    fn auto_policy_cost_selects_codec_on_fabric_edge() {
        // The edge crosses the (slow) network: smart-nic tip, compute
        // consumer, 25 GbE bottleneck — where compression pays.
        let topo = df_fabric::Topology::disaggregated(&DisaggregatedConfig {
            network: df_fabric::link::LinkTech::Ethernet { gbits: 25 },
            ..DisaggregatedConfig::default()
        });
        let plan = placed_filter_agg(&topo, "storage.nic", "compute0.cpu", 2000);
        let plain = execute(&plan, &ExecEnv::in_memory()).unwrap();
        let env = ExecEnv {
            storage: None,
            topology: Some(&topo),
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::Auto,
        };
        let auto = execute(&plan, &env).unwrap();
        assert_eq!(
            auto.collect().unwrap().canonical_rows(),
            plain.collect().unwrap().canonical_rows()
        );
        assert_eq!(auto.codec_decisions.len(), 1);
        let d = &auto.codec_decisions[0];
        assert!(d.auto);
        // nic -> cpu over a fast codec pair and a finite link: columnar
        // compression wins on this workload, and the ledger shrinks.
        assert!(!d.encoding.is_plain());
        assert!(auto.ledger.cross_device_bytes() < plain.ledger.cross_device_bytes());
        assert!(d.ratio() < 1.0);
    }

    #[test]
    fn auto_policy_without_topology_falls_back_to_plain() {
        // Devices are placed but the env carries no topology: the cost
        // model has no basis, so every edge stays plain and the ledger
        // matches the as-compiled run byte for byte.
        let topo = df_fabric::Topology::disaggregated(&DisaggregatedConfig::default());
        let plan = placed_filter_agg(&topo, "compute0.nic", "compute0.cpu", 1000);
        let plain = execute(&plan, &ExecEnv::in_memory()).unwrap();
        let env = ExecEnv {
            codec: CodecPolicy::Auto,
            ..ExecEnv::in_memory()
        };
        let auto = execute(&plan, &env).unwrap();
        assert_eq!(auto.codec_decisions.len(), 1);
        assert!(auto.codec_decisions[0].encoding.is_plain());
        assert_eq!(
            auto.ledger.cross_device_bytes(),
            plain.ledger.cross_device_bytes()
        );
        assert_eq!(
            auto.collect().unwrap().canonical_rows(),
            plain.collect().unwrap().canonical_rows()
        );
    }

    #[test]
    fn graph_compiles_once_and_replays() {
        // execute_graph can rerun the same compiled graph.
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values_node(64)),
                predicate: col("qty").lt(lit(5)),
                device: None,
                use_kernel: false,
            },
            "test",
        );
        let graph = PipelineGraph::compile(&plan, None, None, DEFAULT_QUEUE_CAPACITY);
        let env = ExecEnv::in_memory();
        let a = execute_graph(&graph, &env, "test").unwrap();
        let b = execute_graph(&graph, &env, "test").unwrap();
        assert_eq!(
            a.collect().unwrap().canonical_rows(),
            b.collect().unwrap().canonical_rows()
        );
    }
}
