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
//! - **fabric edges** — an edge whose endpoints sit on different devices
//!   runs its producer pipeline on its own thread and moves batches through
//!   a credit-bounded channel (`queue_capacity` chunks, §7.1), so
//!   backpressure exists in real execution: a producer that outruns its
//!   consumer blocks in a `credit-wait` span;
//! - **edge codecs** — a fabric edge that carries an [`EdgeEncoding`]
//!   (compiled onto the graph, or cost-selected under
//!   [`CodecPolicy::Auto`]) encodes each batch into a self-describing
//!   frame at the producer tip, charges the ledger the **encoded** bytes,
//!   and decodes on the consumer side. The tip handoff charge moves from
//!   the operator chain to the edge so each crossing is still charged
//!   exactly once.
//! - **local edges** — same-placement handoffs stay plain function calls
//!   and execute inline, preserving the exact single-threaded behavior.
//! - **punctuation** — a [`PipelineSource::Stream`] emits a frontier
//!   marker every `punct_every` batches; markers flow through the same
//!   sinks and channels as data (in band, so FIFO order is preserved
//!   across Local and Fabric edges alike), advance every window
//!   operator's frontier, and are never ledger-charged — they carry no
//!   payload bytes.
//!
//! Positional partial-aggregate contract: a `Merge`-mode aggregate consumes
//! batches laid out as group columns followed by one partial column per
//! call (two for AVG: sum then count). Both the engine's own `Partial`
//! stage and the storage server's pushed-down pre-aggregation produce this
//! layout, so partials from any device merge interchangeably.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
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
    EdgeKind, ExchangeKind, PipelineEdge, PipelineGraph, PipelineOp, PipelineSource, RuntimeOp,
    DEFAULT_QUEUE_CAPACITY,
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

/// How the executor picks the wire encoding of each fabric edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CodecPolicy {
    /// Honor the encodings compiled onto the graph (`Plain` edges move
    /// raw batches, exactly as before codecs existed). The default.
    #[default]
    AsCompiled,
    /// Cost-select a codec per fabric edge that was compiled `Plain`:
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
    /// Fabric-edge codec policy. [`CodecPolicy::AsCompiled`] (the
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

/// What one fabric edge decided about its wire encoding, sampled from the
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
    /// Per-edge codec decisions, in edge-id order (empty when no fabric
    /// edge went through codec handling).
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
    let runner = Runner::new(graph, env);
    let mut batches = Vec::new();
    {
        let trace = runner.trace(runner.root_lane);
        let _query = open_span(trace, &format!("query [{variant}]"), &[]);
        std::thread::scope(|scope| {
            runner.run_pipeline(scope, graph.root, trace, None, &mut |flow| {
                if let Flow::Data(b) = flow {
                    batches.push(b);
                }
                Ok(())
            })
        })?;
    }
    Ok(runner.into_outcome(batches))
}

/// What moves through a pipeline sink: data, or an in-band frontier
/// marker (punctuation). Keeping punctuation in the same stream as data
/// preserves its ordering relative to the batches it follows.
enum Flow {
    Data(Batch),
    Punct(i64),
}

type Sink<'s> = dyn FnMut(Flow) -> Result<()> + 's;

/// What moves through a fabric-edge channel: raw batches on plain edges,
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

/// Channel state of one in-flight exchange, created by the first consumer
/// fragment to start draining (which also spawns every producer thread).
/// Later consumers just take their receiver.
struct ExchangeState {
    receivers: Vec<Option<Receiver<EdgeMsg>>>,
}

/// Lock a mutex, tolerating poisoning: a poisoned exchange lock means a
/// producer thread panicked, and that panic is re-raised at scope join —
/// the state behind these locks (channel handles, error strings) stays
/// valid either way.
fn lock_tolerant<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How one exchange producer splits a tip batch across consumers.
enum Splitter {
    Hash(HashPartitioner),
    Broadcast(usize),
    Gather,
}

struct Runner<'a, 'b> {
    graph: &'b PipelineGraph,
    env: &'b ExecEnv<'a>,
    accounts: Vec<Mutex<Account>>,
    /// Wall lane of each fabric-producer pipeline (None = runs inline on
    /// its consumer's lane).
    lanes: Vec<Option<LaneId>>,
    root_lane: Option<LaneId>,
    /// Per pipeline: true when its tip handoff is charged at its outgoing
    /// fabric edge (codec edges) instead of inside the operator chain.
    tip_handled: Vec<bool>,
    /// Per edge: the codec decision, made on the edge's first batch.
    decisions: Vec<Mutex<Option<CodecDecision>>>,
    /// Per exchange: lazily created channel state (None until the first
    /// consumer fragment drains).
    exchanges: Vec<Mutex<Option<ExchangeState>>>,
    /// Per exchange: failure messages from producer threads, recorded
    /// *before* their senders drop so each consumer's end-of-stream
    /// happens-after the record.
    exchange_errors: Vec<Mutex<Vec<String>>>,
}

impl<'a, 'b> Runner<'a, 'b> {
    fn new(graph: &'b PipelineGraph, env: &'b ExecEnv<'a>) -> Runner<'a, 'b> {
        // Lanes are created up front, in deterministic order: the root
        // lane first, then one lane per fabric-producer pipeline.
        let root_lane = env
            .tracer
            .as_ref()
            .map(|t| t.lane("exec.push", LaneKind::Wall));
        let mut lanes = vec![None; graph.pipelines.len()];
        if let Some(t) = env.tracer.as_ref() {
            for edge in &graph.edges {
                if matches!(edge.kind, EdgeKind::Fabric { .. }) {
                    lanes[edge.from] =
                        Some(t.lane(&format!("exec.push.p{}", edge.from), LaneKind::Wall));
                }
            }
            // Exchange producers always run on their own threads, so they
            // always get their own lane (even when every pair edge is
            // device-local).
            for ex in &graph.exchanges {
                for &ppid in &ex.producers {
                    if lanes[ppid].is_none() {
                        lanes[ppid] = Some(t.lane(&format!("exec.push.p{ppid}"), LaneKind::Wall));
                    }
                }
            }
        }
        // A pipeline's tip charge moves to its outgoing fabric edge when
        // that edge carries (or may carry, under Auto) a codec; plain
        // edges under the default policy keep the pre-codec charge path.
        let auto = env.codec == CodecPolicy::Auto;
        let mut tip_handled = vec![false; graph.pipelines.len()];
        for edge in &graph.edges {
            if edge.crosses_devices() && (auto || !edge.encoding.is_plain()) {
                tip_handled[edge.from] = true;
            }
        }
        // Exchange producers split each tip batch across consumers, so the
        // whole-batch tip charge inside the chain is always wrong for
        // them; the per-partition charge happens at each pair edge's
        // [`Runner::edge_message`] call instead.
        for ex in &graph.exchanges {
            for &ppid in &ex.producers {
                tip_handled[ppid] = true;
            }
        }
        Runner {
            graph,
            env,
            accounts: graph.pipelines.iter().map(|_| Mutex::default()).collect(),
            lanes,
            root_lane,
            tip_handled,
            decisions: graph.edges.iter().map(|_| Mutex::default()).collect(),
            exchanges: graph.exchanges.iter().map(|_| Mutex::default()).collect(),
            exchange_errors: graph.exchanges.iter().map(|_| Mutex::default()).collect(),
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
    /// pipelines whose outgoing edge charges at the edge itself.
    fn charge_handoff(
        &self,
        pid: usize,
        from: Option<DeviceId>,
        to: Option<DeviceId>,
        batch: &Batch,
        is_tip: bool,
    ) {
        if is_tip && self.tip_handled[pid] {
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

    /// Turn one producer-tip batch into the message its fabric edge
    /// carries, charging the ledger what actually crosses: raw bytes for
    /// plain decisions, the encoded frame size for codec decisions. The
    /// single edge-encode site.
    fn edge_message(&self, eid: usize, batch: Batch) -> EdgeMsg {
        let edge = &self.graph.edges[eid];
        let encoding = self.edge_encoding(eid, &batch);
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

        // Stream the source through the chain. Concrete sources check in
        // with the cross-query gate before every batch they emit — the
        // cooperative yield point where a preempted pipeline gives its
        // credits back and waits for a new grant.
        let first_target = specs.first().map_or(parent_dev, |o| o.device);
        match &p.source {
            PipelineSource::Values {
                batches, device, ..
            } => {
                let _source = open_span(trace, "values", &[]);
                for batch in batches {
                    if let Some(gate) = &self.env.gate {
                        gate.acquire(pid)?;
                    }
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
                        if let Some(gate) = &self.env.gate {
                            gate.acquire(pid)?;
                        }
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
                    if let Some(gate) = &self.env.gate {
                        gate.acquire(pid)?;
                    }
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
            PipelineSource::Edge { edge } => {
                let ops = &mut ops;
                self.drain_edge(scope, *edge, trace, &mut |flow| match flow {
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
            PipelineSource::Exchange {
                exchange, index, ..
            } => {
                let ops = &mut ops;
                self.drain_exchange(scope, *exchange, *index, &mut |flow| match flow {
                    Flow::Data(batch) => self.feed(
                        pid,
                        ops.as_mut_slice(),
                        specs,
                        parent_dev,
                        trace,
                        batch,
                        sink,
                    ),
                    // Exchange producers drop punctuation (the verifier
                    // keeps unbounded streams out of exchanges).
                    Flow::Punct(_) => Ok(()),
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
    /// consumer's lane; fabric edges run it on its own thread behind a
    /// credit-bounded channel.
    fn drain_edge<'env, 'scope>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        eid: usize,
        consumer_trace: Trace<'env>,
        sink: &mut Sink,
    ) -> Result<()> {
        let edge = &self.graph.edges[eid];
        match edge.kind {
            EdgeKind::Local => {
                self.run_pipeline(scope, edge.from, consumer_trace, edge.to_device, sink)
            }
            EdgeKind::Fabric { .. } => {
                let credits = edge.queue_capacity.max(1);
                let from = edge.from;
                let to_device = edge.to_device;
                let handled = self.tip_handled[from];
                let (tx, rx) = sync_channel::<EdgeMsg>(credits);
                let producer = scope.spawn(move || -> Result<()> {
                    let trace = self.trace(self.lanes[from]);
                    let mut chunks = 0u64;
                    let mut credit_waits = 0u64;
                    let mut hung_up = false;
                    let mut edge_span =
                        open_span(trace, "fabric-edge", &[("credits", credits as u64)]);
                    let result = self.run_pipeline(scope, from, trace, to_device, &mut |flow| {
                        // On codec edges the tip charge was suppressed in
                        // the chain; encode and charge here instead.
                        // Punctuation rides the same channel so frontier
                        // markers keep FIFO order with the data they trail.
                        let msg = match flow {
                            Flow::Data(batch) => {
                                if handled {
                                    self.edge_message(eid, batch)
                                } else {
                                    EdgeMsg::Plain(batch)
                                }
                            }
                            Flow::Punct(frontier) => EdgeMsg::Punct(frontier),
                        };
                        match tx.try_send(msg) {
                            Ok(()) => {}
                            Err(TrySendError::Full(msg)) => {
                                // Out of credits: block until the
                                // consumer frees a slot (§7.1).
                                credit_waits += 1;
                                let _wait = open_span(trace, "credit-wait", &[]);
                                if tx.send(msg).is_err() {
                                    hung_up = true;
                                    return Err(hangup());
                                }
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                hung_up = true;
                                return Err(hangup());
                            }
                        }
                        chunks += 1;
                        Ok(())
                    });
                    if let Some(span) = edge_span.as_mut() {
                        span.annotate("chunks", chunks);
                        span.annotate("credit_waits", credit_waits);
                    }
                    drop(edge_span);
                    // A hang-up means the consumer failed; its error is
                    // the one worth reporting, so the producer exits clean.
                    if hung_up {
                        Ok(())
                    } else {
                        result
                    }
                });
                let mut consumer_err: Option<EngineError> = None;
                for msg in rx.iter() {
                    let flow = match msg {
                        EdgeMsg::Plain(batch) => Flow::Data(batch),
                        EdgeMsg::Frame(frame) => match edge_codec::decode(&frame) {
                            Ok(batch) => Flow::Data(batch),
                            Err(e) => {
                                consumer_err = Some(EngineError::Codec(e));
                                break;
                            }
                        },
                        EdgeMsg::Punct(frontier) => Flow::Punct(frontier),
                    };
                    if let Err(e) = sink(flow) {
                        consumer_err = Some(e);
                        break;
                    }
                }
                drop(rx); // producer's next send observes the hang-up
                let produced = producer
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                match consumer_err {
                    Some(e) => Err(e),
                    None => produced,
                }
            }
        }
    }

    /// Drain one consumer fragment's share of an exchange into `sink`.
    ///
    /// The first fragment to arrive creates every consumer's channel and
    /// spawns every producer thread, so all N×M pair streams start at
    /// once; later fragments just take their receiver. This relies on the
    /// consumer fragments of a multi-part exchange themselves running
    /// concurrently (as producer threads of a downstream exchange) —
    /// which is how the compiler lays out scale-out plans, and what the
    /// df-check deadlock pass model-checks.
    fn drain_exchange<'env, 'scope>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        xid: usize,
        index: usize,
        sink: &mut Sink,
    ) -> Result<()> {
        let ex = &self.graph.exchanges[xid];
        let rx = {
            let mut slot = lock_tolerant(&self.exchanges[xid]);
            let state = match slot.as_mut() {
                Some(state) => state,
                None => {
                    // Credits are per producer per consumer channel, so a
                    // slow consumer stalls producers only after each has
                    // banked its usual queue depth toward it (§7.1).
                    let credits = self.graph.queue_capacity.max(1) * ex.producers.len().max(1);
                    let mut txs = Vec::with_capacity(ex.parts);
                    let mut rxs = Vec::with_capacity(ex.parts);
                    for _ in 0..ex.parts {
                        let (tx, rx) = sync_channel::<EdgeMsg>(credits);
                        txs.push(tx);
                        rxs.push(Some(rx));
                    }
                    for producer in 0..ex.producers.len() {
                        let senders = txs.clone();
                        scope.spawn(move || {
                            self.run_exchange_producer(scope, xid, producer, senders)
                        });
                    }
                    slot.insert(ExchangeState { receivers: rxs })
                }
            };
            state.receivers[index].take()
        };
        let Some(rx) = rx else {
            return Err(EngineError::Internal(format!(
                "exchange {xid} consumer {index} drained twice"
            )));
        };
        let mut consumer_err: Option<EngineError> = None;
        for msg in rx.iter() {
            let batch = match msg {
                EdgeMsg::Plain(batch) => batch,
                EdgeMsg::Frame(frame) => match edge_codec::decode(&frame) {
                    Ok(batch) => batch,
                    Err(e) => {
                        consumer_err = Some(EngineError::Codec(e));
                        break;
                    }
                },
                // Exchanges interleave producers, so a per-producer
                // frontier is meaningless downstream; drop it.
                EdgeMsg::Punct(_) => continue,
            };
            if let Err(e) = sink(Flow::Data(batch)) {
                consumer_err = Some(e);
                break;
            }
        }
        drop(rx); // producers' next send toward this part observes the hang-up
        if let Some(e) = consumer_err {
            return Err(e);
        }
        // Clean end-of-stream means every producer dropped its senders,
        // which happens-after any failure record; surface those here.
        let errors = lock_tolerant(&self.exchange_errors[xid]);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(EngineError::Internal(format!(
                "exchange {xid} producer failed: {}",
                errors.join("; ")
            )))
        }
    }

    /// Body of one exchange-producer thread: run the producer pipeline,
    /// split every tip batch into per-consumer partitions, and ship each
    /// non-empty partition over its own pair edge (preserving the single
    /// charge/encode sites in [`Runner::edge_message`]). A consumer that
    /// hung up just stops receiving its share — the others keep
    /// streaming; the producer aborts only once every consumer is gone,
    /// and then exits clean because the consumers' own errors win.
    fn run_exchange_producer<'env, 'scope>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        xid: usize,
        producer: usize,
        senders: Vec<SyncSender<EdgeMsg>>,
    ) {
        let ex = &self.graph.exchanges[xid];
        let ppid = ex.producers[producer];
        let trace = self.trace(self.lanes[ppid]);
        let mut txs: Vec<Option<SyncSender<EdgeMsg>>> = senders.into_iter().map(Some).collect();
        let splitter = match &ex.kind {
            ExchangeKind::Hash { keys, seed } => {
                match HashPartitioner::with_seed(keys.clone(), ex.parts, *seed) {
                    Ok(p) => Splitter::Hash(p),
                    Err(e) => {
                        lock_tolerant(&self.exchange_errors[xid])
                            .push(EngineError::Data(e).to_string());
                        return;
                    }
                }
            }
            ExchangeKind::Broadcast => Splitter::Broadcast(ex.parts),
            ExchangeKind::Gather => Splitter::Gather,
        };
        let mut chunks = 0u64;
        let mut credit_waits = 0u64;
        let mut span = open_span(
            trace,
            "exchange-producer",
            &[("exchange", xid as u64), ("parts", ex.parts as u64)],
        );
        let result = self.run_pipeline(scope, ppid, trace, None, &mut |flow| {
            let batch = match flow {
                Flow::Data(batch) => batch,
                // The verifier keeps unbounded streams out of exchanges;
                // markers from bounded ones carry no window to gate.
                Flow::Punct(_) => return Ok(()),
            };
            let parts: Vec<(usize, Batch)> = match &splitter {
                Splitter::Hash(partitioner) => partitioner
                    .partition(&batch)?
                    .into_iter()
                    .enumerate()
                    .filter(|(_, part)| part.rows() > 0)
                    .collect(),
                Splitter::Broadcast(n) => (0..*n).map(|j| (j, batch.clone())).collect(),
                Splitter::Gather => vec![(0, batch)],
            };
            for (j, part) in parts {
                let Some(tx) = txs[j].as_ref() else { continue };
                let msg = self.edge_message(ex.edge(producer, j), part);
                match tx.try_send(msg) {
                    Ok(()) => chunks += 1,
                    Err(TrySendError::Full(msg)) => {
                        // Out of credits: block until consumer `j` frees a
                        // slot (§7.1).
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
        });
        if let Some(span) = span.as_mut() {
            span.annotate("chunks", chunks);
            span.annotate("credit_waits", credit_waits);
        }
        drop(span);
        // Record genuine failures before `txs` drops; every-consumer-gone
        // hang-ups stay silent — the consumers' own errors win.
        if let Err(e) = result {
            if !txs.iter().all(Option::is_none) {
                lock_tolerant(&self.exchange_errors[xid]).push(e.to_string());
            }
        }
    }
}

fn hangup() -> EngineError {
    EngineError::Internal("fabric-edge consumer disconnected".into())
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
