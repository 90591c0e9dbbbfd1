//! Discrete-event model of credit-based streaming pipelines over the fabric.
//!
//! This is the execution model of §7.1 made concrete: a query plan becomes a
//! chain of stages placed on devices; chunks flow stage-to-stage through
//! bounded queues; a stage may only forward output when it holds a credit
//! for the downstream queue; credits return upstream as small control
//! messages. DMA transfers occupy the physical links of the route between
//! the two devices, so *concurrent pipelines contend for shared links and
//! devices* — which is exactly what the scheduling experiment (E13) needs.
//!
//! The model works on byte counts, not real data: the engine executes the
//! plan for real elsewhere and feeds the measured per-stage reduction
//! factors in as `selectivity`.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use df_sim::trace::{LaneId, LaneKind, Tracer};
use df_sim::{Bandwidth, SimDuration, SimTime, Simulation};

use crate::device::{DeviceId, OpClass};
use crate::dma::{TokenBucket, CREDIT_MSG_BYTES};
use crate::link::LinkId;
use crate::topology::{Route, Topology};

/// One stage of a streaming pipeline.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Device the stage runs on. Must support `op`.
    pub device: DeviceId,
    /// The operation class (determines service rate on the device).
    pub op: OpClass,
    /// Output bytes per input byte (reduction < 1.0, expansion > 1.0).
    pub selectivity: f64,
    /// Input queue capacity in chunks (the credit budget, §7.1).
    pub queue_capacity: usize,
}

impl StageSpec {
    /// A stage with the default 4-chunk credit budget.
    pub fn new(device: DeviceId, op: OpClass, selectivity: f64) -> StageSpec {
        StageSpec {
            device,
            op,
            selectivity,
            queue_capacity: 4,
        }
    }

    /// Override the credit budget.
    pub fn with_queue(mut self, capacity: usize) -> StageSpec {
        self.queue_capacity = capacity.max(1);
        self
    }
}

/// A full pipeline: a source of bytes pushed through a chain of stages.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Name for reports.
    pub name: String,
    /// The stage chain (first stage is co-located with the data source).
    pub stages: Vec<StageSpec>,
    /// Total bytes produced by the source.
    pub source_bytes: u64,
    /// Chunk granularity (a "batch on the wire").
    pub chunk_bytes: u64,
    /// Optional DMA rate limit applied to all of this pipeline's transfers.
    pub rate_limit: Option<Bandwidth>,
    /// When the pipeline starts.
    pub start_at: SimTime,
    /// Owning tenant, when the pipeline belongs to a multi-query run. Sets
    /// the trace lane to `tenant.<tenant>.pipe.<name>` and keys the
    /// per-tenant credit/byte accounting on [`FlowReport`].
    pub tenant: Option<String>,
}

impl PipelineSpec {
    /// A pipeline starting at time zero with 1 MiB chunks and no rate limit.
    pub fn new(name: impl Into<String>, stages: Vec<StageSpec>, source_bytes: u64) -> Self {
        PipelineSpec {
            name: name.into(),
            stages,
            source_bytes,
            chunk_bytes: 1 << 20,
            rate_limit: None,
            start_at: SimTime::ZERO,
            tenant: None,
        }
    }

    /// Tag the pipeline with its owning tenant (multi-query accounting).
    pub fn for_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Set the chunk size.
    pub fn with_chunk(mut self, bytes: u64) -> Self {
        self.chunk_bytes = bytes.max(1);
        self
    }

    /// Apply a DMA rate limit.
    pub fn with_rate_limit(mut self, limit: Bandwidth) -> Self {
        self.rate_limit = Some(limit);
        self
    }

    /// Delay the start.
    pub fn starting_at(mut self, at: SimTime) -> Self {
        self.start_at = at;
        self
    }
}

/// Per-stage outcome.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Device the stage ran on.
    pub device: DeviceId,
    /// Operation class.
    pub op: OpClass,
    /// Total service (busy) time.
    pub busy: SimDuration,
    /// Chunks processed.
    pub chunks: u64,
    /// Input bytes consumed.
    pub bytes_in: u64,
    /// Output bytes produced.
    pub bytes_out: u64,
    /// Largest input-queue occupancy observed.
    pub queue_high_watermark: usize,
    /// Credit-return messages this stage sent upstream.
    pub credit_messages: u64,
}

/// Per-pipeline outcome.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Pipeline name.
    pub name: String,
    /// Owning tenant, copied from the spec.
    pub tenant: Option<String>,
    /// Start time.
    pub started: SimTime,
    /// Completion time (all bytes drained through the last stage).
    pub finished: SimTime,
    /// Bytes delivered by the final stage.
    pub bytes_delivered: u64,
    /// Stage details.
    pub stages: Vec<StageReport>,
}

impl PipelineReport {
    /// End-to-end duration.
    pub fn duration(&self) -> SimDuration {
        self.finished.since(self.started)
    }

    /// Total control (credit) traffic in bytes.
    pub fn control_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.credit_messages).sum::<u64>() * CREDIT_MSG_BYTES
    }
}

/// Whole-simulation outcome.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// One report per pipeline, in submission order.
    pub pipelines: Vec<PipelineReport>,
    /// Data bytes carried per link.
    pub link_bytes: BTreeMap<LinkId, u64>,
    /// Cumulative serialization (busy) time per link.
    pub link_busy: BTreeMap<LinkId, SimDuration>,
    /// Time the last pipeline finished.
    pub makespan: SimTime,
}

impl FlowReport {
    /// Credit-control traffic per tenant, in bytes. Untenanted pipelines
    /// are keyed under the empty string.
    pub fn control_bytes_by_tenant(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for p in &self.pipelines {
            *out.entry(p.tenant.clone().unwrap_or_default()).or_insert(0) += p.control_bytes();
        }
        out
    }

    /// Data bytes delivered per tenant (empty string = untenanted).
    pub fn bytes_by_tenant(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for p in &self.pipelines {
            *out.entry(p.tenant.clone().unwrap_or_default()).or_insert(0) += p.bytes_delivered;
        }
        out
    }
}

// ------------------------------------------------------------------ runtime

struct StageRt {
    spec: StageSpec,
    /// Queued input chunks with their arrival times (for queue-wait traces).
    queue: VecDeque<(SimTime, u64)>,
    /// Downstream-reserved slots for in-flight transfers into this stage.
    reserved: usize,
    busy: bool,
    /// Output chunk awaiting a downstream credit (bounded to 1: this is the
    /// backpressure point).
    pending_out: VecDeque<u64>,
    busy_ns: u64,
    chunks: u64,
    bytes_in: u64,
    bytes_out: u64,
    high_watermark: usize,
    credit_messages: u64,
}

impl StageRt {
    fn new(spec: StageSpec) -> StageRt {
        StageRt {
            spec,
            queue: VecDeque::new(),
            reserved: 0,
            busy: false,
            pending_out: VecDeque::new(),
            busy_ns: 0,
            chunks: 0,
            bytes_in: 0,
            bytes_out: 0,
            high_watermark: 0,
            credit_messages: 0,
        }
    }

    fn has_room(&self) -> bool {
        self.queue.len() + self.reserved < self.spec.queue_capacity
    }
}

struct PipeRt {
    spec: PipelineSpec,
    /// Routes between consecutive stage devices.
    routes: Vec<Route>,
    stages: Vec<StageRt>,
    remaining_bytes: u64,
    /// Chunks alive anywhere in the pipeline.
    outstanding: u64,
    delivered: u64,
    limiter: Option<TokenBucket>,
    finished: Option<SimTime>,
}

/// Trace lanes for one simulation: one sim lane per device, per link, and
/// per pipeline (the pipeline lane carries control events — credit returns
/// and DMA throttling).
struct TraceCtx {
    tracer: Arc<Tracer>,
    device_lanes: Vec<LaneId>,
    link_lanes: Vec<LaneId>,
    pipe_lanes: Vec<LaneId>,
}

struct World {
    topo: Topology,
    link_busy_until: Vec<SimTime>,
    link_bytes: Vec<u64>,
    link_busy_ns: Vec<u64>,
    device_busy_until: Vec<SimTime>,
    pipes: Vec<PipeRt>,
    trace: Option<TraceCtx>,
}

/// Simulator for a set of concurrent pipelines over one topology.
pub struct FlowSim {
    topo: Topology,
    pipelines: Vec<PipelineSpec>,
    tracer: Option<Arc<Tracer>>,
}

/// Handle identifying a submitted pipeline in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineHandle(pub usize);

impl FlowSim {
    /// A simulator over `topo`.
    pub fn new(topo: Topology) -> FlowSim {
        FlowSim {
            topo,
            pipelines: Vec::new(),
            tracer: None,
        }
    }

    /// Record every device service span, link transfer, credit return and
    /// DMA throttle event into `tracer` (on sim-time lanes). The lanes are
    /// created deterministically from the topology, so two runs of the same
    /// simulation produce identical [`Tracer::sim_timeline`] strings.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Submit a pipeline. Panics if a stage's device does not support its op
    /// or consecutive devices are not connected — those are plan bugs the
    /// placement layer must not produce.
    pub fn add_pipeline(&mut self, spec: PipelineSpec) -> PipelineHandle {
        assert!(!spec.stages.is_empty(), "pipeline needs at least one stage");
        assert!(spec.chunk_bytes > 0, "chunk size must be positive");
        for stage in &spec.stages {
            let dev = self.topo.device(stage.device);
            assert!(
                dev.profile.supports(stage.op),
                "device '{}' ({}) does not support op {}",
                dev.name,
                dev.profile.kind.name(),
                stage.op
            );
            assert!(
                stage.selectivity >= 0.0 && stage.selectivity.is_finite(),
                "selectivity must be finite and non-negative"
            );
        }
        for pair in spec.stages.windows(2) {
            assert!(
                self.topo.route(pair[0].device, pair[1].device).is_some(),
                "no route between consecutive stage devices"
            );
        }
        self.pipelines.push(spec);
        PipelineHandle(self.pipelines.len() - 1)
    }

    /// Run to completion and report.
    pub fn run(self) -> FlowReport {
        let FlowSim {
            topo,
            pipelines,
            tracer,
        } = self;
        let trace = tracer.map(|tracer| {
            let device_lanes = topo
                .devices()
                .iter()
                .map(|d| tracer.lane(&d.name, LaneKind::Sim))
                .collect();
            let link_lanes = topo
                .links()
                .iter()
                .map(|l| {
                    let name = format!(
                        "link.{}-{}.{}",
                        topo.device(l.a).name,
                        topo.device(l.b).name,
                        l.tech.name()
                    );
                    tracer.lane(&name, LaneKind::Sim)
                })
                .collect();
            let pipe_lanes = pipelines
                .iter()
                .map(|p| {
                    let lane = match &p.tenant {
                        Some(t) => format!("tenant.{t}.pipe.{}", p.name),
                        None => format!("pipe.{}", p.name),
                    };
                    tracer.lane(&lane, LaneKind::Sim)
                })
                .collect();
            TraceCtx {
                tracer,
                device_lanes,
                link_lanes,
                pipe_lanes,
            }
        });
        let mut pipes = Vec::with_capacity(pipelines.len());
        for spec in pipelines {
            let routes = spec
                .stages
                .windows(2)
                .map(|pair| {
                    topo.route(pair[0].device, pair[1].device)
                        .expect("validated at add_pipeline")
                })
                .collect();
            let stages = spec.stages.iter().cloned().map(StageRt::new).collect();
            let limiter = spec
                .rate_limit
                .map(|bw| TokenBucket::new(bw, spec.chunk_bytes.max(64 * 1024)));
            pipes.push(PipeRt {
                remaining_bytes: spec.source_bytes,
                outstanding: 0,
                delivered: 0,
                routes,
                stages,
                limiter,
                finished: None,
                spec,
            });
        }

        let nlinks = topo.links().len();
        let ndevs = topo.devices().len();
        let world = Rc::new(RefCell::new(World {
            topo,
            link_busy_until: vec![SimTime::ZERO; nlinks],
            link_bytes: vec![0; nlinks],
            link_busy_ns: vec![0; nlinks],
            device_busy_until: vec![SimTime::ZERO; ndevs],
            pipes,
            trace,
        }));

        let mut sim = Simulation::new();
        let n = world.borrow().pipes.len();
        for p in 0..n {
            let start = world.borrow().pipes[p].spec.start_at;
            let wc = world.clone();
            sim.schedule_at(start, move |sim| pump_source(&wc, sim, p));
        }
        sim.run();
        let makespan = sim.now();

        let w = world.borrow();
        let mut link_bytes = BTreeMap::new();
        let mut link_busy = BTreeMap::new();
        for (i, (&bytes, &busy)) in w.link_bytes.iter().zip(&w.link_busy_ns).enumerate() {
            if bytes > 0 {
                link_bytes.insert(LinkId(i as u32), bytes);
                link_busy.insert(LinkId(i as u32), SimDuration::from_nanos(busy));
            }
        }
        let pipelines = w
            .pipes
            .iter()
            .map(|pipe| PipelineReport {
                name: pipe.spec.name.clone(),
                tenant: pipe.spec.tenant.clone(),
                started: pipe.spec.start_at,
                finished: pipe.finished.unwrap_or(makespan),
                bytes_delivered: pipe.delivered,
                stages: pipe
                    .stages
                    .iter()
                    .map(|s| StageReport {
                        device: s.spec.device,
                        op: s.spec.op,
                        busy: SimDuration::from_nanos(s.busy_ns),
                        chunks: s.chunks,
                        bytes_in: s.bytes_in,
                        bytes_out: s.bytes_out,
                        queue_high_watermark: s.high_watermark,
                        credit_messages: s.credit_messages,
                    })
                    .collect(),
            })
            .collect();
        FlowReport {
            pipelines,
            link_bytes,
            link_busy,
            makespan,
        }
    }
}

type WorldRef = Rc<RefCell<World>>;

/// Source feeds chunks into stage 0's queue while credits allow.
fn pump_source(world: &WorldRef, sim: &mut Simulation, p: usize) {
    {
        let mut w = world.borrow_mut();
        let now = sim.now();
        let pipe = &mut w.pipes[p];
        while pipe.remaining_bytes > 0 && pipe.stages[0].has_room() {
            let chunk = pipe.spec.chunk_bytes.min(pipe.remaining_bytes);
            pipe.remaining_bytes -= chunk;
            pipe.outstanding += 1;
            let st = &mut pipe.stages[0];
            st.queue.push_back((now, chunk));
            st.high_watermark = st.high_watermark.max(st.queue.len() + st.reserved);
        }
    }
    try_start(world, sim, p, 0);
}

/// Try to begin service on stage `s` of pipeline `p`.
fn try_start(world: &WorldRef, sim: &mut Simulation, p: usize, s: usize) {
    let (service_end, out_bytes, credit_delay);
    {
        let mut w = world.borrow_mut();
        let now = sim.now();
        let pipe = &mut w.pipes[p];
        {
            let st = &mut pipe.stages[s];
            if st.busy || !st.pending_out.is_empty() || st.queue.is_empty() {
                return;
            }
        }
        let (arrived, chunk) = pipe.stages[s].queue.pop_front().expect("non-empty");
        let device = pipe.stages[s].spec.device;
        let op = pipe.stages[s].spec.op;
        let selectivity = pipe.stages[s].spec.selectivity;
        let upstream_route = (s > 0).then(|| pipe.routes[s - 1].clone());
        // Credit frees as soon as the queue slot empties; the return message
        // takes one control-latency to reach the upstream sender.
        credit_delay = upstream_route.map(|route| w.topo.route_latency(&route));
        let pipe = &mut w.pipes[p];
        if s > 0 {
            pipe.stages[s].credit_messages += 1;
        }
        let service = {
            let profile = &w.topo.device(device).profile;
            profile
                .service_time(op, chunk)
                .expect("validated at add_pipeline")
        };
        let w2 = &mut *w;
        let dev_busy = &mut w2.device_busy_until[device.0 as usize];
        let start = now.max(*dev_busy);
        let end = start + service;
        *dev_busy = end;
        let pipe = &mut w2.pipes[p];
        let st = &mut pipe.stages[s];
        st.busy = true;
        st.busy_ns += service.nanos();
        st.chunks += 1;
        st.bytes_in += chunk;
        out_bytes = (chunk as f64 * selectivity).round() as u64;
        service_end = end;
        if let Some(tc) = &w2.trace {
            // Device claims happen in non-decreasing start order (each claim
            // pushes `device_busy_until` forward), so emitting the complete
            // span here keeps the device lane monotone.
            tc.tracer.span_at(
                tc.device_lanes[device.0 as usize],
                &format!("{} [{}]", op, w2.pipes[p].spec.name),
                start,
                end,
                &[
                    ("bytes", chunk),
                    ("queue_wait_ns", start.since(arrived).nanos()),
                ],
            );
        }
    }
    if let Some(delay) = credit_delay {
        let wc = world.clone();
        sim.schedule(delay, move |sim| credit_arrived(&wc, sim, p, s));
    } else {
        // Source refill is immediate (same device).
        pump_source(world, sim, p);
    }
    let wc = world.clone();
    sim.schedule_at(service_end, move |sim| {
        finish_service(&wc, sim, p, s, out_bytes)
    });
}

/// Stage `s` finished servicing one chunk producing `out` bytes.
fn finish_service(world: &WorldRef, sim: &mut Simulation, p: usize, s: usize, out: u64) {
    let is_last;
    {
        let mut w = world.borrow_mut();
        let pipe = &mut w.pipes[p];
        is_last = s + 1 == pipe.stages.len();
        let st = &mut pipe.stages[s];
        st.busy = false;
        st.bytes_out += out;
        if is_last || out == 0 {
            // Chunk leaves the pipeline (delivered or reduced to nothing).
            pipe.delivered += if is_last { out } else { 0 };
            pipe.outstanding -= 1;
        } else {
            st.pending_out.push_back(out);
        }
        maybe_finish(pipe, sim.now());
    }
    if !is_last && out > 0 {
        try_send(world, sim, p, s);
    }
    try_start(world, sim, p, s);
}

/// Move stage `s`'s pending output toward stage `s+1` if a credit and the
/// links are available. Rate-limited transfers defer their *link claims* to
/// the instant tokens become available, so a throttled pipeline never
/// reserves links ahead of time against other traffic.
fn try_send(world: &WorldRef, sim: &mut Simulation, p: usize, s: usize) {
    let mut immediate: Vec<u64> = Vec::new();
    let mut deferred: Vec<(SimTime, u64)> = Vec::new();
    {
        let mut w = world.borrow_mut();
        let now = sim.now();
        loop {
            let pipe = &mut w.pipes[p];
            if pipe.stages[s].pending_out.is_empty() || !pipe.stages[s + 1].has_room() {
                break;
            }
            let chunk = pipe.stages[s].pending_out.pop_front().expect("non-empty");
            pipe.stages[s + 1].reserved += 1;
            // DMA rate limiting (§7.3) gates the transfer start.
            let mut token_time = now;
            if !pipe.routes[s].is_local() {
                if let Some(limiter) = pipe.limiter.as_mut() {
                    token_time = limiter.earliest_available(now, chunk);
                    limiter.consume(token_time, chunk);
                }
            }
            if token_time > now {
                if let Some(tc) = &w.trace {
                    tc.tracer.instant_at_with(
                        tc.pipe_lanes[p],
                        "dma-throttled",
                        now,
                        &[
                            ("bytes", chunk),
                            ("delay_ns", token_time.since(now).nanos()),
                        ],
                    );
                }
                deferred.push((token_time, chunk));
            } else {
                immediate.push(chunk);
            }
        }
    }
    for chunk in immediate {
        start_transfer(world, sim, p, s, chunk);
    }
    for (at, chunk) in deferred {
        let wc = world.clone();
        sim.schedule_at(at, move |sim| start_transfer(&wc, sim, p, s, chunk));
    }
}

/// Claim the route's links (FIFO per link, shared across pipelines) and
/// schedule the delivery into stage `s+1`.
///
/// Links are claimed hop-by-hop, each one only when the chunk actually
/// reaches it (store-and-forward). Claiming the whole route up front would
/// reserve downstream capacity at computed future times; when many pipelines
/// share a link — e.g. every producer's shuffle pairs funneling into one
/// switch port — those phantom reservations serialize in claim order and
/// open convoy gaps that badly under-utilize the link.
fn start_transfer(world: &WorldRef, sim: &mut Simulation, p: usize, s: usize, chunk: u64) {
    if world.borrow().pipes[p].routes[s].links.is_empty() {
        let wc = world.clone();
        let now = sim.now();
        sim.schedule_at(now, move |sim| deliver(&wc, sim, p, s + 1, chunk));
    } else {
        transfer_hop(world, sim, p, s, 0, chunk);
    }
}

/// Serialize `chunk` onto link `hop` of stage `s`'s route, then continue to
/// the next hop — or deliver into stage `s+1` after the final link's latency.
fn transfer_hop(
    world: &WorldRef,
    sim: &mut Simulation,
    p: usize,
    s: usize,
    hop: usize,
    chunk: u64,
) {
    let depart;
    let last;
    {
        let mut w = world.borrow_mut();
        let link_id = w.pipes[p].routes[s].links[hop];
        let idx = link_id.0 as usize;
        let (serialize, latency) = {
            let spec = w.topo.link(link_id);
            (
                spec.tech.bandwidth().time_for_bytes(chunk),
                spec.tech.latency(),
            )
        };
        let start = sim.now().max(w.link_busy_until[idx]);
        let end = start + serialize;
        w.link_busy_until[idx] = end;
        w.link_bytes[idx] += chunk;
        w.link_busy_ns[idx] += serialize.nanos();
        if let Some(tc) = &w.trace {
            // Like devices, links are claimed FIFO via `link_busy_until`,
            // so whole spans stay monotone per link lane.
            tc.tracer.span_at(
                tc.link_lanes[idx],
                &format!("dma [{}]", w.pipes[p].spec.name),
                start,
                end,
                &[("bytes", chunk)],
            );
        }
        depart = end + latency;
        last = hop + 1 == w.pipes[p].routes[s].links.len();
    }
    let wc = world.clone();
    if last {
        sim.schedule_at(depart, move |sim| deliver(&wc, sim, p, s + 1, chunk));
    } else {
        sim.schedule_at(depart, move |sim| {
            transfer_hop(&wc, sim, p, s, hop + 1, chunk)
        });
    }
}

/// A chunk arrives in stage `s`'s input queue.
fn deliver(world: &WorldRef, sim: &mut Simulation, p: usize, s: usize, chunk: u64) {
    {
        let mut w = world.borrow_mut();
        let now = sim.now();
        let st = &mut w.pipes[p].stages[s];
        st.reserved -= 1;
        st.queue.push_back((now, chunk));
        st.high_watermark = st.high_watermark.max(st.queue.len() + st.reserved);
    }
    try_start(world, sim, p, s);
}

/// A credit-return message reached stage `s-1` (or the source).
fn credit_arrived(world: &WorldRef, sim: &mut Simulation, p: usize, s: usize) {
    debug_assert!(s > 0);
    {
        let w = world.borrow();
        if let Some(tc) = &w.trace {
            tc.tracer.instant_at_with(
                tc.pipe_lanes[p],
                "credit-return",
                sim.now(),
                &[("stage", (s - 1) as u64), ("msg_bytes", CREDIT_MSG_BYTES)],
            );
        }
    }
    try_send(world, sim, p, s - 1);
    // Draining the pending output may unblock the stage itself.
    try_start(world, sim, p, s - 1);
}

/// Mark the pipeline finished once nothing remains in flight.
fn maybe_finish(pipe: &mut PipeRt, now: SimTime) {
    if pipe.finished.is_none() && pipe.remaining_bytes == 0 && pipe.outstanding == 0 {
        pipe.finished = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DisaggregatedConfig;

    fn disagg() -> Topology {
        Topology::disaggregated(&DisaggregatedConfig::default())
    }

    fn full_path_pipeline(topo: &Topology, bytes: u64, filter_sel: f64) -> PipelineSpec {
        let ssd = topo.expect_device("storage.ssd");
        let snic = topo.expect_device("storage.nic");
        let cnic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        PipelineSpec::new(
            "q",
            vec![
                StageSpec::new(ssd, OpClass::Filter, filter_sel),
                StageSpec::new(snic, OpClass::Project, 1.0),
                StageSpec::new(cnic, OpClass::Hash, 1.0),
                StageSpec::new(cpu, OpClass::AggregateFinal, 0.01),
            ],
            bytes,
        )
    }

    #[test]
    fn single_stage_pipeline_time_matches_service_rate() {
        let topo = disagg();
        let cpu = topo.expect_device("compute0.cpu");
        let rate = topo
            .device(cpu)
            .profile
            .rate(OpClass::Filter)
            .unwrap()
            .as_bytes_per_sec();
        let bytes = 1u64 << 30;
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(PipelineSpec::new(
            "local",
            vec![StageSpec::new(cpu, OpClass::Filter, 0.5)],
            bytes,
        ));
        let report = sim.run();
        let expect = bytes as f64 / rate;
        let got = report.pipelines[0].duration().as_secs_f64();
        // Within 5% (per-chunk overheads add a little).
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, expect {expect}"
        );
        assert_eq!(report.pipelines[0].bytes_delivered, bytes / 2);
    }

    #[test]
    fn conservation_of_bytes_through_stages() {
        let topo = disagg();
        let spec = full_path_pipeline(&topo, 64 << 20, 0.25);
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(spec);
        let report = sim.run();
        let stages = &report.pipelines[0].stages;
        assert_eq!(stages[0].bytes_in, 64 << 20);
        // Filter reduces to 25%.
        let expect = (64u64 << 20) / 4;
        assert!((stages[0].bytes_out as i64 - expect as i64).unsigned_abs() < 1024);
        // Downstream stages see exactly what upstream produced.
        assert_eq!(stages[1].bytes_in, stages[0].bytes_out);
        assert_eq!(stages[2].bytes_in, stages[1].bytes_out);
        assert_eq!(stages[3].bytes_in, stages[2].bytes_out);
    }

    #[test]
    fn selective_pushdown_beats_shipping_everything() {
        // Figure 2's claim at the flow level: filtering at storage with 1%
        // selectivity finishes much faster than shipping all bytes when the
        // network is the bottleneck.
        let topo = disagg();
        let ssd = topo.expect_device("storage.ssd");
        let snic = topo.expect_device("storage.nic");
        let cnic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let bytes = 256u64 << 20;

        let pushdown = PipelineSpec::new(
            "pushdown",
            vec![
                StageSpec::new(ssd, OpClass::Filter, 0.01),
                StageSpec::new(cpu, OpClass::AggregateFinal, 0.01),
            ],
            bytes,
        );
        let ship_all = PipelineSpec::new(
            "ship-all",
            vec![
                StageSpec::new(ssd, OpClass::Scan, 1.0),
                StageSpec::new(snic, OpClass::Project, 1.0),
                StageSpec::new(cnic, OpClass::Project, 1.0),
                StageSpec::new(cpu, OpClass::Filter, 0.01),
            ],
            bytes,
        );

        let mut sim_a = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim_a.add_pipeline(pushdown);
        let a = sim_a.run();
        let mut sim_b = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim_b.add_pipeline(ship_all);
        let b = sim_b.run();

        assert!(
            a.pipelines[0].duration() < b.pipelines[0].duration(),
            "pushdown {} !< ship-all {}",
            a.pipelines[0].duration(),
            b.pipelines[0].duration()
        );
        // And the network moved ~100x fewer bytes.
        let net_a: u64 = a.link_bytes.values().sum();
        let net_b: u64 = b.link_bytes.values().sum();
        assert!(net_a * 10 < net_b, "net_a={net_a} net_b={net_b}");
    }

    #[test]
    fn queues_never_exceed_capacity() {
        let topo = disagg();
        let spec = full_path_pipeline(&topo, 32 << 20, 1.0);
        let caps: Vec<usize> = spec.stages.iter().map(|s| s.queue_capacity).collect();
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(spec);
        let report = sim.run();
        for (stage, cap) in report.pipelines[0].stages.iter().zip(caps) {
            assert!(
                stage.queue_high_watermark <= cap,
                "stage {} watermark {} > cap {}",
                stage.op,
                stage.queue_high_watermark,
                cap
            );
        }
    }

    #[test]
    fn control_traffic_is_a_small_fraction() {
        let topo = disagg();
        let spec = full_path_pipeline(&topo, 128 << 20, 1.0);
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(spec);
        let report = sim.run();
        let control = report.pipelines[0].control_bytes();
        let data: u64 = report.link_bytes.values().sum();
        assert!(
            (control as f64) < 0.01 * data as f64,
            "control {control} not << data {data}"
        );
        assert!(control > 0);
    }

    #[test]
    fn rate_limit_slows_pipeline() {
        let topo = disagg();
        let fast_spec = full_path_pipeline(&topo, 64 << 20, 1.0);
        let slow_spec = fast_spec
            .clone()
            .with_rate_limit(Bandwidth::gbytes_per_sec(1.0));
        let mut sim_a = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim_a.add_pipeline(fast_spec);
        let fast = sim_a.run();
        let mut sim_b = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        sim_b.add_pipeline(slow_spec);
        let slow = sim_b.run();
        assert!(
            slow.pipelines[0].duration().as_secs_f64()
                > 1.5 * fast.pipelines[0].duration().as_secs_f64()
        );
        // ~64 MB at 1 GB/s floor.
        assert!(slow.pipelines[0].duration().as_secs_f64() > 0.06);
    }

    #[test]
    fn concurrent_pipelines_contend_on_shared_link() {
        let make_spec = |topo: &Topology, name: &str| {
            let ssd = topo.expect_device("storage.ssd");
            let cpu = topo.expect_device("compute0.cpu");
            PipelineSpec::new(
                name,
                vec![
                    StageSpec::new(ssd, OpClass::Scan, 1.0),
                    StageSpec::new(cpu, OpClass::Count, 0.0),
                ],
                128 << 20,
            )
        };
        let topo = disagg();
        let mut solo = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        solo.add_pipeline(make_spec(&topo, "solo"));
        let solo_report = solo.run();
        let solo_time = solo_report.pipelines[0].duration().as_secs_f64();

        let mut both = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        both.add_pipeline(make_spec(&topo, "a"));
        both.add_pipeline(make_spec(&topo, "b"));
        let both_report = both.run();
        let t_a = both_report.pipelines[0].duration().as_secs_f64();
        let t_b = both_report.pipelines[1].duration().as_secs_f64();
        // Sharing the network roughly doubles each pipeline's time.
        assert!(t_a > 1.5 * solo_time, "t_a={t_a} solo={solo_time}");
        assert!(t_b > 1.5 * solo_time, "t_b={t_b} solo={solo_time}");
    }

    #[test]
    fn delayed_start_is_respected() {
        let topo = disagg();
        let cpu = topo.expect_device("compute0.cpu");
        let spec = PipelineSpec::new(
            "late",
            vec![StageSpec::new(cpu, OpClass::Count, 0.0)],
            1 << 20,
        )
        .starting_at(SimTime(5_000_000));
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(spec);
        let report = sim.run();
        assert!(report.pipelines[0].finished >= SimTime(5_000_000));
        assert_eq!(report.pipelines[0].started, SimTime(5_000_000));
    }

    #[test]
    fn tracer_records_valid_deterministic_timeline() {
        let run_once = || {
            let topo = disagg();
            let spec = full_path_pipeline(&topo, 16 << 20, 0.5);
            let mut sim = FlowSim::new(topo);
            let tracer = Arc::new(Tracer::new());
            sim.set_tracer(tracer.clone());
            sim.add_pipeline(spec);
            sim.run();
            tracer.validate().expect("structurally valid trace");
            tracer.sim_timeline()
        };
        let timeline = run_once();
        assert!(timeline.contains("storage.ssd"));
        assert!(timeline.contains("link."));
        assert!(timeline.contains("credit-return"));
        assert_eq!(timeline, run_once(), "sim trace must be deterministic");
    }

    #[test]
    #[should_panic(expected = "does not support op")]
    fn invalid_placement_rejected() {
        let topo = disagg();
        let nic = topo.expect_device("compute0.nic");
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(PipelineSpec::new(
            "bad",
            vec![StageSpec::new(nic, OpClass::Sort, 1.0)],
            1,
        ));
    }

    #[test]
    fn zero_selectivity_terminates_mid_pipeline() {
        // A COUNT on the NIC: nothing reaches the CPU (E6's shape).
        let topo = disagg();
        let ssd = topo.expect_device("storage.ssd");
        let snic = topo.expect_device("storage.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let spec = PipelineSpec::new(
            "count-on-nic",
            vec![
                StageSpec::new(ssd, OpClass::Scan, 1.0),
                StageSpec::new(snic, OpClass::Count, 0.0),
                StageSpec::new(cpu, OpClass::Count, 0.0),
            ],
            32 << 20,
        );
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(spec);
        let report = sim.run();
        let stages = &report.pipelines[0].stages;
        assert_eq!(stages[1].bytes_in, 32 << 20);
        assert_eq!(stages[2].bytes_in, 0, "CPU saw bytes it should not have");
        assert_eq!(report.pipelines[0].bytes_delivered, 0);
    }
}
