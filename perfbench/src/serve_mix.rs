//! `serve_mix`: a closed loop of two clients with no think time against an
//! in-process `df_serve::server::serve` over loopback TCP.
//!
//! The service is one `QueryService` with the default `ServiceConfig`,
//! serving a seeded `lineitem` table loaded through `Session::create_table`
//! into the smart-storage segment store. Tenants `t0` (weight 1) and `t1`
//! (weight 2) each send a seeded sequence that rotates through three query
//! classes: `range` (zone-map pruned, a few thousand rows streamed as
//! 1024-row frames), `like` (full scan, pattern kernel in storage) and
//! `group` (numeric scan plus hash aggregation). It is the only workload
//! that goes through SQL, the optimizer, df-check, admission, the gate,
//! storage and the protocol.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use df_bench::workload;
use df_core::exec::push::ExecGate;
use df_core::pipeline::{EdgeKind, PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::session::Session;
use df_data::{Batch, Scalar};
use df_serve::admission::{AdmissionController, Verdict};
use df_serve::dispatch::{
    default_compute_device, CancelToken, QueryGate, QueryService, SchedulerHandle, ServiceConfig,
};
use df_serve::protocol::{decode_result, encode_result};
use df_serve::sched::FairScheduler;
use df_serve::server::{serve, Client, ServerHandle, STREAM_CHUNK_ROWS};
use df_serve::tenant::{TenantId, TenantSpec};
use df_sim::SimRng;
use df_storage::smart::ScanStats;

use crate::layers::Layers;
use crate::probe::{timed, Setups, SETUP_DURING};
use crate::spans;
use crate::stats::{median, ms, peak_rss_mb, percentile};
use crate::{Outcome, RunConfig, Size};

/// Table rows.
fn rows(size: Size) -> usize {
    match size {
        Size::Full => 200_000,
        Size::Tiny => 6_000,
    }
}

/// Distinct `range` and `group` queries the sequences draw from.
const RANGE_POOL: usize = 24;
const GROUP_POOL: usize = 12;
/// Traced queries whose exact counts are reported (one full rotation of
/// the classes, three times), so the counts do not depend on run length.
const EXACT_PREFIX: usize = 9;
/// The tenants the two clients register as.
const TENANTS: [(&str, u32); 2] = [("t0", 1), ("t1", 2)];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Range,
    Like,
    Group,
}

impl Class {
    const ALL: [Class; 3] = [Class::Range, Class::Like, Class::Group];

    fn name(self) -> &'static str {
        match self {
            Class::Range => "range",
            Class::Like => "like",
            Class::Group => "group",
        }
    }
}

/// An expected answer, computed directly from the generated table.
#[derive(Debug, Clone)]
enum Expected {
    /// `(l_orderkey, l_price bits)` rows, sorted.
    Rows(Vec<(i64, u64)>),
    /// A single `COUNT(*)`.
    Count(i64),
    /// `(l_region, SUM(l_price))`, sorted by region.
    Sums(Vec<(String, f64)>),
}

struct Query {
    class: Class,
    sql: String,
    expected: Expected,
}

/// The query pool and its oracle answers.
fn pool(table: &Batch, seed: u64) -> Vec<Query> {
    let col = |name: &str| table.column_by_name(name).expect("lineitem column");
    let orderkey = col("l_orderkey").i64_values().expect("int column");
    let price = col("l_price").f64_values().expect("float column");
    let shipdate = col("l_shipdate").i64_values().expect("int column");
    let quantity = col("l_quantity").i64_values().expect("int column");
    let region = col("l_region");
    let comment = col("l_comment");
    let last_day = shipdate.iter().copied().max().unwrap_or(0);

    let mut rng = SimRng::new(seed ^ 0x5E4E_0001);
    let mut queries = Vec::new();
    for _ in 0..RANGE_POOL {
        let width = rng.range_inclusive(20, 40) as i64;
        let from = rng.next_below((last_day - width).max(1) as u64) as i64;
        let mut rows: Vec<(i64, u64)> = (0..table.rows())
            .filter(|&i| (from..=from + width).contains(&shipdate[i]))
            .map(|i| (orderkey[i], price[i].to_bits()))
            .collect();
        rows.sort_unstable();
        queries.push(Query {
            class: Class::Range,
            sql: format!(
                "SELECT l_orderkey, l_price FROM lineitem WHERE l_shipdate BETWEEN {from} AND {}",
                from + width
            ),
            expected: Expected::Rows(rows),
        });
    }
    let urgent = (0..table.rows())
        .filter(|&i| comment.str_at(i).contains("urgent"))
        .count();
    queries.push(Query {
        class: Class::Like,
        sql: "SELECT COUNT(*) AS n FROM lineitem WHERE l_comment LIKE '%urgent%'".into(),
        expected: Expected::Count(urgent as i64),
    });
    for _ in 0..GROUP_POOL {
        let below = rng.range_inclusive(2, 50) as i64;
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for i in (0..table.rows()).filter(|&i| quantity[i] < below) {
            *sums.entry(region.str_at(i).to_string()).or_default() += price[i];
        }
        queries.push(Query {
            class: Class::Group,
            sql: format!(
                "SELECT l_region, SUM(l_price) AS total FROM lineitem \
                 WHERE l_quantity < {below} GROUP BY l_region"
            ),
            expected: Expected::Sums(sums.into_iter().collect()),
        });
    }
    queries
}

/// Make every expected answer wrong (the checker's self-test).
fn corrupt(queries: &mut [Query]) {
    for q in queries {
        match &mut q.expected {
            Expected::Rows(rows) => rows.push((-1, 0)),
            Expected::Count(n) => *n += 1,
            Expected::Sums(sums) => sums.iter_mut().for_each(|(_, s)| *s += 1.0),
        }
    }
}

/// Does `batch` (None = no rows arrived) hold the expected answer?
fn check(expected: &Expected, batch: Option<&Batch>) -> bool {
    match expected {
        Expected::Rows(want) => {
            let Some(batch) = batch else {
                return want.is_empty();
            };
            let (Ok(keys), Ok(prices)) = (
                batch
                    .column_by_name("l_orderkey")
                    .and_then(|c| c.i64_values()),
                batch.column_by_name("l_price").and_then(|c| c.f64_values()),
            ) else {
                return false;
            };
            let mut got: Vec<(i64, u64)> = keys
                .iter()
                .zip(prices)
                .map(|(&k, p)| (k, p.to_bits()))
                .collect();
            got.sort_unstable();
            &got == want
        }
        Expected::Count(n) => {
            batch.is_some_and(|b| b.rows() == 1 && b.row(0)[0] == Scalar::Int(*n))
        }
        Expected::Sums(want) => {
            let Some(batch) = batch else {
                return want.is_empty();
            };
            let mut got: Vec<(String, f64)> = (0..batch.rows())
                .filter_map(|i| match batch.row(i).as_slice() {
                    [Scalar::Str(r), Scalar::Float(s)] => Some((r.clone(), *s)),
                    _ => None,
                })
                .collect();
            got.sort_by(|a, b| a.0.cmp(&b.0));
            got.len() == want.len()
                && got.iter().zip(want).all(|((gr, gs), (wr, ws))| {
                    gr == wr && (gs - ws).abs() <= 1e-9 * ws.abs().max(1.0)
                })
        }
    }
}

/// A client's seeded query sequence: classes rotate, the query within a
/// class is drawn from the pool.
struct Sequence {
    rng: SimRng,
    next: usize,
    by_class: [Vec<usize>; 3],
}

impl Sequence {
    fn new(queries: &[Query], seed: u64, client: usize) -> Sequence {
        let by_class = Class::ALL.map(|c| {
            (0..queries.len())
                .filter(|&i| queries[i].class == c)
                .collect()
        });
        Sequence {
            rng: SimRng::new(seed ^ (0xC11E_0000 + client as u64)),
            next: 0,
            by_class,
        }
    }

    fn next_query(&mut self) -> usize {
        let class = &self.by_class[self.next % 3];
        self.next += 1;
        class[self.rng.next_below(class.len() as u64) as usize]
    }
}

/// A running service with its two connected clients.
struct Stack {
    service: Arc<QueryService>,
    server: ServerHandle,
    clients: Vec<Client>,
}

impl Stack {
    fn shutdown(self) {
        for client in self.clients {
            let _ = client.bye();
        }
        self.server.shutdown();
    }
}

/// Generate the table, load it, bind the server and connect both clients.
fn set_up(size: Size, seed: u64) -> (Batch, Stack) {
    let table = workload::lineitem(rows(size), seed);
    let session = Session::in_memory().expect("in-memory session");
    session
        .create_table("lineitem", std::slice::from_ref(&table))
        .expect("load lineitem");
    let service = Arc::new(QueryService::new(session, ServiceConfig::default()));
    let server = serve(service.clone(), 0).expect("bind loopback server");
    let clients = TENANTS
        .iter()
        .map(|(name, weight)| {
            Client::connect(server.addr(), &TenantSpec::new(*name, *weight)).expect("connect")
        })
        .collect();
    (
        table,
        Stack {
            service,
            server,
            clients,
        },
    )
}

fn run_client_query(client: &mut Client, q: &Query) -> (Duration, bool) {
    let t = Instant::now();
    let reply = client.query(&q.sql);
    let latency = t.elapsed();
    let ok = reply.is_ok_and(|r| check(&q.expected, r.batch().as_ref()));
    (latency, ok)
}

/// Run the workload.
pub fn run(config: &RunConfig) -> Outcome {
    if config.trace {
        run_traced(config)
    } else {
        run_end_to_end(config)
    }
}

fn run_end_to_end(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, (table, mut stack)) = Setups::start(|| set_up(config.size, config.seed));
    let mut queries = pool(&table, config.seed);
    if config.corrupt_oracle {
        corrupt(&mut queries);
    }
    let queries = &queries;

    // Warm-up: one query of each class per client.
    for (c, client) in stack.clients.iter_mut().enumerate() {
        let mut seq = Sequence::new(queries, config.seed ^ 0xAAAA, c);
        for _ in 0..3 {
            let (_, ok) = run_client_query(client, &queries[seq.next_query()]);
            out.count(ok);
        }
    }

    // The closed loop runs in equal slices with one set-up between each
    // two; the slices' times add up to the measured phase.
    let mut seqs: Vec<Sequence> = (0..stack.clients.len())
        .map(|c| Sequence::new(queries, config.seed, c))
        .collect();
    let slice = Duration::from_secs_f64(config.seconds / (SETUP_DURING + 1) as f64);
    let mut all: Vec<(Class, f64, bool)> = Vec::new();
    let mut loop_s = 0.0;
    for i in 0..=SETUP_DURING {
        if i > 0 {
            setups.again();
        }
        let start = Instant::now();
        let deadline = start + slice;
        std::thread::scope(|s| {
            let handles: Vec<_> = stack
                .clients
                .iter_mut()
                .zip(seqs.iter_mut())
                .map(|(client, seq)| {
                    s.spawn(move || {
                        let mut samples = Vec::new();
                        while Instant::now() < deadline {
                            let q = &queries[seq.next_query()];
                            let (latency, ok) = run_client_query(client, q);
                            samples.push((q.class, ms(latency), ok));
                        }
                        samples
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().expect("client thread"));
            }
        });
        loop_s += start.elapsed().as_secs_f64();
    }
    stack.shutdown();
    out.setup(&setups.finish());

    for (_, _, ok) in &all {
        out.count(*ok);
    }
    let answered: Vec<f64> = all.iter().filter(|s| s.2).map(|s| s.1).collect();
    let class_ms = |c: Class| -> Vec<f64> {
        all.iter()
            .filter(|s| s.2 && s.0 == c)
            .map(|s| s.1)
            .collect()
    };
    out.metrics.insert("qps", answered.len() as f64 / loop_s);
    out.metrics.insert("latency_ms", median(&answered));
    out.metrics
        .insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out.lines.push(format!(
        "closed loop, {} clients, no think time; lineitem {} rows ({} bytes in memory); timed {:.3} s",
        TENANTS.len(),
        table.rows(),
        table.byte_size(),
        loop_s
    ));
    out.lines.push(format!(
        "all classes: n={} p50 {:.3} ms p95 {:.3} ms",
        answered.len(),
        median(&answered),
        percentile(&answered, 95.0).unwrap_or(0.0)
    ));
    for c in Class::ALL {
        let v = class_ms(c);
        out.lines.push(format!(
            "{}: n={} p50 {:.3} ms p95 {:.3} ms",
            c.name(),
            v.len(),
            median(&v),
            percentile(&v, 95.0).unwrap_or(0.0)
        ));
    }
    out
}

/// An `ExecGate` that times every `acquire` of the gate it wraps.
struct TimingGate {
    inner: QueryGate,
    ns: AtomicU64,
    acquires: AtomicU64,
}

impl ExecGate for TimingGate {
    fn acquire(&self, pipeline: usize) -> df_core::error::Result<()> {
        let t = Instant::now();
        let r = self.inner.acquire(pipeline);
        // Statistics only; nothing else is published through them.
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.acquires.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// One query replayed in-process, step by step, as `QueryService::run_sql`
/// and the server's result streaming perform it.
struct Replayed {
    batch: Option<Batch>,
    wall: Duration,
    /// Wall time up to the end of execution (what `run_sql` covers).
    exec_wall: Duration,
    execute: Duration,
    steps: Vec<(&'static str, Duration)>,
    spans: spans::SpanTotals,
    gate: Duration,
    gate_acquires: u64,
    model_states: u64,
    fabric_edges: u64,
    ledger_bytes: u64,
    scan: ScanStats,
    frames: u64,
    reply_bytes: u64,
}

/// The serving stack's steps, each behind a benchmark-side timer.
struct Replayer {
    session: Session,
    sched: Arc<SchedulerHandle>,
    admission: AdmissionController,
    tenant: TenantId,
    tenant_name: String,
}

impl Replayer {
    fn new(table: &Batch) -> Replayer {
        let session = Session::in_memory().expect("in-memory session");
        session
            .create_table("lineitem", std::slice::from_ref(table))
            .expect("load lineitem");
        let config = ServiceConfig::default();
        let sched = SchedulerHandle::new(FairScheduler::new(config.slots, config.quantum));
        let (name, weight) = TENANTS[0];
        let tenant = sched.with(|s| s.register_tenant(TenantSpec::new(name, weight)));
        let admission = AdmissionController::with_window(
            session.topology().clone(),
            config.window,
            config.max_queue,
        );
        Replayer {
            session,
            sched,
            admission,
            tenant,
            tenant_name: name.to_string(),
        }
    }

    fn replay(&mut self, sql: &str) -> Result<Replayed, String> {
        let tracer = self.session.enable_tracing();
        let session = &self.session;
        let mut steps = Vec::new();
        let start = Instant::now();

        let (logical, d) = timed(|| session.logical_plan(sql));
        steps.push(("sql.parse_us", d));
        let logical = logical.map_err(|e| e.to_string())?;
        let (variants, d) = timed(|| session.variants(&logical));
        steps.push(("optimizer.variants_us", d));
        let best = variants
            .map_err(|e| e.to_string())?
            .into_iter()
            .next()
            .ok_or("no executable variant")?;

        let (graph, d) = timed(|| {
            let profiles = session.profiles();
            PipelineGraph::compile(
                &best.plan,
                Some(&profiles),
                Some(session.topology()),
                DEFAULT_QUEUE_CAPACITY,
            )
        });
        steps.push(("pipeline.compile_us", d));
        let (verified, d) = timed(|| graph.verify_or_err(Some(session.topology())));
        steps.push(("pipeline.verify_us", d));
        verified.map_err(|e| e.to_string())?;
        let (deadlock, d) = timed(|| df_check::deadlock::analyze(&graph));
        steps.push(("check.deadlock_us", d));
        if !deadlock.is_deadlock_free() {
            return Err("credit-flow deadlock".into());
        }
        let (specs, d) = timed(|| {
            let device = default_compute_device(session.topology());
            graph
                .to_flow_specs(device, &format!("t.{}", self.tenant_name))
                .map(|specs| {
                    specs
                        .into_iter()
                        .map(|s| s.for_tenant(self.tenant_name.clone()))
                        .collect::<Vec<_>>()
                })
        });
        steps.push(("pipeline.flow_specs_us", d));
        let specs = specs.map_err(|e| e.to_string())?;

        let (verdict, admit) = timed(|| {
            self.admission
                .demand_of(&specs)
                .map(|demand| self.admission.offer(demand))
        });
        let ticket = match verdict? {
            Verdict::Admitted(t) => t,
            other => return Err(format!("not admitted: {other:?}")),
        };

        let query = self.sched.with(|s| s.begin_query(self.tenant));
        let gate = Arc::new(TimingGate {
            inner: QueryGate::new(self.sched.clone(), query, CancelToken::new()),
            ns: AtomicU64::new(0),
            acquires: AtomicU64::new(0),
        });
        let dyn_gate: Arc<dyn ExecGate> = gate.clone();
        let (executed, execute) = timed(|| session.execute_plan_gated(&best.plan, Some(dyn_gate)));
        self.sched.with(|s| s.finish_query(query));
        let ((), release) = timed(|| {
            self.admission.release(ticket);
        });
        steps.push(("serve.admission_us", admit + release));
        let result = executed.map_err(|e| e.to_string())?;
        let exec_wall = start.elapsed();

        // What the server streams: 1024-row Batch frames, then Done.
        let (frames, d) = timed(|| {
            (0..result.batch.rows())
                .step_by(STREAM_CHUNK_ROWS)
                .map(|at| {
                    let n = STREAM_CHUNK_ROWS.min(result.batch.rows() - at);
                    encode_result(&result.batch.slice(at, n))
                })
                .collect::<Vec<_>>()
        });
        steps.push(("serve.encode_result_ms", d));
        let (decoded, d) = timed(|| frames.iter().map(|f| decode_result(f)).collect::<Vec<_>>());
        steps.push(("serve.decode_result_ms", d));
        let decoded = decoded
            .into_iter()
            .collect::<Result<Vec<Batch>, _>>()
            .map_err(|e| e.to_string())?;
        let (batch, d) = timed(|| {
            if decoded.is_empty() {
                Ok(None)
            } else {
                Batch::concat(&decoded).map(Some)
            }
        });
        steps.push(("data.concat_ms", d));
        let batch = batch.map_err(|e| e.to_string())?;
        let wall = start.elapsed();

        // Frame = 4-byte length + kind byte + payload; Done carries two u64s.
        let reply_bytes = frames.iter().map(|f| 5 + f.len() as u64).sum::<u64>() + 5 + 16;
        let mut scan = ScanStats::default();
        for s in &result.scan_stats {
            scan.pages_total += s.pages_total;
            scan.pages_pruned += s.pages_pruned;
            scan.bytes_scanned += s.bytes_scanned;
            scan.bytes_returned += s.bytes_returned;
        }
        Ok(Replayed {
            batch,
            wall,
            exec_wall,
            execute,
            steps,
            spans: spans::summarize(&tracer.chrome_trace_json()),
            gate: Duration::from_nanos(gate.ns.load(Ordering::Relaxed)),
            gate_acquires: gate.acquires.load(Ordering::Relaxed),
            model_states: deadlock.model_states.unwrap_or(0) as u64,
            fabric_edges: graph
                .edges
                .iter()
                .filter(|e| matches!(e.kind, EdgeKind::Fabric { .. }))
                .count() as u64,
            ledger_bytes: result.ledger.cross_device_bytes(),
            scan,
            frames: frames.len() as u64 + 1,
            reply_bytes,
        })
    }
}

/// Exact per-query counts, keyed by metric name.
type Counts = Vec<(&'static str, f64)>;

fn exact_counts(r: &Replayed) -> Counts {
    vec![
        ("serve.frames_per_query", r.frames as f64),
        ("serve.reply_bytes_per_query", r.reply_bytes as f64),
        ("serve.gate_acquires", r.gate_acquires as f64),
        ("check.model_states", r.model_states as f64),
        ("storage.bytes_scanned", r.scan.bytes_scanned as f64),
        ("storage.bytes_returned", r.scan.bytes_returned as f64),
        ("exec.fabric_edges", r.fabric_edges as f64),
        ("exec.ledger_bytes", r.ledger_bytes as f64),
    ]
}

/// The traced run: each query of client 0's sequence goes over TCP, then
/// through in-process `run_sql`, then through the step-by-step replay.
fn run_traced(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (table, mut stack) = set_up(config.size, config.seed);
    let mut queries = pool(&table, config.seed);
    if config.corrupt_oracle {
        corrupt(&mut queries);
    }
    let mut replayer = Replayer::new(&table);
    let (name, weight) = TENANTS[0];
    let tenant = stack.service.register_tenant(TenantSpec::new(name, weight));
    let client = &mut stack.clients[0];

    let mut layers = Layers::default();
    let mut tcp: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut in_process: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut replay_exec_ms = Vec::new();
    let mut prefix: Vec<Counts> = Vec::new();
    // Exact counts of each distinct query, which must repeat.
    let mut seen: BTreeMap<usize, Counts> = BTreeMap::new();
    let mut pruned = (0u64, 0u64);

    let mut seq = Sequence::new(&queries, config.seed, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut done = 0usize;
    while done < EXACT_PREFIX || Instant::now() < deadline {
        let qi = seq.next_query();
        let q = &queries[qi];
        let warm = done < Class::ALL.len();
        done += 1;

        let (latency, ok) = run_client_query(client, q);
        out.count(ok);
        let (ran, d) = timed(|| stack.service.run_sql(tenant, &q.sql, CancelToken::new()));
        out.count(ran.is_ok_and(|o| check(&q.expected, Some(&o.result.batch))));
        if !warm {
            tcp.entry(q.class).or_default().push(ms(latency));
            in_process.entry(q.class).or_default().push(ms(d));
        }

        let replayed = match replayer.replay(&q.sql) {
            Ok(r) => r,
            Err(e) => {
                out.count(false);
                out.lines.push(format!("replay failed: {e}"));
                continue;
            }
        };
        out.count(check(&q.expected, replayed.batch.as_ref()));
        let counts = exact_counts(&replayed);
        match seen.get(&qi) {
            Some(first) => {
                for ((what, a), (_, b)) in first.iter().zip(&counts) {
                    out.guard(what, *a as u64, *b as u64);
                }
            }
            None => {
                seen.insert(qi, counts.clone());
            }
        }
        if prefix.len() < EXACT_PREFIX {
            prefix.push(counts);
            pruned.0 += replayed.scan.pages_pruned;
            pruned.1 += replayed.scan.pages_total;
        }
        if !warm {
            replay_exec_ms.push(ms(replayed.exec_wall));
            layers.add(
                replayed.wall,
                replayed.execute,
                &replayed.steps,
                &replayed.spans,
                replayed.gate,
            );
        }
    }
    stack.shutdown();

    layers.emit(&mut out.metrics, &mut out.lines);
    for (i, (name, _)) in prefix.first().into_iter().flatten().enumerate() {
        let total: f64 = prefix.iter().map(|c| c[i].1).sum();
        out.metrics.insert(name, total / prefix.len() as f64);
    }
    out.metrics.insert(
        "storage.pages_pruned_ratio",
        pruned.0 as f64 / pruned.1.max(1) as f64,
    );
    for (class, metric) in [
        (Class::Range, "serve.transport_range_ms"),
        (Class::Like, "serve.transport_like_ms"),
        (Class::Group, "serve.transport_group_ms"),
    ] {
        let over_tcp = tcp.get(&class).map(|v| median(v)).unwrap_or(0.0);
        let inside = in_process.get(&class).map(|v| median(v)).unwrap_or(0.0);
        out.metrics.insert(metric, over_tcp - inside);
        out.lines.push(format!(
            "{}: client over TCP p50 {over_tcp:.3} ms (n={}), in-process run_sql p50 {inside:.3} ms (n={})",
            class.name(),
            tcp.get(&class).map_or(0, Vec::len),
            in_process.get(&class).map_or(0, Vec::len),
        ));
    }
    let run_sql_ms: Vec<f64> = in_process.values().flatten().copied().collect();
    out.overhead(&replay_exec_ms, &run_sql_ms, "run_sql");
    out
}
