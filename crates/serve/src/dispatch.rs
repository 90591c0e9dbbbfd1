//! The query execution pipeline: plan → compile → verify + deadlock-check
//! → admit → gated execute.
//!
//! This is the dispatcher/merger shape: one [`QueryService`] fronts the
//! engine, every concurrent query flows through the same four gates before
//! its pipelines touch a device:
//!
//! 1. **Compile** — the chosen physical plan becomes a
//!    [`df_core::pipeline::PipelineGraph`];
//! 2. **Verify** — `verify_or_err` (static invariants + placement routes)
//!    and `df_check::deadlock::analyze` (credit-flow deadlock freedom); a
//!    failing graph never executes;
//! 3. **Admit** — the graph's per-link byte demand is offered to the
//!    [`crate::admission::AdmissionController`]; when the best plan variant
//!    does not fit now, the first alternative that does (and passes gate 2)
//!    runs instead; otherwise oversized queries are rejected and contended
//!    ones wait in FIFO order;
//! 4. **Execute** — the plan runs under a [`QueryGate`], the
//!    [`df_core::exec::push::ExecGate`] that charges one fair-share credit
//!    per batch and yields to higher-priority queries at batch boundaries.
//!
//! Credits and admission reservations are released on **every** exit path
//! (success, engine error, client disconnect), which is what keeps the
//! credit ledger's conservation invariant intact under fault injection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use df_core::error::EngineError;
use df_core::exec::push::ExecGate;
use df_core::optimizer::RankedPlan;
use df_core::physical::PhysicalPlan;
use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::session::{QueryResult, Session};
use df_fabric::device::{DeviceId, DeviceKind};
use df_fabric::flow::PipelineSpec;
use df_fabric::topology::Topology;

use crate::admission::{AdmissionController, Ticket, Verdict};
use crate::sched::{FairScheduler, QueryId};
use crate::tenant::{TenantId, TenantSpec};
use crate::{Result, ServeError};

/// Cooperative cancellation flag; the server trips it when a client
/// disconnects mid-stream and the query's gate aborts at the next batch
/// boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-tripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token: the query aborts at its next batch boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Thread-safe wrapper around the [`FairScheduler`]: a mutex for the state
/// machine, a condvar so gates can sleep until credits free up.
#[derive(Debug)]
pub struct SchedulerHandle {
    inner: Mutex<FairScheduler>,
    cv: Condvar,
}

impl SchedulerHandle {
    /// Wrap a scheduler for sharing across session threads.
    pub fn new(sched: FairScheduler) -> Arc<SchedulerHandle> {
        Arc::new(SchedulerHandle {
            inner: Mutex::new(sched),
            cv: Condvar::new(),
        })
    }

    /// Run `f` under the lock and wake every waiting gate afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut FairScheduler) -> R) -> R {
        let mut guard = self.inner.lock().expect("scheduler lock poisoned");
        let out = f(&mut guard);
        self.cv.notify_all();
        out
    }
}

/// How long a gate waits for credits before giving up (a watchdog against
/// scheduler bugs, not a tuning knob — the conservation invariant means a
/// healthy system always recycles credits).
const GATE_WAIT: Duration = Duration::from_secs(10);

/// The per-query [`ExecGate`]: consulted by the executors before every
/// batch. Each `acquire` is a batch boundary — the previous batch's credit
/// is repaid, held credits are yielded if a higher-priority query waits,
/// and one credit is charged for the next batch (sleeping until the
/// scheduler grants one).
#[derive(Debug)]
pub struct QueryGate {
    sched: Arc<SchedulerHandle>,
    query: QueryId,
    cancel: CancelToken,
}

impl QueryGate {
    /// A gate charging `query`'s account on `sched`.
    pub fn new(sched: Arc<SchedulerHandle>, query: QueryId, cancel: CancelToken) -> QueryGate {
        QueryGate {
            sched,
            query,
            cancel,
        }
    }
}

impl ExecGate for QueryGate {
    fn acquire(&self, _pipeline: usize) -> df_core::error::Result<()> {
        let q = self.query;
        let mut guard = self.sched.inner.lock().expect("scheduler lock poisoned");
        loop {
            if self.cancel.is_cancelled() {
                return Err(EngineError::Internal(format!(
                    "query q{} cancelled (client disconnected)",
                    q.0
                )));
            }
            // Batch boundary: repay the previous batch's credit first.
            if guard.in_flight(q) {
                guard.complete_batch(q);
                self.sched.cv.notify_all();
            }
            // Preemption point: a higher-priority query is waiting — give
            // back unused credits and re-queue behind it.
            if guard.should_yield(q) && guard.held(q) > 0 {
                guard.yield_credits(q);
                self.sched.cv.notify_all();
            }
            if guard.held(q) == 0 {
                guard.request(q);
            }
            if guard.held(q) > 0 {
                guard.use_credit(q);
                return Ok(());
            }
            let (g, timeout) = self
                .sched
                .cv
                .wait_timeout(guard, GATE_WAIT)
                .expect("scheduler lock poisoned");
            guard = g;
            if timeout.timed_out() {
                return Err(EngineError::Internal(format!(
                    "query q{} starved: no credit within {GATE_WAIT:?}",
                    q.0
                )));
            }
        }
    }
}

/// Sizing knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrent credits across all queries (device slots).
    pub slots: u64,
    /// Credits granted per scheduler pick.
    pub quantum: u64,
    /// Admission-control capacity window.
    pub window: df_sim::SimDuration,
    /// Admission queue bound.
    pub max_queue: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            slots: 8,
            quantum: 2,
            window: df_sim::SimDuration::from_secs_f64(0.1),
            max_queue: 32,
        }
    }
}

/// Everything one served query returns.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The engine-side result (rows, variant, movement ledger).
    pub result: QueryResult,
    /// Scheduler credits the query consumed.
    pub credits: u64,
    /// The scheduler's query id.
    pub query: QueryId,
}

/// The multi-tenant query front-end: one shared [`Session`], one shared
/// scheduler, one admission controller.
pub struct QueryService {
    session: Session,
    sched: Arc<SchedulerHandle>,
    admission: Mutex<AdmissionController>,
    admission_cv: Condvar,
    default_device: DeviceId,
}

impl QueryService {
    /// Wrap a session in the serving layer.
    pub fn new(session: Session, config: ServiceConfig) -> QueryService {
        let topology = session.topology().clone();
        let default_device = default_compute_device(&topology);
        QueryService {
            session,
            sched: SchedulerHandle::new(FairScheduler::new(config.slots, config.quantum)),
            admission: Mutex::new(AdmissionController::with_window(
                topology,
                config.window,
                config.max_queue,
            )),
            admission_cv: Condvar::new(),
            default_device,
        }
    }

    /// The underlying session (table creation, explain, …).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The shared scheduler handle (ledger inspection, decision digests).
    pub fn scheduler(&self) -> &Arc<SchedulerHandle> {
        &self.sched
    }

    /// Register (or look up) a tenant.
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        self.sched.with(|s| s.register_tenant(spec))
    }

    /// Plan, verify, admit, and execute one SQL query for `tenant`,
    /// charging its credits to the fair-share scheduler. Blocks until the
    /// query finishes, is rejected, or `cancel` trips.
    pub fn run_sql(
        &self,
        tenant: TenantId,
        sql: &str,
        cancel: CancelToken,
    ) -> Result<QueryOutcome> {
        let logical = self.session.logical_plan(sql)?;
        let variants = self.session.variants(&logical)?;
        let Some(best) = variants.first() else {
            return Err(ServeError::Engine(EngineError::Plan(
                "no executable variant".into(),
            )));
        };
        let tenant_name = self.sched.with(|s| s.registry().spec(tenant).name.clone());

        // Gate 2: static verification + credit-flow deadlock analysis.
        let best_specs = self.checked_specs(&best.plan, &tenant_name)?;
        // Gate 3: admission against the flow-model link capacity.
        let (chosen, ticket) = self.admit(&tenant_name, best_specs, &variants, &cancel)?;
        let chosen = &variants[chosen];

        // Gate 4: gated execution, with unconditional cleanup.
        let query = self.sched.with(|s| s.begin_query(tenant));
        let gate: Arc<dyn ExecGate> = Arc::new(QueryGate::new(self.sched.clone(), query, cancel));
        let executed = self.session.execute_plan_gated(&chosen.plan, Some(gate));
        let credits = self.sched.with(|s| {
            s.finish_query(query);
            s.query_credits(query)
        });
        self.release(ticket);
        let mut result = executed.map_err(ServeError::Engine)?;
        result.cost = chosen.cost;
        Ok(QueryOutcome {
            result,
            credits,
            query,
        })
    }

    /// Compile `plan`, run static verification and credit-flow deadlock
    /// analysis on its graph, and derive the tenant's flow specs.
    fn checked_specs(&self, plan: &PhysicalPlan, tenant: &str) -> Result<Vec<PipelineSpec>> {
        let profiles = self.session.profiles();
        let topology = self.session.topology();
        let graph = PipelineGraph::compile(
            plan,
            Some(&profiles),
            Some(topology),
            DEFAULT_QUEUE_CAPACITY,
        );
        graph
            .verify_or_err(Some(topology))
            .map_err(|e| ServeError::PlanRejected(e.to_string()))?;
        let deadlock = df_check::deadlock::analyze(&graph);
        if !deadlock.is_deadlock_free() {
            let msgs: Vec<String> = deadlock.findings.iter().map(|f| f.to_string()).collect();
            return Err(ServeError::PlanRejected(format!(
                "credit-flow deadlock: {}",
                msgs.join("; ")
            )));
        }
        Ok(graph
            .to_flow_specs(self.default_device, &format!("t.{tenant}"))?
            .into_iter()
            .map(|s| s.for_tenant(tenant))
            .collect())
    }

    /// Offer the query's variants to admission control, best first: an
    /// alternative is compiled and checked only when every variant before
    /// it does not fit now, and one that fails its checks never runs.
    /// Blocks while queued. Returns the index of the admitted variant.
    fn admit(
        &self,
        tenant: &str,
        best_specs: Vec<PipelineSpec>,
        variants: &[RankedPlan],
        cancel: &CancelToken,
    ) -> Result<(usize, Ticket)> {
        let alternatives = variants.iter().enumerate().skip(1).filter_map(|(i, v)| {
            let specs = self.checked_specs(&v.plan, tenant).ok()?;
            Some((i, specs))
        });
        let mut ac = self.admission.lock().expect("admission lock poisoned");
        let (chosen, verdict) = ac
            .offer_ranked(std::iter::once((0, best_specs)).chain(alternatives))
            .map_err(ServeError::PlanRejected)?;
        match verdict {
            Verdict::Admitted(t) => {
                let variant = &variants[chosen].plan.variant;
                let note = format!("admit tenant={tenant} ticket={} variant={variant}", t.0);
                self.sched.with(|s| s.note(note));
                Ok((chosen, t))
            }
            Verdict::Rejected(why) => {
                self.sched
                    .with(|s| s.note(format!("reject tenant={tenant}: {why}")));
                Err(ServeError::Rejected(why))
            }
            Verdict::Queued(t) => {
                self.sched
                    .with(|s| s.note(format!("queue tenant={tenant} ticket={}", t.0)));
                loop {
                    if cancel.is_cancelled() {
                        ac.release(t);
                        return Err(ServeError::Disconnected);
                    }
                    if ac.is_admitted(t) {
                        return Ok((chosen, t));
                    }
                    let (g, timeout) = self
                        .admission_cv
                        .wait_timeout(ac, GATE_WAIT)
                        .expect("admission lock poisoned");
                    ac = g;
                    if timeout.timed_out() {
                        ac.release(t);
                        return Err(ServeError::Rejected(format!(
                            "admission wait exceeded {GATE_WAIT:?}"
                        )));
                    }
                }
            }
        }
    }

    /// Release an admission reservation and wake queued queries.
    fn release(&self, ticket: Ticket) {
        let mut ac = self.admission.lock().expect("admission lock poisoned");
        ac.release(ticket);
        self.admission_cv.notify_all();
    }
}

/// The device hosting unplaced stages: the first CPU in the topology (every
/// shipped topology has one).
pub fn default_compute_device(topology: &Topology) -> DeviceId {
    topology
        .devices()
        .iter()
        .find(|d| matches!(d.profile.kind, DeviceKind::Cpu { .. }))
        .map(|d| d.id)
        .unwrap_or(DeviceId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;
    use df_data::{Column, Scalar};

    fn service() -> QueryService {
        service_with(ServiceConfig::default())
    }

    fn service_with(config: ServiceConfig) -> QueryService {
        let session = Session::in_memory().unwrap();
        session
            .create_table(
                "orders",
                &[batch_of(vec![
                    ("id", Column::from_i64((0..500).collect())),
                    (
                        "amount",
                        Column::from_f64((0..500).map(|i| (i % 90) as f64).collect()),
                    ),
                ])],
            )
            .unwrap();
        QueryService::new(session, config)
    }

    #[test]
    fn served_query_matches_direct_execution_and_balances() {
        let svc = service();
        let t = svc.register_tenant(TenantSpec::new("alice", 1));
        let sql = "SELECT COUNT(*) AS n FROM orders WHERE amount > 10.0";
        let out = svc.run_sql(t, sql, CancelToken::new()).unwrap();
        let direct = svc.session().sql(sql).unwrap();
        assert_eq!(out.result.batch.row(0)[0], direct.batch.row(0)[0]);
        assert!(out.credits > 0, "gated execution must consume credits");
        svc.scheduler().with(|s| {
            assert!(s.ledger().check_balanced().is_ok());
            assert_eq!(s.ledger().granted("alice"), out.credits);
        });
    }

    #[test]
    fn cancelled_query_aborts_and_balances() {
        let svc = service();
        let t = svc.register_tenant(TenantSpec::new("bob", 1));
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = svc
            .run_sql(t, "SELECT COUNT(*) AS n FROM orders", cancel)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Engine(EngineError::Internal(_)) | ServeError::Disconnected
            ),
            "got {err}"
        );
        svc.scheduler()
            .with(|s| assert!(s.ledger().check_balanced().is_ok()));
    }

    #[test]
    fn parse_error_surfaces_before_scheduling() {
        let svc = service();
        let t = svc.register_tenant(TenantSpec::new("carol", 1));
        let err = svc
            .run_sql(t, "SELEKT nope", CancelToken::new())
            .unwrap_err();
        assert!(matches!(err, ServeError::Engine(_)));
        svc.scheduler().with(|s| {
            assert_eq!(s.ledger().granted("carol"), 0);
            assert!(s.ledger().check_balanced().is_ok());
        });
    }

    #[test]
    fn scalar_result_is_int() {
        let svc = service();
        let t = svc.register_tenant(TenantSpec::new("dave", 2));
        let out = svc
            .run_sql(t, "SELECT COUNT(*) AS n FROM orders", CancelToken::new())
            .unwrap();
        assert_eq!(out.result.batch.row(0)[0], Scalar::Int(500));
    }

    #[test]
    fn contended_best_variant_falls_back_to_an_alternative() {
        let sql = "SELECT COUNT(*) AS n FROM orders WHERE amount > 10.0";
        // What each variant needs: the share of a 100 ms window that its
        // busiest link carries.
        let probe = service();
        let session = probe.session();
        let ac = AdmissionController::new(session.topology().clone());
        let share = |v: &RankedPlan| -> f64 {
            let specs = probe.checked_specs(&v.plan, "probe").unwrap();
            let demand = ac.demand_of(&specs).unwrap();
            demand
                .iter()
                .map(|(&link, &bytes)| bytes as f64 / ac.link_capacity(link) as f64)
                .fold(0.0, f64::max)
        };
        let logical = session.logical_plan(sql).unwrap();
        let variants = session.variants(&logical).unwrap();
        let best = share(&variants[0]);
        let alternative = variants[1..].iter().map(share).reduce(f64::min).unwrap();
        assert!(alternative < best, "{alternative} vs {best}");

        // A window in between: the best variant alone exceeds a link, which
        // `offer` rejects, but an alternative fits.
        let svc = service_with(ServiceConfig {
            window: df_sim::SimDuration::from_secs_f64(0.1 * (alternative + best) / 2.0),
            ..ServiceConfig::default()
        });
        let t = svc.register_tenant(TenantSpec::new("erin", 1));
        let out = svc.run_sql(t, sql, CancelToken::new()).unwrap();
        assert_ne!(out.result.variant, variants[0].plan.variant);
        assert_eq!(
            out.result.batch.canonical_rows(),
            svc.session().sql(sql).unwrap().batch.canonical_rows()
        );
        svc.scheduler().with(|s| {
            assert!(s.ledger().check_balanced().is_ok());
            assert_eq!(s.ledger().granted("erin"), out.credits);
        });
    }
}
