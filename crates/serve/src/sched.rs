//! The cross-query fair-share credit scheduler.
//!
//! The unit of arbitration is the **credit**: permission to push one batch
//! through a pipeline (§7.1's flow-control token, lifted from a single
//! fabric edge to the whole engine). In-flight queries compete for a fixed
//! pool of `slots` credits — the device time the host can actually serve
//! concurrently — and the scheduler hands them out by **stride
//! scheduling**: each tenant carries a *pass* value advanced by
//! `STRIDE_SCALE / weight` per credit, and the next credit always goes to
//! the eligible tenant with the smallest pass. Under saturation the grant
//! counts converge to the weight vector (within one quantum per tenant) and
//! no tenant starves: a waiting tenant's pass stays put while everyone
//! else's grows, so it eventually becomes the minimum.
//!
//! Priorities sit above fairness: credits are only offered to the highest
//! priority class with waiting queries, and a running lower-priority query
//! observes [`FairScheduler::should_yield`] at its next batch boundary and
//! returns its unused credits ([`FairScheduler::yield_credits`]) — that is
//! the preemption point; batches are never interrupted mid-flight.
//!
//! Every grant and return moves through a [`CreditLedger`], whose
//! conservation invariant (`granted == returned` once the system drains)
//! the fault-injection suite checks after disconnects, verify failures and
//! admission rejections. Every decision is appended to a log so harness
//! runs can be compared byte-for-byte.

use std::collections::BTreeMap;

use crate::tenant::{TenantId, TenantRegistry, TenantSpec};

/// Pass increment for a weight-1 tenant; a weight-w tenant advances by
/// `STRIDE_SCALE / w` per credit.
pub const STRIDE_SCALE: u64 = 1 << 20;

/// Handle to one in-flight query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryId(pub u64);

#[derive(Debug)]
struct QueryState {
    tenant: TenantId,
    /// Credits granted but not yet attached to a batch.
    held: u64,
    /// Whether a credit is currently attached to an in-flight batch.
    in_use: bool,
    granted_total: u64,
    finished: bool,
}

/// The multi-query scheduler. Single-threaded state machine; the server
/// wraps it in a mutex + condvar, the harness drives it on the sim clock.
#[derive(Debug)]
pub struct FairScheduler {
    registry: TenantRegistry,
    /// Per-tenant stride pass, parallel to the registry.
    passes: Vec<u64>,
    queries: BTreeMap<u64, QueryState>,
    next_query: u64,
    /// Queries waiting for a grant, in arrival order.
    waiting: Vec<u64>,
    /// Credits currently out (held + in use), bounded by `slots`.
    outstanding: u64,
    slots: u64,
    quantum: u64,
    ledger: CreditLedger,
    decisions: Vec<String>,
}

impl FairScheduler {
    /// A scheduler arbitrating `slots` concurrent credits, granting up to
    /// `quantum` credits per pick (a window a preempted query can yield).
    pub fn new(slots: u64, quantum: u64) -> FairScheduler {
        FairScheduler {
            registry: TenantRegistry::new(),
            passes: Vec::new(),
            queries: BTreeMap::new(),
            next_query: 0,
            waiting: Vec::new(),
            outstanding: 0,
            slots: slots.max(1),
            quantum: quantum.max(1),
            ledger: CreditLedger::new(),
            decisions: Vec::new(),
        }
    }

    /// Register (or look up) a tenant. New tenants start at the current
    /// minimum pass so they neither starve nor monopolize on arrival.
    pub fn register_tenant(&mut self, spec: TenantSpec) -> TenantId {
        let before = self.registry.len();
        let id = self.registry.register(spec);
        if self.registry.len() > before {
            let start = self.passes.iter().copied().min().unwrap_or(0);
            self.passes.push(start);
            let s = self.registry.spec(id);
            self.decisions.push(format!(
                "register tenant={} weight={} priority={}",
                s.name, s.weight, s.priority
            ));
        }
        id
    }

    /// The tenant registry.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Start a query for `tenant`. Logs preemption notices against every
    /// active lower-priority query holding credits — those queries will
    /// observe [`FairScheduler::should_yield`] at their next batch
    /// boundary.
    pub fn begin_query(&mut self, tenant: TenantId) -> QueryId {
        let id = self.next_query;
        self.next_query += 1;
        let priority = self.registry.spec(tenant).priority;
        let victims: Vec<u64> = self
            .queries
            .iter()
            .filter(|(_, q)| {
                !q.finished
                    && (q.held > 0 || q.in_use)
                    && self.registry.spec(q.tenant).priority < priority
            })
            .map(|(&qid, _)| qid)
            .collect();
        self.queries.insert(
            id,
            QueryState {
                tenant,
                held: 0,
                in_use: false,
                granted_total: 0,
                finished: false,
            },
        );
        self.decisions.push(format!(
            "start q{id} tenant={}",
            self.registry.spec(tenant).name
        ));
        for v in victims {
            self.decisions.push(format!("preempt q{v} by q{id}"));
        }
        QueryId(id)
    }

    /// Ask for credits at a batch boundary: the query joins the wait queue
    /// (unless it already holds credits) and a dispense round runs. Check
    /// [`FairScheduler::held`] afterwards; 0 means the caller must wait
    /// for a future round (server: condvar; harness: a later sim event).
    pub fn request(&mut self, q: QueryId) {
        let Some(state) = self.queries.get(&q.0) else {
            return;
        };
        if !state.finished && state.held == 0 && !self.waiting.contains(&q.0) {
            self.waiting.push(q.0);
        }
        self.dispense();
    }

    /// Credits the query holds (granted, not yet attached to a batch).
    pub fn held(&self, q: QueryId) -> u64 {
        self.queries.get(&q.0).map_or(0, |s| s.held)
    }

    /// True while a batch (with its credit) is in flight for the query.
    pub fn in_flight(&self, q: QueryId) -> bool {
        self.queries.get(&q.0).is_some_and(|s| s.in_use)
    }

    /// Attach one held credit to a batch about to execute.
    ///
    /// # Panics
    /// Panics when the query holds no credit or already has a batch in
    /// flight — both are caller bugs.
    pub fn use_credit(&mut self, q: QueryId) {
        let state = self.queries.get_mut(&q.0).expect("unknown query");
        assert!(state.held > 0, "use_credit without a held credit");
        assert!(!state.in_use, "one batch in flight per pipeline");
        state.held -= 1;
        state.in_use = true;
    }

    /// The batch finished: its credit returns to the pool (and the
    /// ledger), then a dispense round runs.
    pub fn complete_batch(&mut self, q: QueryId) {
        let state = self.queries.get_mut(&q.0).expect("unknown query");
        assert!(state.in_use, "complete_batch without a batch in flight");
        state.in_use = false;
        let tenant = self.registry.spec(state.tenant).name.clone();
        self.ledger.repay(&tenant, 1);
        self.outstanding -= 1;
        self.dispense();
    }

    /// True when a strictly higher-priority query is waiting for credits —
    /// the preemption signal a lower-priority pipeline checks at each batch
    /// boundary.
    pub fn should_yield(&self, q: QueryId) -> bool {
        let Some(state) = self.queries.get(&q.0) else {
            return false;
        };
        let mine = self.registry.spec(state.tenant).priority;
        self.waiting.iter().any(|other| {
            self.queries
                .get(other)
                .is_some_and(|o| !o.finished && self.registry.spec(o.tenant).priority > mine)
        })
    }

    /// Give back all held (unused) credits — the preemption yield at a
    /// batch boundary. Returns how many were yielded.
    pub fn yield_credits(&mut self, q: QueryId) -> u64 {
        let state = self.queries.get_mut(&q.0).expect("unknown query");
        let n = state.held;
        if n == 0 {
            return 0;
        }
        state.held = 0;
        let tenant = self.registry.spec(state.tenant).name.clone();
        self.ledger.repay(&tenant, n);
        self.outstanding -= n;
        self.decisions.push(format!("yield q{} n={n}", q.0));
        self.dispense();
        n
    }

    /// Query is done (or aborted): return any in-flight and held credits,
    /// leave the wait queue, and run a dispense round. Idempotent.
    pub fn finish_query(&mut self, q: QueryId) {
        let Some(state) = self.queries.get_mut(&q.0) else {
            return;
        };
        if state.finished {
            return;
        }
        state.finished = true;
        let tenant = self.registry.spec(state.tenant).name.clone();
        let mut giving_back = state.held;
        if state.in_use {
            giving_back += 1;
            state.in_use = false;
        }
        state.held = 0;
        if giving_back > 0 {
            self.ledger.repay(&tenant, giving_back);
            self.outstanding -= giving_back;
        }
        self.waiting.retain(|&w| w != q.0);
        self.decisions.push(format!("finish q{}", q.0));
        self.dispense();
    }

    /// Append an external decision (admission verdicts) to the log so the
    /// harness digest covers the whole control plane.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.decisions.push(msg.into());
    }

    /// Total credits ever granted to the query.
    pub fn query_credits(&self, q: QueryId) -> u64 {
        self.queries.get(&q.0).map_or(0, |s| s.granted_total)
    }

    /// The credit ledger (conservation checks, fairness measurements).
    pub fn ledger(&self) -> &CreditLedger {
        &self.ledger
    }

    /// Credits ever granted, per tenant name.
    pub fn granted_by_tenant(&self) -> BTreeMap<String, u64> {
        self.ledger
            .accounts
            .iter()
            .map(|(t, a)| (t.clone(), a.granted))
            .collect()
    }

    /// The decision log, one line per decision, in order.
    pub fn decisions(&self) -> &[String] {
        &self.decisions
    }

    /// The decision log as one string — the harness determinism digest.
    pub fn decision_digest(&self) -> String {
        self.decisions.join("\n")
    }

    /// One stride dispense round: hand out credits while slots remain and
    /// queries wait. Only the highest waiting priority class is served;
    /// within it the tenant with the smallest (pass, id) wins, and its
    /// earliest-arrived query receives up to `quantum` credits.
    fn dispense(&mut self) {
        loop {
            if self.outstanding >= self.slots || self.waiting.is_empty() {
                return;
            }
            let top = self
                .waiting
                .iter()
                .filter_map(|qid| self.queries.get(qid))
                .map(|s| self.registry.spec(s.tenant).priority)
                .max()
                .expect("waiting non-empty");
            let winner_tenant = self
                .waiting
                .iter()
                .filter_map(|qid| self.queries.get(qid))
                .filter(|s| self.registry.spec(s.tenant).priority == top)
                .map(|s| s.tenant)
                .min_by_key(|t| (self.passes[t.0], t.0))
                .expect("priority class non-empty");
            let pos = self
                .waiting
                .iter()
                .position(|qid| {
                    self.queries
                        .get(qid)
                        .is_some_and(|s| s.tenant == winner_tenant)
                })
                .expect("winner has a waiting query");
            let qid = self.waiting.remove(pos);
            let n = self.quantum.min(self.slots - self.outstanding);
            let spec = self.registry.spec(winner_tenant);
            let stride = STRIDE_SCALE / u64::from(spec.weight.max(1));
            let name = spec.name.clone();
            self.passes[winner_tenant.0] += stride * n;
            self.ledger.grant(&name, n);
            self.outstanding += n;
            let state = self.queries.get_mut(&qid).expect("waiting query exists");
            state.held += n;
            state.granted_total += n;
            self.decisions
                .push(format!("grant q{qid} tenant={name} n={n}"));
        }
    }
}

/// Per-tenant credit accounting for the [`FairScheduler`].
///
/// Every credit a tenant receives is recorded here at grant time and again
/// when it comes back — consumed at a batch boundary, yielded on
/// preemption, or released when the query finishes or aborts. The two
/// counters are the conservation invariant the serving layer's
/// fault-injection suite checks: once no query is running,
/// `granted == returned` for every tenant.
#[derive(Debug, Default, Clone)]
pub struct CreditLedger {
    accounts: BTreeMap<String, CreditAccount>,
}

/// One tenant's row in the [`CreditLedger`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CreditAccount {
    /// Credits ever granted to the tenant.
    pub granted: u64,
    /// Credits returned (consumed, yielded, or released).
    pub returned: u64,
}

impl CreditAccount {
    /// Credits currently held by the tenant's in-flight queries.
    pub fn outstanding(&self) -> u64 {
        self.granted - self.returned
    }
}

impl CreditLedger {
    /// An empty ledger.
    pub fn new() -> CreditLedger {
        CreditLedger::default()
    }

    /// Record `n` credits granted to `tenant`.
    pub fn grant(&mut self, tenant: &str, n: u64) {
        self.accounts.entry(tenant.to_string()).or_default().granted += n;
    }

    /// Record `n` credits coming back from `tenant` (consumed at a batch
    /// boundary, yielded on preemption, or released at query end).
    ///
    /// # Panics
    /// Returning more credits than were granted is a scheduler bug and
    /// panics — conservation must never go negative.
    pub fn repay(&mut self, tenant: &str, n: u64) {
        let account = self.accounts.entry(tenant.to_string()).or_default();
        account.returned += n;
        assert!(
            account.returned <= account.granted,
            "credit ledger for tenant `{tenant}`: returned {} > granted {}",
            account.returned,
            account.granted
        );
    }

    /// Credits ever granted to `tenant` (0 for unknown tenants).
    pub fn granted(&self, tenant: &str) -> u64 {
        self.accounts.get(tenant).map_or(0, |a| a.granted)
    }

    /// Credits currently held by `tenant`'s queries.
    pub fn outstanding(&self, tenant: &str) -> u64 {
        self.accounts.get(tenant).map_or(0, |a| a.outstanding())
    }

    /// Credits held across all tenants.
    pub fn total_outstanding(&self) -> u64 {
        self.accounts.values().map(|a| a.outstanding()).sum()
    }

    /// Check conservation: with no query in flight every tenant must have
    /// gotten back exactly what it was granted. Returns the offending
    /// tenants (name, outstanding) otherwise.
    pub fn check_balanced(&self) -> std::result::Result<(), Vec<(String, u64)>> {
        let leaks: Vec<(String, u64)> = self
            .accounts
            .iter()
            .filter(|(_, a)| a.outstanding() != 0)
            .map(|(t, a)| (t.clone(), a.outstanding()))
            .collect();
        if leaks.is_empty() {
            Ok(())
        } else {
            Err(leaks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_ledger_balances_and_reports_leaks() {
        let mut ledger = CreditLedger::new();
        ledger.grant("a", 5);
        ledger.grant("b", 2);
        ledger.repay("a", 3);
        assert_eq!(ledger.outstanding("a"), 2);
        assert_eq!(ledger.granted("a"), 5);
        assert_eq!(ledger.total_outstanding(), 4);
        let leaks = ledger.check_balanced().unwrap_err();
        assert_eq!(leaks, vec![("a".to_string(), 2), ("b".to_string(), 2)]);
        ledger.repay("a", 2);
        ledger.repay("b", 2);
        assert!(ledger.check_balanced().is_ok());
        assert_eq!(ledger.outstanding("missing"), 0);
    }

    #[test]
    #[should_panic(expected = "returned")]
    fn credit_ledger_rejects_over_repay() {
        let mut ledger = CreditLedger::new();
        ledger.grant("a", 1);
        ledger.repay("a", 2);
    }

    fn saturated_run(weights: &[u32], rounds: usize) -> BTreeMap<String, u64> {
        // Every tenant has one query that immediately re-requests after
        // each batch — permanent saturation with 1 slot, quantum 1.
        let mut sched = FairScheduler::new(1, 1);
        let queries: Vec<QueryId> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let t = sched.register_tenant(TenantSpec::new(format!("t{i}"), w));
                sched.begin_query(t)
            })
            .collect();
        for q in &queries {
            sched.request(*q);
        }
        for _ in 0..rounds {
            let &running = queries
                .iter()
                .find(|q| sched.held(**q) > 0)
                .expect("one query granted");
            sched.use_credit(running);
            sched.request(running); // rejoin the queue before completing
            sched.complete_batch(running);
        }
        for q in &queries {
            sched.finish_query(*q);
        }
        assert!(sched.ledger().check_balanced().is_ok());
        sched.granted_by_tenant()
    }

    #[test]
    fn grants_track_weights_under_saturation() {
        let grants = saturated_run(&[1, 2, 4], 700);
        let total: u64 = grants.values().sum();
        for (i, w) in [1u64, 2, 4].iter().enumerate() {
            let got = grants[&format!("t{i}")] as f64 / total as f64;
            let want = *w as f64 / 7.0;
            assert!(
                (got - want).abs() < 0.02,
                "tenant t{i}: share {got:.3} vs weight share {want:.3}"
            );
        }
    }

    #[test]
    fn higher_priority_query_preempts_and_wins_grants() {
        let mut sched = FairScheduler::new(2, 2);
        let low = sched.register_tenant(TenantSpec::new("low", 1));
        let high = sched.register_tenant(TenantSpec::new("high", 1).with_priority(2));
        let ql = sched.begin_query(low);
        sched.request(ql);
        assert_eq!(sched.held(ql), 2, "low holds the full quantum");
        sched.use_credit(ql); // one batch in flight, one credit held

        let qh = sched.begin_query(high);
        sched.request(qh);
        assert!(sched.should_yield(ql), "high-priority query is waiting");
        assert!(
            sched
                .decisions()
                .iter()
                .any(|d| d.starts_with("preempt q0")),
            "preemption logged: {:?}",
            sched.decisions()
        );
        // Low-priority pipeline reaches its batch boundary: yields its
        // unused credit, finishes the in-flight one.
        assert_eq!(sched.yield_credits(ql), 1);
        // The yielded credit went straight to the high-priority query (it
        // left the wait queue with it, so only one was dispensed).
        assert_eq!(sched.held(qh), 1);
        sched.complete_batch(ql);
        assert_eq!(sched.held(ql), 0, "low gets nothing back while high runs");
        sched.finish_query(ql);
        sched.finish_query(qh);
        assert!(sched.ledger().check_balanced().is_ok());
    }

    #[test]
    fn finish_is_idempotent_and_conserving() {
        let mut sched = FairScheduler::new(4, 2);
        let t = sched.register_tenant(TenantSpec::new("a", 1));
        let q = sched.begin_query(t);
        sched.request(q);
        sched.use_credit(q);
        sched.finish_query(q); // returns in-flight + held
        sched.finish_query(q); // no-op
        assert!(sched.ledger().check_balanced().is_ok());
        assert_eq!(sched.ledger().granted("a"), 2);
    }
}
