//! The session: the user-facing API tying tables, topology, optimizer,
//! and executors together.
//!
//! ```
//! use df_core::session::Session;
//! use df_data::{batch::batch_of, Column};
//!
//! let session = Session::in_memory().unwrap();
//! session
//!     .create_table(
//!         "orders",
//!         &[batch_of(vec![
//!             ("id", Column::from_i64(vec![1, 2, 3])),
//!             ("amount", Column::from_f64(vec![10.0, 20.0, 30.0])),
//!         ])],
//!     )
//!     .unwrap();
//! let result = session
//!     .sql("SELECT COUNT(*) AS n FROM orders WHERE amount > 15.0")
//!     .unwrap();
//! assert_eq!(result.batch.row(0)[0], df_data::Scalar::Int(2));
//! ```

use std::sync::Arc;

use df_data::{Batch, SchemaRef};
use df_fabric::topology::DisaggregatedConfig;
use df_fabric::Topology;
use df_storage::object::{MemObjectStore, ObjectStoreRef};
use df_storage::smart::{ScanStats, SmartStorage};
use df_storage::table::TableStore;
use std::sync::RwLock;

use crate::error::{EngineError, Result};
use crate::exec::ledger::MovementLedger;
use crate::exec::push::{execute, CodecPolicy, ExecEnv, ExecGate};
use crate::logical::LogicalPlan;
use crate::optimizer::{Optimizer, PlanCost, Profiles, RankedPlan, TableProfile};
use crate::physical::PhysicalPlan;
use crate::sql::{self, Catalog};

/// Everything one query execution returned.
#[derive(Debug)]
pub struct QueryResult {
    /// The result rows (empty batch when nothing qualified).
    pub batch: Batch,
    /// Which plan variant ran.
    pub variant: String,
    /// Estimated cost of that variant.
    pub cost: PlanCost,
    /// Measured data movement.
    pub ledger: MovementLedger,
    /// Storage scan statistics (bytes scanned vs returned).
    pub scan_stats: Vec<ScanStats>,
}

/// A database session over one topology and one object store.
pub struct Session {
    topology: Arc<Topology>,
    tables: TableStore,
    storage: SmartStorage,
    optimizer: Optimizer,
    profiles: RwLock<Profiles>,
    /// Opt-in execution tracer; see [`Session::enable_tracing`].
    pub tracer: Option<Arc<df_sim::Tracer>>,
}

impl Session {
    /// A session over an explicit topology and object store.
    pub fn new(topology: Arc<Topology>, store: ObjectStoreRef) -> Result<Session> {
        let tables = TableStore::new(store);
        let storage = SmartStorage::new(tables.clone());
        let optimizer = Optimizer::new(topology.clone())?;
        Ok(Session {
            topology,
            tables,
            storage,
            optimizer,
            profiles: RwLock::new(Profiles::new()),
            tracer: None,
        })
    }

    /// Turn on execution tracing: every subsequent query records operator
    /// and morsel spans into the returned [`df_sim::Tracer`] (wall-clock
    /// lanes). Export with [`df_sim::Tracer::chrome_trace_json`] or
    /// [`df_sim::Tracer::summary`].
    pub fn enable_tracing(&mut self) -> Arc<df_sim::Tracer> {
        let tracer = Arc::new(df_sim::Tracer::new());
        self.storage.set_tracer(tracer.clone(), "storage.smart");
        self.tracer = Some(tracer.clone());
        tracer
    }

    /// The default laptop-scale session: the paper's disaggregated platform
    /// (smart storage, smart NICs, near-memory accelerator) over an
    /// in-memory object store.
    pub fn in_memory() -> Result<Session> {
        let topology = Arc::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        Session::new(topology, Arc::new(MemObjectStore::new()))
    }

    /// The fabric.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The smart-storage server (for direct scans in experiments).
    pub fn storage(&self) -> &SmartStorage {
        &self.storage
    }

    /// The table store.
    pub fn tables(&self) -> &TableStore {
        &self.tables
    }

    /// The optimizer (site map access etc.).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Create (or replace) a table from batches and refresh its profile.
    pub fn create_table(&self, name: &str, batches: &[Batch]) -> Result<()> {
        self.tables.create_and_load(name, batches)?;
        self.refresh_profile(name)
    }

    /// Recompute a table's statistics from segment footers.
    pub fn refresh_profile(&self, name: &str) -> Result<()> {
        let stats = self.tables.stats(name)?;
        let schema = self.tables.schema(name)?;
        self.profiles.write().expect("lock poisoned").insert(
            name.to_string(),
            TableProfile::from_stats(&stats, schema.as_ref().clone()),
        );
        Ok(())
    }

    /// Snapshot of the current table profiles.
    pub fn profiles(&self) -> Profiles {
        self.profiles.read().expect("lock poisoned").clone()
    }

    /// Parse SQL into a logical plan.
    pub fn logical_plan(&self, query: &str) -> Result<LogicalPlan> {
        sql::parse(query, self)
    }

    /// Ranked physical variants for a logical plan.
    pub fn variants(&self, logical: &LogicalPlan) -> Result<Vec<RankedPlan>> {
        self.optimizer
            .variants(logical, &self.profiles.read().expect("lock poisoned"))
    }

    /// Execute a specific physical plan.
    pub fn execute_plan(&self, plan: &PhysicalPlan) -> Result<QueryResult> {
        self.execute_plan_gated(plan, None)
    }

    /// Execute a plan under a cross-query scheduling gate (the serving
    /// layer's fair-share scheduler). The gate is consulted at every batch
    /// boundary; `None` behaves exactly like [`Session::execute_plan`].
    pub fn execute_plan_gated(
        &self,
        plan: &PhysicalPlan,
        gate: Option<Arc<dyn ExecGate>>,
    ) -> Result<QueryResult> {
        let env = ExecEnv {
            storage: Some(&self.storage),
            topology: Some(&self.topology),
            wire: None,
            tracer: self.tracer.clone(),
            gate,
            codec: CodecPolicy::AsCompiled,
        };
        let outcome = execute(plan, &env)?;
        let batch = if outcome.batches.is_empty() {
            Batch::empty(plan.schema())
        } else {
            Batch::concat(&outcome.batches)?
        };
        Ok(QueryResult {
            batch,
            variant: plan.variant.clone(),
            cost: PlanCost {
                time: df_sim::SimDuration::ZERO,
                moved_bytes: 0,
                compute: df_sim::SimDuration::ZERO,
                bottleneck: df_sim::SimDuration::ZERO,
            },
            ledger: outcome.ledger,
            scan_stats: outcome.scan_stats,
        })
    }

    /// Plan and execute a SQL query with the best variant.
    pub fn sql(&self, query: &str) -> Result<QueryResult> {
        let logical = self.logical_plan(query)?;
        let mut variants = self.variants(&logical)?;
        let best = variants.remove(0);
        let mut result = self.execute_plan(&best.plan)?;
        result.cost = best.cost;
        Ok(result)
    }

    /// EXPLAIN: the logical plan plus every ranked variant with costs.
    pub fn explain(&self, query: &str) -> Result<String> {
        let logical = self.logical_plan(query)?;
        let variants = self.variants(&logical)?;
        let mut out = String::new();
        out.push_str("== logical ==\n");
        out.push_str(&logical.explain());
        for (i, v) in variants.iter().enumerate() {
            out.push_str(&format!(
                "== variant {i}: {} (est time {}, moved {} bytes) ==\n",
                v.plan.variant, v.cost.time, v.cost.moved_bytes
            ));
            out.push_str(&v.plan.root.explain());
        }
        Ok(out)
    }
}

impl Catalog for Session {
    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        self.tables
            .schema(table)
            .map_err(|_| EngineError::Plan(format!("unknown table '{table}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;
    use df_data::{Column, Scalar};

    fn orders(n: usize) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "region",
                Column::from_strs(
                    &(0..n)
                        .map(|i| ["eu", "us", "ap"][i % 3].to_string())
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "amount",
                Column::from_f64((0..n).map(|i| (i % 100) as f64).collect()),
            ),
            (
                "note",
                Column::from_strs(
                    &(0..n)
                        .map(|i| {
                            if i % 10 == 0 {
                                format!("urgent {i}")
                            } else {
                                format!("normal {i}")
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    fn session() -> Session {
        let s = Session::in_memory().unwrap();
        s.create_table("orders", &[orders(3000)]).unwrap();
        s
    }

    #[test]
    fn end_to_end_count() {
        let s = session();
        let r = s.sql("SELECT COUNT(*) AS n FROM orders").unwrap();
        assert_eq!(r.batch.row(0)[0], Scalar::Int(3000));
    }

    #[test]
    fn filtered_aggregate_uses_pushdown() {
        let s = session();
        let r = s
            .sql("SELECT region, COUNT(*) AS n FROM orders WHERE id < 300 GROUP BY region")
            .unwrap();
        assert_eq!(r.batch.rows(), 3);
        let total: i64 = (0..3).map(|i| r.batch.row(i)[1].as_int().unwrap()).sum();
        assert_eq!(total, 300);
        // The chosen variant offloaded something.
        assert_ne!(
            r.variant,
            "cpu-only",
            "explain:\n{}",
            s.explain("SELECT region, COUNT(*) AS n FROM orders WHERE id < 300 GROUP BY region")
                .unwrap()
        );
        // Pushdown means returned < scanned.
        assert!(r.scan_stats[0].bytes_returned < r.scan_stats[0].bytes_scanned);
    }

    #[test]
    fn like_pushdown_query() {
        let s = session();
        let r = s
            .sql("SELECT COUNT(*) AS n FROM orders WHERE note LIKE 'urgent%'")
            .unwrap();
        assert_eq!(r.batch.row(0)[0], Scalar::Int(300));
    }

    #[test]
    fn join_query() {
        let s = session();
        let regions = batch_of(vec![
            ("rname", Column::from_strs(&["eu", "us"])),
            ("zone", Column::from_strs(&["west", "west"])),
        ]);
        s.create_table("regions", &[regions]).unwrap();
        let r = s
            .sql("SELECT id, zone FROM orders JOIN regions ON rname = region WHERE id < 9")
            .unwrap();
        // ids 0..9 with region eu or us: i%3 != 2 -> 6 rows.
        assert_eq!(r.batch.rows(), 6);
    }

    #[test]
    fn order_by_limit() {
        let s = session();
        let r = s
            .sql("SELECT id FROM orders ORDER BY id DESC LIMIT 3")
            .unwrap();
        assert_eq!(r.batch.column(0).i64_values().unwrap(), &[2999, 2998, 2997]);
    }

    #[test]
    fn empty_result_has_schema() {
        let s = session();
        let r = s.sql("SELECT id FROM orders WHERE id < 0").unwrap();
        assert!(r.batch.is_empty());
        assert_eq!(r.batch.schema().field(0).name, "id");
    }

    #[test]
    fn variants_execute_identically() {
        let s = session();
        let logical = s
            .logical_plan(
                "SELECT region, SUM(amount) AS total, AVG(amount) AS a FROM orders \
                 WHERE id BETWEEN 100 AND 2000 GROUP BY region",
            )
            .unwrap();
        let variants = s.variants(&logical).unwrap();
        assert!(variants.len() >= 2, "need multiple variants to compare");
        let reference = s.execute_plan(&variants[0].plan).unwrap();
        for v in &variants[1..] {
            let got = s.execute_plan(&v.plan).unwrap();
            assert_eq!(
                reference.batch.canonical_rows(),
                got.batch.canonical_rows(),
                "variant {} disagrees with {}",
                v.plan.variant,
                variants[0].plan.variant
            );
        }
    }

    #[test]
    fn explain_lists_variants() {
        let s = session();
        let text = s
            .explain("SELECT COUNT(*) AS n FROM orders WHERE id < 10")
            .unwrap();
        assert!(text.contains("== logical =="));
        assert!(text.contains("cpu-only"));
        assert!(text.contains("storage-pushdown"));
    }

    #[test]
    fn movement_ledger_populated() {
        let s = session();
        let r = s.sql("SELECT id FROM orders WHERE id < 100").unwrap();
        assert!(r.ledger.cross_device_bytes() > 0);
        assert_eq!(r.ledger.unroutable_bytes(s.topology()), 0);
    }

    #[test]
    fn having_end_to_end() {
        let s = session();
        let r = s
            .sql(
                "SELECT region, COUNT(*) AS n FROM orders WHERE id < 30 \
                 GROUP BY region HAVING n >= 10 ORDER BY region",
            )
            .unwrap();
        // 30 rows over 3 regions = 10 each; HAVING n >= 10 keeps all three.
        assert_eq!(r.batch.rows(), 3);
        let strict = s
            .sql(
                "SELECT region, COUNT(*) AS n FROM orders WHERE id < 30 \
                 GROUP BY region HAVING n > 10",
            )
            .unwrap();
        assert_eq!(strict.batch.rows(), 0);
    }

    #[test]
    fn wire_options_shrink_ledger_charges() {
        let s = session();
        let logical = s.logical_plan("SELECT id FROM orders WHERE id < 1500");
        let plan = s.variants(&logical.unwrap()).unwrap().remove(0).plan;
        let run = |wire| {
            let env = ExecEnv {
                storage: Some(s.storage()),
                topology: Some(s.topology()),
                wire,
                ..ExecEnv::in_memory()
            };
            execute(&plan, &env).unwrap()
        };
        let plain = run(None);
        let compressed = run(Some(df_codec::wire::WireOptions::compressed()));
        assert_eq!(
            plain.collect().unwrap().canonical_rows(),
            compressed.collect().unwrap().canonical_rows()
        );
        // Sorted int runs compress well on the wire: the ledger reflects
        // the encoded frames, not the in-memory batches.
        assert!(
            compressed.ledger.cross_device_bytes() * 2 < plain.ledger.cross_device_bytes(),
            "wire accounting did not shrink: {} vs {}",
            compressed.ledger.cross_device_bytes(),
            plain.ledger.cross_device_bytes()
        );
    }

    #[test]
    fn unknown_table_is_a_plan_error() {
        let s = session();
        assert!(matches!(
            s.sql("SELECT * FROM ghost"),
            Err(EngineError::Plan(_))
        ));
    }
}
