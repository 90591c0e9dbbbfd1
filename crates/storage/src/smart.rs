//! The smart-storage server: pushdown execution at the storage layer.
//!
//! §3.3's requirements, implemented literally:
//! - **streaming**: execution is page-at-a-time; a page's output is emitted
//!   before the next page is read, so no latency is added and nothing is
//!   buffered beyond one page;
//! - **mostly stateless**: selection, projection, and LIKE carry no state;
//!   pre-aggregation runs the aggregation kernel ([`crate::agg`]) in
//!   `Partial` mode, a *bounded* table that flushes partial groups
//!   downstream when full ("probably only to parts of the data rather than
//!   to the entire data set");
//! - **billing**: the server reports bytes scanned vs bytes returned, the
//!   Query-As-A-Service cost model (§3.2).

use std::sync::{Arc, OnceLock};

use df_codec::wire::{self, WireOptions};
use df_data::{Batch, Schema, SchemaRef};
use df_sim::trace::{LaneId, LaneKind, Tracer};

use crate::agg::{partial_schema, AggCall, AggFn, AggMode, HashAggOp};
use crate::predicate::StoragePredicate;
use crate::table::TableStore;
use crate::zonemap::ZoneMap;
use crate::{Result, StorageError};

/// Bounded pre-aggregation specification: the aggregation kernel's calls
/// in storage's naming, plus its group-table bound.
#[derive(Debug, Clone)]
pub struct PreAggSpec {
    /// Group-by column names.
    pub group_by: Vec<String>,
    /// `(function, input column)` pairs, never AVG: the optimizer
    /// decomposes it into SUM and COUNT. `COUNT(*)` counts any non-null
    /// column.
    pub aggs: Vec<(AggFn, String)>,
    /// Maximum distinct groups held before flushing partials downstream.
    pub max_groups: usize,
}

impl PreAggSpec {
    /// One kernel call per pair, aliased by its column, so partial columns
    /// are named `{fn}_{column}`.
    fn calls(&self) -> Vec<AggCall> {
        self.aggs
            .iter()
            .map(|(func, col)| AggCall::new(*func, col.clone(), col.clone()))
            .collect()
    }

    /// The partial layout this spec's pre-aggregation emits over `input`.
    pub fn output_schema(&self, input: &Schema) -> df_data::Result<SchemaRef> {
        Ok(partial_schema(&self.group_by, &self.calls(), input)?.into_ref())
    }

    /// This spec's aggregation kernel: `AggMode::Partial` over raw rows, or
    /// a bounded `AggMode::Merge` over the partial layout
    /// ([`PreAggSpec::output_schema`]) that re-emits it.
    pub fn kernel(&self, mode: AggMode, input: &SchemaRef) -> df_data::Result<HashAggOp> {
        // Bounded stages emit the partial layout, so no final schema applies.
        HashAggOp::new(
            self.group_by.clone(),
            self.calls(),
            mode,
            input,
            input.clone(),
        )
    }
}

/// A pushed-down scan request — the "kernel" installed on the storage
/// server (§7.2).
#[derive(Debug, Clone)]
pub struct ScanRequest {
    /// Columns to return; `None` means all.
    pub projection: Option<Vec<String>>,
    /// Row filter.
    pub predicate: StoragePredicate,
    /// Optional bounded pre-aggregation applied after filtering.
    pub preagg: Option<PreAggSpec>,
    /// Stop after this many output rows (pre-aggregation output counts).
    pub limit: Option<u64>,
}

impl ScanRequest {
    /// Scan everything.
    pub fn full() -> ScanRequest {
        ScanRequest {
            projection: None,
            predicate: StoragePredicate::True,
            preagg: None,
            limit: None,
        }
    }

    /// Select columns.
    pub fn project(mut self, columns: &[&str]) -> Self {
        self.projection = Some(columns.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Apply a predicate.
    pub fn filter(mut self, predicate: StoragePredicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Apply bounded pre-aggregation.
    pub fn pre_aggregate(mut self, spec: PreAggSpec) -> Self {
        self.preagg = Some(spec);
        self
    }
}

/// Execution statistics: the billing and data-movement story.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Pages considered.
    pub pages_total: u64,
    /// Pages skipped via zone maps without reading any block.
    pub pages_pruned: u64,
    /// Bytes of blocks actually read from the object store.
    pub bytes_scanned: u64,
    /// Bytes of output shipped to the client (plain wire-frame size).
    pub bytes_returned: u64,
    /// Rows read (after pruning, before filtering).
    pub rows_scanned: u64,
    /// Rows returned.
    pub rows_returned: u64,
}

impl ScanStats {
    /// The data-movement reduction factor bytes_scanned / bytes_returned.
    pub fn reduction_factor(&self) -> f64 {
        if self.bytes_returned == 0 {
            f64::INFINITY
        } else {
            self.bytes_scanned as f64 / self.bytes_returned as f64
        }
    }
}

/// The smart-storage server for one table store.
pub struct SmartStorage {
    tables: TableStore,
    /// Optional tracer; scans record a wall span on the storage lane.
    /// `OnceLock` keeps the disabled fast path lock-free.
    trace: OnceLock<(Arc<Tracer>, LaneId)>,
}

impl SmartStorage {
    /// A server over the given table store.
    pub fn new(tables: TableStore) -> Self {
        SmartStorage {
            tables,
            trace: OnceLock::new(),
        }
    }

    /// Attach a tracer; subsequent scans record spans on `lane`. A second
    /// call is a no-op (the first tracer wins).
    pub fn set_tracer(&self, tracer: Arc<Tracer>, lane: &str) {
        let lane = tracer.lane(lane, LaneKind::Wall);
        let _ = self.trace.set((tracer, lane));
    }

    /// The underlying table store.
    pub fn tables(&self) -> &TableStore {
        &self.tables
    }

    /// Execute a pushed-down scan, streaming output batches through `sink`.
    /// Returns the execution statistics. An error from `sink` ends the scan
    /// at once: no further page is read.
    pub fn scan_streaming<E>(
        &self,
        table: &str,
        request: &ScanRequest,
        sink: &mut dyn FnMut(Batch) -> std::result::Result<(), E>,
    ) -> std::result::Result<ScanStats, E>
    where
        E: From<StorageError>,
    {
        let schema = self.tables.schema(table)?;
        let readers = self.tables.open_segments(table)?;
        let mut stats = ScanStats::default();
        let mut _scan_span = self
            .trace
            .get()
            .map(|(t, lane)| t.span(*lane, &format!("scan [{table}]")));

        // Resolve the column sets once.
        let projection_names: Vec<String> = match (&request.preagg, &request.projection) {
            (Some(pre), _) => {
                // Pre-aggregation defines its own inputs.
                let mut names = pre.group_by.clone();
                names.extend(pre.aggs.iter().map(|(_, c)| c.clone()));
                names.sort();
                names.dedup();
                names
            }
            (None, Some(p)) => p.clone(),
            (None, None) => schema.fields().iter().map(|f| f.name.clone()).collect(),
        };
        let needed: Vec<String> = {
            let mut names = projection_names.clone();
            names.extend(request.predicate.columns());
            names.sort();
            names.dedup();
            names
        };
        let projected_cols: Vec<&str> = projection_names.iter().map(String::as_str).collect();
        let needed_idx: Vec<usize> = needed
            .iter()
            .map(|n| schema.index_of(n).map_err(StorageError::Data))
            .collect::<Result<Vec<_>>>()?;

        let mut preagg = request
            .preagg
            .as_ref()
            .map(|spec| {
                let mode = AggMode::Partial {
                    max_groups: spec.max_groups,
                };
                spec.kernel(mode, &schema)
            })
            .transpose()
            .map_err(StorageError::Data)?;
        let mut emitted_rows = 0u64;

        'segments: for reader in &readers {
            for page in 0..reader.n_pages() {
                stats.pages_total += 1;
                // Zone-map pruning without touching any block.
                let prunable = {
                    let lookup = |name: &str| -> Option<ZoneMap> {
                        schema
                            .index_of(name)
                            .ok()
                            .map(|c| reader.page(page).blocks[c].zone.clone())
                    };
                    request.predicate.can_skip_page(&lookup)
                };
                if prunable {
                    stats.pages_pruned += 1;
                    continue;
                }
                // Read only the needed blocks (projection + predicate).
                for &c in &needed_idx {
                    stats.bytes_scanned += reader.page(page).blocks[c].len;
                }
                let batch = reader.read_page(page, &needed_idx)?;
                stats.rows_scanned += batch.rows() as u64;
                // Evaluate the predicate, then gather only the returned (or
                // pre-aggregated) columns at the selected rows: a
                // predicate-only column is never copied.
                let selection = request
                    .predicate
                    .evaluate(&batch)
                    .map_err(StorageError::Data)?;
                let projected = batch
                    .project_names(&projected_cols)
                    .map_err(StorageError::Data)?;
                // A projection with no column has no rows to return.
                if projected.is_empty() || selection.none_set() {
                    continue;
                }
                let filtered = if selection.all_set() {
                    projected
                } else {
                    projected.filter(&selection).map_err(StorageError::Data)?
                };
                // Pre-aggregate or pass through, then emit.
                let out = if let Some(kernel) = preagg.as_mut() {
                    let Some(flushed) = kernel.push(filtered).map_err(StorageError::Data)?.pop()
                    else {
                        continue;
                    };
                    flushed
                } else {
                    filtered
                };
                let out = self.apply_limit(out, &mut emitted_rows, request.limit);
                if !out.is_empty() {
                    stats.rows_returned += out.rows() as u64;
                    stats.bytes_returned += wire::wire_size(&out, &WireOptions::plain()) as u64;
                    sink(out)?;
                }
                if let Some(limit) = request.limit {
                    if emitted_rows >= limit {
                        break 'segments;
                    }
                }
            }
        }
        // Final pre-aggregation flush.
        if let Some(kernel) = preagg.as_mut() {
            for out in kernel.finish().map_err(StorageError::Data)? {
                let out = self.apply_limit(out, &mut emitted_rows, request.limit);
                if !out.is_empty() {
                    stats.rows_returned += out.rows() as u64;
                    stats.bytes_returned += wire::wire_size(&out, &WireOptions::plain()) as u64;
                    sink(out)?;
                }
            }
        }
        if let Some(span) = _scan_span.as_mut() {
            span.annotate("pages_total", stats.pages_total);
            span.annotate("pages_pruned", stats.pages_pruned);
            span.annotate("bytes_scanned", stats.bytes_scanned);
            span.annotate("bytes_returned", stats.bytes_returned);
            span.annotate("rows_returned", stats.rows_returned);
        }
        Ok(stats)
    }

    /// Execute a scan, collecting the output batches.
    pub fn scan(&self, table: &str, request: &ScanRequest) -> Result<(Vec<Batch>, ScanStats)> {
        let mut out = Vec::new();
        let stats = self.scan_streaming(table, request, &mut |b| {
            out.push(b);
            Ok::<(), StorageError>(())
        })?;
        Ok((out, stats))
    }

    fn apply_limit(&self, batch: Batch, emitted: &mut u64, limit: Option<u64>) -> Batch {
        match limit {
            None => {
                *emitted += batch.rows() as u64;
                batch
            }
            Some(limit) => {
                let left = limit.saturating_sub(*emitted) as usize;
                let take = left.min(batch.rows());
                *emitted += take as u64;
                if take == batch.rows() {
                    batch
                } else {
                    batch.slice(0, take)
                }
            }
        }
    }

    /// The schema a request's output batches will have.
    pub fn output_schema(&self, table: &str, request: &ScanRequest) -> Result<SchemaRef> {
        let schema = self.tables.schema(table)?;
        if let Some(pre) = &request.preagg {
            return Ok(pre.output_schema(&schema)?);
        }
        match &request.projection {
            None => Ok(schema),
            Some(names) => {
                let idx = names
                    .iter()
                    .map(|n| schema.index_of(n).map_err(StorageError::Data))
                    .collect::<Result<Vec<_>>>()?;
                Ok(schema.project(&idx).into_ref())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::MemObjectStore;
    use crate::zonemap::CmpOp;
    use df_data::batch::batch_of;
    use df_data::Column;
    use std::collections::BTreeMap;

    fn setup(n: usize) -> SmartStorage {
        let batch = batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 4)).collect::<Vec<_>>()),
            ),
            (
                "qty",
                Column::from_i64((0..n as i64).map(|i| i % 100).collect()),
            ),
            (
                "note",
                Column::from_strs(
                    &(0..n)
                        .map(|i| {
                            if i % 10 == 0 {
                                format!("urgent order {i}")
                            } else {
                                format!("normal order {i}")
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        let ts = TableStore::new(MemObjectStore::shared());
        ts.create("orders", batch.schema()).unwrap();
        ts.append("orders", &[batch], 100_000, 256).unwrap();
        SmartStorage::new(ts)
    }

    #[test]
    fn full_scan_returns_everything() {
        let server = setup(1000);
        let (batches, stats) = server.scan("orders", &ScanRequest::full()).unwrap();
        let total: usize = batches.iter().map(Batch::rows).sum();
        assert_eq!(total, 1000);
        assert_eq!(stats.rows_returned, 1000);
        assert_eq!(stats.pages_pruned, 0);
        assert!(stats.bytes_returned > 0);
    }

    #[test]
    fn selection_filters_rows() {
        let server = setup(1000);
        let request = ScanRequest::full().filter(StoragePredicate::cmp("qty", CmpOp::Lt, 10i64));
        let (batches, stats) = server.scan("orders", &request).unwrap();
        let total: usize = batches.iter().map(Batch::rows).sum();
        assert_eq!(total, 100); // 10 of every 100
        assert!(stats.bytes_returned < stats.bytes_scanned);
        for b in &batches {
            let qty = b.column_by_name("qty").unwrap();
            for v in qty.i64_values().unwrap() {
                assert!(*v < 10);
            }
        }
    }

    #[test]
    fn projection_limits_columns_and_bytes() {
        let server = setup(1000);
        let request = ScanRequest::full().project(&["id"]);
        let (batches, stats) = server.scan("orders", &request).unwrap();
        assert_eq!(batches[0].schema().len(), 1);
        let full_stats = server.scan("orders", &ScanRequest::full()).unwrap().1;
        assert!(stats.bytes_scanned < full_stats.bytes_scanned);
        assert!(stats.bytes_returned < full_stats.bytes_returned);
    }

    #[test]
    fn zone_maps_prune_selective_scans() {
        let server = setup(10_000);
        // id >= 9900 touches only the last page(s); ids are sorted.
        let request = ScanRequest::full()
            .filter(StoragePredicate::cmp("id", CmpOp::Ge, 9900i64))
            .project(&["id"]);
        let (_, stats) = server.scan("orders", &request).unwrap();
        assert!(stats.pages_pruned > 0, "expected pruning, got {stats:?}");
        assert_eq!(stats.rows_returned, 100);
        assert!(stats.rows_scanned < 10_000);
    }

    #[test]
    fn like_pushdown() {
        let server = setup(1000);
        let request = ScanRequest::full()
            .filter(StoragePredicate::like("note", "urgent%"))
            .project(&["id", "note"]);
        let (batches, stats) = server.scan("orders", &request).unwrap();
        let total: usize = batches.iter().map(Batch::rows).sum();
        assert_eq!(total, 100);
        assert_eq!(stats.rows_returned, 100);
    }

    #[test]
    fn preagg_counts_and_sums() {
        let server = setup(1000);
        let request = ScanRequest::full().pre_aggregate(PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![(AggFn::Count, "id".into()), (AggFn::Sum, "qty".into())],
            max_groups: 1024,
        });
        let (batches, stats) = server.scan("orders", &request).unwrap();
        let merged = Batch::concat(&batches).unwrap();
        // No flushing happened (4 groups < 1024), but pages emit per-page
        // partials only on overflow; with no overflow we still merge at end.
        // Merge partials by group to check totals.
        let mut counts: BTreeMap<String, i64> = BTreeMap::new();
        let mut sums: BTreeMap<String, i64> = BTreeMap::new();
        for row in 0..merged.rows() {
            let g = merged.column(0).str_at(row).to_string();
            let c = merged.column(1).scalar_at(row).as_int().unwrap();
            let s = merged.column(2).scalar_at(row).as_int().unwrap();
            *counts.entry(g.clone()).or_default() += c;
            *sums.entry(g).or_default() += s;
        }
        assert_eq!(counts.len(), 4);
        for g in 0..4 {
            assert_eq!(counts[&format!("g{g}")], 250);
        }
        // Sum over all groups equals sum of qty.
        let total: i64 = sums.values().sum();
        let expected: i64 = (0..1000i64).map(|i| i % 100).sum();
        assert_eq!(total, expected);
        assert!(stats.bytes_returned < stats.bytes_scanned);
    }

    #[test]
    fn preagg_bounded_state_flushes() {
        let server = setup(1000);
        // Group by id: 1000 groups but only 16 slots -> must flush partials.
        let request = ScanRequest::full().pre_aggregate(PreAggSpec {
            group_by: vec!["id".into()],
            aggs: vec![(AggFn::Count, "qty".into())],
            max_groups: 16,
        });
        let (batches, _) = server.scan("orders", &request).unwrap();
        let merged = Batch::concat(&batches).unwrap();
        assert_eq!(merged.rows(), 1000); // every group appears exactly once
    }

    #[test]
    fn limit_stops_early() {
        let server = setup(10_000);
        let request = ScanRequest {
            limit: Some(50),
            ..ScanRequest::full()
        };
        let (batches, stats) = server.scan("orders", &request).unwrap();
        let total: usize = batches.iter().map(Batch::rows).sum();
        assert_eq!(total, 50);
        // Early termination: we did not scan all pages.
        assert!(stats.rows_scanned < 10_000);
    }

    #[test]
    fn output_schema_matches_emitted_batches() {
        let server = setup(100);
        let request = ScanRequest::full().project(&["qty", "grp"]);
        let schema = server.output_schema("orders", &request).unwrap();
        let (batches, _) = server.scan("orders", &request).unwrap();
        assert_eq!(batches[0].schema().as_ref(), schema.as_ref());

        let agg_request = ScanRequest::full().pre_aggregate(PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![(AggFn::Max, "qty".into())],
            max_groups: 64,
        });
        let agg_schema = server.output_schema("orders", &agg_request).unwrap();
        assert_eq!(agg_schema.field(1).name, "max_qty");
        let (agg_batches, _) = server.scan("orders", &agg_request).unwrap();
        assert_eq!(agg_batches[0].schema().as_ref(), agg_schema.as_ref());
    }

    #[test]
    fn min_max_aggregates() {
        let server = setup(1000);
        let request = ScanRequest::full().pre_aggregate(PreAggSpec {
            group_by: vec![],
            aggs: vec![(AggFn::Min, "id".into()), (AggFn::Max, "id".into())],
            max_groups: 4,
        });
        let (batches, _) = server.scan("orders", &request).unwrap();
        let merged = Batch::concat(&batches).unwrap();
        // Global (no group) partials: min of mins / max of maxes.
        let mins: Vec<i64> = (0..merged.rows())
            .map(|r| merged.column(0).scalar_at(r).as_int().unwrap())
            .collect();
        let maxes: Vec<i64> = (0..merged.rows())
            .map(|r| merged.column(1).scalar_at(r).as_int().unwrap())
            .collect();
        assert_eq!(mins.iter().min(), Some(&0));
        assert_eq!(maxes.iter().max(), Some(&999));
    }

    #[test]
    fn bounded_merges_restore_exact_totals() {
        let server = setup(1000);
        let spec = PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![
                (AggFn::Count, "id".into()),
                (AggFn::Sum, "qty".into()),
                (AggFn::Min, "qty".into()),
                (AggFn::Max, "qty".into()),
            ],
            max_groups: 2, // force lots of partial flushes
        };
        let request = ScanRequest::full().pre_aggregate(spec.clone());
        let (partials, _) = server.scan("orders", &request).unwrap();
        let layout = server.output_schema("orders", &request).unwrap();
        let merge = |batches: Vec<Batch>| {
            let mode = AggMode::Merge {
                max_groups: Some(usize::MAX),
            };
            let mut kernel = spec.kernel(mode, &layout).unwrap();
            let mut out = Vec::new();
            for batch in batches {
                out.extend(kernel.push(batch).unwrap());
            }
            out.extend(kernel.finish().unwrap());
            Batch::concat(&out).unwrap()
        };
        let merged = merge(partials);
        assert_eq!(merged.schema().as_ref(), layout.as_ref());
        assert_eq!(merged.rows(), 4);
        for row in 0..merged.rows() {
            let count = merged.column(1).scalar_at(row).as_int().unwrap();
            assert_eq!(count, 250);
            let min = merged.column(3).scalar_at(row).as_int().unwrap();
            let max = merged.column(4).scalar_at(row).as_int().unwrap();
            assert!(min <= max);
            assert!((0..100).contains(&min));
        }
        // Staged merging composes: merging the merged result is a no-op.
        let again = merge(vec![merged.clone()]);
        assert_eq!(merged.canonical_rows(), again.canonical_rows());
    }

    #[test]
    fn preagg_of_no_rows_emits_nothing() {
        let server = setup(100);
        let request = ScanRequest::full()
            .filter(StoragePredicate::cmp("qty", CmpOp::Lt, -1i64))
            .pre_aggregate(PreAggSpec {
                group_by: vec![],
                aggs: vec![(AggFn::Count, "id".into())],
                max_groups: 4,
            });
        let (batches, stats) = server.scan("orders", &request).unwrap();
        assert!(batches.is_empty());
        assert_eq!(stats.bytes_returned, 0);
    }

    #[test]
    fn unknown_column_errors() {
        let server = setup(10);
        let request = ScanRequest::full().project(&["ghost"]);
        assert!(server.scan("orders", &request).is_err());
    }
}
