//! The smart NIC: a bump-in-the-wire kernel pipeline (§4.2–4.3).
//!
//! A [`NicPipeline`] is the program installed on a DPU's data path. Batches
//! stream through the kernels in order; the host CPU never sees the
//! intermediate data. Supported kernels are exactly the stateless/bounded
//! operations the paper identifies for NICs: filter, project, hash,
//! partition (the smart exchange of §4.4), bounded pre-aggregation (the
//! group-by cascade of Figure 3), and count (the query-finishing example
//! where the NIC "simply counts the data as it arrives and discards it").

use std::sync::Arc;

use df_data::partition::hash_row;
use df_data::{Batch, Column, DataType, Field, Schema};
use df_sim::trace::{LaneId, LaneKind, Tracer};
use df_storage::agg::{AggMode, HashAggOp};
use df_storage::predicate::StoragePredicate;
use df_storage::smart::PreAggSpec;

use crate::{NetError, Result};

/// One processing kernel on the NIC data path.
#[derive(Debug, Clone)]
pub enum NicKernel {
    /// Drop rows failing the predicate.
    Filter(StoragePredicate),
    /// Keep only the named columns.
    Project(Vec<String>),
    /// Append a `UInt64`-style hash column (stored as Int64) computed over
    /// the named key columns — "hashing done by the receiving NIC" (Fig. 3).
    AppendHash {
        /// Key columns to hash.
        columns: Vec<String>,
        /// Name of the appended hash column.
        output: String,
    },
    /// Hash-partition rows into `fanout` output streams; must be the last
    /// kernel (its outputs go to different destinations).
    Partition {
        /// Key columns determining the partition.
        columns: Vec<String>,
        /// Number of output partitions.
        fanout: usize,
    },
    /// Bounded pre-aggregation of raw rows (partials flush downstream when
    /// full).
    PreAggregate(PreAggSpec),
    /// Bounded merge of upstream partials in `spec`'s pre-aggregation
    /// layout; emits that same layout, flushing when full.
    MergeAggregate(PreAggSpec),
    /// Count rows, discarding the data; emits a single-row batch at finish.
    Count {
        /// Name of the single output column.
        output: String,
    },
}

/// Data-movement statistics the NIC reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Batches entering the pipeline.
    pub batches_in: u64,
    /// Rows entering.
    pub rows_in: u64,
    /// Bytes entering (in-memory size).
    pub bytes_in: u64,
    /// Rows leaving.
    pub rows_out: u64,
    /// Bytes leaving.
    pub bytes_out: u64,
}

impl NicStats {
    /// Input/output byte reduction factor.
    pub fn reduction_factor(&self) -> f64 {
        if self.bytes_out == 0 {
            f64::INFINITY
        } else {
            self.bytes_in as f64 / self.bytes_out as f64
        }
    }
}

enum KernelState {
    Stateless(NicKernel),
    /// An aggregate kernel, built from the first batch's schema.
    Aggregate {
        spec: PreAggSpec,
        mode: AggMode,
        kernel: Option<Box<HashAggOp>>,
    },
    Count {
        output: String,
        count: i64,
    },
}

impl KernelState {
    fn label(&self) -> &'static str {
        match self {
            KernelState::Stateless(NicKernel::Filter(_)) => "filter",
            KernelState::Stateless(NicKernel::Project(_)) => "project",
            KernelState::Stateless(NicKernel::AppendHash { .. }) => "append-hash",
            KernelState::Stateless(NicKernel::Partition { .. }) => "partition",
            KernelState::Stateless(_) => "kernel",
            KernelState::Aggregate {
                mode: AggMode::Partial { .. },
                ..
            } => "pre-aggregate",
            KernelState::Aggregate { .. } => "merge-aggregate",
            KernelState::Count { .. } => "count",
        }
    }
}

/// A compiled NIC program with its runtime state.
pub struct NicPipeline {
    kernels: Vec<KernelState>,
    partition: Option<(Vec<String>, usize)>,
    stats: NicStats,
    trace: Option<(Arc<Tracer>, LaneId)>,
}

impl NicPipeline {
    /// Compile a kernel list. `Partition` may only appear last.
    pub fn new(kernels: Vec<NicKernel>) -> Result<NicPipeline> {
        let mut states = Vec::new();
        let mut partition = None;
        let n = kernels.len();
        for (i, k) in kernels.into_iter().enumerate() {
            match k {
                NicKernel::Partition { columns, fanout } => {
                    if i + 1 != n {
                        return Err(NetError::Data(df_data::DataError::Corrupt(
                            "Partition must be the last NIC kernel".into(),
                        )));
                    }
                    if fanout == 0 {
                        return Err(NetError::Data(df_data::DataError::Corrupt(
                            "Partition fanout must be positive".into(),
                        )));
                    }
                    partition = Some((columns, fanout));
                }
                NicKernel::PreAggregate(spec) => states.push(KernelState::Aggregate {
                    mode: AggMode::Partial {
                        max_groups: spec.max_groups,
                    },
                    spec,
                    kernel: None,
                }),
                NicKernel::MergeAggregate(spec) => states.push(KernelState::Aggregate {
                    mode: AggMode::Merge {
                        max_groups: Some(spec.max_groups),
                    },
                    spec,
                    kernel: None,
                }),
                NicKernel::Count { output } => states.push(KernelState::Count { output, count: 0 }),
                other => states.push(KernelState::Stateless(other)),
            }
        }
        Ok(NicPipeline {
            kernels: states,
            partition,
            stats: NicStats::default(),
            trace: None,
        })
    }

    /// Record this pipeline's activity on the named wall lane of `tracer`:
    /// one `install:<kernel>` instant per compiled kernel now (program
    /// download to the DPU), then a span per pushed batch.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>, lane: &str) -> NicPipeline {
        let lane = tracer.lane(lane, LaneKind::Wall);
        for kernel in &self.kernels {
            tracer.instant(lane, &format!("install:{}", kernel.label()));
        }
        if let Some((columns, fanout)) = &self.partition {
            tracer.instant(
                lane,
                &format!("install:partition({}x{fanout})", columns.join(",")),
            );
        }
        self.trace = Some((tracer, lane));
        self
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Process one batch, returning `(partition, batch)` outputs. Without a
    /// `Partition` kernel, everything is partition 0.
    pub fn push(&mut self, batch: Batch) -> Result<Vec<(usize, Batch)>> {
        self.stats.batches_in += 1;
        self.stats.rows_in += batch.rows() as u64;
        self.stats.bytes_in += batch.byte_size() as u64;
        let trace = self.trace.clone();
        let mut span = trace.as_ref().map(|(t, lane)| {
            t.span_with(
                *lane,
                "push",
                &[
                    ("rows", batch.rows() as u64),
                    ("bytes", batch.byte_size() as u64),
                ],
            )
        });
        let mut current = Some(batch);
        for kernel in &mut self.kernels {
            let Some(batch) = current.take() else { break };
            current = Self::apply(kernel, batch)?;
        }
        let outputs = match current {
            None => Vec::new(),
            Some(batch) if batch.is_empty() => Vec::new(),
            Some(batch) => self.fan_out(batch)?,
        };
        let mut out_rows = 0;
        for (_, b) in &outputs {
            out_rows += b.rows() as u64;
            self.stats.rows_out += b.rows() as u64;
            self.stats.bytes_out += b.byte_size() as u64;
        }
        if let Some(span) = span.as_mut() {
            span.annotate("out_rows", out_rows);
        }
        Ok(outputs)
    }

    /// Flush stateful kernels at end-of-stream. A kernel's flush flows
    /// through all *later* kernels (so a count after a pre-aggregation sees
    /// the flushed groups) and then out through the partitioner.
    pub fn finish(&mut self) -> Result<Vec<(usize, Batch)>> {
        let trace = self.trace.clone();
        let _span = trace.as_ref().map(|(t, lane)| t.span(*lane, "finish"));
        let mut finished = Vec::new();
        for idx in 0..self.kernels.len() {
            let flushed = match &mut self.kernels[idx] {
                KernelState::Aggregate { kernel, .. } => match kernel.take() {
                    Some(mut k) => k.finish()?.pop(),
                    None => None,
                },
                KernelState::Count { output, count } => {
                    let schema =
                        Schema::new(vec![Field::new(output.clone(), DataType::Int64)]).into_ref();
                    let batch = Batch::new(schema, vec![Column::from_i64(vec![*count])])
                        .map_err(NetError::Data)?;
                    *count = 0;
                    Some(batch)
                }
                KernelState::Stateless(_) => None,
            };
            if let Some(batch) = flushed {
                let mut current = Some(batch);
                for kernel in &mut self.kernels[idx + 1..] {
                    let Some(b) = current.take() else { break };
                    current = Self::apply(kernel, b)?;
                }
                if let Some(b) = current {
                    if !b.is_empty() {
                        finished.push(b);
                    }
                }
            }
        }
        let mut outputs = Vec::new();
        for batch in finished {
            outputs.extend(self.fan_out(batch)?);
        }
        for (_, b) in &outputs {
            self.stats.rows_out += b.rows() as u64;
            self.stats.bytes_out += b.byte_size() as u64;
        }
        Ok(outputs)
    }

    fn apply(kernel: &mut KernelState, batch: Batch) -> Result<Option<Batch>> {
        Ok(match kernel {
            KernelState::Stateless(NicKernel::Filter(pred)) => {
                let selection = pred.evaluate(&batch).map_err(NetError::Storage)?;
                if selection.all_set() {
                    Some(batch)
                } else {
                    Some(batch.filter(&selection)?)
                }
            }
            KernelState::Stateless(NicKernel::Project(names)) => {
                let cols: Vec<&str> = names.iter().map(String::as_str).collect();
                Some(batch.project_names(&cols)?)
            }
            KernelState::Stateless(NicKernel::AppendHash { columns, output }) => {
                let key_cols: Vec<&Column> = columns
                    .iter()
                    .map(|n| batch.column_by_name(n))
                    .collect::<df_data::Result<_>>()?;
                let hashes: Vec<i64> = (0..batch.rows())
                    .map(|r| hash_row(&key_cols, r) as i64)
                    .collect();
                let mut fields = batch.schema().fields().to_vec();
                fields.push(Field::new(output.clone(), DataType::Int64));
                let mut columns_out = batch.columns().to_vec();
                columns_out.push(Column::from_i64(hashes));
                Some(Batch::new(Schema::new(fields).into_ref(), columns_out)?)
            }
            KernelState::Stateless(_) => unreachable!("partition handled in fan_out"),
            KernelState::Aggregate { spec, mode, kernel } => {
                let kernel = match kernel {
                    Some(k) => k,
                    None => kernel.insert(Box::new(spec.kernel(*mode, batch.schema())?)),
                };
                kernel.push(batch)?.pop()
            }
            KernelState::Count { count, .. } => {
                *count += batch.rows() as i64;
                None // data is discarded at the NIC
            }
        })
    }

    fn fan_out(&self, batch: Batch) -> Result<Vec<(usize, Batch)>> {
        match &self.partition {
            None => Ok(vec![(0, batch)]),
            Some((columns, fanout)) => {
                let key_cols: Vec<&Column> = columns
                    .iter()
                    .map(|n| batch.column_by_name(n))
                    .collect::<df_data::Result<_>>()?;
                let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); *fanout];
                for row in 0..batch.rows() {
                    let h = hash_row(&key_cols, row);
                    buckets[(h % *fanout as u64) as usize].push(row);
                }
                Ok(buckets
                    .into_iter()
                    .enumerate()
                    .filter(|(_, rows)| !rows.is_empty())
                    .map(|(p, rows)| (p, batch.gather(&rows)))
                    .collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;
    use df_storage::agg::AggFn;
    use df_storage::zonemap::CmpOp;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("k", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 5)).collect::<Vec<_>>()),
            ),
            (
                "v",
                Column::from_i64((0..n as i64).map(|i| i * 2).collect()),
            ),
        ])
    }

    #[test]
    fn filter_kernel_drops_rows() {
        let mut nic = NicPipeline::new(vec![NicKernel::Filter(StoragePredicate::cmp(
            "k",
            CmpOp::Lt,
            10i64,
        ))])
        .unwrap();
        let out = nic.push(sample(100)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.rows(), 10);
        assert!(nic.stats().reduction_factor() > 5.0);
    }

    #[test]
    fn project_kernel_prunes_columns() {
        let mut nic = NicPipeline::new(vec![NicKernel::Project(vec!["v".into()])]).unwrap();
        let out = nic.push(sample(10)).unwrap();
        assert_eq!(out[0].1.schema().len(), 1);
        assert_eq!(out[0].1.schema().field(0).name, "v");
    }

    #[test]
    fn append_hash_is_deterministic() {
        let kernels = || {
            NicPipeline::new(vec![NicKernel::AppendHash {
                columns: vec!["grp".into()],
                output: "h".into(),
            }])
            .unwrap()
        };
        let a = kernels().push(sample(50)).unwrap();
        let b = kernels().push(sample(50)).unwrap();
        assert_eq!(a[0].1.canonical_rows(), b[0].1.canonical_rows());
        // Same group value -> same hash.
        let batch = &a[0].1;
        let h = batch.column_by_name("h").unwrap().i64_values().unwrap();
        let g0_hashes: Vec<i64> = (0..50).filter(|i| i % 5 == 0).map(|i| h[i]).collect();
        assert!(g0_hashes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn partition_covers_all_rows_exactly_once() {
        let mut nic = NicPipeline::new(vec![NicKernel::Partition {
            columns: vec!["k".into()],
            fanout: 4,
        }])
        .unwrap();
        let out = nic.push(sample(1000)).unwrap();
        let total: usize = out.iter().map(|(_, b)| b.rows()).sum();
        assert_eq!(total, 1000);
        // All partition ids valid and more than one used.
        assert!(out.iter().all(|(p, _)| *p < 4));
        assert!(out.len() > 1);
        // Same key always lands in the same partition: partition again.
        let mut nic2 = NicPipeline::new(vec![NicKernel::Partition {
            columns: vec!["k".into()],
            fanout: 4,
        }])
        .unwrap();
        let out2 = nic2.push(sample(1000)).unwrap();
        for ((p1, b1), (p2, b2)) in out.iter().zip(out2.iter()) {
            assert_eq!(p1, p2);
            assert_eq!(b1.canonical_rows(), b2.canonical_rows());
        }
    }

    #[test]
    fn partition_not_last_rejected() {
        let err = NicPipeline::new(vec![
            NicKernel::Partition {
                columns: vec!["k".into()],
                fanout: 2,
            },
            NicKernel::Count { output: "n".into() },
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn count_discards_data_and_reports_total() {
        let mut nic = NicPipeline::new(vec![NicKernel::Count { output: "n".into() }]).unwrap();
        for _ in 0..4 {
            let out = nic.push(sample(250)).unwrap();
            assert!(out.is_empty(), "count must not forward data");
        }
        let fin = nic.finish().unwrap();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].1.column(0).i64_values().unwrap(), &[1000]);
        // Everything was absorbed at the NIC: bytes_out is just the count row.
        assert!(nic.stats().bytes_out < 100);
        assert!(nic.stats().bytes_in > 10_000);
    }

    #[test]
    fn preagg_kernel_reduces_stream() {
        let spec = PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![(AggFn::Sum, "v".into())],
            max_groups: 1024,
        };
        let mut nic = NicPipeline::new(vec![NicKernel::PreAggregate(spec)]).unwrap();
        for chunk in sample(1000).split(100).unwrap() {
            nic.push(chunk).unwrap();
        }
        let fin = nic.finish().unwrap();
        let merged =
            Batch::concat(&fin.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>()).unwrap();
        assert_eq!(merged.rows(), 5);
        let total: i64 = (0..merged.rows())
            .map(|r| merged.column(1).scalar_at(r).as_int().unwrap())
            .sum();
        let expect: i64 = (0..1000i64).map(|i| i * 2).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn three_stage_cascade_keeps_exact_totals() {
        // Figure 3's group-by cascade on NICs: a raw pre-aggregation, then
        // two bounded merges of its partials. Rows come in runs of four per
        // group, cycling over 5 groups: the first stage folds each run into
        // one partial, the first two stages hold fewer slots than there are
        // groups and flush, and the last holds all 5.
        let spec = |max_groups| PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![
                (AggFn::Count, "k".into()),
                (AggFn::Sum, "v".into()),
                (AggFn::Min, "v".into()),
                (AggFn::Max, "v".into()),
            ],
            max_groups,
        };
        let stages = [
            NicKernel::PreAggregate(spec(2)),
            NicKernel::MergeAggregate(spec(3)),
            NicKernel::MergeAggregate(spec(5)),
        ];
        let group_of = |i: i64| i / 4 % 5;
        let batch = batch_of(vec![
            ("k", Column::from_i64((0..1000).collect())),
            (
                "grp",
                Column::from_strs(
                    &(0..1000)
                        .map(|i| format!("g{}", group_of(i)))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("v", Column::from_i64((0..1000).map(|i| i * 2).collect())),
        ]);
        let mut stream = batch.split(64).unwrap();
        let mut rows = Vec::new();
        for kernel in stages {
            let mut nic = NicPipeline::new(vec![kernel]).unwrap();
            let mut next = Vec::new();
            for batch in stream {
                next.extend(nic.push(batch).unwrap().into_iter().map(|(_, b)| b));
            }
            next.extend(nic.finish().unwrap().into_iter().map(|(_, b)| b));
            rows.push(next.iter().map(Batch::rows).sum::<usize>());
            stream = next;
        }
        assert!(
            rows[0] == 250 && rows[1] <= rows[0] && rows[1] > 5 && rows[2] == 5,
            "{rows:?}"
        );
        let out = Batch::concat(&stream).unwrap();
        let names: Vec<&str> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["grp", "count_k", "sum_v", "min_v", "max_v"]);
        assert_eq!(out.rows(), 5);
        for g in 0..5 {
            let v: Vec<i64> = (0..1000)
                .filter(|&i| group_of(i) == g)
                .map(|i| i * 2)
                .collect();
            assert_eq!(out.column(0).str_at(g as usize), format!("g{g}"));
            let row = out.row(g as usize);
            assert_eq!(row[1], df_data::Scalar::Int(200));
            assert_eq!(row[2], df_data::Scalar::Int(v.iter().sum()));
            assert_eq!(row[3], df_data::Scalar::Int(v[0]));
            assert_eq!(row[4], df_data::Scalar::Int(v[199]));
        }
    }

    #[test]
    fn figure3_pipeline_filter_project_hash() {
        // Projection at storage is modelled by the caller; the NIC chains
        // filter -> project -> hash as in Figure 3's receiving side.
        let mut nic = NicPipeline::new(vec![
            NicKernel::Filter(StoragePredicate::cmp("v", CmpOp::Ge, 100i64)),
            NicKernel::Project(vec!["grp".into(), "v".into()]),
            NicKernel::AppendHash {
                columns: vec!["grp".into()],
                output: "h".into(),
            },
        ])
        .unwrap();
        let out = nic.push(sample(100)).unwrap();
        let batch = &out[0].1;
        assert_eq!(batch.schema().len(), 3);
        assert_eq!(batch.rows(), 50);
    }

    #[test]
    fn preagg_then_count_via_finish_chain() {
        // A flushed pre-agg result must flow through later kernels.
        let spec = PreAggSpec {
            group_by: vec!["grp".into()],
            aggs: vec![(AggFn::Count, "k".into())],
            max_groups: 1024,
        };
        let mut nic = NicPipeline::new(vec![
            NicKernel::PreAggregate(spec),
            NicKernel::Count {
                output: "groups".into(),
            },
        ])
        .unwrap();
        nic.push(sample(1000)).unwrap();
        let fin = nic.finish().unwrap();
        assert_eq!(fin.len(), 1);
        // 5 groups flowed from the pre-agg flush into the counter.
        assert_eq!(fin[0].1.column(0).i64_values().unwrap(), &[5]);
    }

    #[test]
    fn empty_batches_produce_no_output() {
        let mut nic = NicPipeline::new(vec![NicKernel::Filter(StoragePredicate::cmp(
            "k",
            CmpOp::Lt,
            -1i64,
        ))])
        .unwrap();
        let out = nic.push(sample(10)).unwrap();
        assert!(out.is_empty());
    }
}
