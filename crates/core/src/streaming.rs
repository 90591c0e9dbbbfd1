//! Streaming execution: unbounded sources, frontiers, and windowed
//! aggregation (§7.4–7.5, the stateless-streaming scenario family).
//!
//! Three pieces live here, all consumed through the pipeline-graph IR:
//!
//! - [`StreamSourceSpec`] / [`StreamGen`] — a seed-deterministic
//!   log-analytics telemetry generator ([`df_sim::SimRng`]) that emits
//!   batches with a strictly ascending `ts` column. `batches: None`
//!   makes the source *unbounded*: the compiled graph must then pass the
//!   verifier's streaming rules (no breakers, no exchanges on the stream
//!   spine) and be bounded with
//!   [`crate::pipeline::PipelineGraph::with_stream_horizon`] before an
//!   executor drives it.
//! - [`WindowSpec`] — tumbling/sliding event-time windows over `ts`.
//! - [`WindowAggOp`] — windowed hash aggregation in the timely-dataflow
//!   progress model: rows are routed to their window's [`HashAggOp`]; a
//!   window may only close (drain downstream) once the **input frontier**
//!   passes its end bound, which the executor signals via
//!   [`WindowAggOp::advance`] when punctuation arrives. Windows close in
//!   ascending start order and each window drains in [`HashAggOp`]'s
//!   deterministic key order, so a punctuation-driven streaming run is
//!   bit-identical to the batch run that closes every window at
//!   `finish()` — the property `tests/streaming_oracle.rs` pins.
//!
//! No row is ever retracted: a row whose window already closed is a
//! frontier-safety violation and fails the query instead of silently
//! reopening state.

use std::collections::BTreeMap;

use df_data::batch::batch_of;
use df_data::{Batch, Column, DataType, Field, Schema, SchemaRef};
use df_sim::SimRng;

use df_fabric::DeviceId;

use crate::error::{EngineError, Result};
use crate::logical::AggCall;
use crate::ops::aggregate::partial_schema;
use crate::ops::{AggMode, HashAggOp, Operator};
use crate::physical::{PhysNode, PhysicalPlan};

/// Default number of batches the cost model prices an unbounded source
/// at when no explicit horizon is supplied.
pub const DEFAULT_PRICED_BATCHES: u64 = 64;

/// Column name carrying a closed window's start timestamp, prepended to
/// every [`WindowAggOp`] output schema.
pub const WSTART_COL: &str = "wstart";

/// A seed-deterministic streaming log-analytics source.
///
/// The generator emits telemetry rows `(ts, sensor, value, level)` with
/// a strictly ascending event-time column, so event time and arrival
/// order coincide and the source's frontier after a batch is simply
/// "one past the last emitted `ts`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSourceSpec {
    /// RNG seed; equal seeds reproduce byte-identical streams.
    pub seed: u64,
    /// Rows per emitted batch (≥ 1).
    pub rows_per_batch: usize,
    /// Number of batches, or `None` for an unbounded stream. Executors
    /// only drive bounded streams; bound an unbounded graph with
    /// [`crate::pipeline::PipelineGraph::with_stream_horizon`].
    pub batches: Option<u64>,
    /// Distinct sensor ids (the aggregation key space).
    pub sensors: u64,
    /// First event timestamp.
    pub start_ts: i64,
    /// Emit punctuation after every this many batches (≥ 1).
    pub punct_every: u64,
}

impl Default for StreamSourceSpec {
    fn default() -> Self {
        StreamSourceSpec {
            seed: 42,
            rows_per_batch: 256,
            batches: None,
            sensors: 16,
            start_ts: 0,
            punct_every: 1,
        }
    }
}

impl StreamSourceSpec {
    /// True when the stream never ends on its own.
    pub fn is_unbounded(&self) -> bool {
        self.batches.is_none()
    }

    /// Batch count the cost model prices the source at: the bound when
    /// finite, [`DEFAULT_PRICED_BATCHES`] otherwise.
    pub fn priced_batches(&self) -> u64 {
        self.batches.unwrap_or(DEFAULT_PRICED_BATCHES)
    }

    /// The generator's output schema.
    pub fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("ts", DataType::Int64),
            Field::new("sensor", DataType::Int64),
            Field::new("value", DataType::Float64),
            Field::new("level", DataType::Utf8),
        ])
        .into_ref()
    }

    /// Materialize the stream's finite prefix (`batches` must be set, or
    /// pass an explicit `horizon`) — the oracle side of the
    /// streaming-vs-batch equivalence tests.
    pub fn materialize(&self, horizon: Option<u64>) -> Result<Vec<Batch>> {
        let n = horizon.or(self.batches).ok_or_else(|| {
            EngineError::Plan("cannot materialize an unbounded stream without a horizon".into())
        })?;
        let mut gen = StreamGen::new(self);
        Ok((0..n).filter_map(|_| gen.next_batch()).collect())
    }
}

/// The running generator behind a [`StreamSourceSpec`].
#[derive(Debug, Clone)]
pub struct StreamGen {
    rng: SimRng,
    ts: i64,
    emitted: u64,
    rows_per_batch: usize,
    batches: Option<u64>,
    sensors: u64,
}

const LEVELS: [&str; 4] = ["debug", "info", "warn", "error"];

impl StreamGen {
    /// Start the stream described by `spec` from the beginning.
    pub fn new(spec: &StreamSourceSpec) -> StreamGen {
        StreamGen {
            rng: SimRng::new(spec.seed),
            ts: spec.start_ts,
            emitted: 0,
            rows_per_batch: spec.rows_per_batch.max(1),
            batches: spec.batches,
            sensors: spec.sensors.max(1),
        }
    }

    /// The source frontier: every future row's `ts` is ≥ this value.
    pub fn frontier(&self) -> i64 {
        self.ts
    }

    /// The next batch, or `None` once a bounded stream is exhausted.
    pub fn next_batch(&mut self) -> Option<Batch> {
        if let Some(bound) = self.batches {
            if self.emitted >= bound {
                return None;
            }
        }
        self.emitted += 1;
        let n = self.rows_per_batch;
        let mut ts = Vec::with_capacity(n);
        let mut sensor = Vec::with_capacity(n);
        let mut value = Vec::with_capacity(n);
        let mut level: Vec<&'static str> = Vec::with_capacity(n);
        for _ in 0..n {
            ts.push(self.ts);
            sensor.push(self.rng.next_below(self.sensors) as i64);
            value.push((self.rng.next_f64() * 100.0 * 64.0).round() / 64.0);
            let lvl = if self.rng.chance(0.05) {
                3
            } else {
                self.rng.next_below(3) as usize
            };
            level.push(LEVELS[lvl]);
            // Strictly ascending event time: arrival order is event order,
            // so punctuation can trail every batch without reordering.
            self.ts += self.rng.range_inclusive(1, 4) as i64;
        }
        Some(batch_of(vec![
            ("ts", Column::from_i64(ts)),
            ("sensor", Column::from_i64(sensor)),
            ("value", Column::from_f64(value)),
            ("level", Column::from_strs(&level)),
        ]))
    }
}

/// An event-time window assignment: tumbling when `slide == size`,
/// sliding (overlapping) when `slide < size`. Windows are
/// `[k*slide, k*slide + size)` for integer `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in `ts` units (> 0).
    pub size: i64,
    /// Start-to-start distance (0 < slide ≤ size).
    pub slide: i64,
}

impl WindowSpec {
    /// A tumbling window: every row lands in exactly one window.
    pub fn tumbling(size: i64) -> WindowSpec {
        WindowSpec { size, slide: size }
    }

    /// A sliding window; `slide` must divide rows into overlapping
    /// windows (`slide ≤ size`, both > 0 — validated at operator build).
    pub fn sliding(size: i64, slide: i64) -> WindowSpec {
        WindowSpec { size, slide }
    }

    fn validate(&self) -> Result<()> {
        if self.size <= 0 || self.slide <= 0 || self.slide > self.size {
            return Err(EngineError::Plan(format!(
                "window requires 0 < slide <= size, got size={} slide={}",
                self.size, self.slide
            )));
        }
        Ok(())
    }

    /// Window-start index range `[k_min, k_max]` a timestamp falls in.
    fn window_range(&self, ts: i64) -> (i64, i64) {
        let k_max = ts.div_euclid(self.slide);
        let k_min = (ts - self.size).div_euclid(self.slide) + 1;
        (k_min, k_max)
    }
}

/// Output schema of a windowed aggregation: `wstart: Int64` prepended to
/// the inner aggregate's output (the partial layout for
/// [`AggMode::Partial`], the final schema otherwise).
pub fn window_output_schema(
    group_by: &[String],
    aggs: &[AggCall],
    mode: AggMode,
    input_schema: &SchemaRef,
    final_schema: &SchemaRef,
) -> Result<SchemaRef> {
    let inner: Vec<Field> = match mode {
        AggMode::Partial { .. } => partial_schema(group_by, aggs, input_schema)?
            .fields()
            .to_vec(),
        _ => final_schema.fields().to_vec(),
    };
    let mut fields = vec![Field::new(WSTART_COL, DataType::Int64)];
    fields.extend(inner);
    Ok(Schema::new(fields).into_ref())
}

/// Final (inner) output schema of a windowed aggregation: group-by
/// fields then one nullable field per aggregate — the same convention as
/// [`crate::logical::LogicalPlan::aggregate`]. The operator prepends
/// `wstart` itself ([`window_output_schema`]).
pub fn window_final_schema(
    group_by: &[String],
    aggs: &[AggCall],
    input_schema: &SchemaRef,
) -> Result<SchemaRef> {
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        let idx = input_schema.index_of(g)?;
        fields.push(input_schema.fields()[idx].clone());
    }
    for agg in aggs {
        let input_type = match &agg.column {
            Some(c) => Some(input_schema.fields()[input_schema.index_of(c)?].dtype),
            None => None,
        };
        fields.push(Field::nullable(
            agg.alias.clone(),
            agg.output_type(input_type)?,
        ));
    }
    Ok(Schema::new(fields).into_ref())
}

/// Build the canonical two-stage windowed streaming plan:
///
/// ```text
/// StreamScan(source_device)
///   -> WindowAggregate Partial (agg_device)   e.g. NIC Rx
///   -> WindowAggregate Merge   (merge_device) host CPU
/// ```
///
/// Partial-mode window aggregation is [`OpClass::AggregatePartial`], so
/// `agg_device` may legally be a SmartNIC — the paper's Rx-side
/// windowing. `None` devices leave placement to the default.
///
/// [`OpClass::AggregatePartial`]: df_fabric::OpClass::AggregatePartial
#[allow(clippy::too_many_arguments)]
pub fn windowed_stream_plan(
    spec: &StreamSourceSpec,
    window: WindowSpec,
    group_by: Vec<String>,
    aggs: Vec<AggCall>,
    max_groups: usize,
    source_device: Option<DeviceId>,
    agg_device: Option<DeviceId>,
    merge_device: Option<DeviceId>,
) -> Result<PhysicalPlan> {
    let schema = StreamSourceSpec::schema();
    let final_schema = window_final_schema(&group_by, &aggs, &schema)?;
    let scan = PhysNode::StreamScan {
        spec: spec.clone(),
        schema: schema.clone(),
        device: source_device,
    };
    let partial = PhysNode::WindowAggregate {
        input: Box::new(scan),
        ts_col: "ts".into(),
        window,
        group_by: group_by.clone(),
        aggs: aggs.clone(),
        mode: AggMode::Partial { max_groups },
        final_schema: final_schema.clone(),
        device: agg_device,
    };
    let merge = PhysNode::WindowAggregate {
        input: Box::new(partial),
        ts_col: WSTART_COL.into(),
        window,
        group_by,
        aggs,
        mode: AggMode::Merge { max_groups: None },
        final_schema,
        device: merge_device,
    };
    Ok(PhysicalPlan::new(merge, "windowed-stream"))
}

/// Windowed hash aggregation with frontier-gated emission.
///
/// Holds one [`HashAggOp`] per open window in a `BTreeMap` keyed by
/// window start. [`Operator::push`] routes rows (by `ts` for
/// Partial/Final over raw rows; by the leading `wstart` column for
/// Merge over upstream window partials); [`WindowAggOp::advance`]
/// closes — in ascending start order — every window whose end bound the
/// new frontier has passed. [`Operator::finish`] closes the rest, which
/// is the entire batch-oracle semantics: with no punctuation at all,
/// every window drains at end of input in the same order with the same
/// contents.
pub struct WindowAggOp {
    ts_idx: usize,
    window: WindowSpec,
    group_by: Vec<String>,
    aggs: Vec<AggCall>,
    mode: AggMode,
    /// Schema the per-window inner aggregates consume.
    inner_input: SchemaRef,
    /// Final schema of the inner aggregate (sans `wstart`).
    inner_final: SchemaRef,
    out_schema: SchemaRef,
    windows: BTreeMap<i64, HashAggOp>,
    /// Greatest frontier seen; windows ending at or before it are closed.
    frontier: i64,
    /// Sum of inner partial flushes (observability parity with
    /// [`HashAggOp::flush_count`]).
    flushes: u64,
}

impl WindowAggOp {
    /// Build a windowed aggregate over `input_schema`.
    ///
    /// `ts_col` must be an `Int64` column of `input_schema` for
    /// Partial/Final modes. Merge mode instead consumes the
    /// `wstart`-prefixed positional partial layout — exactly what a
    /// Partial-mode [`WindowAggOp`] emits — so `input_schema` must lead
    /// with an `Int64` window-start column.
    pub fn new(
        ts_col: &str,
        window: WindowSpec,
        group_by: Vec<String>,
        aggs: Vec<AggCall>,
        mode: AggMode,
        input_schema: &SchemaRef,
        final_schema: SchemaRef,
    ) -> Result<WindowAggOp> {
        window.validate()?;
        let (ts_idx, inner_input) = match mode {
            AggMode::Merge { .. } => {
                let fields = input_schema.fields();
                if fields.is_empty() || fields[0].dtype != DataType::Int64 {
                    return Err(EngineError::Plan(
                        "merge-mode window input must lead with an Int64 wstart column".into(),
                    ));
                }
                (0, Schema::new(fields[1..].to_vec()).into_ref())
            }
            _ => {
                let idx = input_schema.index_of(ts_col)?;
                if input_schema.fields()[idx].dtype != DataType::Int64 {
                    return Err(EngineError::Plan(format!(
                        "window timestamp column '{ts_col}' must be Int64"
                    )));
                }
                (idx, input_schema.clone())
            }
        };
        let out_schema = window_output_schema(&group_by, &aggs, mode, input_schema, &final_schema)?;
        Ok(WindowAggOp {
            ts_idx,
            window,
            group_by,
            aggs,
            mode,
            inner_input,
            inner_final: final_schema,
            out_schema,
            windows: BTreeMap::new(),
            frontier: i64::MIN,
            flushes: 0,
        })
    }

    /// The greatest frontier this operator has observed.
    pub fn frontier(&self) -> i64 {
        self.frontier
    }

    /// Total inner partial flushes so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    fn inner_for(&mut self, wstart: i64) -> Result<&mut HashAggOp> {
        use std::collections::btree_map::Entry;
        match self.windows.entry(wstart) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => Ok(e.insert(HashAggOp::new(
                self.group_by.clone(),
                self.aggs.clone(),
                self.mode,
                &self.inner_input,
                self.inner_final.clone(),
            )?)),
        }
    }

    /// Prepend a constant `wstart` column to an inner output batch.
    fn tag(&self, wstart: i64, inner: Batch) -> Result<Batch> {
        let mut cols = vec![Column::from_i64(vec![wstart; inner.rows()])];
        cols.extend((0..inner.schema().len()).map(|i| inner.column(i).clone()));
        Batch::new(self.out_schema.clone(), cols).map_err(EngineError::from)
    }

    /// Route one raw batch (Partial/Final modes). Requires ascending
    /// `ts` — the streaming contract — so each window's rows form a
    /// contiguous zero-copy slice.
    fn push_raw(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        let ts_col = batch.column(self.ts_idx);
        let ts = ts_col.i64_values().map_err(EngineError::from)?;
        if ts.is_empty() {
            return Ok(vec![]);
        }
        for i in 0..ts.len() {
            if ts_col.is_null(i) {
                return Err(EngineError::Plan(
                    "window timestamp column must not contain nulls".into(),
                ));
            }
            if i > 0 && ts[i] < ts[i - 1] {
                return Err(EngineError::Internal(format!(
                    "stream out of order: ts {} after {}",
                    ts[i],
                    ts[i - 1]
                )));
            }
        }
        // Frontier safety: a row belonging to an already-closed window
        // would retract emitted output. Closed ⇔ window end ≤ frontier.
        let (first_k, _) = self.window.window_range(ts[0]);
        if first_k * self.window.slide + self.window.size <= self.frontier {
            return Err(EngineError::Internal(format!(
                "frontier violation: row at ts {} arrived after its window closed (frontier {})",
                ts[0], self.frontier
            )));
        }
        let (lo_k, _) = self.window.window_range(ts[0]);
        let (_, hi_k) = self.window.window_range(ts[ts.len() - 1]);
        let mut out = Vec::new();
        for k in lo_k..=hi_k {
            let wstart = k * self.window.slide;
            // Ascending ts ⇒ the window's rows are one contiguous run.
            let lo = ts.partition_point(|&t| t < wstart);
            let hi = ts.partition_point(|&t| t < wstart + self.window.size);
            if lo >= hi {
                continue;
            }
            let slice = batch.slice(lo, hi - lo);
            let inner = self.inner_for(wstart)?;
            for flushed in inner.push(slice)? {
                self.flushes += 1;
                out.push(self.tag(wstart, flushed)?);
            }
        }
        Ok(out)
    }

    /// Route one partial batch by its `wstart` column (Merge mode).
    fn push_partials(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        let ws_col = batch.column(0);
        let ws = ws_col.i64_values().map_err(EngineError::from)?;
        if ws.is_empty() {
            return Ok(vec![]);
        }
        let inner_idx: Vec<usize> = (1..batch.schema().len()).collect();
        let mut run = 0usize;
        while run < ws.len() {
            let wstart = ws[run];
            if wstart + self.window.size <= self.frontier {
                return Err(EngineError::Internal(format!(
                    "frontier violation: partial for window {wstart} arrived after close \
                     (frontier {})",
                    self.frontier
                )));
            }
            let mut end = run + 1;
            while end < ws.len() && ws[end] == wstart {
                end += 1;
            }
            let slice = batch
                .slice(run, end - run)
                .project(&inner_idx)
                .map_err(EngineError::from)?;
            self.inner_for(wstart)?.push(slice)?;
            run = end;
        }
        Ok(vec![])
    }

    /// The input frontier advanced to `frontier`: close every window
    /// whose end bound it passed, in ascending window-start order.
    /// Returns `(window_end, batch)` per closed window so the executor
    /// can record frontier lag. Errors on frontier regression.
    pub fn advance(&mut self, frontier: i64) -> Result<Vec<(i64, Batch)>> {
        if frontier < self.frontier {
            return Err(EngineError::Internal(format!(
                "frontier moved backwards: {} after {}",
                frontier, self.frontier
            )));
        }
        self.frontier = frontier;
        let mut out = Vec::new();
        while let Some((wstart, mut inner)) = self.windows.pop_first() {
            let wend = wstart.saturating_add(self.window.size);
            if wend > frontier {
                self.windows.insert(wstart, inner);
                break;
            }
            for drained in inner.finish()? {
                if !drained.is_empty() {
                    out.push((wend, self.tag(wstart, drained)?));
                }
            }
        }
        Ok(out)
    }
}

impl Operator for WindowAggOp {
    fn schema(&self) -> SchemaRef {
        self.out_schema.clone()
    }

    fn push(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        match self.mode {
            AggMode::Merge { .. } => self.push_partials(batch),
            _ => self.push_raw(batch),
        }
    }

    /// End of input closes every remaining window — ascending, same as
    /// frontier-driven closure, which makes a no-punctuation batch run
    /// the oracle for a punctuated streaming run.
    fn finish(&mut self) -> Result<Vec<Batch>> {
        let drained = self.advance(i64::MAX)?;
        Ok(drained.into_iter().map(|(_, b)| b).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::AggFn;

    fn spec(batches: u64) -> StreamSourceSpec {
        StreamSourceSpec {
            seed: 7,
            rows_per_batch: 64,
            batches: Some(batches),
            sensors: 4,
            start_ts: 0,
            punct_every: 1,
        }
    }

    #[test]
    fn generator_is_seed_deterministic_and_ascending() {
        let a = spec(5).materialize(None).unwrap();
        let b = spec(5).materialize(None).unwrap();
        assert_eq!(a.len(), 5);
        let mut last = i64::MIN;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.canonical_rows(), y.canonical_rows());
            let ts = x.column(0).i64_values().unwrap();
            for &t in ts {
                assert!(t > last, "ts must strictly ascend");
                last = t;
            }
        }
        let mut g = StreamGen::new(&spec(5));
        while g.next_batch().is_some() {}
        assert!(g.frontier() > last, "frontier passes all emitted rows");
    }

    #[test]
    fn tumbling_window_matches_manual_grouping() {
        let batches = spec(4).materialize(None).unwrap();
        let schema = StreamSourceSpec::schema();
        let final_schema = Schema::new(vec![
            Field::new("sensor", DataType::Int64),
            Field::nullable("n", DataType::Int64),
        ])
        .into_ref();
        let mut op = WindowAggOp::new(
            "ts",
            WindowSpec::tumbling(32),
            vec!["sensor".into()],
            vec![AggCall::count_star("n")],
            AggMode::Final,
            &schema,
            final_schema,
        )
        .unwrap();
        let mut manual: BTreeMap<(i64, i64), i64> = BTreeMap::new();
        for b in &batches {
            let ts = b.column(0).i64_values().unwrap();
            let sensor = b.column(1).i64_values().unwrap();
            for i in 0..b.rows() {
                *manual
                    .entry((ts[i].div_euclid(32) * 32, sensor[i]))
                    .or_insert(0) += 1;
            }
            assert!(op.push(b.clone()).unwrap().is_empty(), "final mode buffers");
        }
        let out = op.finish().unwrap();
        let merged = Batch::concat(&out).unwrap();
        assert_eq!(merged.rows(), manual.len());
        let mut seen: Vec<(i64, i64, i64)> = Vec::new();
        for r in 0..merged.rows() {
            let row = merged.row(r);
            seen.push((
                row[0].as_int().unwrap(),
                row[1].as_int().unwrap(),
                row[2].as_int().unwrap(),
            ));
        }
        for (ws, s, n) in &seen {
            assert_eq!(manual.get(&(*ws, *s)), Some(n), "window {ws} sensor {s}");
        }
        // Windows drain ascending by wstart.
        let ws: Vec<i64> = seen.iter().map(|(w, _, _)| *w).collect();
        let mut sorted = ws.clone();
        sorted.sort_unstable();
        assert_eq!(ws, sorted);
    }

    #[test]
    fn sliding_window_duplicates_rows_across_windows() {
        let schema = StreamSourceSpec::schema();
        let final_schema = Schema::new(vec![Field::nullable("n", DataType::Int64)]).into_ref();
        let mut op = WindowAggOp::new(
            "ts",
            WindowSpec::sliding(20, 10),
            vec![],
            vec![AggCall::count_star("n")],
            AggMode::Final,
            &schema,
            final_schema,
        )
        .unwrap();
        let b = batch_of(vec![
            ("ts", Column::from_i64(vec![5, 12, 25])),
            ("sensor", Column::from_i64(vec![0, 0, 0])),
            ("value", Column::from_f64(vec![1.0, 1.0, 1.0])),
            ("level", Column::from_strs(&["info", "info", "info"])),
        ]);
        op.push(b).unwrap();
        let out = op.finish().unwrap();
        // Windows: [-10,10):{5} [0,20):{5,12} [10,30):{12,25} [20,40):{25}.
        let counts: Vec<(i64, i64)> = out
            .iter()
            .flat_map(|b| {
                (0..b.rows()).map(|r| {
                    let row = b.row(r);
                    (row[0].as_int().unwrap(), row[1].as_int().unwrap())
                })
            })
            .collect();
        assert_eq!(counts, vec![(-10, 1), (0, 2), (10, 2), (20, 1)]);
    }

    #[test]
    fn frontier_gates_emission_and_rejects_regression() {
        let schema = StreamSourceSpec::schema();
        let final_schema = Schema::new(vec![Field::nullable("n", DataType::Int64)]).into_ref();
        let mut op = WindowAggOp::new(
            "ts",
            WindowSpec::tumbling(10),
            vec![],
            vec![AggCall::count_star("n")],
            AggMode::Final,
            &schema,
            final_schema,
        )
        .unwrap();
        let row = |ts: i64| {
            batch_of(vec![
                ("ts", Column::from_i64(vec![ts])),
                ("sensor", Column::from_i64(vec![0])),
                ("value", Column::from_f64(vec![1.0])),
                ("level", Column::from_strs(&["info"])),
            ])
        };
        op.push(row(3)).unwrap();
        // Frontier 9 has not passed window [0,10): nothing closes.
        assert!(op.advance(9).unwrap().is_empty());
        // Frontier 10 closes it, with the lag-bearing end bound.
        let closed = op.advance(10).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, 10);
        // Regression is a hard error.
        assert!(op.advance(5).is_err());
        // A row inside a closed window would retract output: hard error.
        assert!(op.push(row(4)).is_err());
    }

    #[test]
    fn partial_merge_cascade_matches_final() {
        let batches = spec(6).materialize(None).unwrap();
        let schema = StreamSourceSpec::schema();
        let final_schema = Schema::new(vec![
            Field::new("sensor", DataType::Int64),
            Field::nullable("total", DataType::Float64),
        ])
        .into_ref();
        let mk_final = || {
            WindowAggOp::new(
                "ts",
                WindowSpec::tumbling(64),
                vec!["sensor".into()],
                vec![AggCall::new(AggFn::Sum, "value", "total")],
                AggMode::Final,
                &schema,
                final_schema.clone(),
            )
            .unwrap()
        };
        let mut direct = mk_final();
        let mut partial = WindowAggOp::new(
            "ts",
            WindowSpec::tumbling(64),
            vec!["sensor".into()],
            vec![AggCall::new(AggFn::Sum, "value", "total")],
            AggMode::Partial { max_groups: 3 },
            &schema,
            final_schema.clone(),
        )
        .unwrap();
        let mut merge = WindowAggOp::new(
            "ts",
            WindowSpec::tumbling(64),
            vec!["sensor".into()],
            vec![AggCall::new(AggFn::Sum, "value", "total")],
            AggMode::Merge { max_groups: None },
            &partial.schema(),
            final_schema.clone(),
        )
        .unwrap();
        for b in &batches {
            direct.push(b.clone()).unwrap();
            for partial_out in partial.push(b.clone()).unwrap() {
                merge.push(partial_out).unwrap();
            }
        }
        assert!(partial.flush_count() > 0, "max_groups=3 must force flushes");
        for tail in partial.finish().unwrap() {
            merge.push(tail).unwrap();
        }
        let a = Batch::concat(&direct.finish().unwrap()).unwrap();
        let b = Batch::concat(&merge.finish().unwrap()).unwrap();
        assert_eq!(a.canonical_rows(), b.canonical_rows());
    }
}
