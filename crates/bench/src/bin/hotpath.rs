//! Hot-path microbenchmarks for the zero-copy buffer and vectorized
//! aggregation work, with machine-readable output.
//!
//! ```text
//! cargo run -p df-bench --release --bin hotpath             # full run
//! cargo run -p df-bench --release --bin hotpath -- --smoke  # CI smoke
//! cargo run -p df-bench --release --bin hotpath -- --out BENCH_hotpath.json
//! ```
//!
//! Seven measurements:
//!
//! * `split`: chopping a ~36 MB batch into 4096-row morsels. Asserts (via
//!   pointer identity into the parent allocation) that no data buffer is
//!   copied — splitting is pure view arithmetic.
//! * `filter`: bitmap-selection of a large Int64/Float64/Utf8 batch.
//! * `hash_agg`: `HashAggOp` over 4096-row batches, `COUNT(*)` and `SUM`
//!   grouped by an Int64 key (1024 values, Int64 sums) and by serve_mix's
//!   `group` shape (lineitem's 5-value Utf8 `l_region`, `SUM` over the f64
//!   `l_price`, ~100k rows), each against an in-bench reimplementation of
//!   the row-at-a-time scalar aggregation the operator replaced (per-row
//!   `Vec<Scalar>` + `Vec<u8>` key allocation). Full runs assert at least
//!   a 3x speedup on both; the ratios are part of the JSON output.
//! * `join`: `HashJoinOp` on one E5 host's share (25k `orders` rows built,
//!   100k `lineitem` rows probed, 6250-row batches) against an in-bench
//!   reimplementation of the row-at-a-time join it replaced: a per-row
//!   `Vec<u8>` key in a std `HashMap`, output built through `scalar_at`
//!   and `ColumnBuilder`. Full runs assert at least a 1.5x speedup.
//! * `parallel`: the E1 filter+aggregate plan single-threaded vs fanned
//!   out over a gather exchange at increasing worker counts. Full runs on
//!   hosts with two or more cores assert that 2 workers beat 1 thread by
//!   at least 1.3x.
//! * `predicate`: the shared predicate kernel through
//!   `StoragePredicate::evaluate` on `lineitem` in 4096-row views:
//!   `l_comment LIKE '%urgent%'` (reported as GB/s of comment bytes) and
//!   `l_quantity < 25` against an in-bench reimplementation of the
//!   row-at-a-time evaluator it replaced (`scalar_at` + `total_cmp` per
//!   row). Full runs assert LIKE at >= 0.3 GB/s, the CPU rate the
//!   simulator charges, and the comparison at >= 5x the baseline.
//! * `codec`: edge-codec encode/decode per encoding, plain `wire_size`
//!   and CRC32 on a telemetry batch. Full runs assert floors on
//!   `columnar+lz` encode and decode, `wire_size` and CRC32: 8 GB/s where
//!   the CPU folds with carry-less multiplies
//!   (`df_codec::checksum::folded`), 0.7 GB/s on slice-by-8.
//!
//! Results land in `BENCH_hotpath.json` (hand-rolled JSON; the container
//! has no serde).

use std::collections::HashMap;
use std::time::Instant;

use df_bench::experiments::e01_conventional;
use df_bench::workload;
use df_codec::checksum::{self, crc32};
use df_codec::edge::{self, EdgeEncoding};
use df_codec::wire::{self, WireOptions};
use df_core::exec::push::{execute, CodecPolicy, ExecEnv};
use df_core::expr::{col, lit};
use df_core::logical::{AggCall, AggFn, LogicalPlan};
use df_core::ops::{AggMode, HashAggOp, HashJoinOp, Operator};
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::scaleout::fan_out;
use df_data::{Batch, Bitmap, Column, ColumnBuilder, Scalar, SchemaRef};
use df_fabric::flow::FlowSim;
use df_fabric::link::LinkTech;
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_storage::predicate::StoragePredicate;
use df_storage::zonemap::CmpOp;

struct Stats {
    min: f64,
    mean: f64,
    max: f64,
}

fn time<R>(iters: u32, mut f: impl FnMut() -> R) -> Stats {
    std::hint::black_box(f()); // warmup
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    Stats {
        min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        max: samples.iter().cloned().fold(0.0, f64::max),
    }
}

struct Case {
    name: String,
    stats: Stats,
}

fn report(cases: &mut Vec<Case>, name: &str, stats: Stats) {
    println!(
        "{name:<40} mean {:>12.6} ms  min {:>12.6} ms  max {:>12.6} ms",
        stats.mean * 1e3,
        stats.min * 1e3,
        stats.max * 1e3
    );
    cases.push(Case {
        name: name.to_string(),
        stats,
    });
}

// ---------------------------------------------------------------- rowwise
// The pre-vectorization aggregation strategy, reproduced here as the
// baseline: every row allocates a `Vec<Scalar>` key row and an encoded
// `Vec<u8>`, and the group map owns both.

fn rowwise_key_bytes(scalars: &[Scalar]) -> Vec<u8> {
    let mut key = Vec::new();
    for s in scalars {
        match s {
            Scalar::Null => key.push(0),
            Scalar::Int(v) => {
                key.push(1);
                key.extend_from_slice(&v.to_le_bytes());
            }
            Scalar::Float(v) => {
                key.push(2);
                key.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Scalar::Str(v) => {
                key.push(3);
                key.extend_from_slice(&(v.len() as u32).to_le_bytes());
                key.extend_from_slice(v.as_bytes());
            }
            Scalar::Bool(v) => key.extend_from_slice(&[4, *v as u8]),
        }
    }
    key
}

fn rowwise_agg(batches: &[Batch]) -> usize {
    let mut groups: HashMap<Vec<u8>, (Vec<Scalar>, i64, i64, f64)> = HashMap::new();
    for batch in batches {
        let key_col = batch.column(0);
        let val_col = batch.column(1);
        for row in 0..batch.rows() {
            let scalars = vec![key_col.scalar_at(row)];
            let key = rowwise_key_bytes(&scalars);
            let entry = groups.entry(key).or_insert((scalars, 0, 0, 0.0));
            entry.1 += 1;
            match val_col.scalar_at(row) {
                Scalar::Int(v) => entry.2 += v,
                Scalar::Float(v) => entry.3 += v,
                _ => {}
            }
        }
    }
    groups.len()
}

fn vectorized_agg(batches: &[Batch], schema: &df_data::SchemaRef) -> usize {
    let calls = vec![AggCall::count_star("n"), AggCall::new(AggFn::Sum, "v", "s")];
    let final_schema = LogicalPlan::values(vec![batches[0].clone()])
        .expect("values plan")
        .aggregate(vec!["k".into()], calls.clone())
        .expect("aggregate plan")
        .schema();
    let mut op = HashAggOp::new(
        vec!["k".into()],
        calls,
        AggMode::Final,
        schema,
        final_schema,
    )
    .expect("agg op");
    for batch in batches {
        op.push(batch.clone()).expect("push");
    }
    op.finish().expect("finish").iter().map(Batch::rows).sum()
}

/// The pre-vectorization hash join, reproduced as the baseline: every
/// build and probe row allocates a `Vec<u8>` key, the table maps key bytes
/// to `(batch, row)` lists, and build columns are assembled row by row
/// through `scalar_at` and a `ColumnBuilder`. Joins column 0 of `build`
/// with column 0 of `probe`; returns the output row count.
fn rowwise_join(build: &[Batch], probe: &[Batch], schema: &SchemaRef) -> usize {
    let key = |col: &Column, row: usize| {
        let s = col.scalar_at(row);
        (!s.is_null()).then(|| rowwise_key_bytes(&[s]))
    };
    let mut table: HashMap<Vec<u8>, Vec<(u32, u32)>> = HashMap::new();
    for (bb, batch) in build.iter().enumerate() {
        for row in 0..batch.rows() {
            if let Some(k) = key(batch.column(0), row) {
                table.entry(k).or_default().push((bb as u32, row as u32));
            }
        }
    }
    let nleft = build[0].schema().len();
    let mut out_rows = 0;
    for batch in probe {
        let mut matches: Vec<(u32, u32, usize)> = Vec::new();
        for row in 0..batch.rows() {
            if let Some(hits) = key(batch.column(0), row).and_then(|k| table.get(&k)) {
                matches.extend(hits.iter().map(|&(bb, br)| (bb, br, row)));
            }
        }
        if matches.is_empty() {
            continue;
        }
        let mut columns = Vec::with_capacity(schema.len());
        for li in 0..nleft {
            let mut b = ColumnBuilder::new(schema.field(li).dtype, matches.len());
            for &(bb, br, _) in &matches {
                b.push(build[bb as usize].column(li).scalar_at(br as usize))
                    .expect("build column type");
            }
            columns.push(b.finish());
        }
        let probe_rows: Vec<usize> = matches.iter().map(|&(_, _, pr)| pr).collect();
        columns.extend(batch.gather(&probe_rows).columns().iter().cloned());
        out_rows += Batch::new(schema.clone(), columns)
            .expect("join batch")
            .rows();
    }
    out_rows
}

fn vectorized_join(build: &[Batch], probe: &[Batch], schema: &SchemaRef) -> usize {
    let on = vec![(
        build[0].schema().field(0).name.clone(),
        probe[0].schema().field(0).name.clone(),
    )];
    let mut op = HashJoinOp::new(on, build[0].schema().clone(), schema.clone());
    for batch in build {
        op.build(batch.clone()).expect("build");
    }
    let mut out_rows = 0;
    for batch in probe {
        out_rows += op
            .push(batch.clone())
            .expect("probe")
            .iter()
            .map(Batch::rows)
            .sum::<usize>();
    }
    out_rows
}

/// The pre-kernel predicate evaluator, reproduced as the baseline: one
/// `Scalar` per row through `scalar_at`, compared with `total_cmp`.
fn rowwise_cmp(column: &Column, op: CmpOp, literal: &Scalar) -> Bitmap {
    let mut bits = Bitmap::zeros(column.len());
    for i in 0..column.len() {
        let v = column.scalar_at(i);
        if !v.is_null() && op.matches(v.total_cmp(literal)) {
            bits.set(i);
        }
    }
    bits
}

/// Evaluate `pred` on every view; returns the selected row count.
fn evaluate_all(pred: &StoragePredicate, views: &[Batch]) -> usize {
    views
        .iter()
        .map(|v| pred.evaluate(v).expect("predicate").count_ones())
        .sum()
}

/// The log-analytics shuffle: the telemetry stream filtered at the
/// storage-side NIC, grouped by `level` on the compute CPU — one fabric
/// edge crossing the cluster network.
fn shuffle_plan(topo: &Topology, stream: &Batch) -> PhysicalPlan {
    let nic = topo.expect_device("storage.nic");
    let cpu = topo.expect_device("compute0.cpu");
    let calls = vec![AggCall::count_star("n")];
    let logical = LogicalPlan::values(vec![stream.clone()])
        .expect("values plan")
        .aggregate(vec!["level".into()], calls.clone())
        .expect("aggregate plan");
    PhysicalPlan::new(
        PhysNode::Aggregate {
            input: Box::new(PhysNode::Filter {
                input: Box::new(PhysNode::Values {
                    schema: stream.schema().clone(),
                    batches: stream.split(8192).expect("split"),
                    device: None,
                }),
                // Keeps every row: the shuffle itself is the subject.
                predicate: col("sensor").lt(lit(1 << 20)),
                device: Some(nic),
                use_kernel: false,
            }),
            group_by: vec!["level".into()],
            aggs: calls,
            mode: AggMode::Final,
            final_schema: logical.schema(),
            device: Some(cpu),
        },
        "log-shuffle",
    )
}

fn json_escape_free(name: &str) -> &str {
    debug_assert!(!name.contains('"') && !name.contains('\\'));
    name
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let iters: u32 = if smoke { 2 } else { 15 };
    let mut cases: Vec<Case> = Vec::new();

    // -- split: a ~36 MB batch into 4096-row morsels, zero-copy.
    // lineitem is ~90 B/row, so 400k rows ≈ 36 MB.
    let split_rows = if smoke { 50_000 } else { 400_000 };
    let big = workload::lineitem(split_rows, 42);
    println!(
        "split input: {} rows, {:.1} MB",
        big.rows(),
        big.byte_size() as f64 / 1e6
    );
    let morsels = big.split(4096).expect("split");
    let parent_ptr = big.column(0).i64_values().expect("int col").as_ptr();
    for (i, m) in morsels.iter().enumerate() {
        let ptr = m.column(0).i64_values().expect("int col").as_ptr();
        assert_eq!(
            ptr,
            // SAFETY: morsel i starts at row i*4096, inside the parent
            // column's allocation for every morsel `split` returned.
            unsafe { parent_ptr.add(i * 4096) },
            "morsel {i} data buffer was copied — split is not zero-copy"
        );
    }
    let split_zero_copy = true;
    report(
        &mut cases,
        "split/36mb_4096",
        time(iters, || big.split(4096).expect("split").len()),
    );

    // -- filter: bitmap selection keeping ~half the rows.
    let selection = Bitmap::from_iter((0..big.rows()).map(|i| i % 7 < 3));
    report(
        &mut cases,
        "filter/bitmap_43pct",
        time(iters, || big.filter(&selection).expect("filter").rows()),
    );

    // -- hash_agg: vectorized operator vs row-at-a-time baseline over
    //    4096-row batches with a single Int64 group key.
    let agg_rows = if smoke { 32_768 } else { 409_600 };
    let keyed = df_data::batch::batch_of(vec![
        (
            "k",
            Column::from_i64((0..agg_rows as i64).map(|i| i * 37 % 1024).collect()),
        ),
        ("v", Column::from_i64((0..agg_rows as i64).collect())),
    ]);
    let batches = keyed.split(4096).expect("split");
    let schema = keyed.schema().clone();
    assert_eq!(
        rowwise_agg(&batches),
        vectorized_agg(&batches, &schema),
        "baseline and vectorized aggregation disagree on group count"
    );
    let vec_stats = time(iters, || vectorized_agg(&batches, &schema));
    let row_stats = time(iters, || rowwise_agg(&batches));
    let agg_speedup = row_stats.min / vec_stats.min;
    report(&mut cases, "hash_agg/vectorized_int_key", vec_stats);
    report(&mut cases, "hash_agg/rowwise_baseline", row_stats);
    println!("hash_agg speedup vs rowwise baseline: {agg_speedup:.2}x");

    //    serve_mix's `group` shape: a 5-value Utf8 key, f64 sums.
    let utf8_rows = if smoke { 16_384 } else { 100_000 };
    let lineitem = workload::lineitem(utf8_rows, 7);
    let column = |name: &str| {
        lineitem
            .column_by_name(name)
            .expect("lineitem column")
            .clone()
    };
    let utf8_keyed =
        df_data::batch::batch_of(vec![("k", column("l_region")), ("v", column("l_price"))]);
    let utf8_batches = utf8_keyed.split(4096).expect("split");
    let utf8_schema = utf8_keyed.schema().clone();
    assert_eq!(
        rowwise_agg(&utf8_batches),
        vectorized_agg(&utf8_batches, &utf8_schema),
        "baseline and vectorized aggregation disagree on Utf8 group count"
    );
    let vec_stats = time(iters, || vectorized_agg(&utf8_batches, &utf8_schema));
    let row_stats = time(iters, || rowwise_agg(&utf8_batches));
    let utf8_agg_speedup = row_stats.min / vec_stats.min;
    report(&mut cases, "hash_agg/utf8_key", vec_stats);
    report(&mut cases, "hash_agg/utf8_rowwise_baseline", row_stats);
    println!("hash_agg Utf8-key speedup vs rowwise baseline: {utf8_agg_speedup:.2}x");

    // -- join: one E5 host's share, orders built and lineitem probed on
    //    the Int64 order key, 6250-row batches on both sides.
    let (orders_rows, lineitem_rows) = if smoke {
        (6_250, 25_000)
    } else {
        (25_000, 100_000)
    };
    let orders = workload::orders(orders_rows, 42);
    let lineitem = workload::lineitem(lineitem_rows, 42);
    let join_schema = LogicalPlan::values(vec![orders.clone()])
        .expect("values plan")
        .join(
            LogicalPlan::values(vec![lineitem.clone()]).expect("values plan"),
            vec![("o_orderkey", "l_orderkey")],
        )
        .expect("join plan")
        .schema();
    let build_batches = orders.split(6250).expect("split");
    let probe_batches = lineitem.split(6250).expect("split");
    let joined = vectorized_join(&build_batches, &probe_batches, &join_schema);
    assert_eq!(joined, lineitem_rows, "every lineitem row has one order");
    assert_eq!(
        rowwise_join(&build_batches, &probe_batches, &join_schema),
        joined,
        "baseline and vectorized join disagree on row count"
    );
    let vec_stats = time(iters, || {
        vectorized_join(&build_batches, &probe_batches, &join_schema)
    });
    let row_stats = time(iters, || {
        rowwise_join(&build_batches, &probe_batches, &join_schema)
    });
    let join_speedup = row_stats.min / vec_stats.min;
    report(&mut cases, "join/vectorized_int_key", vec_stats);
    report(&mut cases, "join/rowwise_baseline", row_stats);
    println!("hash_join speedup vs rowwise baseline: {join_speedup:.2}x");

    // -- parallel: E1's plan, push single-threaded vs fanned out over a
    //    gather exchange.
    let plan_rows = if smoke { 20_000 } else { 400_000 };
    let plan = e01_conventional::plan(&workload::lineitem(plan_rows, 42), 8192, false);
    let run_fanned = |threads: usize| {
        let fanned = fan_out(&plan, threads).expect("E1's plan fans out");
        execute(&fanned, &ExecEnv::in_memory())
            .expect("fan-out")
            .rows()
    };
    // Untimed: a virtual CPU left idle by the single-threaded cases above
    // can take over a second to get a physical core back, and until then
    // two threads run at one core's throughput.
    if !smoke {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < 3.0 {
            std::hint::black_box(run_fanned(2));
        }
    }
    let single = time(iters, || {
        execute(&plan, &ExecEnv::in_memory()).expect("push").rows()
    });
    let single_min = single.min;
    report(&mut cases, "parallel/push_1t", single);
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut parallel_speedup = 0.0f64;
    let mut two_worker_speedup = 0.0f64;
    // Always record 2 workers (even on one core, the overhead is data);
    // wider fan-outs only where the hardware can actually run them.
    for threads in [2usize, 4, 8] {
        if threads > cores.max(2) {
            break;
        }
        let stats = time(iters, || run_fanned(threads));
        let speedup = single_min / stats.min;
        if threads == 2 {
            two_worker_speedup = speedup;
        }
        parallel_speedup = parallel_speedup.max(speedup);
        report(&mut cases, &format!("parallel/morsel_{threads}t"), stats);
    }
    println!("best morsel-parallel speedup over 1t push: {parallel_speedup:.2}x");

    // -- predicate: the shared kernel on lineitem's pages, as smart
    //    storage evaluates them.
    let pred_rows = if smoke { 20_000 } else { 200_000 };
    let pred_input = workload::lineitem(pred_rows, 1);
    let comments = pred_input.column_by_name("l_comment").expect("l_comment");
    let comment_bytes: usize = (0..comments.len()).map(|i| comments.str_at(i).len()).sum();
    let pred_views = pred_input.split(4096).expect("split");
    let like = StoragePredicate::like("l_comment", "%urgent%");
    let like_stats = time(iters, || evaluate_all(&like, &pred_views));
    let like_gbps = comment_bytes as f64 / like_stats.min / 1e9;
    report(&mut cases, "predicate/like_contains", like_stats);
    let quarter = Scalar::Int(25);
    let int_lt = StoragePredicate::cmp("l_quantity", CmpOp::Lt, quarter.clone());
    let rowwise_lt = |views: &[Batch]| -> usize {
        views
            .iter()
            .map(|v| {
                let column = v.column_by_name("l_quantity").expect("l_quantity");
                rowwise_cmp(column, CmpOp::Lt, &quarter).count_ones()
            })
            .sum()
    };
    for view in &pred_views {
        let column = view.column_by_name("l_quantity").expect("l_quantity");
        assert_eq!(
            int_lt.evaluate(view).expect("predicate"),
            rowwise_cmp(column, CmpOp::Lt, &quarter),
            "kernel and row-wise baseline select different rows"
        );
    }
    let kernel_stats = time(iters, || evaluate_all(&int_lt, &pred_views));
    let row_stats = time(iters, || rowwise_lt(&pred_views));
    let int_cmp_speedup = row_stats.min / kernel_stats.min;
    report(&mut cases, "predicate/int_lt", kernel_stats);
    report(&mut cases, "predicate/int_lt_rowwise_baseline", row_stats);
    println!(
        "predicate: like {like_gbps:.2} GB/s over {:.1} MB of comments; \
         int_lt {int_cmp_speedup:.2}x vs rowwise baseline",
        comment_bytes as f64 / 1e6
    );

    // -- codec: wire-frame encode/decode throughput per edge encoding on
    //    the telemetry stream (string-heavy log-analytics shape: ascending
    //    timestamps, low-cardinality level strings). New JSON keys only —
    //    the pre-codec fields and `cases` entries are unchanged.
    let codec_rows = if smoke { 20_000 } else { 200_000 };
    let stream = workload::telemetry(codec_rows, 64, 42);
    let stream_bytes = stream.byte_size();
    println!(
        "codec input: {} rows, {:.1} MB",
        stream.rows(),
        stream_bytes as f64 / 1e6
    );
    struct CodecCase {
        name: &'static str,
        ratio: f64,
        encode_gbps: f64,
        decode_gbps: f64,
    }
    let mut codec_cases: Vec<CodecCase> = Vec::new();
    for enc in EdgeEncoding::ALL {
        let frame = edge::encode(&stream, enc);
        let decoded = edge::decode(&frame).expect("decode");
        assert_eq!(
            decoded.rows(),
            stream.rows(),
            "{}: lossy roundtrip",
            enc.name()
        );
        let ratio = frame.len() as f64 / stream_bytes as f64;
        let enc_stats = time(iters, || edge::encode(&stream, enc).len());
        let dec_stats = time(iters, || edge::decode(&frame).expect("decode").rows());
        let encode_gbps = stream_bytes as f64 / enc_stats.min / 1e9;
        let decode_gbps = stream_bytes as f64 / dec_stats.min / 1e9;
        println!(
            "codec/{:<12} ratio {:>5.3}  encode {:>6.2} GB/s  decode {:>6.2} GB/s",
            enc.name(),
            ratio,
            encode_gbps,
            decode_gbps
        );
        codec_cases.push(CodecCase {
            name: enc.name(),
            ratio,
            encode_gbps,
            decode_gbps,
        });
    }

    // -- sizing and checksums: the plain wire size the movement ledger
    //    charges on every cross-device batch (counted, not built), and
    //    CRC32 over the plain wire frame, GB/s of frame bytes.
    let size_stats = time(iters, || wire::wire_size(&stream, &WireOptions::plain()));
    let wire_size_gbps = stream_bytes as f64 / size_stats.min / 1e9;
    let plain_frame = wire::encode_batch(&stream, &WireOptions::plain());
    let crc_stats = time(iters, || crc32(&plain_frame));
    let crc_gbps = plain_frame.len() as f64 / crc_stats.min / 1e9;
    let crc_folded = checksum::folded();
    let crc_kernel = if crc_folded { "folded" } else { "slice-by-8" };
    println!(
        "codec/wire_size    {wire_size_gbps:>6.2} GB/s  crc32 {crc_gbps:>6.2} GB/s ({crc_kernel})"
    );

    // -- shuffle_compression: the bytes-moved-vs-CPU frontier. The same
    //    stream shuffled storage.nic -> compute0.cpu over 25 GbE: ledger
    //    bytes plain vs cost-selected, and FlowSim completion time under
    //    both pricings (spend codec cycles to move fewer bytes over the
    //    bottleneck link).
    let topo = Topology::disaggregated(&DisaggregatedConfig {
        network: LinkTech::Ethernet { gbits: 25 },
        ..DisaggregatedConfig::default()
    });
    let shuffle = shuffle_plan(&topo, &stream);
    let plain_env = ExecEnv {
        storage: None,
        topology: Some(&topo),
        wire: None,
        tracer: None,
        gate: None,
        codec: CodecPolicy::AsCompiled,
    };
    let auto_env = ExecEnv {
        codec: CodecPolicy::Auto,
        storage: None,
        topology: Some(&topo),
        wire: None,
        tracer: None,
        gate: None,
    };
    let plain_out = execute(&shuffle, &plain_env).expect("plain shuffle");
    let auto_out = execute(&shuffle, &auto_env).expect("auto shuffle");
    assert_eq!(
        auto_out.collect().expect("auto result").canonical_rows(),
        plain_out.collect().expect("plain result").canonical_rows(),
        "codec shuffle changed the query result"
    );
    let ledger_plain = plain_out.ledger.cross_device_bytes();
    let ledger_codec = auto_out.ledger.cross_device_bytes();
    let chosen = auto_out
        .codec_decisions
        .iter()
        .find(|d| !d.encoding.is_plain())
        .expect("cost model must pick a codec on the 25 GbE edge");
    let reduction = ledger_plain as f64 / ledger_codec.max(1) as f64;
    println!(
        "shuffle_compression: ethernet-25gbe plain {:.1} MB -> {} {:.1} MB \
         ({reduction:.2}x fewer fabric bytes)",
        ledger_plain as f64 / 1e6,
        chosen.encoding.name(),
        ledger_codec as f64 / 1e6
    );
    assert!(
        reduction >= 2.0,
        "cost-selected encoding must at least halve fabric-edge ledger bytes \
         on the log-analytics shuffle (got {reduction:.2}x)"
    );

    let cpu = topo.expect_device("compute0.cpu");
    let mut graph = PipelineGraph::compile(&shuffle, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
    let sim_secs = |graph: &PipelineGraph, name: &str| -> f64 {
        let specs = graph.to_flow_specs(cpu, name).expect("flow specs");
        let mut sim = FlowSim::new(topo.clone());
        for spec in specs {
            sim.add_pipeline(spec);
        }
        let outcome = sim.run();
        outcome
            .pipelines
            .iter()
            .map(|p| p.duration().as_secs_f64())
            .fold(0.0, f64::max)
    };
    let sim_plain_s = sim_secs(&graph, "shuffle-plain");
    let eid = graph
        .edges
        .iter()
        .position(|e| e.crosses_devices())
        .expect("one fabric edge");
    graph.set_edge_encoding(eid, chosen.encoding, chosen.ratio());
    let sim_codec_s = sim_secs(&graph, "shuffle-codec");
    println!("shuffle_compression sim: plain {sim_plain_s:.6}s, codec {sim_codec_s:.6}s");
    assert!(
        sim_codec_s <= sim_plain_s * 1.0001,
        "codec-priced shuffle must not regress simulated completion time \
         (plain {sim_plain_s:.6}s, codec {sim_codec_s:.6}s)"
    );

    // -- hand-rolled JSON report.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"hotpath\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"split_zero_copy\": {split_zero_copy},\n"));
    json.push_str(&format!("  \"split_input_bytes\": {},\n", big.byte_size()));
    json.push_str(&format!(
        "  \"hash_agg_speedup_vs_rowwise\": {agg_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"hash_agg_utf8_speedup_vs_rowwise\": {utf8_agg_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"hash_join_speedup_vs_rowwise\": {join_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"parallel_best_speedup_vs_1t\": {parallel_speedup:.3},\n"
    ));
    json.push_str(&format!("  \"like_gbps\": {like_gbps:.3},\n"));
    json.push_str(&format!(
        "  \"int_cmp_speedup_vs_rowwise\": {int_cmp_speedup:.3},\n"
    ));
    json.push_str("  \"codec\": {\n");
    json.push_str(&format!("    \"workload_rows\": {codec_rows},\n"));
    json.push_str(&format!("    \"workload_bytes\": {stream_bytes},\n"));
    json.push_str("    \"encodings\": [\n");
    for (i, c) in codec_cases.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"name\": \"{}\", \"ratio\": {:.4}, \"encode_gbps\": {:.3}, \
             \"decode_gbps\": {:.3}}}{}\n",
            c.name,
            c.ratio,
            c.encode_gbps,
            c.decode_gbps,
            if i + 1 == codec_cases.len() { "" } else { "," }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!("    \"wire_size_gbps\": {wire_size_gbps:.3},\n"));
    json.push_str(&format!("    \"crc_gbps\": {crc_gbps:.3},\n"));
    json.push_str(&format!("    \"crc_folded\": {crc_folded},\n"));
    json.push_str("    \"shuffle_compression\": {\n");
    json.push_str("      \"network\": \"ethernet-25gbe\",\n");
    json.push_str(&format!(
        "      \"encoding\": \"{}\",\n",
        chosen.encoding.name()
    ));
    json.push_str(&format!("      \"plain_ledger_bytes\": {ledger_plain},\n"));
    json.push_str(&format!("      \"codec_ledger_bytes\": {ledger_codec},\n"));
    json.push_str(&format!("      \"reduction\": {reduction:.3},\n"));
    json.push_str(&format!("      \"sim_plain_s\": {sim_plain_s:.9},\n"));
    json.push_str(&format!("      \"sim_codec_s\": {sim_codec_s:.9}\n"));
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_s\": {:.9}, \"min_s\": {:.9}, \"max_s\": {:.9}}}{}\n",
            json_escape_free(&case.name),
            case.stats.mean,
            case.stats.min,
            case.stats.max,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench json");
    println!("wrote {out_path}");

    if !smoke {
        for (key, speedup) in [("Int64", agg_speedup), ("Utf8", utf8_agg_speedup)] {
            assert!(
                speedup >= 3.0,
                "vectorized hash aggregation on an {key} key must be >=3x over \
                 the row-wise baseline (got {speedup:.2}x)"
            );
        }
        assert!(
            join_speedup >= 1.5,
            "the vectorized hash join must be >=1.5x over the row-wise \
             baseline (got {join_speedup:.2}x)"
        );
        // DESIGN §4b prices a CPU core's pattern matching at 0.3 GB/s; the
        // host must not be slower than the CPU the simulator charges for.
        assert!(
            like_gbps >= 0.3,
            "LIKE '%urgent%' must run at >= 0.3 GB/s (got {like_gbps:.3} GB/s)"
        );
        assert!(
            int_cmp_speedup >= 5.0,
            "the typed comparison kernel must be >=5x over the row-wise \
             baseline (got {int_cmp_speedup:.2}x)"
        );
    }
    if !smoke {
        // Codec floors: high enough to catch a return to per-bit kernels
        // or to building frames just to size them (0.16-0.44 GB/s on a
        // 2-vCPU VM), low enough to survive that VM's +-30% speed swings.
        let columnar_lz = codec_cases
            .iter()
            .find(|c| c.name == EdgeEncoding::ColumnarLz.name())
            .expect("columnar+lz case");
        for (what, got, floor) in [
            ("columnar+lz encode", columnar_lz.encode_gbps, 0.35),
            ("columnar+lz decode", columnar_lz.decode_gbps, 0.6),
            ("plain wire_size", wire_size_gbps, 0.6),
            ("crc32", crc_gbps, if crc_folded { 8.0 } else { 0.7 }),
        ] {
            assert!(
                got >= floor,
                "{what} must run at >= {floor} GB/s (got {got:.3} GB/s)"
            );
        }
    }
    if !smoke && cores >= 2 {
        assert!(
            two_worker_speedup >= 1.3,
            "a 2-worker fan-out must beat 1-thread push by >=1.3x on {cores} \
             cores (got {two_worker_speedup:.2}x)"
        );
    }
}
