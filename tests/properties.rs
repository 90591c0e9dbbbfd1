//! Property-based tests over the core invariants.
//!
//! Each property pins one of the contracts the experiments rely on:
//! codecs round-trip arbitrary data, device kernels agree with host
//! evaluation, partitioning is a permutation, zone-map pruning is sound,
//! coherence never serves stale reads, and the flow simulator conserves
//! bytes under backpressure. Cases are generated by the in-repo
//! [`rheo::check`] harness (deterministic seeds, committed regressions
//! replay first).

use std::collections::BTreeMap;

use rheo::check::{check, Gen};
use rheo::codec::wire::{decode_batch, encode_batch, wire_size, WireOptions};
use rheo::codec::{crypto, int, lz, varint, CodecError};
use rheo::core::error::EngineError;
use rheo::core::logical::{AggCall, AggFn, JoinType, LogicalPlan};
use rheo::core::ops::{AggMode, FilterOp, HashAggOp, HashJoinOp, Operator};
use rheo::data::batch::batch_of;
use rheo::data::partition::hash_row_seeded;
use rheo::data::sort::{is_sorted, sort_batch, SortKey};
use rheo::data::{
    Batch, Column, ColumnBuilder, DataType, Field, HashPartitioner, RowPage, Scalar, Schema,
    SchemaRef,
};
use rheo::fabric::coherence::{CoherenceConfig, CoherenceSim, Mode};
use rheo::fabric::flow::{FlowSim, PipelineSpec, StageSpec};
use rheo::fabric::topology::{DisaggregatedConfig, Topology};
use rheo::fabric::OpClass;
use rheo::mem::btree;
use rheo::mem::region::{MemRegion, Placement};
use rheo::storage::object::MemObjectStore;
use rheo::storage::pattern::LikePattern;
use rheo::storage::smart::{PreAggSpec, ScanRequest, SmartStorage};
use rheo::storage::table::TableStore;
use rheo::storage::zonemap::{CmpOp, ZoneMap};

// ------------------------------------------------------------- generators

const SMALL_CHARS: [char; 29] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', '%', '_', '0',
];

fn opt_i64(g: &mut Gen) -> Option<i64> {
    // 3:1 Some:None, like the original strategy.
    if g.usize_in(0, 3) < 3 {
        Some(g.i64())
    } else {
        None
    }
}

fn arb_batch(g: &mut Gen, max_rows: usize) -> Batch {
    let rows = g.usize_in(1, max_rows);
    let ints = g.vec_of(rows, opt_i64);
    let floats = g.vec_of(rows, Gen::f64_any);
    let strings = g.vec_of(rows, |g| g.string_from(&SMALL_CHARS, 12));
    let bools = g.vec_of(rows, Gen::bool);
    batch_of(vec![
        ("i", Column::from_opt_i64(&ints)),
        ("f", Column::from_f64(floats)),
        ("s", Column::from_strs(&strings)),
        ("b", Column::from_bools(&bools)),
    ])
}

/// [`arb_batch`] plus the columns that drive every codec choice: a
/// low-cardinality Utf8 column (up to 200 distinct values, so dictionary
/// codes reach two bytes) and an Int64 column drawn run-heavy, ascending
/// or narrow-range (RLE, delta and bit-packing each win somewhere).
fn arb_codec_batch(g: &mut Gen, max_rows: usize) -> Batch {
    let batch = arb_batch(g, max_rows);
    let rows = batch.rows();
    let distinct = g.usize_in(1, 200);
    let labels = g.vec_of(rows, |g| format!("v{}", g.usize_in(0, distinct - 1)));
    let ints: Vec<i64> = match g.usize_in(0, 2) {
        0 => {
            let run = g.usize_in(1, 40);
            let values = g.vec_of(rows.div_ceil(run), |g| g.i64_in(-5, 5));
            (0..rows).map(|i| values[i / run]).collect()
        }
        1 => {
            let mut v = g.i64();
            g.vec_of(rows, |g| {
                v = v.wrapping_add(g.i64_in(0, 300));
                v
            })
        }
        _ => {
            let lo = g.i64();
            let span = g.i64_in(0, 1 << 12);
            g.vec_of(rows, |g| lo.wrapping_add(g.i64_in(0, span)))
        }
    };
    let mut columns = batch.columns().to_vec();
    columns.push(Column::from_strs(&labels));
    columns.push(Column::from_i64(ints));
    let mut fields = batch.schema().fields().to_vec();
    fields.push(Field::new("label", DataType::Utf8));
    fields.push(Field::new("shaped", DataType::Int64));
    Batch::new(Schema::new(fields).into_ref(), columns).unwrap()
}

// ------------------------------------------------------ zero-copy views

/// Deep-copy a batch row-by-row through `ColumnBuilder`, so the result
/// owns freshly-allocated buffers with no view offsets. The zero-copy
/// paths must be indistinguishable from this — including validity bits
/// and Utf8 offset handling.
fn materialize(batch: &Batch) -> Batch {
    let columns = batch
        .schema()
        .fields()
        .iter()
        .enumerate()
        .map(|(c, field)| {
            let col = batch.column(c);
            let mut b = ColumnBuilder::new(field.dtype, batch.rows());
            for row in 0..batch.rows() {
                b.push(col.scalar_at(row)).unwrap();
            }
            b.finish()
        })
        .collect();
    Batch::new(batch.schema().clone(), columns).unwrap()
}

fn assert_batches_identical(view: &Batch, reference: &Batch) {
    assert_eq!(view.rows(), reference.rows());
    for c in 0..reference.schema().len() {
        assert_eq!(
            view.column(c),
            reference.column(c),
            "column {c} differs from deep-copy reference"
        );
    }
    // Rows compare through `total_cmp`, not `==`: `Scalar::Float(NaN)` is
    // never `==` to itself, while `total_cmp` orders floats by their bits.
    let (got, want) = (view.canonical_rows(), reference.canonical_rows());
    let same = |a: &Vec<Scalar>, b: &Vec<Scalar>| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.total_cmp(y).is_eq())
    };
    assert!(
        got.iter().zip(&want).all(|(a, b)| same(a, b)),
        "canonical rows differ:\n{got:?}\n{want:?}"
    );
}

#[test]
fn slice_view_matches_deep_copy() {
    check("slice_view_matches_deep_copy", 64, |g| {
        let batch = arb_batch(g, 200);
        let offset = g.usize_in(0, batch.rows());
        let len = g.usize_in(0, batch.rows() - offset);
        let view = batch.slice(offset, len);
        let reference = materialize(&batch).slice(offset, len);
        assert_batches_identical(&view, &materialize(&reference));
    });
}

#[test]
fn split_then_concat_is_identity() {
    check("split_then_concat_is_identity", 64, |g| {
        let batch = arb_batch(g, 200);
        let chunk = g.usize_in(1, batch.rows() + 8);
        let pieces = batch.split(chunk).unwrap();
        assert_eq!(pieces.iter().map(Batch::rows).sum::<usize>(), batch.rows());
        let back = Batch::concat(&pieces).unwrap();
        assert_batches_identical(&back, &materialize(&batch));
    });
}

#[test]
fn filter_fast_path_matches_deep_copy() {
    check("filter_fast_path_matches_deep_copy", 64, |g| {
        let batch = arb_batch(g, 200);
        let keep = g.vec_of(batch.rows(), Gen::bool);
        let selection = rheo::data::Bitmap::from_bools(&keep);
        let filtered = batch.filter(&selection).unwrap();
        // Reference: row-at-a-time rebuild of only the kept rows.
        let kept: Vec<usize> = (0..batch.rows()).filter(|&i| keep[i]).collect();
        let reference = materialize(&batch.gather(&kept));
        assert_batches_identical(&filtered, &reference);
        // Filtering a zero-copy view must agree with filtering the deep copy.
        let offset = g.usize_in(0, batch.rows());
        let len = batch.rows() - offset;
        let view_filtered = batch
            .slice(offset, len)
            .filter(&selection.slice(offset, len))
            .unwrap();
        let deep_filtered = materialize(&batch.slice(offset, len))
            .filter(&selection.slice(offset, len))
            .unwrap();
        assert_batches_identical(&view_filtered, &materialize(&deep_filtered));
    });
}

#[test]
fn gather_from_view_matches_deep_copy() {
    check("gather_from_view_matches_deep_copy", 64, |g| {
        let batch = arb_batch(g, 200);
        let offset = g.usize_in(0, batch.rows() - 1);
        let len = batch.rows() - offset;
        let view = batch.slice(offset, len);
        let count = g.usize_in(0, 100);
        let indices = g.vec_of(count, |g| g.usize_in(0, len - 1));
        let gathered = view.gather(&indices);
        let reference = materialize(&view).gather(&indices);
        assert_batches_identical(&gathered, &materialize(&reference));
    });
}

// -------------------------------------------------------------- codecs

#[test]
fn wire_roundtrip_any_batch() {
    check("wire_roundtrip_any_batch", 64, |g| {
        let batch = arb_codec_batch(g, 200);
        let compress = g.bool();
        let encrypt = g.bool();
        let key = crypto::Key::from_seed(7);
        let opts = WireOptions {
            compress,
            encrypt: encrypt.then_some((key, 3)),
        };
        let frame = encode_batch(&batch, &opts);
        assert_eq!(wire_size(&batch, &opts), frame.len(), "counted frame size");
        let back = decode_batch(&frame, encrypt.then_some(&key)).unwrap();
        assert_eq!(batch.canonical_rows(), back.canonical_rows());
        // A zero-copy view must serialize identically to the rows it shows:
        // the encoder rebases Utf8 view offsets to the logical span.
        let offset = g.usize_in(0, batch.rows());
        let len = g.usize_in(0, batch.rows() - offset);
        let view = batch.slice(offset, len);
        let view_frame = encode_batch(&view, &opts);
        assert_eq!(
            wire_size(&view, &opts),
            view_frame.len(),
            "counted view size"
        );
        let view_back = decode_batch(&view_frame, encrypt.then_some(&key)).unwrap();
        assert_eq!(view.canonical_rows(), view_back.canonical_rows());
    });
}

#[test]
fn edge_frames_roundtrip_bit_identically() {
    use rheo::codec::edge::{self, EdgeEncoding};
    check("edge_frames_roundtrip_bit_identically", 64, |g| {
        let batch = arb_codec_batch(g, 200);
        // A zero-copy slice exercises non-zero Utf8 view offsets and
        // partial null bitmaps; len 0 exercises the empty frame.
        let offset = g.usize_in(0, batch.rows());
        let len = g.usize_in(0, batch.rows() - offset);
        let view = batch.slice(offset, len);
        let reference = materialize(&view);
        for encoding in EdgeEncoding::ALL {
            let frame = edge::encode(&view, encoding);
            assert_eq!(
                frame.len(),
                edge::encoded_size(&view, encoding),
                "{encoding}: encoded_size must match the actual frame"
            );
            assert_eq!(edge::frame_encoding(&frame).unwrap(), encoding);
            let back = edge::decode(&frame).unwrap();
            assert_batches_identical(&back, &reference);
        }
    });
}

#[test]
fn codec_edge_ledger_charges_exact_frame_sizes() {
    use rheo::codec::edge::{self, EdgeEncoding};
    use rheo::core::exec::push::{execute_graph, CodecPolicy, ExecEnv};
    use rheo::core::logical::{AggCall, LogicalPlan};
    use rheo::core::ops::AggMode;
    use rheo::core::physical::{PhysNode, PhysicalPlan};
    use rheo::core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
    check("codec_edge_ledger_charges_exact_frame_sizes", 24, |g| {
        let batch = arb_batch(g, 300);
        let chunk = g.usize_in(1, batch.rows());
        let encoding = EdgeEncoding::ALL[g.usize_in(0, EdgeEncoding::ALL.len() - 1)];
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let pieces = batch.split(chunk).unwrap();
        let logical = LogicalPlan::values(vec![batch.clone()])
            .unwrap()
            .aggregate(vec!["s".into()], vec![AggCall::count_star("n")])
            .unwrap();
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Values {
                    batches: pieces.clone(),
                    schema: batch.schema().clone(),
                    device: Some(nic),
                }),
                group_by: vec!["s".into()],
                aggs: vec![AggCall::count_star("n")],
                mode: AggMode::Final,
                final_schema: logical.schema(),
                device: Some(cpu),
            },
            "prop",
        );
        let mut graph = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let eid = graph
            .edges
            .iter()
            .position(|e| e.crosses_devices())
            .expect("nic -> cpu fabric edge");
        graph.set_edge_encoding(eid, encoding, 0.5);
        let env = ExecEnv {
            storage: None,
            topology: Some(&topo),
            wire: None,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        };
        let out = execute_graph(&graph, &env, "prop").unwrap();
        // Every batch crossing the edge is charged at exactly the bytes
        // that cross: raw size when plain, the frame size when encoded.
        let expect: u64 = pieces
            .iter()
            .map(|b| {
                if encoding.is_plain() {
                    b.byte_size() as u64
                } else {
                    edge::encode(b, encoding).len() as u64
                }
            })
            .sum();
        assert_eq!(out.ledger.cross_device_bytes(), expect);
        // Results are unchanged by the codec.
        let plain = execute_graph(
            &PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY),
            &env,
            "prop",
        )
        .unwrap();
        assert_eq!(
            out.collect().unwrap().canonical_rows(),
            plain.collect().unwrap().canonical_rows()
        );
    });
}

/// A fixed corpus covering every codec branch: hash partitions of the
/// exchange join's fact table, the dimension table, 8192-row telemetry
/// views, a batch of nulls, bools, i64 extremes, runs and 200 distinct
/// strings (2-byte dict codes), and empty and one-row views.
fn codec_corpus() -> Vec<Batch> {
    use rheo::bench::workload;
    use rheo::core::scaleout::SHUFFLE_SEED;
    let lineitem = workload::lineitem(12_000, 1);
    let mut corpus = HashPartitioner::with_seed(vec!["l_orderkey".into()], 4, SHUFFLE_SEED)
        .unwrap()
        .partition(&lineitem)
        .unwrap();
    corpus.push(workload::orders(3000, 1));
    corpus.extend(workload::telemetry(3 * 8192, 64, 1).split(8192).unwrap());
    let rows = 700;
    let extremes = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1, i64::MAX - 1];
    let odd = batch_of(vec![
        (
            "extreme",
            Column::from_opt_i64(
                &(0..rows)
                    .map(|i| (i % 5 != 0).then_some(extremes[i % extremes.len()]))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "run",
            Column::from_i64((0..rows).map(|i| (i / 60) as i64 - 3).collect()),
        ),
        (
            "narrow",
            Column::from_i64((0..rows).map(|i| (i * 7919 % 29) as i64).collect()),
        ),
        (
            "ascending",
            Column::from_i64((0..rows).map(|i| 1_000_000 + 3 * i as i64).collect()),
        ),
        (
            "key",
            Column::from_opt_strs(
                &(0..rows)
                    .map(|i| {
                        let k = i * 37 % 200;
                        (i % 11 != 0).then(|| format!("{}{k}", ["k", "key-", "ключ"][k % 3]))
                    })
                    .collect::<Vec<_>>()
                    .iter()
                    .map(Option::as_deref)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "x",
            Column::from_opt_f64(
                &(0..rows)
                    .map(|i| (i % 3 != 0).then_some(i as f64 * -0.75))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "flag",
            Column::from_bools(&(0..rows).map(|i| i % 3 == 1).collect::<Vec<_>>()),
        ),
    ]);
    corpus.push(odd.slice(13, rows - 20));
    corpus.push(odd);
    corpus.push(lineitem.slice(100, 0));
    corpus.push(lineitem.slice(77, 1));
    corpus
}

/// 64-bit FNV-1a, folded over every frame in turn.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The payload a frame carries, decrypted with `key` when it is sealed, and
/// whether its header says LZ packed it.
fn frame_payload(frame: &[u8], key: &crypto::Key) -> (Vec<u8>, bool) {
    let mut pos = 5;
    let wire = frame.starts_with(b"DFW1");
    let nonce = (wire && frame[4] & 2 != 0).then(|| varint::read_u64(frame, &mut pos).unwrap());
    let mut payload = varint::read_bytes(frame, &mut pos).unwrap().to_vec();
    if let Some(counter) = nonce {
        crypto::apply_keystream(key, &crypto::Nonce::from_counter(counter), &mut payload);
    }
    let lz = if wire {
        frame[4] & 1 != 0
    } else {
        frame[4] >= 2
    };
    (payload, lz)
}

#[test]
fn codec_frames_match_parent_digest() {
    use rheo::codec::edge::{self, EdgeEncoding};
    let mut total = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for batch in codec_corpus() {
        let frames = [
            encode_batch(&batch, &WireOptions::plain()),
            edge::encode(&batch, EdgeEncoding::Plain),
            edge::encode(&batch, EdgeEncoding::Columnar),
        ];
        for frame in frames {
            total += frame.len();
            digest = fnv1a(digest, &frame);
        }
    }
    // The frames that carry no LZ, pinned at the commit before the LZ parse
    // skipped ahead on misses: every one of their bytes must stay identical.
    assert_eq!((total, digest), (3_798_694, 16_446_797_528_433_033_815));
}

#[test]
fn codec_lz_frames_unpack_to_parent_payloads() {
    use rheo::codec::edge::{self, EdgeEncoding};
    let key = crypto::Key::from_seed(11);
    let sealed = WireOptions {
        compress: true,
        encrypt: Some((key, 5)),
    };
    let mut total = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for batch in codec_corpus() {
        // Each LZ frame next to its non-LZ counterpart, whose payload the
        // digest above pins.
        let wire_plain = encode_batch(&batch, &WireOptions::plain());
        let pairs = [
            (
                encode_batch(&batch, &WireOptions::compressed()),
                &wire_plain,
            ),
            (encode_batch(&batch, &sealed), &wire_plain),
            (
                edge::encode(&batch, EdgeEncoding::Lz),
                &edge::encode(&batch, EdgeEncoding::Plain),
            ),
            (
                edge::encode(&batch, EdgeEncoding::ColumnarLz),
                &edge::encode(&batch, EdgeEncoding::Columnar),
            ),
        ];
        for (frame, counterpart) in pairs {
            let (want, _) = frame_payload(counterpart, &key);
            let (payload, packed) = frame_payload(&frame, &key);
            if packed {
                assert_eq!(lz::decompress(&payload).unwrap(), want);
            } else {
                // Only DFW1 may keep a payload LZ did not shrink.
                assert!(frame.starts_with(b"DFW1"));
                assert_eq!(payload, want);
            }
            total += frame.len();
            digest = fnv1a(digest, &frame);
        }
    }
    // The LZ frames' own bytes, pinned at the commit that made the parse
    // skip ahead on misses.
    assert_eq!((total, digest), (2_792_906, 3_567_933_805_954_834_507));
}

#[test]
fn crc32_folded_matches_table() {
    use rheo::codec::checksum::{crc32_update, crc32_update_sliced, folded};
    if !folded() {
        eprintln!("no PCLMULQDQ/SSE4.1 on this CPU: only the slice-by-8 fallback is checked");
    }
    check("crc32_folded_matches_table", 64, |g| {
        // Start 0-15 bytes into the buffer, so the folded kernel's 16-byte
        // loads land at every alignment.
        let len = g.usize_in(0, 70_000);
        let offset = g.usize_in(0, 15);
        let buf: Vec<u8> = (0..offset + len).map(|_| g.byte()).collect();
        let bytes = &buf[offset..];
        let start = g.u64() as u32;
        let want = crc32_update_sliced(start, bytes);
        assert_eq!(crc32_update(start, bytes), want, "len {len} at +{offset}");
        // The same bytes in random chunks: short ones stay on slice-by-8,
        // long ones cross the 64-byte dispatch and 16-byte tail bounds.
        let mut state = start;
        let mut rest = bytes;
        while !rest.is_empty() {
            let cap = *g.pick(&[16, 200, rest.len()]);
            let n = g.usize_in(0, cap.min(rest.len()));
            state = crc32_update(state, &rest[..n]);
            rest = &rest[n..];
        }
        assert_eq!(state, want, "chunked, len {len} at +{offset}");
    });
}

#[test]
fn int_codecs_roundtrip() {
    check("int_codecs_roundtrip", 64, |g| {
        let len = g.usize_in(0, 499);
        let values = g.vec_of(len, Gen::i64);
        assert_eq!(
            &int::rle_decode(&int::rle_encode(&values)).unwrap(),
            &values
        );
        assert_eq!(
            &int::delta_decode(&int::delta_encode(&values)).unwrap(),
            &values
        );
        let (tag, len) = int::choose(&values, g.bool());
        let bytes = int::encode_tagged(tag, &values);
        assert_eq!(bytes.len(), len, "counted length of tag {tag}");
        assert_eq!(&int::decode_tagged(tag, &bytes).unwrap(), &values);
    });
}

#[test]
fn lz_roundtrip_any_bytes() {
    check("lz_roundtrip_any_bytes", 64, |g| {
        let len = g.usize_in(0, 4095);
        // Mix of random noise and compressible runs.
        let data: Vec<u8> = if g.bool() {
            g.vec_of(len, Gen::byte)
        } else {
            let b = g.byte();
            vec![b; len]
        };
        assert_eq!(lz::decompress(&lz::compress(&data)).unwrap(), data);
    });
}

#[test]
fn lz_decoder_never_panics_on_garbage() {
    check("lz_decoder_never_panics_on_garbage", 64, |g| {
        let len = g.usize_in(0, 255);
        let data = g.vec_of(len, Gen::byte);
        let _ = lz::decompress(&data); // must not panic
    });
}

// ------------------------------------------------ decoder bounds and fuzz
//
// CI runs these under `ulimit -v 4000000`: a decoder that trusts a count
// and allocates for it aborts the process there instead of failing a test.

#[test]
fn lz_roundtrip_long_zero_run() {
    // In one match, 1 MiB of zeros packs into 11 bytes, past the decoder's
    // cap of 2^16 output bytes per input byte: a match stops at 2^16 bytes.
    let data = vec![0u8; 1 << 20];
    assert_eq!(lz::decompress(&lz::compress(&data)).unwrap(), data);
}

#[test]
fn lz_roundtrip_constant_edge_frame() {
    use rheo::codec::edge::{self, EdgeEncoding};
    // 400,000 rows of one constant Int64 column: in one match, the DFE1
    // `lz` frame would be 39 bytes, past the decoder's cap.
    let batch = batch_of(vec![("c", Column::from_i64(vec![7; 400_000]))]);
    for encoding in EdgeEncoding::ALL {
        let frame = edge::encode(&batch, encoding);
        assert_eq!(edge::decode(&frame).unwrap(), batch, "{encoding:?}");
    }
    for opts in [WireOptions::plain(), WireOptions::compressed()] {
        let frame = encode_batch(&batch, &opts);
        assert_eq!(decode_batch(&frame, None).unwrap(), batch);
    }
}

/// Up to eight stretches of the shapes the LZ parse treats differently:
/// runs of one byte up to 1 MiB long (one unsplit match could pass the
/// decoder's cap), repeats of earlier bytes (which overlap themselves when
/// they start near the end), and random bytes.
fn lz_input(g: &mut Gen) -> Vec<u8> {
    let mut data = Vec::new();
    for _ in 0..g.usize_in(0, 8) {
        match g.usize_in(0, 2) {
            0 => {
                let byte = g.byte();
                let len = g.usize_in(1, 1 << 20);
                data.resize(data.len() + len, byte);
            }
            1 if !data.is_empty() => {
                let start = g.usize_in(0, data.len() - 1);
                for i in 0..g.usize_in(1, 100_000) {
                    data.push(data[start + i]);
                }
            }
            _ => {
                let len = g.usize_in(1, 20_000);
                data.extend(g.vec_of(len, Gen::byte));
            }
        }
    }
    data
}

#[test]
fn lz_roundtrip_runs_repeats_and_mutations() {
    check("lz_roundtrip_runs_repeats_and_mutations", 256, |g| {
        let data = lz_input(g);
        let frame = lz::compress(&data);
        assert_eq!(lz::decompress(&frame).unwrap(), data);
        // One to eight bytes replaced or bit-flipped, then maybe cut short
        // or extended: decoding returns the declared size or `Corrupt`.
        let mut damaged = frame.clone();
        for _ in 0..g.usize_in(1, 8) {
            let at = g.usize_in(0, damaged.len() - 1);
            damaged[at] = if g.bool() {
                g.byte()
            } else {
                damaged[at] ^ 1 << g.usize_in(0, 7)
            };
        }
        match g.usize_in(0, 2) {
            0 => damaged.truncate(g.usize_in(0, damaged.len())),
            1 => damaged.push(g.byte()),
            _ => {}
        }
        match lz::decompress(&damaged) {
            Ok(out) => {
                let declared = varint::read_u64(&damaged, &mut 0).unwrap();
                assert_eq!(out.len() as u64, declared);
            }
            Err(e) => assert!(matches!(e, CodecError::Corrupt(_)), "{e:?}"),
        }
    });
}

/// A width-0 bit-pack stream: 2^40 copies of one value in 8 bytes.
fn width_zero_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    varint::write_u64(&mut stream, 1 << 40);
    varint::write_i64(&mut stream, 7);
    stream.push(0);
    assert_eq!(stream.len(), 8);
    stream
}

#[test]
fn decode_cap_bitpack_width_zero() {
    // Trusted, the count asks for 8.8 TB.
    assert!(matches!(
        int::bitpack_decode(&width_zero_stream()),
        Err(CodecError::Corrupt(_))
    ));
}

#[test]
fn decode_cap_rle_run() {
    // One run of 2^34 in 11 bytes: trusted, 137 GB.
    let mut stream = Vec::new();
    varint::write_u64(&mut stream, 1 << 34);
    varint::write_i64(&mut stream, 7);
    varint::write_u64(&mut stream, 1 << 34);
    assert_eq!(stream.len(), 11);
    assert!(matches!(
        int::rle_decode(&stream),
        Err(CodecError::Corrupt(_))
    ));
}

#[test]
fn decode_cap_edge_frame_rows() {
    use rheo::codec::checksum::crc32;
    use rheo::codec::edge;
    use rheo::codec::wire::encode_schema;
    // A DFE1 `columnar` frame carrying the width-0 stream under a valid
    // CRC, which is an integrity check, not a bound. Declaring the
    // stream's 2^40 rows, or one row, it is corrupt before allocating.
    for rows in [1u64 << 40, 1] {
        let mut payload = Vec::new();
        encode_schema(
            &mut payload,
            &Schema::new(vec![Field::new("x", DataType::Int64)]),
        );
        varint::write_u64(&mut payload, rows);
        payload.push(int::TAG_BITPACK);
        varint::write_bytes(&mut payload, &width_zero_stream());
        payload.push(0); // no validity bitmap
        let mut frame = b"DFE1".to_vec();
        frame.push(1); // columnar
        varint::write_bytes(&mut frame, &payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        assert_eq!(frame.len(), if rows == 1 { 27 } else { 32 });
        assert!(
            matches!(edge::decode(&frame), Err(CodecError::Corrupt(_))),
            "{rows} rows"
        );
    }
}

#[test]
fn decode_cap_dict_column() {
    use rheo::codec::wire::decode_column;
    // A dictionary-coded Utf8 column of one 60,000-byte entry and 70,000
    // one-byte codes: trusted, 4.2 GB of rows.
    let mut dict = Vec::new();
    varint::write_u64(&mut dict, 1);
    varint::write_bytes(&mut dict, &[b'a'; 60_000]);
    varint::write_u64(&mut dict, 70_000);
    dict.resize(dict.len() + 70_000, 0);
    let mut column = vec![1]; // the dictionary tag
    varint::write_bytes(&mut column, &dict);
    column.push(0); // no validity bitmap
    assert_eq!(column.len(), 130_012);
    assert!(matches!(
        decode_column(&column, &mut 0, DataType::Utf8),
        Err(CodecError::Corrupt(_))
    ));
}

#[test]
fn decode_cap_lz_declared_size() {
    // 70,000 literal bytes declaring 4.6 GB of output, within LZ's cap of
    // 2^16 bytes per input byte: reserved up front, the size alone aborts.
    let mut stream = Vec::new();
    varint::write_u64(&mut stream, 70_000 << 16);
    varint::write_bytes(&mut stream, &[7; 70_000]);
    varint::write_u64(&mut stream, 0);
    assert!(matches!(
        lz::decompress(&stream),
        Err(CodecError::Corrupt(_))
    ));
}

/// Decode `frame` through both fronts. Each returns a batch or a typed
/// error; a batch must be whole enough to read every row of.
fn decode_through_both_fronts(frame: &[u8], key: Option<&crypto::Key>) {
    use rheo::codec::edge;
    for batch in [decode_batch(frame, key), edge::decode(frame)]
        .into_iter()
        .flatten()
    {
        batch.canonical_rows();
    }
}

#[test]
fn frame_decode_returns_typed_errors() {
    use rheo::codec::checksum::crc32;
    use rheo::codec::edge::{self, EdgeEncoding};
    let key = crypto::Key::from_seed(11);
    let sealed = WireOptions {
        compress: true,
        encrypt: Some((key, 5)),
    };
    // Every frame kind of every corpus batch, with the key its decoder
    // gets and where its payload starts.
    let mut frames = Vec::new();
    for batch in codec_corpus() {
        let encrypted = encode_batch(&batch, &sealed);
        frames.push((encrypted.clone(), Some(key)));
        frames.push((encrypted, None));
        for opts in [WireOptions::plain(), WireOptions::compressed()] {
            frames.push((encode_batch(&batch, &opts), None));
        }
        for encoding in EdgeEncoding::ALL {
            frames.push((edge::encode(&batch, encoding), None));
        }
    }
    let frames: Vec<_> = frames
        .into_iter()
        .map(|(frame, key)| {
            let mut pos = 5;
            if frame.starts_with(b"DFW1") && frame[4] & 2 != 0 {
                varint::read_u64(&frame, &mut pos).unwrap(); // nonce counter
            }
            let len = varint::read_u64(&frame, &mut pos).unwrap() as usize;
            assert_eq!(pos + len + 4, frame.len());
            (frame, key, pos)
        })
        .collect();
    check("frame_decode_returns_typed_errors", 1024, |g| {
        // Random bytes, bare and framed under either magic with a valid
        // CRC, so that they reach the LZ and payload decoders.
        let len = g.usize_in(0, 300);
        let noise = g.vec_of(len, Gen::byte);
        decode_through_both_fronts(&noise, Some(&key));
        let mut framed = g.pick(&[b"DFW1", b"DFE1"]).to_vec();
        let tag = g.usize_in(0, 4) as u8;
        framed.push(tag);
        if framed.starts_with(b"DFW1") && tag & 2 != 0 {
            varint::write_u64(&mut framed, g.u64());
        }
        varint::write_bytes(&mut framed, &noise);
        framed.extend_from_slice(&crc32(&noise).to_le_bytes());
        decode_through_both_fronts(&framed, g.bool().then_some(&key));

        // A corpus frame with one to eight bytes replaced or bit-flipped,
        // half of them in the header and the payload's first 16 bytes,
        // then its CRC recomputed so the damage gets past the checksum.
        let (frame, frame_key, start) = g.pick(&frames);
        let mut damaged = frame.clone();
        for _ in 0..g.usize_in(1, 8) {
            let last = if g.bool() { start + 16 } else { damaged.len() };
            let at = g.usize_in(0, last.min(damaged.len()) - 1);
            damaged[at] = if g.bool() {
                g.byte()
            } else {
                damaged[at] ^ 1 << g.usize_in(0, 7)
            };
        }
        let end = damaged.len() - 4;
        let crc = crc32(&damaged[*start..end]);
        damaged[end..].copy_from_slice(&crc.to_le_bytes());
        decode_through_both_fronts(&damaged, frame_key.as_ref());
    });
}

#[test]
fn serve_frame_decode_returns_typed_errors() {
    use rheo::serve::protocol::{decode_result, encode_result, read_frame, write_frame, Frame};
    // One valid frame of every kind, the Batch frame carrying a real
    // result batch.
    let corpus: Vec<Vec<u8>> = [
        Frame::Hello {
            tenant: "tenant-é".into(),
            weight: 3,
            priority: 1,
        },
        Frame::HelloOk,
        Frame::Query {
            sql: "SELECT l_region FROM lineitem WHERE l_comment LIKE '%urgent%'".into(),
        },
        Frame::Batch(encode_result(&rheo::bench::workload::lineitem(40, 1))),
        Frame::Done {
            rows: 40,
            credits: 7,
        },
        Frame::Error("engine: boom".into()),
        Frame::Rejected("over budget".into()),
        Frame::Bye,
    ]
    .iter()
    .map(|frame| {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).unwrap();
        bytes
    })
    .collect();
    // A frame or a typed error; a batch frame's payload decodes to a
    // batch or a typed error too.
    let read = |bytes: &[u8]| {
        let frame = read_frame(&mut &bytes[..]);
        if let Ok(Frame::Batch(payload)) = &frame {
            if let Ok(batch) = decode_result(payload) {
                batch.canonical_rows();
            }
        }
        frame
    };
    check("serve_frame_decode_returns_typed_errors", 1024, |g| {
        let len = g.usize_in(0, 64);
        let mut noise = g.vec_of(len, Gen::byte);
        let _ = read(&noise);
        // The same noise behind a plausible length prefix.
        let declared = g.usize_in(1, 80) as u32;
        noise.splice(0..0, declared.to_le_bytes());
        let _ = read(&noise);

        let frame = g.pick(&corpus);
        let n = g.usize_in(1, 8);
        let mut bytes = frame.clone();
        match g.usize_in(0, 2) {
            0 => {
                let len = bytes.len();
                damage(g, &mut bytes, 0..len, n);
                let _ = read(&bytes);
            }
            1 => {
                bytes.truncate(frame.len().saturating_sub(n));
                assert!(read(&bytes).is_err(), "a truncated frame must fail");
            }
            _ => {
                // Bytes past the frame belong to the next one.
                bytes.extend(g.vec_of(n, Gen::byte));
                assert_eq!(read(&bytes).unwrap(), read(frame).unwrap());
            }
        }
    });
}

/// Replace or bit-flip `n` bytes of `bytes[range]`.
fn damage(g: &mut Gen, bytes: &mut [u8], range: std::ops::Range<usize>, n: usize) {
    for _ in 0..n {
        let at = g.usize_in(range.start, range.end - 1);
        bytes[at] = if g.bool() {
            g.byte()
        } else {
            bytes[at] ^ 1 << g.usize_in(0, 7)
        };
    }
}

/// Read every row of a decoded column, so a column that decodes but is
/// not whole (offsets past its data, a short bitmap) fails the test.
fn read_every_row(column: &Column) {
    for row in 0..column.len() {
        column.scalar_at(row);
    }
}

/// Open the segment at `key`, then read every column of every page: each
/// step returns its value or a typed error.
fn open_and_read_segment(store: &rheo::storage::object::ObjectStoreRef, key: &str) {
    use rheo::storage::segment::SegmentReader;
    let Ok(reader) = SegmentReader::open(store.clone(), key) else {
        return;
    };
    reader.rows();
    for page in 0..reader.n_pages() {
        for column in 0..reader.schema().len() {
            if let Ok(column) = reader.read_column(page, column) {
                read_every_row(&column);
            }
        }
    }
}

#[test]
fn segment_open_returns_typed_errors() {
    use rheo::codec::checksum::crc32;
    use rheo::codec::wire::{encode_scalar, encode_schema};
    use rheo::storage::segment::SegmentReader;
    let store = MemObjectStore::shared();
    // Real segments of every non-empty corpus batch, in pages of 512 rows,
    // each with where its footer starts and where its first block lies.
    let tables = TableStore::new(store.clone());
    let mut segments = Vec::new();
    for (i, batch) in codec_corpus().iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let table = format!("t{i}");
        tables.create(&table, batch.schema()).unwrap();
        tables
            .append(&table, std::slice::from_ref(batch), 1 << 20, 512)
            .unwrap();
        for key in tables.segments(&table) {
            let bytes = store.get(&key).unwrap();
            let tail = bytes.len() - 8;
            let footer_len = u32::from_le_bytes(bytes[tail..tail + 4].try_into().unwrap());
            let reader = SegmentReader::open(store.clone(), &key).unwrap();
            let block = &reader.page(0).blocks[0];
            let first_block = block.offset as usize..(block.offset + block.len) as usize;
            segments.push((bytes, tail - footer_len as usize, first_block));
        }
    }
    let dtypes = [
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Bool,
    ];
    check("segment_open_returns_typed_errors", 1024, |g| {
        // A random object that ends in a plausible footer length and the
        // magic: blocks of random bytes under valid CRCs, and a footer
        // that is random bytes, or a schema and page directory over those
        // blocks with random row counts and zone maps.
        let mut object = Vec::new();
        let mut blocks = Vec::new();
        for _ in 0..g.usize_in(0, 6) {
            let len = g.usize_in(0, 40);
            let body = g.vec_of(len, Gen::byte);
            blocks.push((object.len() as u64, len as u64 + 4));
            object.extend_from_slice(&body);
            object.extend_from_slice(&crc32(&body).to_le_bytes());
        }
        let footer_start = object.len();
        if g.bool() {
            let len = g.usize_in(0, 64);
            object.extend(g.vec_of(len, Gen::byte));
        } else {
            let fields: Vec<Field> = (0..g.usize_in(0, 3))
                .map(|i| Field::new(format!("c{i}"), *g.pick(&dtypes)))
                .collect();
            encode_schema(&mut object, &Schema::new(fields.clone()));
            let pages = g.usize_in(0, 3);
            varint::write_u64(&mut object, pages as u64);
            for _ in 0..pages {
                let small = g.u64() % 64;
                let rows = *g.pick(&[0, 1, small, 1 << 40, u64::MAX]);
                varint::write_u64(&mut object, rows);
                for _ in &fields {
                    let (offset, len) = match blocks.is_empty() || g.usize_in(0, 5) == 0 {
                        true => (g.u64() % 512, g.u64() % 64),
                        false => *g.pick(&blocks),
                    };
                    varint::write_u64(&mut object, offset);
                    varint::write_u64(&mut object, len);
                    for _ in 0..2 {
                        let zone = match g.usize_in(0, 2) {
                            0 => Scalar::Null,
                            1 => Scalar::Int(g.i64()),
                            _ => Scalar::Str(g.string_from(&SMALL_CHARS, 4)),
                        };
                        encode_scalar(&mut object, &zone);
                    }
                    varint::write_u64(&mut object, g.u64() % 64);
                    varint::write_u64(&mut object, g.u64() % 64);
                }
            }
        }
        let mut footer_len = (object.len() - footer_start) as u32;
        if g.usize_in(0, 3) == 0 {
            footer_len = g.usize_in(0, object.len()) as u32;
        }
        object.extend_from_slice(&footer_len.to_le_bytes());
        object.extend_from_slice(b"DFSG");
        store.put("fuzz/random", object).unwrap();
        open_and_read_segment(&store, "fuzz/random");

        // A real segment with one to eight bytes of its footer or tail
        // damaged, cut out or inserted (a cut or an insertion keeps the
        // footer length in step half the time), or with a block's bytes
        // damaged under a recomputed CRC.
        let (segment, footer_start, first_block) = g.pick(&segments);
        let (mut bytes, footer_start) = (segment.clone(), *footer_start);
        let n = g.usize_in(1, 8);
        let tail = bytes.len() - 8;
        match g.usize_in(0, 3) {
            0 => {
                let len = bytes.len();
                damage(g, &mut bytes, footer_start..len, n);
            }
            1 | 2 => {
                let at = g.usize_in(footer_start, tail);
                let mut footer_len = (tail - footer_start) as u32;
                if g.bool() {
                    let n = n.min(tail - at);
                    bytes.drain(at..at + n);
                    footer_len -= n as u32;
                } else {
                    let inserted = g.vec_of(n, Gen::byte);
                    bytes.splice(at..at, inserted);
                    footer_len += n as u32;
                }
                if g.bool() {
                    let tail = bytes.len() - 8;
                    bytes[tail..tail + 4].copy_from_slice(&footer_len.to_le_bytes());
                }
            }
            _ => {
                let body = first_block.start..first_block.end - 4;
                damage(g, &mut bytes, body.clone(), n);
                let crc = crc32(&bytes[body.clone()]);
                bytes[body.end..first_block.end].copy_from_slice(&crc.to_le_bytes());
            }
        }
        store.put("fuzz/damaged", bytes).unwrap();
        open_and_read_segment(&store, "fuzz/damaged");
    });
}

#[test]
fn stream_decoders_return_typed_errors() {
    use rheo::codec::wire::{
        decode_column, decode_page_column, decode_scalar, decode_schema, encode_column,
        encode_scalar, encode_schema,
    };
    let dtypes = [
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Bool,
    ];
    // Every decoder over `bytes`: each returns its value or a typed error.
    let decode_all = |g: &mut Gen, bytes: &[u8]| {
        let mut pos = 0;
        while varint::read_u64(bytes, &mut pos).is_ok() {}
        let mut pos = 0;
        while varint::read_i64(bytes, &mut pos).is_ok() {}
        let mut pos = 0;
        while varint::read_bytes(bytes, &mut pos).is_ok() {}
        let _ = int::rle_decode(bytes);
        let _ = int::bitpack_decode(bytes);
        let _ = int::delta_decode(bytes);
        let _ = int::decode_tagged(int::TAG_PLAIN, bytes);
        if let Ok(schema) = decode_schema(bytes, &mut 0) {
            schema.len();
        }
        let _ = decode_scalar(bytes, &mut 0);
        for dtype in dtypes {
            if let Ok(column) = decode_column(bytes, &mut 0, dtype) {
                read_every_row(&column);
            }
            let small = g.u64() % 1024;
            let rows = *g.pick(&[0, 1, small, 1 << 40, u64::MAX]);
            if let Ok(column) = decode_page_column(bytes, &mut 0, dtype, rows) {
                read_every_row(&column);
            }
        }
        // The same bytes as the stream of a dictionary-coded Utf8 column
        // and of each integer codec.
        let mut dict = vec![1];
        varint::write_bytes(&mut dict, bytes);
        dict.push(0);
        if let Ok(column) = decode_column(&dict, &mut 0, DataType::Utf8) {
            read_every_row(&column);
        }
        for tag in [int::TAG_RLE, int::TAG_DELTA, int::TAG_BITPACK] {
            let mut ints = vec![tag];
            varint::write_bytes(&mut ints, bytes);
            ints.push(0);
            if let Ok(column) = decode_column(&ints, &mut 0, DataType::Int64) {
                read_every_row(&column);
            }
        }
    };
    check("stream_decoders_return_typed_errors", 1024, |g| {
        let len = g.usize_in(0, 300);
        let noise = g.vec_of(len, Gen::byte);
        decode_all(g, &noise);

        // A valid stream of one decoder, with one to eight bytes damaged,
        // cut off or appended.
        let batch = arb_codec_batch(g, 64);
        let mut stream = Vec::new();
        match g.usize_in(0, 4) {
            0 => {
                for _ in 0..g.usize_in(1, 8) {
                    varint::write_u64(&mut stream, g.u64() >> g.usize_in(0, 63));
                    varint::write_i64(&mut stream, g.i64() >> g.usize_in(0, 63));
                }
            }
            1 => {
                let Column::Int64 { values, .. } = batch.column(5) else {
                    panic!("the shaped column is Int64");
                };
                let tag = *g.pick(&[
                    int::TAG_PLAIN,
                    int::TAG_RLE,
                    int::TAG_DELTA,
                    int::TAG_BITPACK,
                ]);
                stream = int::encode_tagged(tag, values);
            }
            2 => encode_schema(&mut stream, batch.schema()),
            3 => {
                let row = g.usize_in(0, batch.rows() - 1);
                encode_scalar(&mut stream, &batch.column(g.usize_in(0, 5)).scalar_at(row));
            }
            _ => encode_column(&mut stream, batch.column(g.usize_in(0, 5))),
        }
        let n = g.usize_in(1, 8);
        match g.usize_in(0, 2) {
            0 if !stream.is_empty() => {
                let len = stream.len();
                damage(g, &mut stream, 0..len, n);
            }
            1 => stream.truncate(stream.len().saturating_sub(n)),
            _ => stream.extend(g.vec_of(n, Gen::byte)),
        }
        decode_all(g, &stream);
    });
}

#[test]
fn rowpage_roundtrip() {
    check("rowpage_roundtrip", 64, |g| {
        let batch = arb_batch(g, 100);
        let page = RowPage::from_batch(&batch).unwrap();
        let back = page.to_batch().unwrap();
        assert_eq!(batch.canonical_rows(), back.canonical_rows());
    });
}

// ------------------------------------------------------ device kernels

#[test]
fn pushdown_matches_host_eval() {
    check("pushdown_matches_host_eval", 64, |g| {
        // `i` is NULL on about a quarter of the rows, so NOT over AND/OR
        // trees separates Kleene logic from "NULL never matches".
        let batch = arb_batch(g, 100);
        let expr = arb_predicate(g, &batch, 3, false);
        let host = expr.eval_predicate(&batch).unwrap();
        let pushed = rheo::core::kernel::to_storage_predicate(&expr)
            .unwrap_or_else(|| panic!("{expr} must lower to storage"));
        let storage = pushed.evaluate(&batch).unwrap();
        assert_eq!(host, storage, "{expr}");
    });
}

// ------------------------------------------------- the predicate kernel

const KERNEL_CHARS: [char; 8] = ['a', 'b', 'é', '日', '%', '_', '\\', ' '];

fn opt<T>(g: &mut Gen, value: impl FnOnce(&mut Gen) -> T) -> Option<T> {
    if g.usize_in(0, 4) == 0 {
        None
    } else {
        Some(value(g))
    }
}

fn kernel_int(g: &mut Gen) -> i64 {
    match g.usize_in(0, 5) {
        0 => *g.pick(&[i64::MIN, i64::MAX, 0, -1, 1, 1 << 53]),
        1 => g.i64(),
        _ => g.i64_in(-4, 4),
    }
}

fn kernel_float(g: &mut Gen) -> f64 {
    match g.usize_in(0, 3) {
        0 => *g.pick(&[
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]),
        1 => g.i64_in(-4, 4) as f64,
        2 => g.i64_in(-8, 8) as f64 / 2.0,
        _ => g.f64_any(),
    }
}

fn kernel_str(g: &mut Gen) -> String {
    g.string_from(&KERNEL_CHARS, 5)
}

/// A batch with every type the kernel compares: Int64 with NULLs and
/// extremes, Float64 with signed zeros, NaN, infinities and NULLs, Utf8
/// with empty strings, multibyte characters and literal `%`/`_`/`\`, and
/// Bool with NULLs.
fn kernel_batch(g: &mut Gen, max_rows: usize) -> Batch {
    let rows = g.usize_in(1, max_rows);
    let ints = |g: &mut Gen| g.vec_of(rows, |g| opt(g, kernel_int));
    let strs = |g: &mut Gen| g.vec_of(rows, |g| opt(g, kernel_str));
    let (i, j) = (ints(g), ints(g));
    let f = g.vec_of(rows, |g| opt(g, kernel_float));
    let (s, t) = (strs(g), strs(g));
    let b = g.vec_of(rows, |g| opt(g, Gen::bool));
    let as_strs = |v: &[Option<String>]| -> Column {
        Column::from_opt_strs(&v.iter().map(Option::as_deref).collect::<Vec<_>>())
    };
    let mut bools = ColumnBuilder::new(DataType::Bool, rows);
    for v in b {
        match v {
            Some(v) => bools.push(Scalar::Bool(v)).unwrap(),
            None => bools.push_null(),
        }
    }
    batch_of(vec![
        ("i", Column::from_opt_i64(&i)),
        ("j", Column::from_opt_i64(&j)),
        ("f", Column::from_opt_f64(&f)),
        ("s", as_strs(&s)),
        ("t", as_strs(&t)),
        ("b", bools.finish()),
    ])
}

/// A literal for comparing against a column of type `dtype`: mostly the
/// same kind, sometimes another kind (cross-type order) or NULL.
fn kernel_literal(g: &mut Gen, dtype: DataType) -> Scalar {
    let kind = match g.usize_in(0, 9) {
        0 => None,
        1 | 2 => Some(*g.pick(&[
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
        ])),
        _ => Some(dtype),
    };
    match kind {
        None => Scalar::Null,
        Some(DataType::Int64) => Scalar::Int(kernel_int(g)),
        Some(DataType::Float64) => Scalar::Float(kernel_float(g)),
        Some(DataType::Utf8) => Scalar::Str(kernel_str(g)),
        Some(DataType::Bool) => Scalar::Bool(g.bool()),
    }
}

/// A random predicate tree over `batch`'s columns. `with_col_pairs` adds
/// column-vs-column comparisons, which storage cannot lower.
fn arb_predicate(
    g: &mut Gen,
    batch: &Batch,
    depth: usize,
    with_col_pairs: bool,
) -> rheo::core::expr::Expr {
    use rheo::core::expr::{col, lit, Expr};
    let fields = batch.schema().fields();
    let field = g.pick(fields);
    let (name, dtype) = (field.name.clone(), field.dtype);
    let strings: Vec<String> = fields
        .iter()
        .filter(|f| f.dtype == DataType::Utf8)
        .map(|f| f.name.clone())
        .collect();
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let op = *g.pick(&ops);
    let choice = if depth == 0 {
        g.usize_in(0, 4)
    } else {
        g.usize_in(0, 7)
    };
    match choice {
        0 if with_col_pairs && g.bool() => col(name).cmp(op, col(g.pick(fields).name.clone())),
        0 if g.bool() => lit(kernel_literal(g, dtype)).cmp(op, col(name)),
        0 => col(name).cmp(op, lit(kernel_literal(g, dtype))),
        1 => Expr::Between {
            expr: Box::new(col(name)),
            low: kernel_literal(g, dtype),
            high: kernel_literal(g, dtype),
        },
        2 => {
            let pattern = g.string_from(&KERNEL_CHARS, 6);
            col(g.pick(&strings).clone()).like(pattern)
        }
        3 if g.bool() => col(name).is_null(),
        3 => col(name).is_not_null(),
        4 => {
            // Literal-only shapes: exact, `lit%`, `%lit` and `%lit%`, the
            // one the kernel answers with a substring search.
            let needle = g.string_from(&KERNEL_CHARS[..4], 2);
            let pattern = match g.usize_in(0, 3) {
                0 => needle,
                1 => format!("{needle}%"),
                2 => format!("%{needle}"),
                _ => format!("%{needle}%"),
            };
            col(g.pick(&strings).clone()).like(pattern)
        }
        5 => arb_predicate(g, batch, depth - 1, with_col_pairs).not(),
        6 => {
            let n = g.usize_in(2, 3);
            Expr::And(
                (0..n)
                    .map(|_| arb_predicate(g, batch, depth - 1, with_col_pairs))
                    .collect(),
            )
        }
        _ => {
            let n = g.usize_in(2, 3);
            Expr::Or(
                (0..n)
                    .map(|_| arb_predicate(g, batch, depth - 1, with_col_pairs))
                    .collect(),
            )
        }
    }
}

/// True when `expr` compares two columns, the one shape `arb_predicate`
/// makes that the offload predicate language cannot express.
fn has_column_pair(expr: &rheo::core::expr::Expr) -> bool {
    use rheo::core::expr::Expr;
    match expr {
        Expr::Cmp { left, right, .. } => {
            matches!(
                (left.as_ref(), right.as_ref()),
                (Expr::Col(_), Expr::Col(_))
            )
        }
        Expr::And(children) | Expr::Or(children) => children.iter().any(has_column_pair),
        Expr::Not(inner) => has_column_pair(inner),
        _ => false,
    }
}

/// Every predicate evaluator against an independent reference: the
/// row-at-a-time `Expr::eval_row`, keeping only rows that are `TRUE`. The
/// host runs every predicate; one lowers to the offload language, which
/// storage and the device filter run, exactly when it has no column pair.
#[test]
fn predicate_kernel_matches_eval_row() {
    check("predicate_kernel_matches_eval_row", 256, |g| {
        let whole = kernel_batch(g, 150);
        let offset = g.usize_in(1, whole.rows());
        let view = whole.slice(offset, g.usize_in(0, whole.rows() - offset));
        let expr = arb_predicate(g, &whole, 3, true);
        let pushed = rheo::core::kernel::to_storage_predicate(&expr);
        assert_eq!(pushed.is_some(), !has_column_pair(&expr), "lowers: {expr}");
        for batch in [&whole, &view] {
            let schema = batch.schema();
            let reference: Vec<usize> = (0..batch.rows())
                .filter(|&r| expr.eval_row(schema, &batch.row(r)).unwrap() == Scalar::Bool(true))
                .collect();
            let ones = |bits: rheo::data::Bitmap| bits.iter_ones().collect::<Vec<_>>();
            assert_eq!(
                ones(expr.eval_predicate(batch).unwrap()),
                reference,
                "host: {expr}"
            );
            let device = FilterOp::kernel(&expr, schema.clone());
            let Some(p) = &pushed else {
                assert!(device.is_err(), "device: {expr}");
                continue;
            };
            assert_eq!(
                ones(p.evaluate(batch).unwrap()),
                reference,
                "storage: {expr}"
            );
            // The device filter keeps exactly the reference rows, in order
            // (floats compared by total order, so NaN rows match).
            let kept: Vec<Vec<Scalar>> = device
                .unwrap()
                .push(batch.clone())
                .unwrap()
                .iter()
                .flat_map(|b| (0..b.rows()).map(|r| b.row(r)).collect::<Vec<_>>())
                .collect();
            assert_eq!(kept.len(), reference.len(), "device: {expr}");
            for (row, &r) in kept.iter().zip(&reference) {
                let same = row
                    .iter()
                    .zip(batch.row(r))
                    .all(|(a, b)| a.total_cmp(&b).is_eq());
                assert!(same, "device: {expr}");
            }
        }
    });
}

// --------------------------------------------------------- partitioner

#[test]
fn partitioning_is_a_permutation() {
    check("partitioning_is_a_permutation", 64, |g| {
        let len = g.usize_in(1, 299);
        let keys = g.vec_of(len, Gen::i64);
        let fanout = g.usize_in(1, 7);
        let batch = batch_of(vec![("k", Column::from_i64(keys.clone()))]);
        let partitioner = HashPartitioner::new(vec!["k".into()], fanout).unwrap();
        let outs = partitioner.partition(&batch).unwrap();
        // Union of partitions is the input multiset.
        let mut got: Vec<i64> = outs
            .iter()
            .flat_map(|b| b.column(0).i64_values().unwrap().to_vec())
            .collect();
        let mut want = keys.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // Determinism: same key -> same partition across separate runs.
        let partitioner2 = HashPartitioner::new(vec!["k".into()], fanout).unwrap();
        let batch2 = batch_of(vec![("k", Column::from_i64(keys))]);
        let outs2 = partitioner2.partition(&batch2).unwrap();
        let assignment = |outs: &[Batch]| {
            let mut map = std::collections::HashMap::new();
            for (p, b) in outs.iter().enumerate() {
                for &k in b.column(0).i64_values().unwrap() {
                    let prev = map.insert(k, p);
                    if let Some(prev) = prev {
                        assert_eq!(prev, p, "key {k} split across partitions");
                    }
                }
            }
            map
        };
        assert_eq!(assignment(&outs), assignment(&outs2));
    });
}

#[test]
fn hash_partitioner_is_total_and_seed_deterministic() {
    check(
        "hash_partitioner_is_total_and_seed_deterministic",
        64,
        |g| {
            let batch = arb_batch(g, 200);
            let parts = g.usize_in(1, 9);
            let seed = g.u64();
            let p = HashPartitioner::with_seed(vec!["i".into(), "s".into()], parts, seed).unwrap();
            // Total: every row (nulls included) lands in exactly one partition.
            let assignments = p.assignments(&batch).unwrap();
            assert_eq!(assignments.len(), batch.rows());
            assert!(assignments.iter().all(|&a| a < parts));
            let split = p.partition(&batch).unwrap();
            assert_eq!(split.len(), parts);
            assert_eq!(split.iter().map(Batch::rows).sum::<usize>(), batch.rows());
            // Deterministic: the same seed reproduces the same assignment; a
            // fresh partitioner value changes nothing.
            let again =
                HashPartitioner::with_seed(vec!["i".into(), "s".into()], parts, seed).unwrap();
            assert_eq!(again.assignments(&batch).unwrap(), assignments);
        },
    );
}

#[test]
fn partition_of_concat_equals_concat_of_partitions() {
    check("partition_of_concat_equals_concat_of_partitions", 64, |g| {
        let whole = arb_batch(g, 240);
        let cut = g.usize_in(0, whole.rows());
        let a = whole.slice(0, cut);
        let b = whole.slice(cut, whole.rows() - cut);
        let parts = g.usize_in(1, 6);
        let p = HashPartitioner::with_seed(vec!["i".into()], parts, g.u64()).unwrap();
        let of_whole = p.partition(&whole).unwrap();
        let of_a = p.partition(&a).unwrap();
        let of_b = p.partition(&b).unwrap();
        for part in 0..parts {
            let stitched =
                Batch::concat(&[of_a[part].clone(), of_b[part].clone()]).unwrap_or_else(|_| {
                    // Both pieces empty: concat of nothing is the empty batch.
                    Batch::empty(whole.schema().clone())
                });
            assert_eq!(
                of_whole[part].canonical_rows(),
                stitched.canonical_rows(),
                "partition {part} differs between whole-batch and per-batch routing"
            );
        }
    });
}

#[test]
fn partitioner_accounts_for_null_keys_and_empty_batches() {
    check(
        "partitioner_accounts_for_null_keys_and_empty_batches",
        64,
        |g| {
            let rows = g.usize_in(0, 50);
            // All-null key column: every row must still be routed (to one bucket).
            let nulls: Vec<Option<i64>> = vec![None; rows];
            let batch = batch_of(vec![("i", Column::from_opt_i64(&nulls))]);
            let parts = g.usize_in(1, 5);
            let p = HashPartitioner::with_seed(vec!["i".into()], parts, g.u64()).unwrap();
            let split = p.partition(&batch).unwrap();
            assert_eq!(split.len(), parts);
            assert_eq!(split.iter().map(Batch::rows).sum::<usize>(), rows);
            let non_empty: Vec<usize> = (0..parts).filter(|&i| !split[i].is_empty()).collect();
            assert!(non_empty.len() <= 1, "null keys split across partitions");
            // Empty batch: partitions exist, all empty, schema preserved.
            let empty = batch.slice(0, 0);
            let split = p.partition(&empty).unwrap();
            assert_eq!(split.len(), parts);
            assert!(split.iter().all(Batch::is_empty));
            assert!(split.iter().all(|b| b.schema() == empty.schema()));
        },
    );
}

#[test]
fn hash_row_matches_scalar_fnv_reference() {
    // The partition hash, recomputed from `scalar_at` in the test: an
    // FNV-1a-style fold over a type tag and the value's little-endian
    // bytes (strings raw, NULL a lone 0 tag), with the seed folded into
    // the offset basis. Its multiplier is 0x1000_0000_01b3, not the
    // textbook FNV prime; partition assignments depend on it.
    fn reference(cols: &[&Column], row: usize, seed: u64) -> u64 {
        let mut bytes = Vec::new();
        for col in cols {
            match col.scalar_at(row) {
                Scalar::Null => bytes.push(0),
                Scalar::Int(v) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                Scalar::Float(v) => {
                    bytes.push(2);
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                Scalar::Str(s) => {
                    bytes.push(3);
                    bytes.extend_from_slice(s.as_bytes());
                }
                Scalar::Bool(b) => bytes.extend_from_slice(&[4, b as u8]),
            }
        }
        bytes.iter().fold(0xcbf2_9ce4_8422_2325 ^ seed, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }
    check("hash_row_matches_scalar_fnv_reference", 64, |g| {
        let batch = arb_batch(g, 120);
        let offset = g.usize_in(0, batch.rows() - 1);
        let view = batch.slice(offset, batch.rows() - offset);
        let cols: Vec<&Column> = view.columns().iter().collect();
        let seed = if g.bool() { 0 } else { g.u64() };
        for row in 0..view.rows() {
            assert_eq!(
                hash_row_seeded(&cols, row, seed),
                reference(&cols, row, seed),
                "row {row}"
            );
        }
    });
}

// ------------------------------------------------------------ hash join

/// Build a column from scalars (NULLs included) of one type.
fn scalar_column(dtype: DataType, values: Vec<Scalar>) -> Column {
    let mut b = ColumnBuilder::new(dtype, values.len());
    for v in values {
        b.push(v).unwrap();
    }
    b.finish()
}

/// The join schema the planner would give `build ⋈ probe`.
fn join_schema(
    build: &Batch,
    probe: &Batch,
    on: &[(&str, &str)],
    join_type: JoinType,
) -> SchemaRef {
    LogicalPlan::values(vec![build.clone()])
        .unwrap()
        .join_with(
            LogicalPlan::values(vec![probe.clone()]).unwrap(),
            on.to_vec(),
            join_type,
        )
        .unwrap()
        .schema()
}

/// Drive a `HashJoinOp` to completion — every build batch, every probe
/// batch, then `finish` — and return its outputs in emission order.
fn run_hash_join(
    on: &[(&str, &str)],
    join_type: JoinType,
    schema: SchemaRef,
    build: &[Batch],
    probe: &[Batch],
) -> Vec<Batch> {
    let on_owned = on
        .iter()
        .map(|(l, r)| (l.to_string(), r.to_string()))
        .collect();
    let mut op = HashJoinOp::with_type(on_owned, join_type, build[0].schema().clone(), schema);
    for b in build {
        op.build(b.clone()).unwrap();
    }
    let mut out = Vec::new();
    for p in probe {
        out.extend(op.push(p.clone()).unwrap());
    }
    out.extend(op.finish().unwrap());
    out
}

/// Type-tagged key bytes of one row, `None` if any key column is NULL.
/// Int64 and Float64 tags differ, and floats compare by bits.
fn join_key(cols: &[&Column], row: usize) -> Option<Vec<u8>> {
    let mut key = Vec::new();
    for col in cols {
        match col.scalar_at(row) {
            Scalar::Null => return None,
            Scalar::Int(v) => {
                key.push(b'i');
                key.extend_from_slice(&v.to_le_bytes());
            }
            Scalar::Float(v) => {
                key.push(b'f');
                key.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Scalar::Str(s) => {
                key.push(b's');
                key.extend_from_slice(&(s.len() as u64).to_le_bytes());
                key.extend_from_slice(s.as_bytes());
            }
            Scalar::Bool(b) => key.extend_from_slice(&[b'b', b as u8]),
        }
    }
    Some(key)
}

/// The reference join: a nested loop over build rows in arrival order for
/// every probe row in order, one output batch per probe batch with a
/// match, then (Left) the unmatched build rows in arrival order.
fn nested_loop_join(
    on: &[(&str, &str)],
    join_type: JoinType,
    schema: SchemaRef,
    build: &[Batch],
    probe: &[Batch],
) -> Vec<Batch> {
    let build_rows: Vec<(&Batch, usize)> = build
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |r| (b, r)))
        .collect();
    let build_keys: Vec<Option<Vec<u8>>> = build_rows
        .iter()
        .map(|&(b, r)| {
            let cols: Vec<&Column> = on
                .iter()
                .map(|(l, _)| b.column_by_name(l).unwrap())
                .collect();
            join_key(&cols, r)
        })
        .collect();
    let nleft = build[0].schema().len();
    let assemble = |pairs: &[(usize, Option<(&Batch, usize)>)]| {
        let columns = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let values = pairs
                    .iter()
                    .map(|&(bi, p)| {
                        let (b, r) = build_rows[bi];
                        match (c < nleft, p) {
                            (true, _) => b.column(c).scalar_at(r),
                            (false, Some((pb, pr))) => pb.column(c - nleft).scalar_at(pr),
                            (false, None) => Scalar::Null,
                        }
                    })
                    .collect();
                scalar_column(f.dtype, values)
            })
            .collect();
        Batch::new(schema.clone(), columns).unwrap()
    };
    let mut matched = vec![false; build_rows.len()];
    let mut out = Vec::new();
    for pb in probe {
        let cols: Vec<&Column> = on
            .iter()
            .map(|(_, r)| pb.column_by_name(r).unwrap())
            .collect();
        let mut pairs = Vec::new();
        for pr in 0..pb.rows() {
            let Some(key) = join_key(&cols, pr) else {
                continue;
            };
            for (bi, bk) in build_keys.iter().enumerate() {
                if bk.as_ref() == Some(&key) {
                    pairs.push((bi, Some((pb, pr))));
                    matched[bi] = true;
                }
            }
        }
        if !pairs.is_empty() {
            out.push(assemble(&pairs));
        }
    }
    if join_type == JoinType::Left {
        let unmatched: Vec<(usize, Option<(&Batch, usize)>)> = (0..build_rows.len())
            .filter(|&bi| !matched[bi])
            .map(|bi| (bi, None))
            .collect();
        if !unmatched.is_empty() {
            out.push(assemble(&unmatched));
        }
    }
    out
}

/// Float keys where bit equality matters: both zeros and two NaNs.
const FLOAT_KEYS: [f64; 5] = [-0.0, 0.0, f64::NAN, 1.5, -1.5];

/// One side of a join with every key shape the operator handles: a
/// nullable Int64 key with heavy duplicates (~25% NULL), a small-alphabet
/// Utf8, a Float64 over [`FLOAT_KEYS`] plus a second NaN payload, a Bool,
/// and a Utf8 payload. Column names carry `prefix`.
fn join_side(g: &mut Gen, prefix: &str, rows: usize) -> Batch {
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let null_or = |g: &mut Gen, v: Scalar| {
        if g.usize_in(0, 3) == 0 {
            Scalar::Null
        } else {
            v
        }
    };
    let mut k = Vec::new();
    let mut s = Vec::new();
    let mut x = Vec::new();
    let mut flag = Vec::new();
    let mut payload = Vec::new();
    for i in 0..rows {
        let v = Scalar::Int(g.i64_in(-3, 3));
        k.push(null_or(g, v));
        let v = Scalar::Str(g.string_from(&['a', 'b'], 2));
        s.push(if g.usize_in(0, 9) == 0 {
            Scalar::Null
        } else {
            v
        });
        let f = if g.usize_in(0, 9) == 0 {
            other_nan
        } else {
            *g.pick(&FLOAT_KEYS)
        };
        x.push(if g.usize_in(0, 9) == 0 {
            Scalar::Null
        } else {
            Scalar::Float(f)
        });
        let v = Scalar::Bool(g.bool());
        flag.push(if g.usize_in(0, 9) == 0 {
            Scalar::Null
        } else {
            v
        });
        payload.push(Scalar::Str(format!("{prefix}{i}")));
    }
    let columns = [
        ("k", scalar_column(DataType::Int64, k)),
        ("s", scalar_column(DataType::Utf8, s)),
        ("x", scalar_column(DataType::Float64, x)),
        ("flag", scalar_column(DataType::Bool, flag)),
        ("payload", scalar_column(DataType::Utf8, payload)),
    ];
    let fields = columns
        .iter()
        .map(|(name, col)| Field::nullable(format!("{prefix}{name}"), col.data_type()))
        .collect();
    let columns = columns.into_iter().map(|(_, col)| col).collect();
    Batch::new(Schema::new(fields).into_ref(), columns).unwrap()
}

/// Cut `batch` into `pieces` consecutive batches, some as zero-copy
/// views and some as fresh copies.
fn cut(g: &mut Gen, batch: &Batch, pieces: usize) -> Vec<Batch> {
    let mut bounds: Vec<usize> = (1..pieces).map(|_| g.usize_in(0, batch.rows())).collect();
    bounds.push(0);
    bounds.push(batch.rows());
    bounds.sort_unstable();
    bounds
        .windows(2)
        .map(|w| {
            let view = batch.slice(w[0], w[1] - w[0]);
            if g.bool() {
                view
            } else {
                materialize(&view)
            }
        })
        .collect()
}

/// The key shapes [`join_side`] supports: one Int64 key, or a Utf8 key
/// paired with an Int64, Float64 or Bool key.
const JOIN_KEYS: [&[(&str, &str)]; 4] = [
    &[("bk", "pk")],
    &[("bs", "ps"), ("bk", "pk")],
    &[("bs", "ps"), ("bx", "px")],
    &[("bs", "ps"), ("bflag", "pflag")],
];

#[test]
fn hash_join_matches_nested_loop() {
    check("hash_join_matches_nested_loop", 64, |g| {
        let build_rows = g.usize_in(1, 60);
        let build = join_side(g, "b", build_rows);
        let probe_rows = g.usize_in(1, 80);
        let probe = join_side(g, "p", probe_rows);
        let on = *g.pick(&JOIN_KEYS);
        let build_pieces = g.usize_in(1, 4);
        let build_parts = cut(g, &build, build_pieces);
        let probe_pieces = g.usize_in(1, 5);
        let probe_parts = cut(g, &probe, probe_pieces);
        for join_type in [JoinType::Inner, JoinType::Left] {
            let schema = join_schema(&build, &probe, on, join_type);
            let got = run_hash_join(on, join_type, schema.clone(), &build_parts, &probe_parts);
            let want = nested_loop_join(on, join_type, schema, &build_parts, &probe_parts);
            assert_eq!(got.len(), want.len(), "{join_type:?} output batch count");
            for (got, want) in got.iter().zip(&want) {
                assert_batches_identical(got, want);
            }
        }
    });
}

#[test]
fn hash_join_int_key_never_matches_float_key() {
    let build = batch_of(vec![
        ("k", Column::from_i64(vec![0, 1, 2])),
        ("v", Column::from_strs(&["a", "b", "c"])),
    ]);
    let probe = batch_of(vec![
        ("pk", Column::from_f64(vec![0.0, 1.0, 2.0])),
        ("amount", Column::from_i64(vec![10, 11, 12])),
    ]);
    // The planner rejects mismatched key types; the operator must still
    // answer (nothing matches) rather than panic.
    let mut fields = build.schema().join(probe.schema()).fields().to_vec();
    for f in &mut fields[2..] {
        f.nullable = true;
    }
    let schema = Schema::new(fields).into_ref();
    let on = [("k", "pk")];
    let (b, p) = ([build.clone()], [probe.clone()]);
    let inner = run_hash_join(&on, JoinType::Inner, schema.clone(), &b, &p);
    assert!(inner.is_empty(), "an Int64 key matched a Float64 key");
    let left = run_hash_join(&on, JoinType::Left, schema, &b, &p);
    assert_eq!(left.len(), 1);
    assert_eq!(left[0].rows(), 3, "every build row is unmatched");
    assert_eq!(left[0].column(2).null_count(), 3);
}

#[test]
fn hash_join_build_after_push_is_an_internal_error() {
    let build = batch_of(vec![("k", Column::from_i64(vec![1, 2]))]);
    let probe = batch_of(vec![("pk", Column::from_i64(vec![2, 3]))]);
    let on = [("k", "pk")];
    let schema = join_schema(&build, &probe, &on, JoinType::Inner);
    let mut op = HashJoinOp::new(
        vec![("k".into(), "pk".into())],
        build.schema().clone(),
        schema,
    );
    op.build(build.clone()).unwrap();
    assert_eq!(op.push(probe).unwrap()[0].rows(), 1);
    assert!(matches!(op.build(build), Err(EngineError::Internal(_))));
}

/// The E5 join, scaled down: `orders ⋈ lineitem` cut round-robin over four
/// hosts and hash-partitioned on the join key with the shuffle seed, so
/// join fragment `p` sees partition `p` of every host's pieces.
fn e5_join_fragments() -> Vec<(Vec<Batch>, Vec<Batch>)> {
    use rheo::bench::workload;
    use rheo::core::scaleout::{split_round_robin, SHUFFLE_SEED};
    let route = |table: &Batch, key: &str| -> Vec<Vec<Batch>> {
        let partitioner = HashPartitioner::with_seed(vec![key.into()], 4, SHUFFLE_SEED).unwrap();
        let mut fragments = vec![Vec::new(); 4];
        for piece in split_round_robin(table, 4).into_iter().flatten() {
            for (p, part) in partitioner
                .partition(&piece)
                .unwrap()
                .into_iter()
                .enumerate()
            {
                fragments[p].push(part);
            }
        }
        fragments
    };
    let build = route(&workload::orders(2_000, 1), "o_orderkey");
    let probe = route(&workload::lineitem(8_000, 1), "l_orderkey");
    build.into_iter().zip(probe).collect()
}

#[test]
fn hash_join_output_matches_parent_digest() {
    let mut total = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |out: Vec<Batch>| {
        for batch in out {
            let frame = encode_batch(&batch, &WireOptions::plain());
            total += frame.len();
            digest = fnv1a(digest, &frame);
        }
    };
    let e5_on = [("o_orderkey", "l_orderkey")];
    let fragments = e5_join_fragments();
    let mut g = Gen::new(15);
    let build = join_side(&mut g, "b", 300);
    let probe = join_side(&mut g, "p", 500);
    let build_parts = cut(&mut g, &build, 4);
    let probe_parts = cut(&mut g, &probe, 6);
    for join_type in [JoinType::Inner, JoinType::Left] {
        for (b, p) in &fragments {
            let schema = join_schema(&b[0], &p[0], &e5_on, join_type);
            fold(run_hash_join(&e5_on, join_type, schema, b, p));
        }
        for on in JOIN_KEYS {
            let schema = join_schema(&build, &probe, on, join_type);
            fold(run_hash_join(
                on,
                join_type,
                schema,
                &build_parts,
                &probe_parts,
            ));
        }
    }
    // Pinned at the commit before the vectorized join: every output row,
    // its order, batch boundaries and validity layout must stay identical.
    assert_eq!((total, digest), (2_147_535, 1_786_946_923_278_352_115));
}

// ----------------------------------------------------- pre-aggregation

/// One bounded NIC merge stage over `spec`'s partial layout, holding at
/// most `max_groups` groups: the kernel a NIC-placed bounded `Merge`
/// aggregate runs.
fn nic_merge_stage(spec: &PreAggSpec, max_groups: usize, stream: Vec<Batch>) -> Vec<Batch> {
    let mode = AggMode::Merge {
        max_groups: Some(max_groups),
    };
    let Some(first) = stream.first() else {
        return stream;
    };
    let mut kernel = spec.kernel(mode, first.schema()).unwrap();
    let mut out = Vec::new();
    for batch in stream {
        out.extend(kernel.push(batch).unwrap());
    }
    out.extend(kernel.finish().unwrap());
    out
}

#[test]
fn storage_preagg_output_matches_parent_digest() {
    use rheo::bench::workload;
    use rheo::core::physical::PhysNode;
    use rheo::core::session::Session;

    let session = Session::in_memory().unwrap();
    session
        .create_table("lineitem", &[workload::lineitem(20_000, 1)])
        .unwrap();
    let mut cases: Vec<(String, ScanRequest)> = [16, usize::MAX]
        .into_iter()
        .map(|max_groups| {
            let spec = PreAggSpec {
                group_by: vec!["l_quantity".into()],
                aggs: vec![
                    (AggFn::Count, "l_orderkey".into()),
                    (AggFn::Sum, "l_orderkey".into()),
                ],
                max_groups,
            };
            (
                "lineitem".to_string(),
                ScanRequest::full().pre_aggregate(spec),
            )
        })
        .collect();
    // E10's full-dataflow variant pushes its pre-aggregation (AVG
    // decomposed into SUM and COUNT) to storage.
    let logical = session
        .logical_plan(
            "SELECT l_region, COUNT(*) AS n, SUM(l_price) AS revenue, \
             AVG(l_discount) AS avg_discount FROM lineitem \
             WHERE l_shipdate BETWEEN 100 AND 2000 GROUP BY l_region",
        )
        .unwrap();
    let variants = session.variants(&logical).unwrap();
    let full = variants
        .iter()
        .find(|v| v.plan.variant == "full-dataflow")
        .expect("full-dataflow variant");
    let mut stack = vec![&full.plan.root];
    while let Some(node) = stack.pop() {
        if let PhysNode::StorageScan {
            table,
            request,
            schema,
            ..
        } = node
        {
            // The planner's scan schema is the layout storage emits.
            let (batches, _) = session.storage().scan(table, request).unwrap();
            assert!(batches
                .iter()
                .all(|b| b.schema().as_ref() == schema.as_ref()));
            cases.push((table.clone(), request.clone()));
        }
        stack.extend(node.children());
    }
    assert_eq!(cases.len(), 3);

    let mut outputs: Vec<Batch> = Vec::new();
    let mut bytes_returned = 0u64;
    for (table, request) in &cases {
        let (partials, stats) = session.storage().scan(table, request).unwrap();
        bytes_returned += stats.bytes_returned;
        let spec = request.preagg.as_ref().unwrap();
        let merged = nic_merge_stage(spec, 48, partials.clone());
        outputs.extend(partials);
        outputs.extend(merged);
    }
    let mut total = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for batch in &outputs {
        let frame = encode_batch(batch, &WireOptions::plain());
        total += frame.len();
        digest = fnv1a(digest, &frame);
    }
    // Pinned at the commit before storage and NIC pre-aggregation moved
    // onto the shared aggregation kernel (merges then ran on the storage
    // aggregator with counts rewritten to sums): every partial row, its
    // order, batch boundaries and schema must stay identical. Re-pin only
    // from the parent commit of a change that means to move them.
    assert_eq!(
        (bytes_returned, outputs.len(), total, digest),
        (49_182, 17, 72_336, 10_878_662_154_299_243_026)
    );
}

/// Group keys of the cascade corpus: each key type alone (a single Int64
/// runs the table's fast path) and four two-column keys.
const PREAGG_KEYS: [&[&str]; 8] = [
    &["ki"],
    &["kf"],
    &["ks"],
    &["kb"],
    &["ks", "ki"],
    &["ki", "kf"],
    &["kb", "ks"],
    &["kf", "kb"],
];

/// A group key as text: floats by their bits, everything else by `Debug`.
fn key_text(key: &[Scalar]) -> String {
    let parts: Vec<String> = key
        .iter()
        .map(|s| match s {
            Scalar::Float(f) => format!("F{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        })
        .collect();
    parts.join("|")
}

/// Rows with every key type — a nullable Int64 in -3..=3, a Float64 over
/// [`FLOAT_KEYS`] plus a second NaN payload, a Utf8 of up to two chars
/// (empty and multibyte included), a Bool — then a non-null row id, a
/// nullable Float64 `x`, and an Int64 `v` that is NULL on ~25% of rows
/// and on every row of about a third of the `group_by` groups.
fn preagg_rows(g: &mut Gen, rows: usize, group_by: &[&str]) -> Batch {
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let null_or = |g: &mut Gen, v: Scalar| {
        if g.usize_in(0, 4) == 0 {
            Scalar::Null
        } else {
            v
        }
    };
    let float = |g: &mut Gen| {
        if g.usize_in(0, 5) == 0 {
            other_nan
        } else {
            *g.pick(&FLOAT_KEYS)
        }
    };
    let mut keys: Vec<Vec<Scalar>> = vec![Vec::new(); 4];
    let (mut x, mut v) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        let ki = Scalar::Int(g.i64_in(-3, 3));
        keys[0].push(null_or(g, ki));
        let kf = Scalar::Float(float(g));
        keys[1].push(null_or(g, kf));
        let ks = Scalar::Str(g.string_from(&['a', 'é', '日'], 2));
        keys[2].push(null_or(g, ks));
        let kb = Scalar::Bool(g.bool());
        keys[3].push(null_or(g, kb));
        let xv = Scalar::Float(float(g));
        x.push(null_or(g, xv));
        let vv = Scalar::Int(g.i64_in(-20, 20));
        v.push(null_or(g, vv));
    }
    let names = ["ki", "kf", "ks", "kb"];
    let key_of = |r: usize| -> String {
        let key: Vec<Scalar> = group_by
            .iter()
            .map(|k| keys[names.iter().position(|n| n == k).unwrap()][r].clone())
            .collect();
        key_text(&key)
    };
    let mut all_null: BTreeMap<String, bool> = BTreeMap::new();
    for (r, value) in v.iter_mut().enumerate() {
        if *all_null
            .entry(key_of(r))
            .or_insert_with(|| g.usize_in(0, 2) == 0)
        {
            *value = Scalar::Null;
        }
    }
    let [ki, kf, ks, kb]: [Vec<Scalar>; 4] = keys.try_into().unwrap();
    batch_of(vec![
        ("id", Column::from_i64((0..rows as i64).collect())),
        ("ki", scalar_column(DataType::Int64, ki)),
        ("kf", scalar_column(DataType::Float64, kf)),
        ("ks", scalar_column(DataType::Utf8, ks)),
        ("kb", scalar_column(DataType::Bool, kb)),
        ("x", scalar_column(DataType::Float64, x)),
        ("v", scalar_column(DataType::Int64, v)),
    ])
}

/// Plain-Rust per-group answers for [`preagg_cascade_matches_final`].
#[derive(Default)]
struct GroupExpect {
    n: i64,
    cv: i64,
    sv: Option<i64>,
    lo: Option<i64>,
    hi: Option<i64>,
    xlo: Option<f64>,
    xhi: Option<f64>,
}

fn float_scalar(v: Option<f64>) -> Scalar {
    v.map_or(Scalar::Null, Scalar::Float)
}

#[test]
fn preagg_cascade_matches_final() {
    check("preagg_cascade_matches_final", 48, |g| {
        let group_by: Vec<String> = g.pick(&PREAGG_KEYS).iter().map(|k| k.to_string()).collect();
        let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let rows = g.usize_in(1, 80);
        let batch = preagg_rows(g, rows, &keys);
        let calls = vec![
            AggCall::count_star("n"),
            AggCall::new(AggFn::Count, "v", "cv"),
            AggCall::new(AggFn::Sum, "v", "sv"),
            AggCall::new(AggFn::Min, "v", "lo"),
            AggCall::new(AggFn::Max, "v", "hi"),
            AggCall::new(AggFn::Min, "x", "xlo"),
            AggCall::new(AggFn::Max, "x", "xhi"),
            AggCall::new(AggFn::Avg, "v", "av"),
        ];
        let final_schema = LogicalPlan::values(vec![batch.clone()])
            .unwrap()
            .aggregate(group_by.clone(), calls.clone())
            .unwrap()
            .schema();

        // The cascade: storage pre-aggregates (COUNT(*) over the non-null
        // id, AVG decomposed, as the optimizer pushes them), 0-3 bounded
        // NIC merges follow, and the CPU merges what arrives.
        let mut aggs = vec![(AggFn::Count, "id".to_string())];
        for (func, column) in [
            (AggFn::Count, "v"),
            (AggFn::Sum, "v"),
            (AggFn::Min, "v"),
            (AggFn::Max, "v"),
            (AggFn::Min, "x"),
            (AggFn::Max, "x"),
            (AggFn::Sum, "v"),
            (AggFn::Count, "v"),
        ] {
            aggs.push((func, column.to_string()));
        }
        let spec = PreAggSpec {
            group_by: group_by.clone(),
            aggs,
            max_groups: g.usize_in(1, 8),
        };
        let tables = TableStore::new(MemObjectStore::shared());
        tables.create("t", batch.schema()).unwrap();
        let page_rows = g.usize_in(4, 16);
        tables
            .append("t", std::slice::from_ref(&batch), 48, page_rows)
            .unwrap();
        let storage = SmartStorage::new(tables);
        let request = ScanRequest::full().pre_aggregate(spec.clone());
        let layout = storage.output_schema("t", &request).unwrap();
        let (mut stream, _) = storage.scan("t", &request).unwrap();
        for _ in 0..g.usize_in(0, 3) {
            let bound = g.usize_in(1, 8);
            stream = nic_merge_stage(&spec, bound, stream);
        }
        assert!(stream
            .iter()
            .all(|b| b.schema().as_ref() == layout.as_ref()));
        let merge_mode = AggMode::Merge { max_groups: None };
        let mut merge = HashAggOp::new(
            group_by.clone(),
            calls.clone(),
            merge_mode,
            &layout,
            final_schema.clone(),
        )
        .unwrap();
        for batch in stream {
            assert!(merge.push(batch).unwrap().is_empty());
        }
        let cascade = Batch::concat(&merge.finish().unwrap()).unwrap();

        let mut fin = HashAggOp::new(
            group_by.clone(),
            calls,
            AggMode::Final,
            batch.schema(),
            final_schema,
        )
        .unwrap();
        let pieces = g.usize_in(1, 4);
        for piece in cut(g, &batch, pieces) {
            assert!(fin.push(piece).unwrap().is_empty());
        }
        let direct = Batch::concat(&fin.finish().unwrap()).unwrap();

        // Both drain in key-byte order: compare row by row, AVG (the last
        // column) within 1e-9 and everything else exactly.
        let nkeys = group_by.len();
        let avg = nkeys + 7;
        assert_eq!(cascade.rows(), direct.rows());
        for r in 0..direct.rows() {
            let (a, b) = (cascade.row(r), direct.row(r));
            for c in 0..avg {
                assert!(
                    a[c].total_cmp(&b[c]).is_eq(),
                    "row {r} col {c}: {a:?} vs {b:?}"
                );
            }
            match (a[avg].as_float_lossy(), b[avg].as_float_lossy()) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "avg {x} vs {y}"),
                (x, y) => assert_eq!(x, y),
            }
        }

        // The oracle: plain iteration over the rows.
        let mut oracle: BTreeMap<String, GroupExpect> = BTreeMap::new();
        let schema = batch.schema();
        let key_idx: Vec<usize> = keys.iter().map(|k| schema.index_of(k).unwrap()).collect();
        let (x_idx, v_idx) = (schema.index_of("x").unwrap(), schema.index_of("v").unwrap());
        for r in 0..rows {
            let row = batch.row(r);
            let key: Vec<Scalar> = key_idx.iter().map(|&i| row[i].clone()).collect();
            let e = oracle.entry(key_text(&key)).or_default();
            e.n += 1;
            if let Some(v) = row[v_idx].as_int() {
                e.cv += 1;
                e.sv = Some(e.sv.unwrap_or(0) + v);
                e.lo = Some(e.lo.map_or(v, |lo| lo.min(v)));
                e.hi = Some(e.hi.map_or(v, |hi| hi.max(v)));
            }
            if let Scalar::Float(x) = row[x_idx] {
                e.xlo = Some(
                    e.xlo
                        .map_or(x, |lo| if x.total_cmp(&lo).is_lt() { x } else { lo }),
                );
                e.xhi = Some(
                    e.xhi
                        .map_or(x, |hi| if x.total_cmp(&hi).is_gt() { x } else { hi }),
                );
            }
        }
        assert_eq!(direct.rows(), oracle.len());
        for r in 0..direct.rows() {
            let row = direct.row(r);
            let e = &oracle[&key_text(&row[..nkeys])];
            let ints = |v: Option<i64>| v.map_or(Scalar::Null, Scalar::Int);
            let want = [
                Scalar::Int(e.n),
                Scalar::Int(e.cv),
                ints(e.sv),
                ints(e.lo),
                ints(e.hi),
                float_scalar(e.xlo),
                float_scalar(e.xhi),
            ];
            for (c, w) in want.iter().enumerate() {
                assert!(row[nkeys + c].total_cmp(w).is_eq(), "{row:?} vs {w:?}");
            }
            let want_avg = e.sv.map(|s| s as f64 / e.cv as f64);
            match (row[avg].as_float_lossy(), want_avg) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "avg {x} vs {y}"),
                (x, y) => assert_eq!(x, y),
            }
        }
    });
}

/// Push `batches` through one aggregation kernel, then finish it; returns
/// everything it emitted, in order, and its output schema.
fn run_agg_kernel(
    group_by: &[&str],
    calls: &[AggCall],
    mode: AggMode,
    input: &SchemaRef,
    final_schema: &SchemaRef,
    batches: &[Batch],
) -> (Vec<Batch>, SchemaRef) {
    let group_by = group_by.iter().map(|k| k.to_string()).collect();
    let mut op =
        HashAggOp::new(group_by, calls.to_vec(), mode, input, final_schema.clone()).unwrap();
    let mut out = Vec::new();
    for batch in batches {
        out.extend(op.push(batch.clone()).unwrap());
    }
    out.extend(op.finish().unwrap());
    (out, op.schema())
}

#[test]
fn cpu_group_by_output_matches_parent_digest() {
    use rheo::bench::workload;

    // serve_mix's `group` class over lineitem in storage-page-sized views,
    // and the cascade corpus's rows, whose keys are NULL on ~25% of rows,
    // cut at random points into views and fresh copies.
    let lineitem = workload::lineitem(20_000, 1).split(4096).unwrap();
    let mut g = Gen::new(22);
    let rows = preagg_rows(&mut g, 3_000, &["ks", "ki"]);
    let rows = cut(&mut g, &rows, 5);
    let shapes = |key: &str, second: &str, int: &str, float: &str| {
        [
            (
                vec![key.to_string()],
                vec![AggCall::new(AggFn::Sum, float, "total")],
            ),
            (vec![], vec![AggCall::count_star("n")]),
            (
                vec![key.to_string(), second.to_string()],
                vec![
                    AggCall::new(AggFn::Min, int, "lo"),
                    AggCall::new(AggFn::Max, float, "hi"),
                    AggCall::new(AggFn::Avg, int, "mean"),
                    AggCall::new(AggFn::Count, float, "cnt"),
                    AggCall::new(AggFn::Sum, int, "isum"),
                ],
            ),
            (
                vec![second.to_string()],
                vec![
                    AggCall::new(AggFn::Count, int, "cnt"),
                    AggCall::new(AggFn::Avg, float, "mean"),
                ],
            ),
        ]
    };
    let corpora = [
        (
            lineitem,
            shapes("l_region", "l_quantity", "l_quantity", "l_price"),
        ),
        (rows, shapes("ks", "ki", "v", "x")),
    ];

    let mut outputs: Vec<Batch> = Vec::new();
    for (batches, cases) in &corpora {
        let input = batches[0].schema();
        for (group_by, calls) in cases {
            let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
            let final_schema = LogicalPlan::values(batches.clone())
                .unwrap()
                .aggregate(group_by.clone(), calls.clone())
                .unwrap()
                .schema();
            let run = |mode, input: &SchemaRef, stream: &[Batch]| {
                run_agg_kernel(&keys, calls, mode, input, &final_schema, stream)
            };
            let (fin, _) = run(AggMode::Final, input, batches);
            let partial_mode = AggMode::Partial { max_groups: 16 };
            let (partials, layout) = run(partial_mode, input, batches);
            let (merged, _) = run(AggMode::Merge { max_groups: None }, &layout, &partials);
            let bounded = AggMode::Merge {
                max_groups: Some(48),
            };
            let (remerged, _) = run(bounded, &layout, &partials);
            assert!(partials.len() > 1 || keys.len() < 2, "bound 16 must flush");
            for out in [fin, partials, merged, remerged] {
                outputs.extend(out);
            }
        }
    }
    let mut total = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for batch in &outputs {
        let frame = encode_batch(batch, &WireOptions::plain());
        total += frame.len();
        digest = fnv1a(digest, &frame);
    }
    // Pinned at the commit before the column-at-a-time aggregation fold:
    // every group, its row order, batch boundaries, float sums (each
    // group's additions in row order) and validity layout must stay
    // identical. Re-pin only from the parent commit of a change that means
    // to move them.
    assert_eq!(
        (outputs.len(), total, digest),
        (61, 1_113_448, 8_562_022_994_229_986_539)
    );
}

// ----------------------------------------------------------- zone maps

#[test]
fn zonemap_pruning_is_sound() {
    check("zonemap_pruning_is_sound", 64, |g| {
        let len = g.usize_in(1, 199);
        let values = g.vec_of(len, opt_i64);
        let literal = g.i64();
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let op = *g.pick(&ops);
        let column = Column::from_opt_i64(&values);
        let zone = ZoneMap::of(&column);
        if zone.can_skip(op, &Scalar::Int(literal)) {
            // Pruning claimed no row matches: verify exhaustively.
            for v in values.iter().flatten() {
                assert!(
                    !op.matches(Scalar::Int(*v).total_cmp(&Scalar::Int(literal))),
                    "zone map dropped a matching row: {v} {op:?} {literal}"
                );
            }
        }
    });
}

// ------------------------------------------------------- Utf8 decoders

/// Every decoded Utf8 row must be valid UTF-8 on its own: the byte-level
/// LIKE and the Utf8 `gather`/`filter` never re-check a row. A payload
/// that is valid as a whole can still hide an offset inside a character.
#[test]
fn utf8_offsets_must_fall_on_char_boundaries() {
    use rheo::codec::edge::{self, EdgeEncoding};
    // "é" is two bytes; offset 1 splits it. Distinct one-byte rows keep
    // the dictionary from beating the plain block.
    let mut data = "é".as_bytes().to_vec();
    data.extend(b'a'..=b'z');
    let offsets: Vec<u32> = (0..=data.len() as u32).collect();
    let split = batch_of(vec![(
        "s",
        Column::Utf8 {
            offsets: offsets.into(),
            data: data.into(),
            validity: None,
        },
    )]);
    let frame = encode_batch(&split, &WireOptions::plain());
    assert!(
        decode_batch(&frame, None).is_err(),
        "DFW1 accepted an offset inside a character"
    );
    for enc in [EdgeEncoding::Plain, EdgeEncoding::Columnar] {
        assert!(
            edge::decode(&edge::encode(&split, enc)).is_err(),
            "DFE1 {enc} accepted an offset inside a character"
        );
    }
    // Whole characters per row still round-trip.
    let whole = batch_of(vec![("s", Column::from_strs(&["é", "日本", "", "a"]))]);
    assert_eq!(
        decode_batch(&encode_batch(&whole, &WireOptions::plain()), None).unwrap(),
        whole
    );
    for enc in [EdgeEncoding::Plain, EdgeEncoding::Columnar] {
        assert_eq!(edge::decode(&edge::encode(&whole, enc)).unwrap(), whole);
    }
}

// ---------------------------------------------------------------- LIKE

#[test]
fn like_matches_naive_semantics() {
    fn naive(input: &[char], pat: &[char]) -> bool {
        match pat.split_first() {
            None => input.is_empty(),
            Some(('\\', rest)) => match rest.split_first() {
                None => input == ['\\'],
                Some((lit, rest2)) => input.first() == Some(lit) && naive(&input[1..], rest2),
            },
            Some(('%', rest)) => (0..=input.len()).any(|k| naive(&input[k..], rest)),
            Some(('_', rest)) => !input.is_empty() && naive(&input[1..], rest),
            Some((c, rest)) => input.first() == Some(c) && naive(&input[1..], rest),
        }
    }
    check("like_matches_naive_semantics", 256, |g| {
        let input = g.string_from(&['a', 'b', 'é', '%', '_'], 8);
        let pattern = g.string_from(&['a', 'b', 'é', '%', '_', '\\'], 8);
        let compiled = LikePattern::compile(&pattern);
        let in_chars: Vec<char> = input.chars().collect();
        let pat_chars: Vec<char> = pattern.chars().collect();
        assert_eq!(
            compiled.matches(&input),
            naive(&in_chars, &pat_chars),
            "LIKE '{pattern}' over '{input}'"
        );
    });
}

// ---------------------------------------------------------------- sort

#[test]
fn sort_orders_and_permutes() {
    check("sort_orders_and_permutes", 64, |g| {
        let batch = arb_batch(g, 150);
        let asc = g.bool();
        let keys = [
            SortKey {
                column: 0,
                ascending: asc,
            },
            SortKey::asc(2),
        ];
        let sorted = sort_batch(&batch, &keys).unwrap();
        assert!(is_sorted(&sorted, &keys));
        assert_eq!(batch.canonical_rows(), sorted.canonical_rows());
    });
}

// --------------------------------------------------------------- btree

#[test]
fn btree_lookup_total() {
    check("btree_lookup_total", 64, |g| {
        let len = g.usize_in(1, 399);
        let mut keys = g.vec_of(len, |g| g.i64_in(-10_000, 9_999));
        let fanout = g.usize_in(2, 19);
        keys.sort_unstable();
        keys.dedup();
        let pairs: Vec<(i64, i64)> = keys.iter().map(|&k| (k, k.wrapping_mul(7))).collect();
        let mut region = MemRegion::new(
            0,
            rheo::mem::btree::required_page_size(fanout).max(256),
            Placement::Local,
        );
        let tree = btree::build(&mut region, &pairs, fanout).unwrap();
        for &k in &keys {
            assert_eq!(
                btree::lookup(&mut region, &tree, k).unwrap(),
                Some(k.wrapping_mul(7))
            );
        }
        // Absent keys miss.
        for probe in [-10_001i64, 10_001, 12345] {
            if !keys.contains(&probe) {
                assert_eq!(btree::lookup(&mut region, &tree, probe).unwrap(), None);
            }
        }
        // Range agrees with a filter of the key list.
        let (lo, hi) = (-500i64, 500i64);
        let got = btree::range(&mut region, &tree, lo, hi).unwrap();
        let want: Vec<(i64, i64)> = pairs
            .iter()
            .copied()
            .filter(|(k, _)| (lo..=hi).contains(k))
            .collect();
        assert_eq!(got, want);
    });
}

// ----------------------------------------------------------- coherence

#[test]
fn coherence_never_serves_stale_reads() {
    check("coherence_never_serves_stale_reads", 64, |g| {
        let len = g.usize_in(1, 299);
        let ops = g.vec_of(len, |g| (g.usize_in(0, 2), g.usize_in(0, 15), g.bool()));
        let hw = g.bool();
        let mut sim = CoherenceSim::new(CoherenceConfig {
            agents: 3,
            lines: 16,
            mode: if hw {
                Mode::HardwareCxl
            } else {
                Mode::SoftwareRdma
            },
            ..CoherenceConfig::default()
        });
        for (agent, line, is_write) in ops {
            if is_write {
                sim.write(agent, line);
            } else {
                let access = sim.read(agent, line);
                assert_eq!(access.value, sim.latest_version(line));
            }
            sim.check_invariants()
                .expect("coherence invariant violated");
        }
    });
}

// ------------------------------------------------------ flow simulator

#[test]
fn flow_conserves_bytes_and_respects_credits() {
    check("flow_conserves_bytes_and_respects_credits", 48, |g| {
        let source_kb = g.u64() % (2048 - 64) + 64;
        let sel_a = g.f64_unit();
        let sel_b = g.f64_unit();
        let credits = g.usize_in(1, 5);
        let topo = Topology::disaggregated(&DisaggregatedConfig::default());
        let ssd = topo.expect_device("storage.ssd");
        let snic = topo.expect_device("storage.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let spec = PipelineSpec::new(
            "prop",
            vec![
                StageSpec::new(ssd, OpClass::Filter, sel_a).with_queue(credits),
                StageSpec::new(snic, OpClass::Project, sel_b).with_queue(credits),
                StageSpec::new(cpu, OpClass::Count, 0.0).with_queue(credits),
            ],
            source_kb << 10,
        )
        .with_chunk(64 << 10);
        let mut sim = FlowSim::new(topo);
        sim.add_pipeline(spec);
        let report = sim.run();
        let p = &report.pipelines[0];
        // Stage i+1 consumes exactly what stage i produced.
        assert_eq!(p.stages[0].bytes_in, source_kb << 10);
        assert_eq!(p.stages[1].bytes_in, p.stages[0].bytes_out);
        assert_eq!(p.stages[2].bytes_in, p.stages[1].bytes_out);
        // Queues never exceeded their credit budget.
        for stage in &p.stages {
            assert!(stage.queue_high_watermark <= credits);
        }
        // The pipeline terminated (the sim queue drained).
        assert!(p.finished.nanos() > 0);
    });
}
