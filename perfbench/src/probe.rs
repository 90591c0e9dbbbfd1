//! Codec throughput probes on a workload's own batches: the wire sizer the
//! movement ledger calls on every cross-device batch (`exchange_join`), and
//! the edge codec a compressed fabric edge runs with the CRC its frames
//! carry (`log_shuffle`). Also the set-up and timing helpers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use df_codec::checksum::crc32;
use df_codec::edge::{self, EdgeEncoding};
use df_codec::wire::{wire_size, WireOptions};
use df_data::Batch;

use crate::stats::{gbps, median};

/// Repetitions of each codec probe; the median is reported.
pub const PROBE_REPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Of those, the set-ups before the measured phase.
pub const SETUP_BEFORE: usize = 3;
/// The rest, spread evenly through the measured phase.
pub const SETUP_DURING: usize = SETUP_REPS - SETUP_BEFORE;

/// `wire::wire_size(_, plain)` over all of `batches`, [`PROBE_REPS`]
/// times: the median GB/s of in-memory input.
pub fn wire_size_gbps(batches: &[Batch]) -> f64 {
    let input: u64 = batches.iter().map(|b| b.byte_size() as u64).sum();
    let sizing: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            for b in batches {
                black_box(wire_size(black_box(b), &WireOptions::plain()));
            }
            gbps(input, t.elapsed())
        })
        .collect();
    median(&sizing)
}

/// Median edge-codec throughputs over the probe's repetitions, plus the
/// exact compression ratio.
#[derive(Debug, Clone, Copy)]
pub struct EdgeProbe {
    /// `edge::encode`, GB/s of in-memory input.
    pub encode_gbps: f64,
    /// `edge::decode`, GB/s of in-memory output.
    pub decode_gbps: f64,
    /// `checksum::crc32` over the encoded frames, GB/s of frame bytes.
    pub crc_gbps: f64,
    /// Encoded frame bytes over in-memory bytes (exact).
    pub ratio: f64,
    /// Whether every frame decoded back to its batch.
    pub round_trip_ok: bool,
}

/// Time `edge::encode`, `edge::decode` and `crc32` over all of `batches`,
/// [`PROBE_REPS`] times.
pub fn edge_codec(batches: &[Batch], encoding: EdgeEncoding) -> EdgeProbe {
    let input: u64 = batches.iter().map(|b| b.byte_size() as u64).sum();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut crc = Vec::new();
    let mut frame_bytes = 0u64;
    let mut round_trip_ok = true;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let frames: Vec<Vec<u8>> = batches.iter().map(|b| edge::encode(b, encoding)).collect();
        encode.push(gbps(input, t.elapsed()));
        frame_bytes = frames.iter().map(|f| f.len() as u64).sum();

        let t = Instant::now();
        let decoded: Vec<_> = frames.iter().map(|f| edge::decode(f)).collect();
        decode.push(gbps(input, t.elapsed()));
        round_trip_ok &= decoded.iter().zip(batches).all(|(d, b)| {
            d.as_ref()
                .is_ok_and(|d| d.rows() == b.rows() && d.byte_size() == b.byte_size())
        });

        let t = Instant::now();
        for f in &frames {
            black_box(crc32(black_box(f)));
        }
        crc.push(gbps(frame_bytes, t.elapsed()));
    }
    EdgeProbe {
        encode_gbps: median(&encode),
        decode_gbps: median(&decode),
        crc_gbps: median(&crc),
        ratio: frame_bytes as f64 / input.max(1) as f64,
        round_trip_ok,
    }
}

/// Run `f` and return its result with the time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The repeated set-ups of one end-to-end run.
///
/// The machine's speed shifts level for seconds at a time, so set-ups taken
/// back to back all sample one moment of it. Spreading them through the
/// measured phase makes their median sample the same span the operations
/// do.
pub struct Setups<F> {
    make: F,
    secs: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setups<F> {
    /// Set up [`SETUP_BEFORE`] times, dropping each result before the next
    /// build; return the last one for the run to use.
    pub fn start(mut make: F) -> (Self, T) {
        let mut secs = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_BEFORE {
            drop(kept.take());
            let (built, took) = timed(&mut make);
            secs.push(took.as_secs_f64());
            kept = Some(built);
        }
        (Setups { make, secs }, kept.expect("SETUP_BEFORE > 0"))
    }

    /// Set up once more, dropping the result; return the time it took.
    pub fn again(&mut self) -> Duration {
        let (built, took) = timed(&mut self.make);
        drop(built);
        self.secs.push(took.as_secs_f64());
        took
    }

    /// Set up once more if `progress` (the share of the measured phase
    /// done) has reached the next set-up's slot; return the time it took.
    fn when_due(&mut self, progress: f64) -> Duration {
        let taken = self.secs.len() - SETUP_BEFORE;
        let slot = (taken + 1) as f64 / (SETUP_DURING + 1) as f64;
        if taken < SETUP_DURING && progress >= slot {
            self.again()
        } else {
            Duration::ZERO
        }
    }

    /// Run `op` back to back for `seconds` of measured time, taking each
    /// remaining set-up when its slot comes; set-up time does not count
    /// toward the measured time.
    pub fn measure(&mut self, seconds: f64, mut op: impl FnMut()) {
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        loop {
            let progress = (start.elapsed() - paused).as_secs_f64() / seconds;
            if progress >= 1.0 {
                break;
            }
            paused += self.when_due(progress);
            op();
        }
    }

    /// Take the set-ups the measured phase did not reach; return every
    /// set-up time in seconds.
    pub fn finish(mut self) -> Vec<f64> {
        while self.secs.len() < SETUP_REPS {
            self.again();
        }
        self.secs
    }
}
