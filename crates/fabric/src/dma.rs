//! DMA-engine primitives: the credit-message size and token-bucket rate
//! limiting.
//!
//! §7.1: "What we envisage for data movement is a sequence of queues placed
//! strategically in the pipeline that are connected via DMA engines ... This
//! flow control method is called credit-based". §7.3 adds that the scheduler
//! must be able to "rate limit the bandwidth used" by those DMA engines.
//! The flow simulator keeps each stage's credit state itself and charges
//! every returned credit [`CREDIT_MSG_BYTES`] of control traffic;
//! [`TokenBucket`] is the rate limiter.

use df_sim::{Bandwidth, SimDuration, SimTime};

/// Size in bytes of one credit-return control message (a header-only frame).
pub const CREDIT_MSG_BYTES: u64 = 64;

/// A token-bucket bandwidth limiter for a DMA engine.
///
/// Tokens are bytes; they refill at `rate` up to `burst`. The scheduler uses
/// this to cap a query's data-path bandwidth at runtime (§7.3).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Bandwidth,
    burst: u64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A bucket with the given sustained rate and burst size, initially full.
    pub fn new(rate: Bandwidth, burst: u64) -> Self {
        assert!(burst > 0, "burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst as f64,
            last_refill: SimTime::ZERO,
        }
    }

    /// The configured sustained rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate.as_bytes_per_sec()).min(self.burst as f64);
        self.last_refill = self.last_refill.max(now);
    }

    /// The earliest instant at or after `now` when `bytes` tokens will be
    /// available. Requests larger than the burst are allowed and simply wait
    /// proportionally longer.
    pub fn earliest_available(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.refill(now);
        let deficit = bytes as f64 - self.tokens;
        if deficit <= 0.0 {
            now
        } else {
            now + SimDuration::from_secs_f64(deficit / self.rate.as_bytes_per_sec())
        }
    }

    /// Consume `bytes` tokens at instant `at` (the bucket may go negative if
    /// the caller did not wait; sustained rate is still enforced on average).
    pub fn consume(&mut self, at: SimTime, bytes: u64) {
        self.refill(at);
        self.tokens -= bytes as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_allows_burst_then_throttles() {
        // 1 GB/s, 1 MB burst.
        let mut b = TokenBucket::new(Bandwidth::gbytes_per_sec(1.0), 1 << 20);
        let now = SimTime::ZERO;
        // The full burst is available immediately.
        assert_eq!(b.earliest_available(now, 1 << 20), now);
        b.consume(now, 1 << 20);
        // The next 1 MB must wait ~1 MB / 1 GB/s ≈ 1.05 ms.
        let next = b.earliest_available(now, 1 << 20);
        let wait = next.since(now).as_secs_f64();
        assert!((wait - (1 << 20) as f64 / 1e9).abs() < 1e-6, "wait={wait}");
    }

    #[test]
    fn bucket_refills_over_time() {
        let mut b = TokenBucket::new(Bandwidth::mbytes_per_sec(100.0), 1000);
        b.consume(SimTime::ZERO, 1000);
        // After 10 microseconds, 1000 bytes refilled.
        let later = SimTime(10_000);
        assert_eq!(b.earliest_available(later, 1000), later);
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(Bandwidth::gbytes_per_sec(10.0), 100);
        // Even after a long idle period, only `burst` tokens exist.
        let late = SimTime(1_000_000_000);
        assert_eq!(b.earliest_available(late, 100), late);
        b.consume(late, 100);
        assert!(b.earliest_available(late, 100) > late);
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let rate = Bandwidth::mbytes_per_sec(10.0);
        let mut b = TokenBucket::new(rate, 4096);
        let mut now = SimTime::ZERO;
        let chunk = 4096u64;
        let n = 1000u64;
        for _ in 0..n {
            now = b.earliest_available(now, chunk);
            b.consume(now, chunk);
        }
        let elapsed = now.as_secs_f64();
        let expected = ((n - 1) * chunk) as f64 / rate.as_bytes_per_sec();
        assert!(
            (elapsed - expected).abs() / expected < 0.01,
            "elapsed={elapsed} expected={expected}"
        );
    }
}
