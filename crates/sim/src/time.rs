//! Simulated time: nanosecond-resolution instants, durations, and bandwidths.
//!
//! All fabric timing reduces to two primitives: a latency (a
//! [`SimDuration`]) and a service time derived from a [`Bandwidth`] and a
//! byte count. Keeping these as explicit newtypes (rather than bare `u64`s)
//! prevents the classic unit-confusion bugs in cost models.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking so callers comparing out-of-order observations get a sane
    /// answer.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Build a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Build a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Build a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Whole nanoseconds in this duration.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating multiply by an integer factor.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_human_ns(f, self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_human_ns(f, self.0)
    }
}

fn write_human_ns(f: &mut fmt::Formatter<'_>, ns: u64) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

/// A data rate in bytes per second.
///
/// Used for link bandwidths and device streaming throughputs. The key
/// operation is [`Bandwidth::time_for_bytes`], which converts a payload size
/// into a [`SimDuration`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// A bandwidth from raw bytes per second. Panics if non-positive or
    /// non-finite: a zero-bandwidth link is a configuration error, not a
    /// runtime condition.
    pub fn bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps > 0.0,
            "bandwidth must be positive and finite, got {bps}"
        );
        Bandwidth { bytes_per_sec: bps }
    }

    /// A bandwidth from gigabytes per second (GB = 1e9 bytes).
    pub fn gbytes_per_sec(gbs: f64) -> Self {
        Self::bytes_per_sec(gbs * 1e9)
    }

    /// A bandwidth from megabytes per second (MB = 1e6 bytes).
    pub fn mbytes_per_sec(mbs: f64) -> Self {
        Self::bytes_per_sec(mbs * 1e6)
    }

    /// A bandwidth from gigabits per second, the customary unit for NICs.
    pub fn gbits_per_sec(gbits: f64) -> Self {
        Self::bytes_per_sec(gbits * 1e9 / 8.0)
    }

    /// Raw rate in bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Rate in GB/s, for display.
    #[inline]
    pub fn as_gbytes_per_sec(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// The serialization time for `bytes` at this rate.
    #[inline]
    pub fn time_for_bytes(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Scale the bandwidth (e.g. to model sharing or derating).
    pub fn scaled(self, factor: f64) -> Self {
        Self::bytes_per_sec(self.bytes_per_sec * factor)
    }

    /// The smaller of two bandwidths — the bottleneck of a two-hop path.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.bytes_per_sec <= other.bytes_per_sec {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gbytes_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        let t = SimTime(100) + SimDuration::from_nanos(50);
        assert_eq!(t, SimTime(150));
    }

    #[test]
    fn duration_constructors_are_consistent() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs_f64(1.0).nanos(), 1_000_000_000);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
        assert_eq!(SimTime(10).since(SimTime(5)), SimDuration::from_nanos(5));
    }

    #[test]
    fn bandwidth_transfer_time() {
        // 1 GB at 1 GB/s takes one second.
        let bw = Bandwidth::gbytes_per_sec(1.0);
        assert_eq!(bw.time_for_bytes(1_000_000_000).as_secs_f64(), 1.0);
        // 100 Gb/s NIC = 12.5 GB/s.
        let nic = Bandwidth::gbits_per_sec(100.0);
        assert!((nic.as_gbytes_per_sec() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_min_is_bottleneck() {
        let a = Bandwidth::gbytes_per_sec(2.0);
        let b = Bandwidth::gbytes_per_sec(8.0);
        assert_eq!(a.min(b), a);
        assert_eq!(b.min(a), a);
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn display_is_human_scaled() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs_f64(1.5).to_string(), "1.500s");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::bytes_per_sec(0.0);
    }
}
