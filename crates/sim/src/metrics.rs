//! A fixed-boundary histogram with count, sum, min and max: the latency
//! distributions the serving harness records per tenant.

/// A histogram with caller-supplied bucket upper bounds plus an implicit
/// overflow bucket. Also tracks count/sum/min/max for summary statistics.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            buckets: vec![0; n],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A general-purpose exponential layout: 1, 2, 4, ... up to 2^`levels`.
    pub fn exponential(levels: u32) -> Self {
        Self::with_bounds((0..levels).map(|i| 1u64 << i).collect())
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile (0.0..=1.0) from bucket boundaries: returns the
    /// upper bound of the bucket containing the q-th observation. Exact for
    /// the overflow bucket it returns the recorded max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::exponential(10);
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_bound_data() {
        let mut h = Histogram::exponential(20);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucketed quantiles are upper bounds of the containing bucket.
        assert!((512..=1024).contains(&p50), "p50={p50}");
        assert!(p99 >= p50);
        assert!(h.quantile(1.0) >= p99);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::with_bounds(vec![10, 100]);
        h.record(5000);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.quantile(1.0), 5000);
    }

    #[test]
    fn histogram_value_on_bucket_boundary_stays_in_bucket() {
        // `bounds` are *upper* bounds: a value equal to a bound lands in
        // that bound's bucket, not the next one. partition_point with
        // `b < value` gives the first bound >= value.
        let mut h = Histogram::with_bounds(vec![10, 100, 1000]);
        h.record(10); // == first bound
        h.record(100); // == second bound
        h.record(11); // just over the first bound
        assert_eq!(h.buckets, vec![1, 2, 0, 0]);
        // Quantile of a boundary observation reports the bucket's bound.
        let mut exact = Histogram::with_bounds(vec![10, 100]);
        exact.record(10);
        assert_eq!(exact.quantile(1.0), 10);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::exponential(4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }
}
