//! A cache-hierarchy cost model for CPU-side memory access.
//!
//! §5.1's facts, turned into a calculator: three cache levels plus DRAM,
//! TLB reach, NUMA penalties, and the observation that a single core
//! sustains only 75–85% of a controller's bandwidth. The engine's cost
//! model uses this to price CPU-side operators; experiment E7 uses it to
//! price the baseline that the near-memory filter beats.

use df_sim::{Bandwidth, SimDuration};

/// Access pattern of an operator over its working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Streaming, prefetch-friendly.
    Sequential,
    /// Dependent, unpredictable (hash probes, pointer chasing).
    Random,
}

/// Parameters of one socket's memory hierarchy.
#[derive(Debug, Clone)]
pub struct CacheModel {
    /// L1 load-to-use latency.
    pub l1: SimDuration,
    /// L2 latency.
    pub l2: SimDuration,
    /// L3 latency.
    pub l3: SimDuration,
    /// Local DRAM latency.
    pub dram: SimDuration,
    /// Additional latency for a remote-socket (NUMA) DRAM access.
    pub numa_extra: SimDuration,
    /// L1 data size in bytes.
    pub l1_size: u64,
    /// L2 size in bytes.
    pub l2_size: u64,
    /// L3 size in bytes.
    pub l3_size: u64,
    /// Cacheline size in bytes.
    pub line: u64,
    /// TLB reach in bytes (entries x page size).
    pub tlb_reach: u64,
    /// Penalty of a TLB miss (page-walk).
    pub tlb_miss: SimDuration,
    /// Single-core sustainable share of controller bandwidth (§5.1: 75-85%).
    pub core_bandwidth_share: f64,
    /// Memory-controller streaming bandwidth.
    pub controller_bw: Bandwidth,
}

impl Default for CacheModel {
    fn default() -> Self {
        CacheModel {
            l1: SimDuration::from_nanos(1),
            l2: SimDuration::from_nanos(4),
            l3: SimDuration::from_nanos(14),
            dram: SimDuration::from_nanos(90),
            numa_extra: SimDuration::from_nanos(60),
            l1_size: 48 << 10,
            l2_size: 2 << 20,
            l3_size: 32 << 20,
            line: 64,
            tlb_reach: 1536 * 4096, // 1536 entries x 4 KiB pages
            tlb_miss: SimDuration::from_nanos(30),
            core_bandwidth_share: 0.8,
            controller_bw: Bandwidth::gbytes_per_sec(25.0),
        }
    }
}

impl CacheModel {
    /// Latency of one access given the working-set size (which cache level
    /// the set fits in), NUMA placement, and TLB reach.
    pub fn access_latency(&self, working_set: u64, numa_remote: bool) -> SimDuration {
        let mut lat = if working_set <= self.l1_size {
            self.l1
        } else if working_set <= self.l2_size {
            self.l2
        } else if working_set <= self.l3_size {
            self.l3
        } else if numa_remote {
            self.dram + self.numa_extra
        } else {
            self.dram
        };
        if working_set > self.l3_size && working_set > self.tlb_reach {
            lat += self.tlb_miss;
        }
        lat
    }

    /// Time for a single core to process `bytes` with the given pattern
    /// over a `working_set`-sized region.
    ///
    /// Sequential access is bandwidth-bound at the core's sustainable share
    /// of the controller (prefetchers hide latency). Random access is
    /// latency-bound: one dependent access per cacheline.
    pub fn access_time(
        &self,
        pattern: AccessPattern,
        bytes: u64,
        working_set: u64,
        numa_remote: bool,
    ) -> SimDuration {
        match pattern {
            AccessPattern::Sequential => {
                if working_set <= self.l3_size {
                    // Cache-resident streaming: effectively free next to
                    // DRAM; model at 4x controller bandwidth.
                    self.controller_bw.scaled(4.0).time_for_bytes(bytes)
                } else {
                    let numa_factor = if numa_remote { 0.7 } else { 1.0 };
                    self.controller_bw
                        .scaled(self.core_bandwidth_share * numa_factor)
                        .time_for_bytes(bytes)
                }
            }
            AccessPattern::Random => {
                let accesses = bytes.div_ceil(self.line);
                let lat = self.access_latency(working_set, numa_remote);
                // A modern core overlaps a handful of outstanding misses.
                let mlp = 4;
                SimDuration::from_nanos(lat.nanos() * accesses / mlp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_follows_working_set() {
        let m = CacheModel::default();
        let l1 = m.access_latency(16 << 10, false);
        let l2 = m.access_latency(1 << 20, false);
        let l3 = m.access_latency(16 << 20, false);
        let dram = m.access_latency(1 << 30, false);
        assert!(l1 < l2 && l2 < l3 && l3 < dram);
    }

    #[test]
    fn numa_adds_latency_only_past_llc() {
        let m = CacheModel::default();
        assert_eq!(
            m.access_latency(1 << 20, true),
            m.access_latency(1 << 20, false)
        );
        assert!(m.access_latency(1 << 30, true) > m.access_latency(1 << 30, false));
    }

    #[test]
    fn tlb_miss_penalty_past_reach() {
        // Use huge-page-sized TLB reach (larger than L3) so the two effects
        // separate: ws past L3 but within reach vs past both.
        let m = CacheModel {
            tlb_reach: 64 << 20,
            ..CacheModel::default()
        };
        let within = m.access_latency(48 << 20, false); // past L3, in reach
        let beyond = m.access_latency(128 << 20, false); // past both
        assert_eq!(beyond, within + m.tlb_miss);
    }

    #[test]
    fn sequential_hits_bandwidth_share() {
        let m = CacheModel::default();
        let gb = 1u64 << 30;
        let t = m.access_time(AccessPattern::Sequential, gb, 4 * gb, false);
        let expect = gb as f64 / (25e9 * 0.8);
        assert!((t.as_secs_f64() - expect).abs() / expect < 0.01);
    }

    #[test]
    fn random_is_much_slower_than_sequential() {
        let m = CacheModel::default();
        let bytes = 256u64 << 20;
        let ws = 1u64 << 30;
        let seq = m.access_time(AccessPattern::Sequential, bytes, ws, false);
        let rnd = m.access_time(AccessPattern::Random, bytes, ws, false);
        assert!(
            rnd.nanos() > 5 * seq.nanos(),
            "random {rnd} not >> sequential {seq}"
        );
    }

    #[test]
    fn cache_resident_streaming_is_fast() {
        let m = CacheModel::default();
        let in_cache = m.access_time(AccessPattern::Sequential, 1 << 20, 1 << 20, false);
        let in_dram = m.access_time(AccessPattern::Sequential, 1 << 20, 1 << 30, false);
        assert!(in_cache < in_dram);
    }

    #[test]
    fn core_cannot_reach_controller_bandwidth() {
        // The §5.1 fact, directly: the model's single-core rate is below
        // the controller's.
        let m = CacheModel::default();
        let bytes = 1u64 << 30;
        let core = m.access_time(AccessPattern::Sequential, bytes, 4 * bytes, false);
        let controller = m.controller_bw.time_for_bytes(bytes);
        assert!(core > controller);
    }
}
