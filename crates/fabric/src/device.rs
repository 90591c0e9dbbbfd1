//! Processing elements and their operation throughput profiles.
//!
//! Every element that can host an operator — CPU, smart SSD controller,
//! smart NIC, near-memory accelerator, programmable switch — is a
//! [`DeviceKind`] with a [`DeviceProfile`] mapping operation classes to
//! streaming throughput. The numbers are calibrated to the public figures
//! the paper cites (§2.1, §5.1): single-core streaming rates of a few GB/s,
//! accelerators at line/memory rate, regex an order of magnitude faster on
//! accelerators than CPUs (\[46\] in the paper).

use std::collections::BTreeMap;
use std::fmt;

use df_sim::{Bandwidth, SimDuration};

/// Identifier of a device within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// The class of work an operator stage performs, from the device's point of
/// view. Placement legality and service rates key off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Sequential read of stored/DRAM-resident data.
    Scan,
    /// Accepting an arriving stream at the device (NIC-Rx, storage feed,
    /// memory-side capture): the ingest point of a continuous query.
    Ingest,
    /// Predicate evaluation + selection.
    Filter,
    /// Column pruning / tuple re-assembly.
    Project,
    /// Hash computation over key columns.
    Hash,
    /// Hash-partitioning rows to N destinations.
    Partition,
    /// Bounded-state partial aggregation (pre-aggregation).
    AggregatePartial,
    /// Full aggregation with unbounded state.
    AggregateFinal,
    /// Hash-join build side.
    JoinBuild,
    /// Hash-join probe side.
    JoinProbe,
    /// Sorting.
    Sort,
    /// Regular-expression / LIKE matching.
    Regex,
    /// Block compression.
    Compress,
    /// Block decompression.
    Decompress,
    /// Stream encryption/decryption.
    Encrypt,
    /// Row/column format transposition.
    Transpose,
    /// Hierarchical structure traversal (index walks).
    PointerChase,
    /// Counting rows (the §4.4 "query on the NIC" example).
    Count,
}

impl OpClass {
    /// All classes, for exhaustive profile tables and tests.
    pub const ALL: [OpClass; 18] = [
        OpClass::Scan,
        OpClass::Ingest,
        OpClass::Filter,
        OpClass::Project,
        OpClass::Hash,
        OpClass::Partition,
        OpClass::AggregatePartial,
        OpClass::AggregateFinal,
        OpClass::JoinBuild,
        OpClass::JoinProbe,
        OpClass::Sort,
        OpClass::Regex,
        OpClass::Compress,
        OpClass::Decompress,
        OpClass::Encrypt,
        OpClass::Transpose,
        OpClass::PointerChase,
        OpClass::Count,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Scan => "scan",
            OpClass::Ingest => "ingest",
            OpClass::Filter => "filter",
            OpClass::Project => "project",
            OpClass::Hash => "hash",
            OpClass::Partition => "partition",
            OpClass::AggregatePartial => "agg-partial",
            OpClass::AggregateFinal => "agg-final",
            OpClass::JoinBuild => "join-build",
            OpClass::JoinProbe => "join-probe",
            OpClass::Sort => "sort",
            OpClass::Regex => "regex",
            OpClass::Compress => "compress",
            OpClass::Decompress => "decompress",
            OpClass::Encrypt => "encrypt",
            OpClass::Transpose => "transpose",
            OpClass::PointerChase => "pointer-chase",
            OpClass::Count => "count",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of processing element a device is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// General-purpose CPU with `cores` usable cores.
    Cpu {
        /// Core count available to the engine.
        cores: u32,
    },
    /// Computational storage controller (smart SSD / smart object store).
    SmartStorage,
    /// Plain storage controller (no computation).
    PlainStorage,
    /// Smart NIC / DPU that hosts stateless and bounded-state operators.
    SmartNic,
    /// Plain NIC (moves bytes only).
    PlainNic,
    /// Near-memory accelerator at a memory controller (M7 DAX-like).
    NearMemAccel,
    /// Plain memory controller (terminates DDR links).
    MemoryController,
    /// Programmable network switch.
    Switch,
}

impl DeviceKind {
    /// Human-readable kind name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Cpu { .. } => "cpu",
            DeviceKind::SmartStorage => "smart-storage",
            DeviceKind::PlainStorage => "storage",
            DeviceKind::SmartNic => "smart-nic",
            DeviceKind::PlainNic => "nic",
            DeviceKind::NearMemAccel => "near-mem-accel",
            DeviceKind::MemoryController => "mem-ctl",
            DeviceKind::Switch => "switch",
        }
    }
}

/// A device's performance profile: which operation classes it supports and
/// at what streaming throughput.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// The device kind this profile describes.
    pub kind: DeviceKind,
    /// Throughput per supported op class (bytes of *input* per second).
    rates: BTreeMap<OpClass, Bandwidth>,
    /// Fixed startup cost per work chunk (dispatch, doorbell, kernel entry).
    pub per_chunk_overhead: SimDuration,
    /// One-time cost to install a kernel/program on the device (§7.2).
    pub kernel_install: SimDuration,
}

impl DeviceProfile {
    /// Reference profile for a device kind. Rates are per the calibration
    /// notes in DESIGN.md; CPUs scale with core count.
    pub fn reference(kind: DeviceKind) -> DeviceProfile {
        use OpClass::*;
        let gb = Bandwidth::gbytes_per_sec;
        let mut rates = BTreeMap::new();
        let (per_chunk_overhead, kernel_install);
        match kind {
            DeviceKind::Cpu { cores } => {
                // Single-core streaming rates; a core sustains 75-85% of a
                // controller's bandwidth at best (§5.1), and compute-heavy
                // ops run far below that.
                let c = cores as f64;
                rates.insert(Scan, gb(6.0 * c));
                rates.insert(Ingest, gb(6.0 * c));
                rates.insert(Filter, gb(3.0 * c));
                rates.insert(Project, gb(5.0 * c));
                rates.insert(Hash, gb(2.5 * c));
                rates.insert(Partition, gb(2.0 * c));
                rates.insert(AggregatePartial, gb(2.0 * c));
                rates.insert(AggregateFinal, gb(1.5 * c));
                rates.insert(JoinBuild, gb(1.0 * c));
                rates.insert(JoinProbe, gb(1.2 * c));
                rates.insert(Sort, gb(0.6 * c));
                rates.insert(Regex, gb(0.3 * c));
                rates.insert(Compress, gb(0.5 * c));
                rates.insert(Decompress, gb(1.5 * c));
                rates.insert(Encrypt, gb(1.2 * c));
                rates.insert(Transpose, gb(1.0 * c));
                rates.insert(PointerChase, gb(0.1 * c));
                rates.insert(Count, gb(8.0 * c));
                per_chunk_overhead = SimDuration::from_nanos(500);
                kernel_install = SimDuration::ZERO; // native code
            }
            DeviceKind::SmartStorage => {
                // Streams at aggregate internal flash bandwidth — higher
                // than the network egress, which is the economic point of
                // computing near storage (§3.2).
                let internal = 16.0;
                rates.insert(Scan, gb(internal));
                rates.insert(Ingest, gb(internal));
                rates.insert(Filter, gb(internal));
                rates.insert(Project, gb(internal));
                rates.insert(Regex, gb(8.0)); // accelerated pattern matcher
                rates.insert(AggregatePartial, gb(8.0));
                rates.insert(Hash, gb(12.0));
                rates.insert(Compress, gb(8.0));
                rates.insert(Decompress, gb(12.0));
                rates.insert(Encrypt, gb(12.0));
                rates.insert(Count, gb(internal));
                per_chunk_overhead = SimDuration::from_micros(2);
                kernel_install = SimDuration::from_micros(50);
            }
            DeviceKind::PlainStorage => {
                rates.insert(Scan, gb(16.0));
                per_chunk_overhead = SimDuration::from_micros(2);
                kernel_install = SimDuration::ZERO;
            }
            DeviceKind::SmartNic => {
                // Bump-in-the-wire: processes at line rate (100 GbE).
                let line = 12.5;
                rates.insert(Ingest, gb(line));
                rates.insert(Filter, gb(line));
                rates.insert(Project, gb(line));
                rates.insert(Hash, gb(line));
                rates.insert(Partition, gb(line));
                rates.insert(AggregatePartial, gb(8.0));
                rates.insert(Count, gb(line));
                rates.insert(Compress, gb(10.0));
                rates.insert(Decompress, gb(12.0));
                rates.insert(Encrypt, gb(12.5)); // inline crypto engine
                rates.insert(Regex, gb(4.0));
                per_chunk_overhead = SimDuration::from_micros(1);
                kernel_install = SimDuration::from_micros(100);
            }
            DeviceKind::PlainNic => {
                per_chunk_overhead = SimDuration::from_micros(1);
                kernel_install = SimDuration::ZERO;
            }
            DeviceKind::NearMemAccel => {
                // Operates at memory-controller bandwidth (§5.2): sees the
                // full DDR rate no core can sustain alone.
                let ddr = 25.0;
                rates.insert(Scan, gb(ddr));
                rates.insert(Ingest, gb(ddr));
                rates.insert(Filter, gb(ddr));
                rates.insert(Project, gb(ddr));
                rates.insert(Decompress, gb(20.0));
                rates.insert(Transpose, gb(15.0));
                rates.insert(PointerChase, gb(2.0));
                rates.insert(AggregatePartial, gb(10.0));
                rates.insert(Count, gb(ddr));
                per_chunk_overhead = SimDuration::from_nanos(200);
                kernel_install = SimDuration::from_micros(20);
            }
            DeviceKind::MemoryController => {
                rates.insert(Scan, gb(25.0));
                per_chunk_overhead = SimDuration::from_nanos(100);
                kernel_install = SimDuration::ZERO;
            }
            DeviceKind::Switch => {
                // In-network compute at switch line rate.
                rates.insert(Partition, gb(50.0));
                rates.insert(AggregatePartial, gb(25.0));
                rates.insert(Count, gb(50.0));
                per_chunk_overhead = SimDuration::from_nanos(500);
                kernel_install = SimDuration::from_micros(200);
            }
        }
        DeviceProfile {
            kind,
            rates,
            per_chunk_overhead,
            kernel_install,
        }
    }

    /// Whether this device can host the given operation class, respecting
    /// the stateless-streaming restriction on in-path devices.
    pub fn supports(&self, op: OpClass) -> bool {
        self.rates.contains_key(&op)
    }

    /// Service throughput for `op`, if supported.
    pub fn rate(&self, op: OpClass) -> Option<Bandwidth> {
        self.rates.get(&op).copied()
    }

    /// Time to process `bytes` of input for `op`, including per-chunk
    /// overhead. `None` if unsupported.
    pub fn service_time(&self, op: OpClass, bytes: u64) -> Option<SimDuration> {
        self.rate(op)
            .map(|bw| bw.time_for_bytes(bytes) + self.per_chunk_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_scales_with_cores() {
        let one = DeviceProfile::reference(DeviceKind::Cpu { cores: 1 });
        let eight = DeviceProfile::reference(DeviceKind::Cpu { cores: 8 });
        let r1 = one.rate(OpClass::Filter).unwrap().as_bytes_per_sec();
        let r8 = eight.rate(OpClass::Filter).unwrap().as_bytes_per_sec();
        assert!((r8 / r1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn stateless_devices_reject_stateful_ops() {
        for kind in [DeviceKind::SmartStorage, DeviceKind::SmartNic] {
            let p = DeviceProfile::reference(kind);
            assert!(!p.supports(OpClass::JoinBuild), "{kind:?}");
            assert!(!p.supports(OpClass::Sort), "{kind:?}");
            assert!(!p.supports(OpClass::AggregateFinal), "{kind:?}");
            assert!(p.supports(OpClass::Filter), "{kind:?}");
        }
    }

    #[test]
    fn regex_is_faster_on_accelerators_than_one_core() {
        let cpu = DeviceProfile::reference(DeviceKind::Cpu { cores: 1 });
        let ssd = DeviceProfile::reference(DeviceKind::SmartStorage);
        assert!(
            ssd.rate(OpClass::Regex).unwrap().as_bytes_per_sec()
                > 5.0 * cpu.rate(OpClass::Regex).unwrap().as_bytes_per_sec()
        );
    }

    #[test]
    fn near_mem_filter_beats_cpu_core_streaming() {
        let cpu = DeviceProfile::reference(DeviceKind::Cpu { cores: 1 });
        let accel = DeviceProfile::reference(DeviceKind::NearMemAccel);
        assert!(
            accel.rate(OpClass::Filter).unwrap().as_bytes_per_sec()
                > cpu.rate(OpClass::Filter).unwrap().as_bytes_per_sec()
        );
    }

    #[test]
    fn service_time_includes_overhead() {
        let p = DeviceProfile::reference(DeviceKind::SmartNic);
        let zero = p.service_time(OpClass::Filter, 0).unwrap();
        assert_eq!(zero, p.per_chunk_overhead);
        let some = p.service_time(OpClass::Filter, 1 << 20).unwrap();
        assert!(some > zero);
    }

    #[test]
    fn unsupported_op_yields_none() {
        let p = DeviceProfile::reference(DeviceKind::PlainNic);
        assert!(p.service_time(OpClass::Filter, 100).is_none());
    }
}
