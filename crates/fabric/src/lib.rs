#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-fabric — the heterogeneous hardware fabric model
//!
//! The paper's thesis is that data processing must become a pipeline of
//! operators placed on processing elements *along the data path*: smart
//! storage, smart NICs, interconnects, near-memory accelerators, and finally
//! CPU cores. This crate models that fabric:
//!
//! - [`device`] — processing elements and their per-operation throughput
//!   profiles ([`OpClass`], [`DeviceProfile`])
//! - [`link`] — interconnect technologies (PCIe gen 3–7, CXL, DDR, Ethernet)
//!   with bandwidth/latency figures
//! - [`topology`] — the device/link graph, routing, and reference platform
//!   builders (conventional server, disaggregated rack, CXL rack)
//! - [`dma`] — the credit-message size and token-bucket rate limiters (the
//!   §7.1/§7.3 flow-control and scheduling primitives)
//! - [`flow`] — the discrete-event model of credit-based streaming
//!   pipelines, including link/device contention between concurrent queries
//! - [`coherence`] — hardware (cxl.cache, MESI directory) vs software
//!   (RDMA-style) coherence cost models (§6)
//!
//! Real data never moves through this crate — it accounts *time and bytes*
//! for data that the engine (in `df-core`) actually processes.

pub mod coherence;
pub mod device;
pub mod dma;
pub mod flow;
pub mod link;
pub mod topology;

pub use device::{DeviceId, DeviceKind, DeviceProfile, OpClass};
pub use link::{LinkId, LinkSpec, LinkTech};
pub use topology::{ClusterConfig, Route, Topology};
