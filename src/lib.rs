#![warn(missing_docs)]
//! # rheo — data-flow data processing on modern hardware
//!
//! A reproduction of *"Data Flow Architectures for Data Processing on Modern
//! Hardware"* (Lerner & Alonso, ICDE 2024): a push-based, streaming, pipelined
//! query engine whose operators can be placed on any processing element along
//! the data path of a (simulated) heterogeneous hardware fabric — smart
//! storage, smart NICs, near-memory accelerators, and CXL interconnects.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! - [`data`] — columnar batches, schemas, scalars
//! - [`codec`] — compression / encryption / wire format
//! - [`sim`] — discrete-event simulation kernel
//! - [`fabric`] — hardware topology, links, flow control, coherence
//! - [`storage`] — columnar segments, zone maps, smart-storage pushdown
//! - [`mem`] — buffer pool, cache model, near-memory accelerator
//! - [`core`] — expressions, plans, optimizer, dataflow executor
//! - [`mod@bench`] — workload generators and the experiment harness
//! - [`analysis`] — static analysis: graph verification, deadlock checks,
//!   workspace lints (`cargo run -p df-check`)
//! - [`serve`] — the multi-tenant query service: wire protocol, priced
//!   admission with plan-variant choice, weighted fair credit scheduling,
//!   deterministic concurrency harness (`df-serve`)
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub mod check;

pub use df_bench as bench;
pub use df_check as analysis;
pub use df_codec as codec;
pub use df_core as core;
pub use df_data as data;
pub use df_fabric as fabric;
pub use df_mem as mem;
pub use df_serve as serve;
pub use df_sim as sim;
pub use df_storage as storage;
