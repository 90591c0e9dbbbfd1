#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-mem — memory substrate: buffer pool, cache model, near-memory
//! acceleration
//!
//! §5 of the paper calls the relationship between engines and main memory
//! "the most outdated among all the resources". This crate implements both
//! sides of that argument:
//!
//! - [`bufferpool`] — the classic pinned-page buffer pool (the "main memory
//!   addiction" baseline of §7.4), with clock eviction and footprint stats
//! - [`cache`] — a cache-hierarchy/NUMA/TLB cost model for CPU-side access
//!   patterns (what a core *actually* pays to stream or chase pointers)
//! - [`region`] — page-granular memory regions with access accounting,
//!   placeable locally or on a disaggregated memory node
//! - [`btree`] — a page-based B-tree stored in a region (the hierarchical
//!   structure of the pointer-chasing scenario, §5.4)
//! - [`accel`] — the near-memory accelerator's structural functional
//!   units: transpose, pointer-chase, and list primitives. Its filter and
//!   decompress-on-demand (Figure 5) are not here: they are a `Filter`
//!   placed on the accelerator's device and a compressed edge into it,
//!   which df-core's push executor runs like any other placed plan

pub mod accel;
pub mod btree;
pub mod bufferpool;
pub mod cache;
pub mod region;

use std::fmt;

/// Errors from the memory substrate.
#[derive(Debug)]
pub enum MemError {
    /// Page index out of range.
    BadPage(u64),
    /// The buffer pool has no evictable frame left.
    PoolExhausted,
    /// Structure bytes are malformed.
    Corrupt(String),
    /// Data-model failure.
    Data(df_data::DataError),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::BadPage(p) => write!(f, "bad page {p}"),
            MemError::PoolExhausted => write!(f, "buffer pool exhausted (all pinned)"),
            MemError::Corrupt(msg) => write!(f, "corrupt structure: {msg}"),
            MemError::Data(e) => write!(f, "data: {e}"),
        }
    }
}

impl std::error::Error for MemError {}

impl From<df_data::DataError> for MemError {
    fn from(e: df_data::DataError) -> Self {
        MemError::Data(e)
    }
}

/// Result alias for memory operations.
pub type Result<T> = std::result::Result<T, MemError>;
