#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-storage — the disaggregated storage layer with pushdown
//!
//! §3 of the paper asks what the storage layer can do beyond storing bytes.
//! This crate is the answer, built bottom-up:
//!
//! - [`object`] — an object-store interface (the "real cloud storage" of
//!   §3.2) with byte-range reads
//! - [`zonemap`] — per-page min/max statistics (the cloud-native surrogate
//!   for indexes)
//! - [`segment`] — the columnar segment format: pages of encoded column
//!   blocks plus a footer directory, so projections read only the blocks
//!   they need
//! - [`pattern`] — a SQL `LIKE` matcher on UTF-8 bytes (the AQUA-style
//!   pushdown predicate)
//! - [`eval`] — the one column-at-a-time, three-valued predicate kernel
//!   that storage, NIC, near-memory and host filters all run
//! - [`agg`] — the one hash-aggregation kernel (bounded partial, final and
//!   merge modes) that storage, NIC and CPU group-bys all run
//! - [`predicate`] — the one offload predicate language: the engine pushes
//!   it down to storage and installs it on NIC and near-memory filters
//! - [`smart`] — the smart-storage server: streaming, stateless, page-at-a-
//!   time execution of projection, selection, LIKE, and bounded
//!   pre-aggregation (on [`agg`]'s kernel), with byte-level billing (bytes
//!   scanned vs returned)
//! - [`table`] — multi-segment tables and their statistics. A table is not
//!   partitioned: scale-out plans deal each host its own share of the rows
//!   and move rows between hosts only through an Exchange

pub mod agg;
pub mod eval;
pub mod object;
pub mod pattern;
pub mod predicate;
pub mod segment;
pub mod smart;
pub mod table;
pub mod zonemap;

use std::fmt;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Object key not found.
    NotFound(String),
    /// Byte range outside the object.
    BadRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Object size.
        size: u64,
    },
    /// Segment bytes are malformed.
    Corrupt(String),
    /// Codec-level failure.
    Codec(df_codec::CodecError),
    /// Data-model failure.
    Data(df_data::DataError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(key) => write!(f, "object not found: {key}"),
            StorageError::BadRange { offset, len, size } => {
                write!(f, "range {offset}+{len} outside object of {size} bytes")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt segment: {msg}"),
            StorageError::Codec(e) => write!(f, "codec: {e}"),
            StorageError::Data(e) => write!(f, "data: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<df_codec::CodecError> for StorageError {
    fn from(e: df_codec::CodecError) -> Self {
        StorageError::Codec(e)
    }
}

impl From<df_data::DataError> for StorageError {
    fn from(e: df_data::DataError) -> Self {
        StorageError::Data(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
