#![warn(missing_docs)]
//! # df-data — columnar data model
//!
//! The in-flight data representation of the dataflow engine: typed columns
//! with validity bitmaps, assembled into [`Batch`]es described by a
//! [`Schema`]. Batches are the unit that streams through pipelines — between
//! operators, across NICs, and through accelerators — so the representation
//! is deliberately simple and contiguous (one shared [`Buffer`] per column)
//! to make byte accounting and (simulated) DMA exact. Buffers are
//! `Arc`-shared with `(offset, len)` views, so slicing a batch into morsels
//! hands out windows, not copies.
//!
//! Modules:
//! - [`types`] — logical [`DataType`]s and [`Scalar`] values
//! - [`bitmap`] — packed validity/selection bitmaps
//! - [`buffer`] — `Arc`-shared value buffers with `(offset, len)` views
//! - [`hash`] — the in-tree seed-stable Fx hasher and [`FxHashMap`]
//! - [`keys`] — the key table every hash operator shares: column-at-a-time
//!   key hashes, type-tagged key bytes and a key → dense id index
//! - [`mod@column`] — typed column vectors and builders
//! - [`schema`] — fields and schemas
//! - [`batch`] — record batches and selection/gather utilities
//! - [`partition`] — the canonical deterministic hash partitioner (shared
//!   by Exchange edges, on a NIC or a CPU, and partitioned storage)
//! - [`rowpage`] — a fixed-layout row-major page (HTAP transposition target)
//! - [`sort`] — multi-key sort permutations over batches
//! - [`error`] — the crate error type

pub mod batch;
pub mod bitmap;
pub mod buffer;
pub mod column;
pub mod error;
pub mod hash;
pub mod keys;
pub mod partition;
pub mod rowpage;
pub mod schema;
pub mod sort;
pub mod types;

pub use batch::Batch;
pub use bitmap::Bitmap;
pub use buffer::Buffer;
pub use column::{Column, ColumnBuilder};
pub use error::{DataError, Result};
pub use hash::FxHashMap;
pub use partition::HashPartitioner;
pub use rowpage::RowPage;
pub use schema::{Field, Schema, SchemaRef};
pub use types::{kind_rank, DataType, Scalar, ValueRef};
