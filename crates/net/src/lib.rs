#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-net — smart NICs and in-network processing
//!
//! §4 of the paper asks whether the network can do more than move data.
//! [`nic`] answers with the smart NIC: an installable pipeline of kernels
//! (filter, project, hash, partition, pre-aggregate, count) applied to
//! batches as they pass the Tx or Rx path, *without host CPU involvement*.
//!
//! The NIC operates on decoded [`df_data::Batch`]es, as a DPU's embedded
//! cores see typed data. Rows move between hosts through the
//! pipeline-graph IR's `Exchange` operator in `df-core`, not through this
//! crate.

pub mod nic;

use std::fmt;

/// Errors from the network layer.
#[derive(Debug)]
pub enum NetError {
    /// Data-model failure in a NIC kernel.
    Data(df_data::DataError),
    /// Storage-predicate failure in a NIC kernel.
    Storage(df_storage::StorageError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Data(e) => write!(f, "data: {e}"),
            NetError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<df_data::DataError> for NetError {
    fn from(e: df_data::DataError) -> Self {
        NetError::Data(e)
    }
}

impl From<df_storage::StorageError> for NetError {
    fn from(e: df_storage::StorageError) -> Self {
        NetError::Storage(e)
    }
}

/// Result alias for network operations.
pub type Result<T> = std::result::Result<T, NetError>;
