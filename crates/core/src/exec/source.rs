//! The single source-materialization path shared by every executor.
//!
//! `StorageScan` handling used to be reimplemented in the push executor
//! (streaming) and the Volcano baseline (materialized). Both now call into
//! this module, so the missing-storage error, the stats capture and the
//! pushdown semantics live in exactly one place.

use df_data::Batch;
use df_storage::smart::{ScanRequest, ScanStats, SmartStorage};

use crate::error::{EngineError, Result};

fn require_storage(storage: Option<&SmartStorage>) -> Result<&SmartStorage> {
    storage
        .ok_or_else(|| EngineError::Internal("plan has StorageScan but env has no storage".into()))
}

/// Stream a storage scan, invoking `on_batch` per page-sized batch. The
/// pushed-down request executes at the storage server; stats describe what
/// the scan touched vs returned. An error raised by `on_batch` ends the
/// scan before its next page and is returned verbatim.
pub fn scan_streaming(
    storage: Option<&SmartStorage>,
    table: &str,
    request: &ScanRequest,
    on_batch: &mut dyn FnMut(Batch) -> Result<()>,
) -> Result<ScanStats> {
    require_storage(storage)?.scan_streaming(table, request, on_batch)
}

/// Materialize a storage scan into a batch vector (Volcano starts from a
/// materialized source).
pub fn scan_materialized(
    storage: Option<&SmartStorage>,
    table: &str,
    request: &ScanRequest,
) -> Result<(Vec<Batch>, ScanStats)> {
    let storage = require_storage(storage)?;
    storage.scan(table, request).map_err(EngineError::from)
}
