//! Engine error type, aggregating the substrate errors.

use std::fmt;

/// Errors from planning or executing queries.
#[derive(Debug)]
pub enum EngineError {
    /// Data-model failure.
    Data(df_data::DataError),
    /// Codec failure.
    Codec(df_codec::CodecError),
    /// Storage failure.
    Storage(df_storage::StorageError),
    /// Memory-substrate failure.
    Mem(df_mem::MemError),
    /// SQL syntax error with position info.
    Parse(String),
    /// Semantic analysis failure (unknown table/column, type error).
    Plan(String),
    /// Placement/scheduling failure (no valid device for an operator).
    Placement(String),
    /// Static verification rejected a compiled pipeline graph.
    Verify(Vec<crate::pipeline::VerifyError>),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Data(e) => write!(f, "data: {e}"),
            EngineError::Codec(e) => write!(f, "codec: {e}"),
            EngineError::Storage(e) => write!(f, "storage: {e}"),
            EngineError::Mem(e) => write!(f, "mem: {e}"),
            EngineError::Parse(msg) => write!(f, "parse error: {msg}"),
            EngineError::Plan(msg) => write!(f, "plan error: {msg}"),
            EngineError::Placement(msg) => write!(f, "placement error: {msg}"),
            EngineError::Verify(errs) => {
                write!(f, "graph verification failed ({} finding", errs.len())?;
                if errs.len() != 1 {
                    write!(f, "s")?;
                }
                write!(f, ")")?;
                for e in errs {
                    write!(f, "; {e}")?;
                }
                Ok(())
            }
            EngineError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<df_data::DataError> for EngineError {
    fn from(e: df_data::DataError) -> Self {
        EngineError::Data(e)
    }
}
impl From<df_codec::CodecError> for EngineError {
    fn from(e: df_codec::CodecError) -> Self {
        EngineError::Codec(e)
    }
}
impl From<df_storage::StorageError> for EngineError {
    fn from(e: df_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}
impl From<df_mem::MemError> for EngineError {
    fn from(e: df_mem::MemError) -> Self {
        EngineError::Mem(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
