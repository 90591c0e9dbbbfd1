#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-codec — the cloud data-path operations
//!
//! The paper (§1, §2.2) observes that query plans in the cloud must include
//! operations "that are now standard in the cloud: compression, encryption,
//! format transformations". This crate implements those operations so they
//! can appear as explicit pipeline stages and be offloaded to devices:
//!
//! - [`varint`] — LEB128/zigzag primitives shared by the integer codecs
//! - [`int`] — RLE, delta, and bit-packing codecs for integer columns
//! - [`edge`] — the fabric-edge frame: per-edge batch encodings placed as
//!   Compress/Decompress pipeline stages
//! - [`lz`] — a byte-level LZ77-style block compressor (LZ-lite)
//! - [`checksum`] — CRC32 (the storage "decode/error-check" step)
//! - [`crypto`] — ChaCha20 stream cipher (educational implementation)
//! - [`wire`] — the batch wire format layering encoding, compression,
//!   checksum, and encryption
//!
//! All codecs are deterministic and panic-free on untrusted input: decoders
//! return [`CodecError`] instead.
//!
//! Every column writer (including the dictionary encoding for string
//! columns) is written once, generic over a crate-private byte sink: a
//! `Vec<u8>` stores the bytes, a counter only adds up their length. Codec
//! choices and frame sizes ([`wire::wire_size`], [`edge::encoded_size`])
//! are counted by the code that writes frames, without building them.

pub mod checksum;
pub mod crypto;
mod dict;
pub mod edge;
pub mod int;
pub mod lz;
mod sink;
pub mod varint;
pub mod wire;

use std::fmt;

/// Errors from encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input bytes are truncated or structurally invalid.
    Corrupt(String),
    /// A checksum did not match.
    ChecksumMismatch {
        /// CRC stored in the stream.
        expected: u32,
        /// CRC computed over the payload.
        actual: u32,
    },
    /// The data model rejected reconstructed data.
    Data(df_data::DataError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#x}, computed {actual:#x}"
                )
            }
            CodecError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<df_data::DataError> for CodecError {
    fn from(e: df_data::DataError) -> Self {
        CodecError::Data(e)
    }
}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;
