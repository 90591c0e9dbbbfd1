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
//! - [`edge`] — the fabric-edge front: per-edge batch encodings, encoded
//!   at the producer tip and decoded at the consumer, in `DFE1` frames
//! - [`lz`] — a byte-level LZ77-style block compressor (LZ-lite)
//! - [`checksum`] — CRC32 (the storage "decode/error-check" step)
//! - [`crypto`] — ChaCha20 stream cipher (educational implementation)
//! - [`wire`] — the batch wire front (`DFW1` frames), and the column,
//!   schema and scalar codecs that frames and storage segments share
//! - `frame` (crate-private) — the one frame codec behind both fronts: the
//!   only code that writes or parses a frame header, and that builds,
//!   counts and decodes a frame
//!
//! All codecs are deterministic and panic-free on untrusted input: decoders
//! return [`CodecError`] instead, and allocate only in proportion to their
//! input. Every count a decoder reads is checked before anything is
//! allocated for it: a column's value count, bitmap lengths and dictionary
//! code count must equal its container's row count (a frame payload's or a
//! segment page's), a row count or a lone stream's count may promise at
//! most [`MAX_EXPANSION`] values per input byte (LZ may produce at most as
//! many bytes), and a dictionary column may decode to at most
//! [`MAX_DICT_EXPANSION`] bytes per byte of its stream.
//!
//! Every column writer (including the dictionary encoding for string
//! columns) is written once, generic over a crate-private byte sink: a
//! `Vec<u8>` stores the bytes, a counter only adds up their length. Codec
//! choices and frame sizes ([`wire::wire_size`], [`edge::encoded_size`])
//! are counted by the code that writes frames, without building them.
//!
//! # Frames
//!
//! ```text
//! frame   := magic | tag | [nonce counter varint] | payload length varint
//!            | payload | crc32(payload), 4 bytes LE
//! payload := encrypt?(lz?(schema | rows varint | column per field))
//! ```
//!
//! The magic selects a tag table, and the tag's row fixes the columns'
//! layout and the stages the payload went through:
//!
//! | magic  | tag | layout | LZ | encryption |
//! |--------|-----|--------|----|------------|
//! | `DFW1` | flags: bit 0 LZ, bit 1 encrypted | encoded | bit 0 (kept only if it shrinks the payload) | bit 1: ChaCha20 under the nonce counter after the tag |
//! | `DFE1` | [`EdgeEncoding`](edge::EdgeEncoding): 0 `plain`, 1 `columnar`, 2 `lz`, 3 `columnar+lz` | raw (0, 2), encoded with bit-packing (1, 3) | 2, 3 | never |
//!
//! A raw column is fixed-width little-endian values (Utf8: `u32` offsets,
//! then the bytes); an encoded one runs the light encodings ([`int::choose`]
//! for Int64, dictionary or delta-coded offsets for Utf8). Float64 and
//! Bool values, validity bitmaps and the schema are the same in both.
//! Either front ([`wire::decode_batch`], [`edge::decode`]) decodes a frame
//! of either magic, since the magic alone says how; only a DFW1 frame can
//! be encrypted, and it decodes only with its key.

pub mod checksum;
pub mod crypto;
mod dict;
pub mod edge;
mod frame;
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

/// The most values a decoded count may promise, and the most bytes LZ may
/// produce, per byte of the input that declares them: RLE runs, width-0
/// bit-packing and LZ matches expand without limit otherwise. At 2^16 a
/// frame payload of 20 bytes may still carry a million constant rows.
/// [`lz::compress`] stays under it: a match carries at most 2^16 bytes.
pub const MAX_EXPANSION: usize = 1 << 16;

/// The most bytes a dictionary-coded Utf8 column may decode to per byte of
/// its stream. A one-byte code repeats a whole entry, so this is the
/// longest entry that may repeat at full ratio.
pub const MAX_DICT_EXPANSION: usize = 1 << 12;

/// A count a decoder read, checked before anything is allocated for it: it
/// must equal `rows` when a container declared them, and may otherwise
/// promise at most [`MAX_EXPANSION`] values per byte of the `input` that
/// declares it.
pub(crate) fn declared(count: u64, rows: Option<usize>, input: usize) -> Result<usize> {
    let n = usize::try_from(count).unwrap_or(usize::MAX);
    match rows {
        Some(rows) if n != rows => Err(CodecError::Corrupt(format!(
            "{count} values declared in {rows} rows"
        ))),
        None if n > input.saturating_mul(MAX_EXPANSION) => Err(CodecError::Corrupt(format!(
            "{count} values declared in {input} bytes"
        ))),
        _ => Ok(n),
    }
}
