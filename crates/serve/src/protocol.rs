//! The wire protocol: length-prefixed frames over any byte stream.
//!
//! Every frame is `u32-LE payload length` followed by the payload: one
//! kind byte and a kind-specific body. Integers are little-endian; strings
//! are UTF-8 with a `u32` length prefix. Result batches travel in the
//! engine's wire encoding (`df_codec::wire::encode_batch`), so the serving
//! layer reuses the same columnar frame format the fabric edges use.
//!
//! A session is: `Hello` → `HelloOk`, then any number of `Query` →
//! (`Batch`* `Done`) | `Error` | `Rejected` exchanges, then `Bye`.

use std::io::{Read, Write};

use df_codec::wire::{decode_batch, encode_batch, WireOptions};
use df_data::Batch;

use crate::{Result, ServeError};

/// Upper bound on a single frame's payload (guards against garbage length
/// prefixes from a confused peer).
pub const MAX_FRAME: u32 = 64 << 20;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session open: tenant name, fair-share weight, priority class.
    Hello {
        /// Tenant name (registry key).
        tenant: String,
        /// Fair-share weight (≥ 1).
        weight: u32,
        /// Priority class (higher preempts lower).
        priority: u8,
    },
    /// Session accepted.
    HelloOk,
    /// Run a SQL query.
    Query {
        /// The SQL text.
        sql: String,
    },
    /// One wire-encoded result batch.
    Batch(Vec<u8>),
    /// Query finished: row count and scheduler credits consumed.
    Done {
        /// Result rows streamed.
        rows: u64,
        /// Fair-share credits the query consumed.
        credits: u64,
    },
    /// Query failed (engine or protocol error).
    Error(String),
    /// Admission control or plan verification rejected the query.
    Rejected(String),
    /// Session close.
    Bye,
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloOk => 2,
            Frame::Query { .. } => 3,
            Frame::Batch(_) => 4,
            Frame::Done { .. } => 5,
            Frame::Error(_) => 6,
            Frame::Rejected(_) => 7,
            Frame::Bye => 8,
        }
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn take_str(buf: &[u8], at: &mut usize) -> Result<String> {
    let n = take_u32(buf, at)? as usize;
    let end = at
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| ServeError::Protocol("string runs past frame end".into()))?;
    let s = std::str::from_utf8(&buf[*at..end])
        .map_err(|_| ServeError::Protocol("string is not UTF-8".into()))?
        .to_string();
    *at = end;
    Ok(s)
}

fn take_u32(buf: &[u8], at: &mut usize) -> Result<u32> {
    let end = *at + 4;
    if end > buf.len() {
        return Err(ServeError::Protocol("u32 runs past frame end".into()));
    }
    let v = u32::from_le_bytes(buf[*at..end].try_into().expect("4 bytes"));
    *at = end;
    Ok(v)
}

fn take_u64(buf: &[u8], at: &mut usize) -> Result<u64> {
    let end = *at + 8;
    if end > buf.len() {
        return Err(ServeError::Protocol("u64 runs past frame end".into()));
    }
    let v = u64::from_le_bytes(buf[*at..end].try_into().expect("8 bytes"));
    *at = end;
    Ok(v)
}

/// Serialize one frame to a writer in a single write: the length prefix
/// and the payload share one buffer, so a frame never goes out as a
/// small segment followed by the rest.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    // The 4-byte length prefix is patched in once the payload is built.
    let mut buf = vec![0u8; 4];
    buf.push(frame.kind());
    match frame {
        Frame::Hello {
            tenant,
            weight,
            priority,
        } => {
            put_str(&mut buf, tenant);
            buf.extend_from_slice(&weight.to_le_bytes());
            buf.push(*priority);
        }
        Frame::HelloOk | Frame::Bye => {}
        Frame::Query { sql } => put_str(&mut buf, sql),
        Frame::Batch(bytes) => buf.extend_from_slice(bytes),
        Frame::Done { rows, credits } => {
            buf.extend_from_slice(&rows.to_le_bytes());
            buf.extend_from_slice(&credits.to_le_bytes());
        }
        Frame::Error(msg) | Frame::Rejected(msg) => put_str(&mut buf, msg),
    }
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. A clean EOF at a frame boundary is
/// [`ServeError::Disconnected`]; a short read inside a frame is a
/// protocol error. The payload buffer grows as bytes arrive, so a peer's
/// length prefix alone allocates nothing.
pub fn read_frame(r: &mut impl Read) -> Result<Frame> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(ServeError::Disconnected)
        }
        Err(e) => return Err(ServeError::Io(e)),
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(ServeError::Protocol(format!("bad frame length {len}")));
    }
    let mut payload = Vec::new();
    let read = r.take(u64::from(len)).read_to_end(&mut payload);
    if read.is_err() || payload.len() != len as usize {
        return Err(ServeError::Protocol("frame truncated".into()));
    }
    let body = &payload[1..];
    let mut at = 0usize;
    let frame = match payload[0] {
        1 => {
            let tenant = take_str(body, &mut at)?;
            let weight = take_u32(body, &mut at)?;
            let priority = *body
                .get(at)
                .ok_or_else(|| ServeError::Protocol("hello missing priority".into()))?;
            Frame::Hello {
                tenant,
                weight,
                priority,
            }
        }
        2 => Frame::HelloOk,
        3 => Frame::Query {
            sql: take_str(body, &mut at)?,
        },
        4 => Frame::Batch(body.to_vec()),
        5 => Frame::Done {
            rows: take_u64(body, &mut at)?,
            credits: take_u64(body, &mut at)?,
        },
        6 => Frame::Error(take_str(body, &mut at)?),
        7 => Frame::Rejected(take_str(body, &mut at)?),
        8 => Frame::Bye,
        k => return Err(ServeError::Protocol(format!("unknown frame kind {k}"))),
    };
    Ok(frame)
}

/// Wire-encode a result batch for a [`Frame::Batch`].
pub fn encode_result(batch: &Batch) -> Vec<u8> {
    encode_batch(batch, &WireOptions::plain())
}

/// Decode a [`Frame::Batch`] payload back into a batch.
pub fn decode_result(bytes: &[u8]) -> Result<Batch> {
    decode_batch(bytes, None).map_err(|e| ServeError::Protocol(format!("bad batch frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn every_kind() -> Vec<Frame> {
        vec![
            Frame::Hello {
                tenant: "alice".into(),
                weight: 4,
                priority: 2,
            },
            Frame::HelloOk,
            Frame::Query {
                sql: "SELECT 1 AS one".into(),
            },
            Frame::Batch(vec![1, 2, 3]),
            Frame::Done {
                rows: 42,
                credits: 7,
            },
            Frame::Error("boom".into()),
            Frame::Rejected("too big".into()),
            Frame::Bye,
        ]
    }

    #[test]
    fn frames_round_trip() {
        let frames = every_kind();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ServeError::Disconnected)
        ));
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write() {
        for frame in every_kind() {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &frame).unwrap();
            assert_eq!(w.writes, 1, "{frame:?}");
            let mut cursor = std::io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), frame);
        }
    }

    #[test]
    fn batches_survive_the_wire() {
        let batch = batch_of(vec![
            ("id", Column::from_i64(vec![1, 2, 3])),
            ("name", Column::from_strs(&["a", "b", "c"])),
        ]);
        let decoded = decode_result(&encode_result(&batch)).unwrap();
        assert_eq!(batch.canonical_rows(), decoded.canonical_rows());
    }

    #[test]
    fn truncated_frame_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Bye).unwrap();
        buf.truncate(buf.len() - 1);
        // Length prefix promises more bytes than arrive.
        let mut short = std::io::Cursor::new(&buf[..4]);
        assert!(matches!(
            read_frame(&mut short),
            Err(ServeError::Protocol(_))
        ));
    }

    /// Serves its bytes, then EOF, recording the largest buffer it is
    /// asked to fill.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn declared_length_alone_allocates_nothing() {
        // A prefix declaring 64 MiB, one payload byte, then EOF.
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.push(8);
        let mut reader = Recording {
            bytes: &bytes,
            largest: 0,
        };
        assert!(matches!(
            read_frame(&mut reader),
            Err(ServeError::Protocol(_))
        ));
        assert!(reader.largest <= 64 << 10, "filled {}", reader.largest);
    }

    #[test]
    fn garbage_length_is_rejected() {
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.push(8);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ServeError::Protocol(_))
        ));
    }
}
