//! Dictionary encoding for string columns.
//!
//! Low-cardinality string columns (status codes, regions, flags) encode as a
//! dictionary of distinct values plus varint codes — the representation
//! smart storage ships over the network when projection is pushed down.
//!
//! Stream layout: `ndict` varint, the entries (each length-prefixed), `n`
//! varint, then one varint code per row. Codes number the entries in order
//! of first appearance.

use df_data::{Column, FxHashMap};

use crate::sink::Sink;
use crate::varint;
use crate::{CodecError, Result};

/// The dictionary of one Utf8 column: its distinct values in order of
/// first appearance, and each row's code.
pub(crate) struct Dict<'a> {
    entries: Vec<&'a [u8]>,
    codes: Vec<u32>,
}

impl<'a> Dict<'a> {
    /// Index the rows `offsets` delimits in `data`. A Utf8 column's bytes
    /// are valid UTF-8, so entries are indexed as bytes.
    pub(crate) fn build(offsets: &[u32], data: &'a [u8]) -> Dict<'a> {
        // Sized for every row distinct: rehashing as a high-cardinality
        // column's values arrive costs more than the slots a
        // low-cardinality column leaves untouched.
        let rows = offsets.len().saturating_sub(1);
        let mut index: FxHashMap<&'a [u8], u32> =
            FxHashMap::with_capacity_and_hasher(rows, Default::default());
        let mut entries = Vec::new();
        let codes = offsets
            .windows(2)
            .map(|w| {
                let value = &data[w[0] as usize..w[1] as usize];
                *index.entry(value).or_insert_with(|| {
                    entries.push(value);
                    u32::try_from(entries.len() - 1).expect("dictionary codes fit u32")
                })
            })
            .collect();
        Dict { entries, codes }
    }

    /// Write the dictionary stream.
    pub(crate) fn write<S: Sink>(&self, sink: &mut S) {
        sink.put_varint(self.entries.len() as u64);
        for entry in &self.entries {
            sink.put_varint(entry.len() as u64);
            sink.put_slice(entry);
        }
        sink.put_varint(self.codes.len() as u64);
        if self.entries.len() <= 0x80 {
            // Every code is below 128: each varint is the code's one byte.
            sink.put_with(self.codes.len(), |dst| {
                for (byte, &code) in dst.iter_mut().zip(&self.codes) {
                    *byte = code as u8;
                }
            });
        } else {
            for &code in &self.codes {
                sink.put_varint(u64::from(code));
            }
        }
    }
}

/// Decode a dictionary stream straight into a Utf8 column's offsets and
/// data (all rows valid). Each entry is checked for UTF-8 once.
pub(crate) fn decode(buf: &[u8]) -> Result<Column> {
    let mut pos = 0;
    let ndict = varint::read_u64(buf, &mut pos)? as usize;
    if ndict > buf.len() {
        return Err(CodecError::Corrupt("dict size implausible".into()));
    }
    let mut entries = Vec::with_capacity(ndict);
    for _ in 0..ndict {
        let bytes = varint::read_bytes(buf, &mut pos)?;
        std::str::from_utf8(bytes)
            .map_err(|_| CodecError::Corrupt("dict entry not utf8".into()))?;
        entries.push(bytes);
    }
    let n = varint::read_u64(buf, &mut pos)? as usize;
    if n > buf.len() - pos {
        // Every code takes at least one byte.
        return Err(CodecError::Corrupt("code count implausible".into()));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut data = Vec::new();
    for _ in 0..n {
        let code = varint::read_u64(buf, &mut pos)?;
        let entry = usize::try_from(code)
            .ok()
            .and_then(|c| entries.get(c))
            .ok_or_else(|| CodecError::Corrupt(format!("code {code} out of dict")))?;
        data.extend_from_slice(entry);
        offsets.push(
            u32::try_from(data.len())
                .map_err(|_| CodecError::Corrupt("dict column over 4 GiB".into()))?,
        );
    }
    if pos != buf.len() {
        return Err(CodecError::Corrupt(
            "trailing bytes after dict codes".into(),
        ));
    }
    Ok(Column::Utf8 {
        offsets: offsets.into(),
        data: data.into(),
        validity: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(values: &[&str]) -> Vec<u8> {
        let Column::Utf8 { offsets, data, .. } = Column::from_strs(values) else {
            unreachable!("from_strs builds utf8")
        };
        let mut out = Vec::new();
        Dict::build(&offsets, &data).write(&mut out);
        out
    }

    fn strings(column: &Column) -> Vec<&str> {
        (0..column.len()).map(|i| column.str_at(i)).collect()
    }

    #[test]
    fn roundtrip() {
        let values = vec!["eu", "us", "eu", "ap", "us", "eu", ""];
        assert_eq!(strings(&decode(&encode(&values)).unwrap()), values);
    }

    #[test]
    fn codes_follow_first_appearance() {
        let enc = encode(&["b", "a", "b", "c"]);
        // 3 entries "b", "a", "c"; 4 codes 0, 1, 0, 2.
        assert_eq!(enc, [3, 1, b'b', 1, b'a', 1, b'c', 4, 0, 1, 0, 2]);
    }

    #[test]
    fn codes_cross_the_one_byte_boundary() {
        // 128 distinct values keep one-byte codes; the 129th needs two.
        for distinct in [128usize, 129] {
            let values: Vec<String> = (0..distinct * 3)
                .map(|i| format!("v{}", i % distinct))
                .collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            let enc = encode(&refs);
            let entry_bytes: usize = (0..distinct).map(|i| 1 + format!("v{i}").len()).sum();
            let code_bytes: usize = (0..distinct * 3)
                .map(|i| 1 + usize::from(i % distinct >= 128))
                .sum();
            assert_eq!(enc.len(), 2 + entry_bytes + 2 + code_bytes, "{distinct}");
            assert_eq!(strings(&decode(&enc).unwrap()), refs);
        }
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decode(&encode(&[])).unwrap().len(), 0);
    }

    #[test]
    fn compresses_low_cardinality() {
        let values: Vec<String> = (0..10_000).map(|i| format!("region-{}", i % 4)).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let plain: usize = values.iter().map(|s| s.len() + 4).sum();
        let enc = encode(&refs);
        assert!(
            enc.len() < plain / 4,
            "dict {} not < plain/4 {}",
            enc.len(),
            plain / 4
        );
    }

    #[test]
    fn high_cardinality_still_roundtrips() {
        let values: Vec<String> = (0..500).map(|i| format!("id-{i}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        assert_eq!(strings(&decode(&encode(&refs)).unwrap()), refs);
    }

    #[test]
    fn out_of_range_code_errors() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1); // one dict entry
        varint::write_bytes(&mut buf, b"x");
        varint::write_u64(&mut buf, 1); // one code
        varint::write_u64(&mut buf, 5); // invalid
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_dict_errors() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1);
        varint::write_bytes(&mut buf, &[0xff, 0xfe]);
        varint::write_u64(&mut buf, 0);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn code_count_beyond_input_errors() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1);
        varint::write_bytes(&mut buf, b"x");
        varint::write_u64(&mut buf, 1 << 40);
        varint::write_u64(&mut buf, 0);
        assert!(matches!(decode(&buf), Err(CodecError::Corrupt(_))));
    }
}
