//! The columnar segment format.
//!
//! A segment is one immutable object holding a run of rows in columnar
//! pages. Each (page, column) pair is an independently readable *block*
//! (encoded column + CRC), and the footer is a directory of block offsets
//! plus zone maps. Projection therefore reads only the blocks it needs —
//! the physical property that makes storage-side projection (Figure 2)
//! reduce bytes *scanned*, not just bytes *returned*.
//!
//! Layout:
//! ```text
//! [block 0][block 1]...[block N-1][footer][footer_len: u32 LE][magic "DFSG"]
//! block  := encode_column bytes ++ crc32(bytes) (4 B LE)
//! footer := schema ++ n_pages ++ per page: row_count ++
//!           per (page, column): offset, len, zonemap
//! zonemap := min scalar ++ max scalar ++ null_count ++ rows
//! ```

use df_codec::checksum::crc32;
use df_codec::{varint, wire, CodecError};
use df_data::{Batch, Column, Scalar, SchemaRef};

use crate::object::ObjectStoreRef;
use crate::zonemap::ZoneMap;
use crate::{Result, StorageError};

const MAGIC: &[u8; 4] = b"DFSG";

/// Default rows per page (small enough that pruning has resolution, large
/// enough that per-page overhead is negligible).
pub const DEFAULT_PAGE_ROWS: usize = 4096;

/// Location and statistics of one block within a segment.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// Byte offset within the object.
    pub offset: u64,
    /// Encoded length in bytes (including the trailing CRC).
    pub len: u64,
    /// Zone map of the column values in this page.
    pub zone: ZoneMap,
}

/// Per-page metadata.
#[derive(Debug, Clone)]
pub struct PageMeta {
    /// Rows in the page.
    pub rows: u64,
    /// One block per schema column.
    pub blocks: Vec<BlockMeta>,
}

/// Builds a segment from batches.
pub struct SegmentWriter {
    schema: SchemaRef,
    page_rows: usize,
    buffer: Vec<Batch>,
    buffered_rows: usize,
    body: Vec<u8>,
    pages: Vec<PageMeta>,
}

impl SegmentWriter {
    /// A writer for `schema` cutting pages of `page_rows` rows.
    pub fn new(schema: SchemaRef, page_rows: usize) -> Self {
        assert!(page_rows > 0, "page_rows must be positive");
        SegmentWriter {
            schema,
            page_rows,
            buffer: Vec::new(),
            buffered_rows: 0,
            body: Vec::new(),
            pages: Vec::new(),
        }
    }

    /// Append a batch (must match the segment schema).
    pub fn push(&mut self, batch: &Batch) -> Result<()> {
        if batch.schema().as_ref() != self.schema.as_ref() {
            return Err(StorageError::Corrupt(format!(
                "batch schema {} does not match segment schema {}",
                batch.schema(),
                self.schema
            )));
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.buffer.push(batch.clone());
        self.buffered_rows += batch.rows();
        while self.buffered_rows >= self.page_rows {
            self.cut_page(self.page_rows)?;
        }
        Ok(())
    }

    fn cut_page(&mut self, rows: usize) -> Result<()> {
        let merged = Batch::concat(&self.buffer)?;
        let page = merged.slice(0, rows.min(merged.rows()));
        let rest_rows = merged.rows() - page.rows();
        self.buffer = if rest_rows > 0 {
            vec![merged.slice(page.rows(), rest_rows)]
        } else {
            Vec::new()
        };
        self.buffered_rows = rest_rows;
        let mut blocks = Vec::with_capacity(page.columns().len());
        for column in page.columns() {
            let offset = self.body.len() as u64;
            let mut encoded = Vec::new();
            wire::encode_column(&mut encoded, column);
            let crc = crc32(&encoded);
            self.body.extend_from_slice(&encoded);
            self.body.extend_from_slice(&crc.to_le_bytes());
            blocks.push(BlockMeta {
                offset,
                len: (encoded.len() + 4) as u64,
                zone: ZoneMap::of(column),
            });
        }
        self.pages.push(PageMeta {
            rows: page.rows() as u64,
            blocks,
        });
        Ok(())
    }

    /// Total rows pushed so far (including buffered).
    pub fn rows(&self) -> usize {
        self.pages.iter().map(|p| p.rows as usize).sum::<usize>() + self.buffered_rows
    }

    /// Finish the segment, returning the serialized object bytes.
    pub fn finish(mut self) -> Result<Vec<u8>> {
        if self.buffered_rows > 0 {
            self.cut_page(self.buffered_rows)?;
        }
        let mut out = self.body;
        let footer_start = out.len();
        wire::encode_schema(&mut out, &self.schema);
        varint::write_u64(&mut out, self.pages.len() as u64);
        for page in &self.pages {
            varint::write_u64(&mut out, page.rows);
            for block in &page.blocks {
                varint::write_u64(&mut out, block.offset);
                varint::write_u64(&mut out, block.len);
                encode_zone(&mut out, &block.zone);
            }
        }
        let footer_len = (out.len() - footer_start) as u32;
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.extend_from_slice(MAGIC);
        Ok(out)
    }
}

fn encode_zone(out: &mut Vec<u8>, zone: &ZoneMap) {
    wire::encode_scalar(out, zone.min.as_ref().unwrap_or(&Scalar::Null));
    wire::encode_scalar(out, zone.max.as_ref().unwrap_or(&Scalar::Null));
    varint::write_u64(out, zone.null_count);
    varint::write_u64(out, zone.rows);
}

fn decode_zone(buf: &[u8], pos: &mut usize) -> std::result::Result<ZoneMap, CodecError> {
    let min = wire::decode_scalar(buf, pos)?;
    let max = wire::decode_scalar(buf, pos)?;
    let null_count = varint::read_u64(buf, pos)?;
    let rows = varint::read_u64(buf, pos)?;
    Ok(ZoneMap {
        min: (!min.is_null()).then_some(min),
        max: (!max.is_null()).then_some(max),
        null_count,
        rows,
    })
}

/// Reads a segment through an object store using range requests, so bytes
/// scanned are exactly the blocks touched (plus the footer).
pub struct SegmentReader {
    store: ObjectStoreRef,
    key: String,
    schema: SchemaRef,
    pages: Vec<PageMeta>,
}

impl SegmentReader {
    /// Open a segment: reads and validates the footer only.
    pub fn open(store: ObjectStoreRef, key: &str) -> Result<SegmentReader> {
        let size = store.size(key)?;
        if size < 8 {
            return Err(StorageError::Corrupt("segment too small".into()));
        }
        let tail = store.get_range(key, size - 8, 8)?;
        if &tail[4..] != MAGIC {
            return Err(StorageError::Corrupt("bad segment magic".into()));
        }
        let footer_len = u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64;
        if footer_len + 8 > size {
            return Err(StorageError::Corrupt("footer larger than object".into()));
        }
        let footer = store.get_range(key, size - 8 - footer_len, footer_len)?;
        let mut pos = 0usize;
        let schema = wire::decode_schema(&footer, &mut pos)?.into_ref();
        let n_pages = varint::read_u64(&footer, &mut pos)? as usize;
        if n_pages > footer.len() {
            return Err(StorageError::Corrupt("page count implausible".into()));
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            let rows = varint::read_u64(&footer, &mut pos)?;
            let mut blocks = Vec::with_capacity(schema.len());
            for _ in 0..schema.len() {
                let offset = varint::read_u64(&footer, &mut pos)?;
                let len = varint::read_u64(&footer, &mut pos)?;
                let zone = decode_zone(&footer, &mut pos)?;
                blocks.push(BlockMeta { offset, len, zone });
            }
            pages.push(PageMeta { rows, blocks });
        }
        if pos != footer.len() {
            return Err(StorageError::Corrupt("trailing footer bytes".into()));
        }
        Ok(SegmentReader {
            store,
            key: key.to_string(),
            schema,
            pages,
        })
    }

    /// The segment schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total rows in the segment.
    pub fn rows(&self) -> u64 {
        self.pages.iter().map(|p| p.rows).sum()
    }

    /// Page metadata (zone maps etc.).
    pub fn page(&self, page: usize) -> &PageMeta {
        &self.pages[page]
    }

    /// Read one column block, verifying its CRC.
    pub fn read_column(&self, page: usize, column: usize) -> Result<Column> {
        let meta = &self.pages[page].blocks[column];
        let raw = self.store.get_range(&self.key, meta.offset, meta.len)?;
        if raw.len() < 4 {
            return Err(StorageError::Corrupt("block too small".into()));
        }
        let (body, crc_bytes) = raw.split_at(raw.len() - 4);
        let expected = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let actual = crc32(body);
        if expected != actual {
            return Err(StorageError::Codec(CodecError::ChecksumMismatch {
                expected,
                actual,
            }));
        }
        let mut pos = 0usize;
        let dtype = self.schema.field(column).dtype;
        let col = wire::decode_page_column(body, &mut pos, dtype, self.pages[page].rows)?;
        if pos != body.len() {
            return Err(StorageError::Corrupt("trailing block bytes".into()));
        }
        Ok(col)
    }

    /// Read a page restricted to the given column indices (projection).
    pub fn read_page(&self, page: usize, projection: &[usize]) -> Result<Batch> {
        let schema = self.schema.project(projection).into_ref();
        let columns = projection
            .iter()
            .map(|&c| self.read_column(page, c))
            .collect::<Result<Vec<_>>>()?;
        Batch::new(schema, columns).map_err(StorageError::Data)
    }

    /// Read the whole page (all columns).
    pub fn read_full_page(&self, page: usize) -> Result<Batch> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.read_page(page, &all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::MemObjectStore;
    use df_data::batch::batch_of;
    use df_data::Column;
    use std::sync::Arc;

    fn sample_batch(start: i64, n: usize) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((start..start + n as i64).collect())),
            (
                "name",
                Column::from_strs(
                    &(0..n)
                        .map(|i| format!("name-{}", start + i as i64))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "score",
                Column::from_f64((0..n).map(|i| i as f64 * 0.25).collect()),
            ),
        ])
    }

    fn write_segment(page_rows: usize) -> (ObjectStoreRef, String) {
        let batch = sample_batch(0, 1000);
        let mut writer = SegmentWriter::new(batch.schema().clone(), page_rows);
        // Push in uneven batches to exercise buffering.
        for chunk in batch.split(137).unwrap() {
            writer.push(&chunk).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let store: ObjectStoreRef = Arc::new(MemObjectStore::new());
        store.put("t/seg0", bytes).unwrap();
        (store, "t/seg0".to_string())
    }

    #[test]
    fn roundtrip_full_segment() {
        let (store, key) = write_segment(256);
        let reader = SegmentReader::open(store, &key).unwrap();
        assert_eq!(reader.rows(), 1000);
        assert_eq!(reader.n_pages(), 4); // 256*3 + 232
        let mut batches = Vec::new();
        for p in 0..reader.n_pages() {
            batches.push(reader.read_full_page(p).unwrap());
        }
        let merged = Batch::concat(&batches).unwrap();
        assert_eq!(
            merged.canonical_rows(),
            sample_batch(0, 1000).canonical_rows()
        );
    }

    #[test]
    fn projection_reads_fewer_bytes() {
        let (store, key) = write_segment(256);
        let reader = SegmentReader::open(store.clone(), &key).unwrap();
        store.reset_stats();
        let name_idx = 1usize;
        for p in 0..reader.n_pages() {
            reader.read_page(p, &[name_idx]).unwrap();
        }
        let projected = store.stats().bytes_read;
        store.reset_stats();
        for p in 0..reader.n_pages() {
            reader.read_full_page(p).unwrap();
        }
        let full = store.stats().bytes_read;
        assert!(
            projected * 2 < full,
            "projected={projected} not << full={full}"
        );
    }

    #[test]
    fn zone_maps_cover_pages() {
        let (store, key) = write_segment(250);
        let reader = SegmentReader::open(store, &key).unwrap();
        // Page 1 covers ids 250..500.
        let zone = &reader.page(1).blocks[0].zone;
        assert_eq!(zone.min, Some(Scalar::Int(250)));
        assert_eq!(zone.max, Some(Scalar::Int(499)));
        assert_eq!(zone.rows, 250);
    }

    #[test]
    fn corrupted_block_detected() {
        let (store, key) = write_segment(500);
        let mut bytes = store.get(&key).unwrap();
        bytes[10] ^= 0xff; // corrupt within the first block
        store.put(&key, bytes).unwrap();
        let reader = SegmentReader::open(store, &key).unwrap();
        assert!(matches!(
            reader.read_column(0, 0),
            Err(StorageError::Codec(CodecError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn truncated_object_rejected_at_open() {
        let (store, key) = write_segment(500);
        let bytes = store.get(&key).unwrap();
        store.put(&key, bytes[..bytes.len() / 2].to_vec()).unwrap();
        assert!(SegmentReader::open(store, &key).is_err());
    }

    #[test]
    fn schema_mismatch_on_push_rejected() {
        let batch = sample_batch(0, 10);
        let mut writer = SegmentWriter::new(batch.schema().clone(), 100);
        let other = batch_of(vec![("x", Column::from_i64(vec![1]))]);
        assert!(writer.push(&other).is_err());
    }

    #[test]
    fn empty_segment_roundtrip() {
        let batch = sample_batch(0, 0);
        let writer = SegmentWriter::new(batch.schema().clone(), 100);
        let bytes = writer.finish().unwrap();
        let store: ObjectStoreRef = Arc::new(MemObjectStore::new());
        store.put("e", bytes).unwrap();
        let reader = SegmentReader::open(store, "e").unwrap();
        assert_eq!(reader.n_pages(), 0);
        assert_eq!(reader.rows(), 0);
    }

    #[test]
    fn nullable_columns_roundtrip() {
        let batch = batch_of(vec![(
            "v",
            Column::from_opt_i64(
                &(0..100)
                    .map(|i| if i % 3 == 0 { None } else { Some(i) })
                    .collect::<Vec<_>>(),
            ),
        )]);
        let mut writer = SegmentWriter::new(batch.schema().clone(), 40);
        writer.push(&batch).unwrap();
        let store: ObjectStoreRef = Arc::new(MemObjectStore::new());
        store.put("n", writer.finish().unwrap()).unwrap();
        let reader = SegmentReader::open(store, "n").unwrap();
        let mut parts = Vec::new();
        for p in 0..reader.n_pages() {
            parts.push(reader.read_full_page(p).unwrap());
        }
        let merged = Batch::concat(&parts).unwrap();
        assert_eq!(merged.canonical_rows(), batch.canonical_rows());
        // Zone maps carry the null counts.
        assert_eq!(reader.page(0).blocks[0].zone.null_count, 14);
    }
}
