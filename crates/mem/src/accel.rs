//! The near-memory accelerator's structural functional units (§5.2, §5.4).
//!
//! §5.4 asks: "What kind of hardware functional units should a near-memory
//! accelerator carry?" and answers with a list. Its first two items are
//! not units here but placements in the pipeline-graph IR, run by the push
//! executor like any other plan:
//!
//! - **filter** by value/range/function is a `Filter` placed on the
//!   accelerator's device (`compute0.mem`), so only filtered data crosses
//!   to the CPU (the Figure 5 data path);
//! - **decompress on demand** is a compressed edge into that device, which
//!   its `Decompress` rate decodes in-path.
//!
//! The rest walk memory structures and are units here:
//!
//! - **pointer chasing** — [`NearMemAccelerator::chase`] /
//!   [`NearMemAccelerator::chase_range`] ("traverse a hierarchical
//!   structure and only send leaf data blocks up the pipeline")
//! - **data transposition** — [`NearMemAccelerator::transpose_to_columns`] /
//!   [`transpose_to_rows`](NearMemAccelerator::transpose_to_rows) (the HTAP
//!   format conversion)
//! - **list primitives** — [`NearMemAccelerator::sweep_list`] (memory-centric
//!   maintenance such as garbage collection)
//!
//! The accelerator reads the region *locally*; its value in the experiments
//! is the difference between `stats().bytes_in` (what it touched) and
//! `stats().bytes_out` (what it sent up the pipeline toward the CPU).

use df_data::{Batch, RowPage};

use crate::btree::{self, BTree};
use crate::region::MemRegion;
use crate::{MemError, Result};

/// Work accounting for the accelerator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Bytes the accelerator read from its memory side.
    pub bytes_in: u64,
    /// Bytes it forwarded up the pipeline (toward caches/CPU).
    pub bytes_out: u64,
    /// Operations executed.
    pub ops: u64,
}

/// An M7 DAX-style near-memory accelerator.
#[derive(Debug, Default)]
pub struct NearMemAccelerator {
    stats: AccelStats,
}

impl NearMemAccelerator {
    /// A fresh accelerator.
    pub fn new() -> Self {
        NearMemAccelerator::default()
    }

    /// Statistics so far.
    pub fn stats(&self) -> AccelStats {
        self.stats
    }

    /// Transpose a row page to columns (recent → historical format, §5.4).
    pub fn transpose_to_columns(&mut self, page: &RowPage) -> Result<Batch> {
        self.stats.ops += 1;
        self.stats.bytes_in += page.byte_size() as u64;
        let batch = page.to_batch()?;
        self.stats.bytes_out += batch.byte_size() as u64;
        Ok(batch)
    }

    /// Transpose columns to a row page (or "virtually reverse" the layout).
    pub fn transpose_to_rows(&mut self, batch: &Batch) -> Result<RowPage> {
        self.stats.ops += 1;
        self.stats.bytes_in += batch.byte_size() as u64;
        let page = RowPage::from_batch(batch)?;
        self.stats.bytes_out += page.byte_size() as u64;
        Ok(page)
    }

    /// Pointer-chase point lookups: walk the B-tree locally, sending only
    /// results up the pipeline. The region's counters record the pages the
    /// *accelerator* touched; nothing but the values crosses toward the CPU.
    pub fn chase(
        &mut self,
        region: &mut MemRegion,
        tree: &BTree,
        keys: &[i64],
    ) -> Result<Vec<Option<i64>>> {
        let before = region.stats().bytes_read;
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            self.stats.ops += 1;
            out.push(btree::lookup(region, tree, key)?);
        }
        self.stats.bytes_in += region.stats().bytes_read - before;
        self.stats.bytes_out += (out.len() * 9) as u64; // option + value
        Ok(out)
    }

    /// Pointer-chase a range: descend once, follow the leaf chain, and send
    /// only the leaf data up.
    pub fn chase_range(
        &mut self,
        region: &mut MemRegion,
        tree: &BTree,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<(i64, i64)>> {
        let before = region.stats().bytes_read;
        self.stats.ops += 1;
        let out = btree::range(region, tree, lo, hi)?;
        self.stats.bytes_in += region.stats().bytes_read - before;
        self.stats.bytes_out += (out.len() * 16) as u64;
        Ok(out)
    }

    /// Garbage-collection-style list sweep: walk a page-linked list and
    /// unlink nodes whose payload fails `keep`, relinking survivors.
    /// Returns `(new_head, removed_count)`.
    pub fn sweep_list(
        &mut self,
        region: &mut MemRegion,
        head: Option<u64>,
        keep: &dyn Fn(&[u8]) -> bool,
    ) -> Result<(Option<u64>, u64)> {
        let mut removed = 0u64;
        let mut new_head: Option<u64> = None;
        let mut prev: Option<u64> = None;
        let mut cursor = head;
        while let Some(page) = cursor {
            self.stats.ops += 1;
            let (next, payload) = read_list_node(region, page)?;
            self.stats.bytes_in += region.page_size() as u64;
            if keep(&payload) {
                if let Some(p) = prev {
                    // Relink the previous survivor to this node.
                    let (_, prev_payload) = read_list_node(region, p)?;
                    write_list_node(region, p, Some(page), &prev_payload)?;
                } else {
                    new_head = Some(page);
                }
                prev = Some(page);
            } else {
                removed += 1;
            }
            cursor = next;
        }
        // Terminate the list at the last survivor.
        if let Some(p) = prev {
            let (_, payload) = read_list_node(region, p)?;
            write_list_node(region, p, None, &payload)?;
        }
        Ok((new_head, removed))
    }
}

const LIST_NONE: u64 = u64::MAX;

/// Build a page-linked list of payloads in the region; returns the head.
pub fn build_list(region: &mut MemRegion, payloads: &[&[u8]]) -> Result<Option<u64>> {
    if payloads.is_empty() {
        return Ok(None);
    }
    let first = region.grow(payloads.len() as u64);
    for (i, payload) in payloads.iter().enumerate() {
        let page = first + i as u64;
        let next = if i + 1 < payloads.len() {
            Some(page + 1)
        } else {
            None
        };
        write_list_node(region, page, next, payload)?;
    }
    Ok(Some(first))
}

fn write_list_node(
    region: &mut MemRegion,
    page: u64,
    next: Option<u64>,
    payload: &[u8],
) -> Result<()> {
    if payload.len() + 10 > region.page_size() {
        return Err(MemError::Corrupt("list payload too large".into()));
    }
    let mut bytes = Vec::with_capacity(10 + payload.len());
    bytes.extend_from_slice(&next.unwrap_or(LIST_NONE).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    bytes.extend_from_slice(payload);
    region.write_page(page, &bytes)
}

fn read_list_node(region: &mut MemRegion, page: u64) -> Result<(Option<u64>, Vec<u8>)> {
    let bytes = region.read_page(page)?;
    if bytes.len() < 10 {
        return Err(MemError::Corrupt("list node too small".into()));
    }
    let next = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let len = u16::from_le_bytes(bytes[8..10].try_into().unwrap()) as usize;
    let payload = bytes
        .get(10..10 + len)
        .ok_or_else(|| MemError::Corrupt("list payload truncated".into()))?
        .to_vec();
    Ok(((next != LIST_NONE).then_some(next), payload))
}

/// Walk a list collecting payloads (test/verification helper).
pub fn collect_list(region: &mut MemRegion, head: Option<u64>) -> Result<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    let mut cursor = head;
    while let Some(page) = cursor {
        let (next, payload) = read_list_node(region, page)?;
        out.push(payload);
        cursor = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Placement;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("k", Column::from_i64((0..n as i64).collect())),
            ("v", Column::from_f64((0..n).map(|i| i as f64).collect())),
        ])
    }

    #[test]
    fn transpose_roundtrip() {
        let mut accel = NearMemAccelerator::new();
        let batch = sample(100);
        let page = accel.transpose_to_rows(&batch).unwrap();
        let back = accel.transpose_to_columns(&page).unwrap();
        assert_eq!(back.canonical_rows(), batch.canonical_rows());
        assert_eq!(accel.stats().ops, 2);
    }

    #[test]
    fn chase_touches_pages_locally() {
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|k| (k, k * 7)).collect();
        let mut region = MemRegion::new(0, 512, Placement::Remote);
        let tree = btree::build(&mut region, &pairs, 16).unwrap();
        let mut accel = NearMemAccelerator::new();
        region.reset_stats();
        let results = accel.chase(&mut region, &tree, &[5, 9_999, -1]).unwrap();
        assert_eq!(results, vec![Some(35), Some(69_993), None]);
        // The accelerator read whole pages but forwarded only values.
        assert!(accel.stats().bytes_in > 10 * accel.stats().bytes_out);
        assert_eq!(region.stats().pages_read as u32, 3 * tree.height);
    }

    #[test]
    fn chase_range_returns_leaf_data_only() {
        let pairs: Vec<(i64, i64)> = (0..1000).map(|k| (k, k)).collect();
        let mut region = MemRegion::new(0, 512, Placement::Local);
        let tree = btree::build(&mut region, &pairs, 16).unwrap();
        let mut accel = NearMemAccelerator::new();
        let got = accel.chase_range(&mut region, &tree, 100, 119).unwrap();
        assert_eq!(got.len(), 20);
        assert_eq!(got[0], (100, 100));
    }

    #[test]
    fn list_sweep_removes_dead_nodes() {
        let mut region = MemRegion::new(0, 64, Placement::Local);
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let head = build_list(&mut region, &refs).unwrap();
        let mut accel = NearMemAccelerator::new();
        // Keep even payloads only.
        let (new_head, removed) = accel
            .sweep_list(&mut region, head, &|p| p[0] % 2 == 0)
            .unwrap();
        assert_eq!(removed, 5);
        let remaining = collect_list(&mut region, new_head).unwrap();
        assert_eq!(
            remaining,
            vec![vec![0u8], vec![2], vec![4], vec![6], vec![8]]
        );
    }

    #[test]
    fn list_sweep_all_dead() {
        let mut region = MemRegion::new(0, 64, Placement::Local);
        let head = build_list(&mut region, &[b"x".as_slice(), b"y"]).unwrap();
        let mut accel = NearMemAccelerator::new();
        let (new_head, removed) = accel.sweep_list(&mut region, head, &|_| false).unwrap();
        assert_eq!(removed, 2);
        assert!(new_head.is_none());
    }

    #[test]
    fn list_sweep_empty() {
        let mut region = MemRegion::new(0, 64, Placement::Local);
        let mut accel = NearMemAccelerator::new();
        let (head, removed) = accel.sweep_list(&mut region, None, &|_| true).unwrap();
        assert!(head.is_none());
        assert_eq!(removed, 0);
    }

    #[test]
    fn sweep_keeps_head_when_first_dies() {
        let mut region = MemRegion::new(0, 64, Placement::Local);
        let head = build_list(&mut region, &[b"a".as_slice(), b"b", b"c"]).unwrap();
        let mut accel = NearMemAccelerator::new();
        let (new_head, removed) = accel.sweep_list(&mut region, head, &|p| p != b"a").unwrap();
        assert_eq!(removed, 1);
        let remaining = collect_list(&mut region, new_head).unwrap();
        assert_eq!(remaining, vec![b"b".to_vec(), b"c".to_vec()]);
    }
}
