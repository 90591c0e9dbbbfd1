//! E14 — §7.4–7.5: "No More Buffer Pools" / "No More Data Caches".
//!
//! The buffer-pool engine anchors DRAM proportional to the working set and
//! thrashes when the data outgrows it; the streaming dataflow engine holds
//! one page per in-flight stage and its memory footprint is flat — "the
//! compute layer would be stateless", which is what start-up time,
//! migration agility, and elasticity (§5) need.

use df_mem::bufferpool::BufferPool;
use df_storage::smart::ScanRequest;

use crate::report::{fmt_util, ExpReport};
use crate::workload;

use super::Scale;

/// Run E14.
pub fn run(scale: Scale) -> ExpReport {
    let mut report = ExpReport::new(
        "E14",
        "§7.4–7.5 — buffer-pool engine vs stateless streaming",
        "Buffer pools anchor the engine to a machine and its DRAM; the \
         dataflow design operates directly on stored data, holding only \
         in-flight pages, so compute stays stateless and elastic.",
    )
    .headers(&[
        "working set / pool size",
        "pool hit rate",
        "pool DRAM footprint",
        "pool bytes fetched",
        "streaming DRAM footprint",
        "streaming bytes fetched",
    ]);

    let storage = workload::lineitem_storage(scale.rows, scale.seed);
    let tables = storage.tables();

    // The "pages" both engines read: segment blocks of the id column.
    let readers = tables.open_segments("lineitem").expect("segments");
    let reader = &readers[0];
    let pages: Vec<(u64, u64)> = (0..reader.n_pages())
        .map(|p| {
            let block = &reader.page(p).blocks[0];
            (block.offset, block.len)
        })
        .collect();
    let page_size = pages.iter().map(|(_, l)| *l).max().unwrap_or(1) as usize;
    let store = tables.object_store().clone();
    let passes = 4usize;

    for pool_fraction in [2.0f64, 1.0, 0.5, 0.25] {
        let frames = ((pages.len() as f64 * pool_fraction) as usize).max(1);
        let mut pool = BufferPool::new(frames, page_size);
        for _ in 0..passes {
            for (i, &(offset, len)) in pages.iter().enumerate() {
                let store = &store;
                pool.pin((0, i as u64), || {
                    store
                        .get_range("lineitem/seg00000000", offset, len)
                        .expect("fetch")
                })
                .expect("pin");
                pool.unpin((0, i as u64));
            }
        }
        let pool_stats = pool.stats();

        // Streaming engine: scans the same column the same number of times;
        // footprint is one in-flight page per stage (scan + consume = 2).
        store.reset_stats();
        let mut streamed_bytes = 0u64;
        for _ in 0..passes {
            let (_, stats) = storage
                .scan("lineitem", &ScanRequest::full().project(&["l_orderkey"]))
                .expect("stream scan");
            streamed_bytes += stats.bytes_scanned;
        }
        let streaming_footprint = 2 * page_size as u64;

        report.row(vec![
            format!("{:.2}", 1.0 / pool_fraction),
            format!("{:.0}%", 100.0 * pool_stats.hit_rate()),
            fmt_util::bytes(pool.footprint_bytes()),
            fmt_util::bytes(pool_stats.bytes_fetched),
            fmt_util::bytes(streaming_footprint),
            fmt_util::bytes(streamed_bytes),
        ]);
    }

    report.observe(
        "once the working set exceeds the pool (ratios ≥ 1 with this scan \
         pattern), the hit rate collapses and the pool re-fetches almost \
         everything while still pinning a full pool of DRAM — the worst of \
         both worlds"
            .to_string(),
    );
    report.observe(
        "the streaming engine's footprint is two pages regardless of data \
         size: the compute layer is stateless, which is what gives the \
         §5 elasticity properties (fast start-up, trivial migration); \
         §7.5's 'caching of results would still make sense' applies above \
         this layer, not to base data"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_thrashes_past_capacity_streaming_stays_flat() {
        let report = run(Scale::quick());
        let hit =
            |row: usize| -> f64 { report.rows[row][1].trim_end_matches('%').parse().unwrap() };
        // Pool 2x working set: high hit rate. Pool 1/4: thrashing.
        assert!(hit(0) > 60.0, "warm pool should hit: {}", hit(0));
        assert!(hit(3) < 20.0, "undersized pool should thrash: {}", hit(3));
        // Streaming footprint identical in every row.
        let footprints: Vec<&String> = report.rows.iter().map(|r| &r[4]).collect();
        assert!(footprints.windows(2).all(|w| w[0] == w[1]));
    }
}
