//! Seeded workload generators.
//!
//! The paper's substrate workloads are the data-analytics shapes its intro
//! motivates. Two generators cover them:
//!
//! - [`lineitem`] / [`orders`]: a TPC-H-flavoured star pair (a wide fact
//!   table with numeric measures, a low-cardinality dimension column, dates
//!   as day numbers, and free-text comments for LIKE/regex predicates);
//! - [`telemetry`]: an append-only log/sensor stream (sorted timestamps —
//!   the friendliest case for zone maps and delta encoding).
//!
//! Everything is deterministic in `(seed, rows)` so experiments reproduce
//! exactly.

use df_data::batch::batch_of;
use df_data::{Batch, Column};
use df_sim::SimRng;
use df_storage::object::MemObjectStore;
use df_storage::smart::SmartStorage;
use df_storage::table::TableStore;

/// Regions used by the `l_region` / `o_region` dimension columns.
pub const REGIONS: [&str; 5] = ["africa", "america", "asia", "europe", "oceania"];

const COMMENT_WORDS: [&str; 12] = [
    "carefully",
    "final",
    "urgent",
    "pending",
    "express",
    "regular",
    "quick",
    "ironic",
    "bold",
    "silent",
    "even",
    "special",
];

/// A TPC-H-flavoured fact table.
///
/// Columns: `l_orderkey` (int, clustered ascending), `l_partkey` (int,
/// uniform), `l_quantity` (int 1..=50), `l_price` (float), `l_discount`
/// (float 0..0.1), `l_shipdate` (int days since epoch, mildly clustered),
/// `l_region` (utf8, 5 values), `l_comment` (utf8 free text, ~5% contain
/// the word "urgent").
pub fn lineitem(rows: usize, seed: u64) -> Batch {
    let mut rng = SimRng::new(seed);
    let mut orderkey = Vec::with_capacity(rows);
    let mut partkey = Vec::with_capacity(rows);
    let mut quantity = Vec::with_capacity(rows);
    let mut price = Vec::with_capacity(rows);
    let mut discount = Vec::with_capacity(rows);
    let mut shipdate = Vec::with_capacity(rows);
    let mut region = Vec::with_capacity(rows);
    let mut comment = Vec::with_capacity(rows);
    for i in 0..rows {
        // ~4 line items per order, ascending.
        orderkey.push((i / 4) as i64);
        partkey.push(rng.next_below((rows as u64 / 4).max(1)) as i64);
        let q = rng.range_inclusive(1, 50) as i64;
        quantity.push(q);
        price.push((q as f64) * (0.9 + rng.next_f64() * (1100.0 - 0.9)));
        discount.push(rng.range_inclusive(0, 10) as f64 / 100.0);
        // Dates cluster forward with jitter: zone maps stay useful.
        shipdate.push((i as i64) / 100 + rng.next_below(30) as i64);
        region.push(REGIONS[rng.next_below(REGIONS.len() as u64) as usize].to_string());
        let w1 = COMMENT_WORDS[rng.next_below(COMMENT_WORDS.len() as u64) as usize];
        let w2 = COMMENT_WORDS[rng.next_below(COMMENT_WORDS.len() as u64) as usize];
        comment.push(format!("{w1} {w2} package {i}"));
    }
    batch_of(vec![
        ("l_orderkey", Column::from_i64(orderkey)),
        ("l_partkey", Column::from_i64(partkey)),
        ("l_quantity", Column::from_i64(quantity)),
        ("l_price", Column::from_f64(price)),
        ("l_discount", Column::from_f64(discount)),
        ("l_shipdate", Column::from_i64(shipdate)),
        ("l_region", Column::from_strs(&region)),
        ("l_comment", Column::from_strs(&comment)),
    ])
}

/// [`lineitem`] loaded as table `lineitem` into a smart-storage server.
pub fn lineitem_storage(rows: usize, seed: u64) -> SmartStorage {
    let tables = TableStore::new(MemObjectStore::shared());
    tables
        .create_and_load("lineitem", &[lineitem(rows, seed)])
        .expect("load lineitem");
    SmartStorage::new(tables)
}

/// The matching dimension/owner table: one row per order.
///
/// Columns: `o_orderkey` (int, unique ascending), `o_custkey` (int),
/// `o_priority` (int 0..=4), `o_region` (utf8).
pub fn orders(rows: usize, seed: u64) -> Batch {
    let mut rng = SimRng::new(seed ^ 0x5EED);
    let mut orderkey = Vec::with_capacity(rows);
    let mut custkey = Vec::with_capacity(rows);
    let mut priority = Vec::with_capacity(rows);
    let mut region = Vec::with_capacity(rows);
    for i in 0..rows {
        orderkey.push(i as i64);
        custkey.push(rng.next_below((rows as u64 / 10).max(1)) as i64);
        priority.push(rng.range_inclusive(0, 4) as i64);
        region.push(REGIONS[rng.next_below(REGIONS.len() as u64) as usize].to_string());
    }
    batch_of(vec![
        ("o_orderkey", Column::from_i64(orderkey)),
        ("o_custkey", Column::from_i64(custkey)),
        ("o_priority", Column::from_i64(priority)),
        ("o_region", Column::from_strs(&region)),
    ])
}

/// An append-only telemetry stream: `ts` (int, strictly ascending),
/// `sensor` (int, 0..sensors), `value` (float random walk), `level`
/// (utf8: "info"/"warn"/"error" at 94/5/1%).
pub fn telemetry(rows: usize, sensors: usize, seed: u64) -> Batch {
    let mut rng = SimRng::new(seed ^ 0x7E1E);
    let mut ts = Vec::with_capacity(rows);
    let mut sensor = Vec::with_capacity(rows);
    let mut value = Vec::with_capacity(rows);
    let mut level = Vec::with_capacity(rows);
    let mut walk = 20.0f64;
    for i in 0..rows {
        ts.push(i as i64);
        sensor.push(rng.next_below(sensors.max(1) as u64) as i64);
        walk += rng.next_f64() - 0.5;
        value.push(walk);
        let r = rng.next_f64();
        level.push(
            if r < 0.01 {
                "error"
            } else if r < 0.06 {
                "warn"
            } else {
                "info"
            }
            .to_string(),
        );
    }
    batch_of(vec![
        ("ts", Column::from_i64(ts)),
        ("sensor", Column::from_i64(sensor)),
        ("value", Column::from_f64(value)),
        ("level", Column::from_strs(&level)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = lineitem(500, 42);
        let b = lineitem(500, 42);
        assert_eq!(a.canonical_rows(), b.canonical_rows());
        let c = lineitem(500, 43);
        assert_ne!(a.canonical_rows(), c.canonical_rows());
    }

    #[test]
    fn lineitem_shape() {
        let b = lineitem(1000, 1);
        assert_eq!(b.rows(), 1000);
        assert_eq!(b.schema().len(), 8);
        // Order keys ascending, ~4 items each.
        let keys = b
            .column_by_name("l_orderkey")
            .unwrap()
            .i64_values()
            .unwrap();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*keys.last().unwrap(), 249);
        // Quantities within range.
        for &q in b
            .column_by_name("l_quantity")
            .unwrap()
            .i64_values()
            .unwrap()
        {
            assert!((1..=50).contains(&q));
        }
    }

    #[test]
    fn orders_keys_unique() {
        let b = orders(100, 1);
        let keys = b
            .column_by_name("o_orderkey")
            .unwrap()
            .i64_values()
            .unwrap();
        assert_eq!(keys, (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn telemetry_levels_distributed() {
        let b = telemetry(20_000, 16, 7);
        let levels = b.column_by_name("level").unwrap();
        let errors = (0..b.rows())
            .filter(|&i| levels.str_at(i) == "error")
            .count();
        // ~1% errors.
        assert!(errors > 100 && errors < 400, "errors={errors}");
        // Timestamps sorted (zone-map friendliness).
        let ts = b.column_by_name("ts").unwrap().i64_values().unwrap();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn comments_contain_urgent_sometimes() {
        let b = lineitem(5000, 9);
        let c = b.column_by_name("l_comment").unwrap();
        let urgent = (0..b.rows())
            .filter(|&i| c.str_at(i).contains("urgent"))
            .count();
        assert!(urgent > 300, "urgent={urgent}"); // 2 draws of 1/12 each
    }
}
