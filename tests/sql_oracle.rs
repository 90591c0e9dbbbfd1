//! Randomized SQL correctness against an independent oracle.
//!
//! The [`rheo::check`] harness generates filter/aggregate queries; the
//! expected answer is computed by plain Rust iteration over the raw rows
//! (no engine code in the oracle path). Every query runs through the full
//! stack — parser, rewrites, placement, smart storage, push executor. The
//! aggregate queries run under *every* plan variant the optimizer builds
//! (storage and NIC filters, storage pre-aggregation), not only the best,
//! so pushdown correctness is continuously cross-checked.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rheo::check::{check, Gen};
use rheo::core::session::Session;
use rheo::data::batch::batch_of;
use rheo::data::{Batch, Column, Scalar};

const ROWS: usize = 777;

/// Raw row model the oracle iterates over.
#[derive(Clone)]
struct RawRow {
    a: i64,
    b: Option<i64>,
    g: String,
    f: f64,
}

fn raw_rows() -> Vec<RawRow> {
    (0..ROWS as i64)
        .map(|i| RawRow {
            a: i,
            b: if i % 10 == 3 { None } else { Some(i % 50) },
            g: format!("g{}", i % 7),
            f: (i % 13) as f64 * 0.5,
        })
        .collect()
}

fn shared_session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| {
        let rows = raw_rows();
        let batch = batch_of(vec![
            ("a", Column::from_i64(rows.iter().map(|r| r.a).collect())),
            (
                "b",
                Column::from_opt_i64(&rows.iter().map(|r| r.b).collect::<Vec<_>>()),
            ),
            (
                "g",
                Column::from_strs(&rows.iter().map(|r| r.g.clone()).collect::<Vec<_>>()),
            ),
            ("f", Column::from_f64(rows.iter().map(|r| r.f).collect())),
        ]);
        let session = Session::in_memory().expect("session");
        session.create_table("t", &[batch]).expect("load");
        session
    })
}

/// Run `query` under every plan variant the optimizer builds for it and
/// return each variant's name and answer.
fn every_variant(query: &str) -> Vec<(String, Batch)> {
    let session = shared_session();
    let logical = session
        .logical_plan(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    let variants = session
        .variants(&logical)
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    variants
        .iter()
        .map(|v| {
            let name = v.plan.variant.clone();
            let result = session
                .execute_plan(&v.plan)
                .unwrap_or_else(|e| panic!("{query} [{name}]: {e}"));
            (name, result.batch)
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum WherePred {
    ALt(i64),
    ABetween(i64, i64),
    BGe(i64),
    GEq(usize),
    BNotNull,
    /// `NOT (a < x AND b > y)`: `b` is NULL on some rows, so the inner
    /// conjunction is NULL, FALSE or TRUE and NOT must follow Kleene logic.
    NotAnd(i64, i64),
}

impl WherePred {
    fn arbitrary(g: &mut Gen) -> WherePred {
        match g.usize_in(0, 5) {
            0 => WherePred::ALt(g.i64_in(0, 799)),
            1 => {
                let lo = g.i64_in(0, 799);
                WherePred::ABetween(lo, lo + g.i64_in(0, 199))
            }
            2 => WherePred::BGe(g.i64_in(0, 54)),
            3 => WherePred::GEq(g.usize_in(0, 7)),
            4 => WherePred::BNotNull,
            _ => WherePred::NotAnd(g.i64_in(0, 799), g.i64_in(0, 54)),
        }
    }

    fn sql(&self) -> String {
        match self {
            WherePred::ALt(x) => format!("a < {x}"),
            WherePred::ABetween(lo, hi) => format!("a BETWEEN {lo} AND {hi}"),
            WherePred::BGe(x) => format!("b >= {x}"),
            WherePred::GEq(i) => format!("g = 'g{i}'"),
            WherePred::BNotNull => "b IS NOT NULL".to_string(),
            WherePred::NotAnd(x, y) => format!("NOT (a < {x} AND b > {y})"),
        }
    }

    fn matches(&self, row: &RawRow) -> bool {
        match self {
            WherePred::ALt(x) => row.a < *x,
            WherePred::ABetween(lo, hi) => row.a >= *lo && row.a <= *hi,
            WherePred::BGe(x) => row.b.is_some_and(|b| b >= *x),
            WherePred::GEq(i) => row.g == format!("g{i}"),
            WherePred::BNotNull => row.b.is_some(),
            // The conjunction is FALSE (so its NOT is TRUE) iff a conjunct
            // is FALSE; a NULL `b` alone leaves it NULL, which never matches.
            WherePred::NotAnd(x, y) => row.a >= *x || row.b.is_some_and(|b| b <= *y),
        }
    }
}

#[test]
fn filtered_count_matches_oracle() {
    check("filtered_count_matches_oracle", 48, |g| {
        let p1 = WherePred::arbitrary(g);
        let p2 = WherePred::arbitrary(g);
        let query = format!(
            "SELECT COUNT(*) AS n FROM t WHERE {} AND {}",
            p1.sql(),
            p2.sql()
        );
        let expected = raw_rows()
            .iter()
            .filter(|r| p1.matches(r) && p2.matches(r))
            .count() as i64;
        for (variant, batch) in every_variant(&query) {
            assert_eq!(
                batch.row(0)[0].clone(),
                Scalar::Int(expected),
                "{query} [{variant}]"
            );
        }
    });
}

/// The pinned case: pushed-down storage once negated the collapsed inner
/// bitmap and then dropped every row with a NULL operand, losing the 68
/// rows where `a >= 100` and `b` is NULL.
#[test]
fn not_of_nullable_conjunction_matches_oracle() {
    let pred = WherePred::NotAnd(100, 10);
    let query = format!("SELECT COUNT(*) AS n FROM t WHERE {}", pred.sql());
    let result = shared_session()
        .sql(&query)
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    let expected = raw_rows().iter().filter(|r| pred.matches(r)).count() as i64;
    assert_eq!(expected, 697);
    assert_eq!(
        result.batch.row(0)[0].clone(),
        Scalar::Int(expected),
        "{query}"
    );
}

#[test]
fn grouped_aggregates_match_oracle() {
    check("grouped_aggregates_match_oracle", 48, |g| {
        let p = WherePred::arbitrary(g);
        let query = format!(
            "SELECT g, COUNT(*) AS n, SUM(b) AS sb, MIN(a) AS lo, MAX(a) AS hi, \
             AVG(f) AS af FROM t WHERE {} GROUP BY g",
            p.sql()
        );

        // Oracle: group manually.
        #[derive(Default)]
        struct Acc {
            n: i64,
            sb: Option<i64>,
            lo: Option<i64>,
            hi: Option<i64>,
            fsum: f64,
            fcount: i64,
        }
        let mut groups: BTreeMap<String, Acc> = BTreeMap::new();
        for r in raw_rows().iter().filter(|r| p.matches(r)) {
            let acc = groups.entry(r.g.clone()).or_default();
            acc.n += 1;
            if let Some(b) = r.b {
                acc.sb = Some(acc.sb.unwrap_or(0) + b);
            }
            acc.lo = Some(acc.lo.map_or(r.a, |lo: i64| lo.min(r.a)));
            acc.hi = Some(acc.hi.map_or(r.a, |hi: i64| hi.max(r.a)));
            acc.fsum += r.f;
            acc.fcount += 1;
        }

        for (variant, batch) in every_variant(&query) {
            let query = format!("{query} [{variant}]");
            assert_eq!(batch.rows(), groups.len(), "{query}");
            for row_idx in 0..batch.rows() {
                let row = batch.row(row_idx);
                let g_name = row[0].as_str().expect("group name").to_string();
                let acc = groups
                    .get(&g_name)
                    .unwrap_or_else(|| panic!("{query}: extra group {g_name}"));
                assert_eq!(row[1].clone(), Scalar::Int(acc.n), "count for {g_name}");
                let expect_sb = acc.sb.map_or(Scalar::Null, Scalar::Int);
                assert_eq!(row[2].clone(), expect_sb, "{query}: sum for {g_name}");
                assert_eq!(
                    row[3].clone(),
                    acc.lo.map_or(Scalar::Null, Scalar::Int),
                    "min"
                );
                assert_eq!(
                    row[4].clone(),
                    acc.hi.map_or(Scalar::Null, Scalar::Int),
                    "max"
                );
                let avg = row[5].as_float_lossy().expect("avg is numeric");
                let expect_avg = acc.fsum / acc.fcount as f64;
                assert!(
                    (avg - expect_avg).abs() < 1e-9,
                    "avg for {g_name}: {avg} vs {expect_avg}"
                );
            }
        }
    });
}

/// The pinned case: the row with `a = 3` is group `g3`'s only match and its
/// `b` is NULL, so `SUM(b)` is NULL. Storage pre-aggregation once started
/// SUM at 0 with no "seen" flag, and `full-dataflow` answered 0.
#[test]
fn pushed_down_sum_of_only_nulls_is_null() {
    let query = "SELECT g, SUM(b) AS sb FROM t WHERE a BETWEEN 3 AND 3 GROUP BY g";
    let answers = every_variant(query);
    let mut names: Vec<&str> = answers.iter().map(|(name, _)| name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "cpu-only",
            "full-dataflow",
            "near-mem-filter",
            "nic-filter",
            "storage-pushdown"
        ]
    );
    for (variant, batch) in &answers {
        assert_eq!(batch.rows(), 1, "{variant}");
        assert_eq!(
            batch.row(0),
            [Scalar::Str("g3".into()), Scalar::Null],
            "{variant}"
        );
    }
}

#[test]
fn topk_matches_oracle() {
    check("topk_matches_oracle", 48, |g| {
        let p = WherePred::arbitrary(g);
        let k = g.i64_in(1, 39) as u64;
        let asc = g.bool();
        let session = shared_session();
        let dir = if asc { "ASC" } else { "DESC" };
        let query = format!(
            "SELECT a, f FROM t WHERE {} ORDER BY f {dir}, a ASC LIMIT {k}",
            p.sql()
        );
        let result = session
            .sql(&query)
            .unwrap_or_else(|e| panic!("{query}: {e}"));

        let mut rows: Vec<(f64, i64)> = raw_rows()
            .iter()
            .filter(|r| p.matches(r))
            .map(|r| (r.f, r.a))
            .collect();
        rows.sort_by(|x, y| {
            let ord = x.0.total_cmp(&y.0);
            let ord = if asc { ord } else { ord.reverse() };
            ord.then(x.1.cmp(&y.1))
        });
        rows.truncate(k as usize);

        assert_eq!(result.batch.rows(), rows.len(), "{query}");
        for (i, (f, a)) in rows.iter().enumerate() {
            assert_eq!(result.batch.row(i)[0].clone(), Scalar::Int(*a), "{query}");
            assert_eq!(result.batch.row(i)[1].clone(), Scalar::Float(*f), "{query}");
        }
    });
}

#[test]
fn projection_arithmetic_matches_oracle() {
    check("projection_arithmetic_matches_oracle", 48, |g| {
        let p = WherePred::arbitrary(g);
        let m = g.i64_in(1, 9);
        let session = shared_session();
        let query = format!(
            "SELECT a * {m} + 1 AS x FROM t WHERE {} ORDER BY x LIMIT 20",
            p.sql()
        );
        let result = session
            .sql(&query)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let mut expected: Vec<i64> = raw_rows()
            .iter()
            .filter(|r| p.matches(r))
            .map(|r| r.a * m + 1)
            .collect();
        expected.sort_unstable();
        expected.truncate(20);
        let got: Vec<i64> = (0..result.batch.rows())
            .map(|i| result.batch.row(i)[0].as_int().unwrap())
            .collect();
        assert_eq!(got, expected, "{query}");
    });
}
