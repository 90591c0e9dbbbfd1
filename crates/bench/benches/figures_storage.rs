//! Benches for the storage layer: E2 (Figure 2, pushdown), E3 (LIKE/regex
//! offload), and ablation A3 (zone maps on/off).

use df_bench::microbench::Bench;
use df_bench::workload;
use df_core::kernel::regex::Regex;
use df_storage::pattern::LikePattern;
use df_storage::predicate::StoragePredicate;
use df_storage::smart::ScanRequest;
use df_storage::zonemap::CmpOp;

const ROWS: usize = 100_000;

fn main() {
    let mut bench = Bench::from_env();

    // E2: scan with selection+projection at storage vs shipping everything.
    {
        let server = workload::lineitem_storage(ROWS, 42);
        let mut group = bench.group("fig2_pushdown");
        for selectivity_cap in [250i64, 2500, 25000] {
            let pushdown = ScanRequest::full()
                .filter(StoragePredicate::cmp(
                    "l_orderkey",
                    CmpOp::Lt,
                    selectivity_cap,
                ))
                .project(&["l_orderkey", "l_price"]);
            group.bench(&format!("pushdown/{selectivity_cap}"), || {
                server.scan("lineitem", &pushdown).unwrap()
            });
        }
        let ship_all = ScanRequest::full();
        group.bench("ship_all", || server.scan("lineitem", &ship_all).unwrap());
    }

    // A3: zone-map pruning on a range predicate over the clustered column vs
    // the same predicate over an unclustered one (no pruning possible).
    {
        let server = workload::lineitem_storage(ROWS, 42);
        let mut group = bench.group("a3_zonemaps");
        // l_orderkey is clustered: zone maps prune almost every page.
        let pruned = ScanRequest::full()
            .filter(StoragePredicate::cmp("l_orderkey", CmpOp::Lt, 100i64))
            .project(&["l_orderkey"]);
        // l_partkey is uniform: same output cardinality class, no pruning.
        let unpruned = ScanRequest::full()
            .filter(StoragePredicate::cmp("l_partkey", CmpOp::Lt, 100i64))
            .project(&["l_partkey"]);
        group.bench("clustered_pruned", || {
            server.scan("lineitem", &pruned).unwrap()
        });
        group.bench("unclustered_full_scan", || {
            server.scan("lineitem", &unpruned).unwrap()
        });
    }

    // E3: LIKE matcher and regex engine throughput over the comment column.
    {
        let fact = workload::lineitem(ROWS, 42);
        let comments: Vec<String> = {
            let col = fact.column_by_name("l_comment").unwrap();
            (0..fact.rows())
                .map(|i| col.str_at(i).to_string())
                .collect()
        };
        let mut group = bench.group("e3_like_offload");
        let like = LikePattern::compile("%urgent%");
        group.bench("like_contains", || {
            comments.iter().filter(|s| like.matches(s)).count()
        });
        let re = Regex::compile("urgent .* package").unwrap();
        group.bench("regex_nfa", || {
            comments.iter().filter(|s| re.is_match(s)).count()
        });
        let server = workload::lineitem_storage(ROWS, 42);
        let pushed = ScanRequest::full()
            .filter(StoragePredicate::like("l_comment", "%urgent%"))
            .project(&["l_orderkey"]);
        group.bench("like_pushdown_scan", || {
            server.scan("lineitem", &pushed).unwrap()
        });
    }
}
