//! Benches for the memory substrate: E7 (Figure 5, near-memory filter),
//! E8 (pointer chasing), E9 (transposition), E14 (buffer pool).

use df_bench::experiments::e07_near_memory::{at_most, decompress_graph, filter_plan};
use df_bench::microbench::Bench;
use df_bench::workload;
use df_core::exec::push::{execute, execute_graph, ExecEnv};
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_mem::accel::NearMemAccelerator;
use df_mem::btree;
use df_mem::bufferpool::BufferPool;
use df_mem::region::{MemRegion, Placement};

const ROWS: usize = 50_000;

fn main() {
    let mut bench = Bench::from_env();

    // E7 / Figure 5: E7's placed plans, filtering on the near-memory
    // accelerator across selectivities, and decompress-on-demand (the CPU
    // encodes, the accelerator decodes and filters).
    {
        let batch = workload::lineitem(ROWS, 42)
            .project_names(&["l_orderkey", "l_quantity", "l_price"])
            .unwrap();
        let topology = Topology::disaggregated(&DisaggregatedConfig::default());
        let mem = topology.expect_device("compute0.mem");
        let env = ExecEnv {
            topology: Some(&topology),
            ..ExecEnv::in_memory()
        };
        let mut group = bench.group("fig5_near_memory_filter");
        for bound in [1i64, 25, 50] {
            let plan = filter_plan(&topology, &batch, at_most(bound), mem, mem);
            group.bench(&bound.to_string(), || execute(&plan, &env).unwrap());
        }
        let graph = decompress_graph(&topology, &batch, at_most(5));
        group.bench("decompress_on_demand", || {
            execute_graph(&graph, &env, "decompress-on-demand").unwrap()
        });
    }

    // E8: point lookups through the B-tree (the accelerator's walk).
    {
        let mut group = bench.group("e8_pointer_chase");
        for keys in [10_000usize, 100_000, 1_000_000] {
            let pairs: Vec<(i64, i64)> = (0..keys as i64).map(|k| (k, k * 3)).collect();
            let mut region = MemRegion::new(0, 512, Placement::Local);
            let tree = btree::build(&mut region, &pairs, 16).unwrap();
            let mut probe = 0i64;
            group.bench(&keys.to_string(), || {
                probe = (probe + 7919) % keys as i64;
                btree::lookup(&mut region, &tree, probe).unwrap()
            });
        }
    }

    // E9: row/column transposition both directions.
    {
        let batch = workload::orders(ROWS / 2, 42);
        let mut accel = NearMemAccelerator::new();
        let page = accel.transpose_to_rows(&batch).unwrap();
        let mut group = bench.group("e9_transpose");
        group.bench("columns_to_rows", || {
            let mut accel = NearMemAccelerator::new();
            accel.transpose_to_rows(&batch).unwrap()
        });
        group.bench("rows_to_columns", || {
            let mut accel = NearMemAccelerator::new();
            accel.transpose_to_columns(&page).unwrap()
        });
    }

    // E14: buffer-pool pin/unpin throughput warm vs thrashing.
    {
        let mut group = bench.group("e14_bufferpool");
        let page = vec![0u8; 4096];
        for (name, frames, pages) in [("warm", 512usize, 256u64), ("thrash", 64, 256)] {
            group.bench(name, || {
                let mut pool = BufferPool::new(frames, 4096);
                for _ in 0..4 {
                    for p in 0..pages {
                        pool.pin((0, p), || page.clone()).unwrap();
                        pool.unpin((0, p));
                    }
                }
                pool.stats()
            });
        }
    }
}
