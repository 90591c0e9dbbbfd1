//! Benches for the engine core: E1 (Figure 1, pull vs push) and ablations
//! A1 (execution model), A2 (batch size), A6 (device filter overhead).

use df_bench::experiments::e01_conventional::plan;
use df_bench::microbench::Bench;
use df_bench::workload;
use df_core::exec::push::{execute, ExecEnv};
use df_core::exec::volcano;
use df_core::scaleout::fan_out;

const ROWS: usize = 50_000;

fn main() {
    let mut bench = Bench::from_env();
    let fact = workload::lineitem(ROWS, 42);

    // E1 / A1: tuple-at-a-time Volcano vs vectorized push vs morsel-parallel.
    {
        let mut group = bench.group("fig1_conventional");
        let plan = plan(&fact, 8192, false);
        group.bench("volcano_tuple_at_a_time", || {
            volcano::execute(&plan, None).unwrap()
        });
        group.bench("push_vectorized", || {
            execute(&plan, &ExecEnv::in_memory()).unwrap()
        });
        group.bench("push_morsel_parallel_4t", || {
            execute(&fan_out(&plan, 4).unwrap(), &ExecEnv::in_memory()).unwrap()
        });
    }

    // A2: batch-size sweep for the push engine (latency vs amortization).
    {
        let mut group = bench.group("a2_batch_size");
        for batch_rows in [64usize, 512, 4096, 32768] {
            let plan = plan(&fact, batch_rows, false);
            group.bench(&batch_rows.to_string(), || {
                execute(&plan, &ExecEnv::in_memory()).unwrap()
            });
        }
    }

    // A6: the device filter (the lowered offload predicate) vs native
    // vectorized filter evaluation. The IDs keep their kernel-VM names.
    {
        let mut group = bench.group("a6_kernel_vm");
        let native = plan(&fact, 8192, false);
        let kernel = plan(&fact, 8192, true);
        group.bench("native_filter", || {
            execute(&native, &ExecEnv::in_memory()).unwrap()
        });
        group.bench("kernel_vm_filter", || {
            execute(&kernel, &ExecEnv::in_memory()).unwrap()
        });
    }
}
