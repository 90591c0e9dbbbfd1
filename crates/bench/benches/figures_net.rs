//! Benches for the network layer: E4 (Figure 3, NIC kernels), E5 (Figure 4,
//! distributed join), E6 (count-on-NIC), and ablations A4 (wire compression)
//! and A5 (pre-aggregation stage count).

use df_bench::experiments::e04_nic_pipeline::cascade_plan;
use df_bench::microbench::Bench;
use df_bench::workload;
use df_codec::wire::WireOptions;
use df_core::exec::push::{execute, ExecEnv};
use df_core::logical::LogicalPlan;
use df_core::scaleout::{exchange_hash_join, ScaleoutConfig};
use df_data::{Batch, DataType, Field, HashPartitioner, Schema};
use df_fabric::topology::{DisaggregatedConfig, Topology};
use df_storage::agg::{AggCall, AggFn, AggMode, HashAggOp};
use df_storage::predicate::StoragePredicate;
use df_storage::smart::PreAggSpec;
use df_storage::zonemap::CmpOp;

const ROWS: usize = 50_000;

/// Push every batch through an aggregation kernel and drain it.
fn aggregate(mut kernel: HashAggOp, batches: &[Batch]) -> Vec<Batch> {
    let mut out = Vec::new();
    for batch in batches {
        out.extend(kernel.push(batch.clone()).unwrap());
    }
    out.extend(kernel.finish().unwrap());
    out
}

fn main() {
    let mut bench = Bench::from_env();

    // E4 / Figure 3: the kernels a NIC-placed plan runs per batch.
    {
        let fact = workload::lineitem(ROWS, 42);
        let batches = fact.split(8192).unwrap();
        let schema = fact.schema();
        let mut group = bench.group("fig3_nic_kernels");
        let predicate = StoragePredicate::cmp("l_quantity", CmpOp::Lt, 10i64);
        group.bench("filter", || {
            batches
                .iter()
                .map(|b| b.filter(&predicate.evaluate(b).unwrap()).unwrap())
                .collect::<Vec<_>>()
        });
        let by_partkey = HashPartitioner::new(vec!["l_partkey".into()], 8).unwrap();
        group.bench("hash", || {
            batches
                .iter()
                .map(|b| by_partkey.assignments(b).unwrap())
                .collect::<Vec<_>>()
        });
        group.bench("partition8", || {
            batches
                .iter()
                .map(|b| by_partkey.partition(b).unwrap())
                .collect::<Vec<_>>()
        });
        let preagg = PreAggSpec {
            group_by: vec!["l_region".into()],
            aggs: vec![(AggFn::Sum, "l_quantity".into())],
            max_groups: 1024,
        };
        group.bench("preagg", || {
            let mode = AggMode::Partial { max_groups: 1024 };
            aggregate(preagg.kernel(mode, schema).unwrap(), &batches)
        });
        let count_schema = Schema::new(vec![Field::new("n", DataType::Int64)]).into_ref();
        group.bench("count", || {
            let count = vec![AggCall::count_star("n")];
            let kernel =
                HashAggOp::new(vec![], count, AggMode::Final, schema, count_schema.clone());
            aggregate(kernel.unwrap(), &batches)
        });
    }

    // E5 / Figure 4: the distributed partitioned hash join, smart vs host.
    {
        let orders = workload::orders(ROWS / 4, 42);
        let fact = workload::lineitem(ROWS, 42);
        let join_schema = LogicalPlan::values(vec![orders.clone()])
            .unwrap()
            .join(
                LogicalPlan::values(vec![fact.clone()]).unwrap(),
                vec![("o_orderkey", "l_orderkey")],
            )
            .unwrap()
            .schema();
        let mut group = bench.group("fig4_scatter_join");
        for smart in [true, false] {
            let config = ScaleoutConfig {
                hosts: 4,
                smart_exchange: smart,
                ..ScaleoutConfig::default()
            };
            group.bench(if smart { "smart_nic" } else { "host_cpu" }, || {
                exchange_hash_join(
                    &orders,
                    &fact,
                    ("o_orderkey", "l_orderkey"),
                    join_schema.clone(),
                    &config,
                )
                .unwrap()
            });
        }
    }

    // A4: wire-format encode/decode with compression on and off.
    {
        let fact = workload::lineitem(ROWS, 42);
        let mut group = bench.group("a4_wire_compression");
        for (name, opts) in [
            ("plain", WireOptions::plain()),
            ("compressed", WireOptions::compressed()),
        ] {
            group.bench(name, || {
                let frame = df_codec::wire::encode_batch(&fact, &opts);
                df_codec::wire::decode_batch(&frame, None).unwrap()
            });
        }
    }

    // A5: E4's placed cascade with 0-3 group-by stages ahead of the CPU
    // (rows reaching the CPU are measured in the figures harness; here we
    // measure the wall time of whole plans through the push executor).
    {
        let storage = workload::lineitem_storage(ROWS, 42);
        let topology = Topology::disaggregated(&DisaggregatedConfig::default());
        let env = ExecEnv {
            storage: Some(&storage),
            topology: Some(&topology),
            ..ExecEnv::in_memory()
        };
        let mut group = bench.group("a5_preagg_stages");
        for stages in 0..=3usize {
            let plan = cascade_plan(&storage, &topology, stages);
            group.bench(&stages.to_string(), || execute(&plan, &env).unwrap());
        }
    }
}
