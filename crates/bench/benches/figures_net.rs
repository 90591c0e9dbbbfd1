//! Benches for the network layer: E4 (Figure 3, NIC kernels), E5 (Figure 4,
//! distributed join), E6 (count-on-NIC), and ablations A4 (wire compression)
//! and A5 (pre-aggregation stage count).

use df_bench::microbench::Bench;
use df_bench::workload;
use df_codec::wire::WireOptions;
use df_core::logical::LogicalPlan;
use df_core::scaleout::{exchange_hash_join, ScaleoutConfig};
use df_net::nic::{NicKernel, NicPipeline};
use df_storage::agg::AggFn;
use df_storage::predicate::StoragePredicate;
use df_storage::smart::PreAggSpec;
use df_storage::zonemap::CmpOp;

const ROWS: usize = 50_000;

fn main() {
    let mut bench = Bench::from_env();

    // E4 / Figure 3: individual NIC kernels at line-rate granularity.
    {
        let fact = workload::lineitem(ROWS, 42);
        let batches = fact.split(8192).unwrap();
        let mut group = bench.group("fig3_nic_kernels");
        let programs: Vec<(&str, Vec<NicKernel>)> = vec![
            (
                "filter",
                vec![NicKernel::Filter(StoragePredicate::cmp(
                    "l_quantity",
                    CmpOp::Lt,
                    10i64,
                ))],
            ),
            (
                "hash",
                vec![NicKernel::AppendHash {
                    columns: vec!["l_partkey".into()],
                    output: "h".into(),
                }],
            ),
            (
                "partition8",
                vec![NicKernel::Partition {
                    columns: vec!["l_partkey".into()],
                    fanout: 8,
                }],
            ),
            (
                "preagg",
                vec![NicKernel::PreAggregate(PreAggSpec {
                    group_by: vec!["l_region".into()],
                    aggs: vec![(AggFn::Sum, "l_quantity".into())],
                    max_groups: 1024,
                })],
            ),
            ("count", vec![NicKernel::Count { output: "n".into() }]),
        ];
        for (name, kernels) in programs {
            group.bench(name, || {
                let mut nic = NicPipeline::new(kernels.clone()).unwrap();
                for batch in &batches {
                    nic.push(batch.clone()).unwrap();
                }
                nic.finish().unwrap()
            });
        }
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

    // A5 / E6: pre-aggregation stage count 0..3 (rows surviving to the CPU
    // is measured in the figures harness; here we measure wall time of the
    // kernels themselves).
    {
        let fact = workload::lineitem(ROWS, 42);
        let batches = fact.split(4096).unwrap();
        let spec = || PreAggSpec {
            group_by: vec!["l_quantity".into()],
            aggs: vec![(AggFn::Count, "l_orderkey".into())],
            max_groups: 32,
        };
        let mut group = bench.group("a5_preagg_stages");
        for stages in 0..=3usize {
            group.bench(&stages.to_string(), || {
                // A raw pre-aggregation, then bounded merges of its partials.
                let mut pipes: Vec<NicPipeline> = (0..stages)
                    .map(|i| {
                        let kernel = if i == 0 {
                            NicKernel::PreAggregate(spec())
                        } else {
                            NicKernel::MergeAggregate(spec())
                        };
                        NicPipeline::new(vec![kernel]).unwrap()
                    })
                    .collect();
                let mut stream = batches.clone();
                for nic in pipes.iter_mut() {
                    let mut next = Vec::new();
                    for batch in stream.drain(..) {
                        next.extend(nic.push(batch).unwrap().into_iter().map(|(_, b)| b));
                    }
                    next.extend(nic.finish().unwrap().into_iter().map(|(_, b)| b));
                    stream = next;
                }
                stream.iter().map(df_data::Batch::rows).sum::<usize>()
            });
        }
    }
}
