//! §5's near-memory functional units working together on an HTAP-flavoured
//! scenario: fresh rows land in row pages, the transposition unit converts
//! them to columns, a filter placed on the accelerator reduces them before
//! the caches, and the pointer-chasing unit serves index lookups at the
//! memory controller.
//!
//! ```text
//! cargo run --release --example near_memory_htap
//! ```

use rheo::bench::experiments::e07_near_memory::{bytes_into, filter_plan};
use rheo::bench::workload;
use rheo::core::exec::push::{execute, ExecEnv};
use rheo::core::expr::{col, lit};
use rheo::fabric::topology::{DisaggregatedConfig, Topology};
use rheo::mem::accel::NearMemAccelerator;
use rheo::mem::btree;
use rheo::mem::region::{MemRegion, Placement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut accel = NearMemAccelerator::new();

    // 1. OLTP side: recent data arrives row-major.
    let fresh = workload::orders(50_000, 3);
    let row_page = accel.transpose_to_rows(&fresh)?;
    println!(
        "ingested {} rows into a row page ({} bytes)",
        row_page.rows(),
        row_page.byte_size()
    );

    // 2. HTAP conversion: the transposition unit re-materializes columns
    //    near memory; the CPU never touches the row-major bytes.
    let columns = accel.transpose_to_columns(&row_page)?;
    assert_eq!(columns.canonical_rows(), fresh.canonical_rows());
    println!("transposed back to columnar — bit-exact roundtrip");

    // 3. Analytical filter along the DRAM→cache path (Figure 5): the
    //    filter is placed on the accelerator, so only high-priority rows
    //    cross to the cores.
    let topology = Topology::disaggregated(&DisaggregatedConfig::default());
    let mem = topology.expect_device("compute0.mem");
    let cpu = topology.expect_device("compute0.cpu");
    let plan = filter_plan(&topology, &columns, col("o_priority").eq(lit(4)), mem, mem);
    let env = ExecEnv {
        topology: Some(&topology),
        ..ExecEnv::in_memory()
    };
    let hot = execute(&plan, &env)?;
    println!(
        "near-memory filter: {} of {} rows proceed to the caches \
         ({} of {} bytes cross to the CPU)",
        hot.rows(),
        columns.rows(),
        bytes_into(&hot.ledger, cpu),
        columns.byte_size()
    );

    // 4. Index lookups via the pointer-chasing unit: the B-tree lives in a
    //    (disaggregated) memory region; traversals never cross to the CPU.
    let pairs: Vec<(i64, i64)> = (0..fresh.rows() as i64).map(|k| (k, k * 2)).collect();
    let mut region = MemRegion::new(0, 512, Placement::Remote);
    let tree = btree::build(&mut region, &pairs, 16)?;
    region.reset_stats();
    let keys: Vec<i64> = (0..100).map(|i| i * 499).collect();
    let values = accel.chase(&mut region, &tree, &keys)?;
    let found = values.iter().filter(|v| v.is_some()).count();
    println!(
        "pointer chasing: {found}/{} lookups resolved at the memory \
         controller, touching {} pages locally (tree height {}); only the \
         values crossed toward the CPU",
        keys.len(),
        region.stats().pages_read,
        tree.height
    );

    // 5. Background maintenance: a GC-style list sweep near memory.
    let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let mut gc_region = MemRegion::new(0, 64, Placement::Remote);
    let head = rheo::mem::accel::build_list(&mut gc_region, &refs)?;
    let (_, removed) = accel.sweep_list(&mut gc_region, head, &|p| p[0] % 4 != 0)?;
    println!("list unit: GC sweep removed {removed} dead nodes near memory");

    Ok(())
}
