//! Multideployment on the simulated testbed: deploy 16 instances of a
//! 64 MB image with all three strategies from the paper's §5.2 and print
//! the Fig. 4 metrics side by side. This is the same machinery the
//! benchmark binaries run at 110-instance/2 GB scale.
//!
//! A second section co-locates several VMs per node and shows the
//! node-shared cache module at work: co-located instances share one
//! `NodeContext` (the paper's per-node FUSE process), so only the first
//! VM on a node pays metadata descents, and identical snapshot content
//! commits by reference through the content-digest index.
//!
//! Run with: `cargo run --release --example multideployment`

use bff::cloud::experiments::{run_deployment, ExpScale, Strategy};
use bff::cloud::params::Calibration;
use bff::prelude::*;
use std::sync::Arc;

fn main() {
    let scale = ExpScale {
        image_len: 64 << 20,
        chunk_size: 256 << 10,
    };
    let n = 16;
    let cal = Calibration::default();

    println!(
        "deploying {n} instances of a {} MB image, three ways:\n",
        scale.image_len >> 20
    );
    println!(
        "{:<24} {:>14} {:>12} {:>12}",
        "strategy", "avg boot (s)", "total (s)", "traffic (GB)"
    );
    let mut totals = Vec::new();
    for strategy in [
        Strategy::Prepropagation,
        Strategy::QcowOverPvfs,
        Strategy::Mirror,
    ] {
        let out = run_deployment(strategy, n, scale, cal, None, 42);
        println!(
            "{:<24} {:>14.2} {:>12.2} {:>12.3}",
            strategy.label(),
            out.avg_boot_s(),
            out.total_s,
            out.traffic_gb
        );
        totals.push(out.total_s);
    }
    println!(
        "\nspeedup of our approach: {:.1}x vs prepropagation, {:.2}x vs qcow2-over-pvfs",
        totals[0] / totals[2],
        totals[1] / totals[2]
    );

    colocated_demo();
}

/// Co-located VMs sharing one node's cache module: 4 nodes × 3 VMs each
/// boot the same image, then snapshot identical checkpoint state.
fn colocated_demo() {
    const IMG: u64 = 8 << 20;
    let nodes = 4u32;
    let vms_per_node = 3usize;
    let fabric = LocalFabric::new(nodes as usize + 1);
    let compute: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let cloud = Cloud::new(
        fabric,
        compute.clone(),
        NodeId(nodes),
        BlobConfig {
            chunk_size: 256 << 10,
            dedup: true,
            ..Default::default()
        },
        Calibration::default(),
    );
    let (blob, v) = cloud
        .upload_image(Payload::synth(7, 0, IMG))
        .expect("upload");

    // 3 VMs per node: only the first boot on each node resolves
    // metadata; its co-located peers ride the node's shared metadata cache.
    let mut vms: Vec<VmHandle> = Vec::new();
    for &node in &compute {
        for _ in 0..vms_per_node {
            vms.push(cloud.add_instance(blob, v, node).expect("deploy"));
        }
    }
    for vm in vms.iter_mut() {
        vm.backend.read(0..IMG).expect("boot read");
    }
    let stats = cloud.metrics().cache;
    println!(
        "\nco-located deployment ({nodes} nodes x {vms_per_node} VMs): \
         shared desc-cache hit rate {:.0}% ({} hits / {} misses)",
        100.0 * stats.hit_rate(),
        stats.desc_hits,
        stats.desc_misses
    );

    // Every VM writes the *same* contextualization payload and
    // snapshots: per node, one copy is pushed and the rest commit by
    // reference.
    let stored_before = cloud.store().total_stored_bytes();
    for vm in vms.iter_mut() {
        let ctx_state = Payload::synth(99, 0, 512 << 10);
        vm.backend.write(1 << 20, ctx_state).expect("write");
        vm.snapshot().expect("snapshot");
    }
    let stats = cloud.metrics().cache;
    println!(
        "snapshots: +{:.1} MB stored for {} VMs ({:.1} MB committed by \
         reference via dedup)",
        (cloud.store().total_stored_bytes() - stored_before) as f64 / 1e6,
        vms.len(),
        stats.dedup_reused_bytes as f64 / 1e6,
    );

    // Memory-bound check: Arc::strong_count proves the contexts really
    // are shared per node, not per client.
    let ctx = cloud.node_context(NodeId(0));
    assert!(Arc::strong_count(&ctx) > vms_per_node);
}
