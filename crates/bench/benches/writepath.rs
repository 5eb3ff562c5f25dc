//! The write-pipeline benches behind the perf trajectory (`BENCH_*.json`):
//! a cold-write sweep through the commit path, comparing the sequential
//! per-chunk replica-push reference against the batched fan-out
//! replication pipeline.
//!
//! The sweep models what multisnapshotting does at COMMIT time (§3.2):
//! a full set of dirty chunks published as one snapshot, every chunk
//! replicated. Sequentially, every `(chunk, replica)` pair is its own
//! transfer + provider put + disk write; batched, each provider receives
//! its whole group as one transfer, one shard acquisition and one disk
//! write.

use bff_blobseer::{BlobConfig, BlobStore, BlobTopology, Client, ReplicationMode, Version};
use bff_data::Payload;
use bff_net::{Fabric, LocalFabric, NodeId};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::sync::Arc;

/// Deploy a repository configured for `mode` and hand back a client on
/// the service node (all pushes cross the network).
fn deploy(chunk_size: u64, nodes: u32, replication: usize, mode: ReplicationMode) -> Client {
    let fabric = LocalFabric::new(nodes as usize + 1);
    let compute: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(nodes));
    let cfg = BlobConfig {
        chunk_size,
        replication,
        replication_mode: mode,
        // This bench measures the replication push pipeline; with dedup
        // on, every iteration after the first would commit the identical
        // plan by reference and measure nothing but the digest probe.
        dedup: false,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
    Client::new(store, NodeId(nodes))
}

/// The commit payload: every chunk of the image, as whole-chunk updates
/// (the COMMIT fast path the mirroring module uses).
fn updates(image_bytes: u64, chunk_size: u64) -> Vec<(u64, Payload)> {
    (0..image_bytes / chunk_size)
        .map(|i| (i, Payload::synth(0xC0117 + i, 0, chunk_size)))
        .collect()
}

fn bench_cold_write_sweep(c: &mut Criterion) {
    // 4 MiB image in 4 KiB chunks = 1024 chunks over 16 providers,
    // 3 replicas: 3072 replica pushes per commit.
    let (img, cs) = (4 << 20, 4 << 10);
    let plan = updates(img, cs);

    let mut group = c.benchmark_group("cold_write_sweep");
    group.throughput(Throughput::Bytes(img));
    for (name, mode) in [
        ("sequential_push", ReplicationMode::Sequential),
        ("fanout_batched", ReplicationMode::Fanout),
    ] {
        let client = deploy(cs, 16, 3, mode);
        group.bench_function(name, |b| {
            b.iter_batched(
                // A fresh blob and update set per iteration: cold
                // commit, nothing shared, clones outside the timing.
                || (client.create_blob(img).expect("create"), plan.clone()),
                |(blob, plan)| {
                    client
                        .write_chunks(blob, Version(0), plan)
                        .expect("write_chunks")
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_paper_scale_commit(c: &mut Criterion) {
    // The paper's geometry: committing a full 2 GB image in 256 KB
    // chunks (8192 chunks) over 32 providers, 3 replicas. Synthetic
    // payloads keep this O(1) memory; the measured cost is the push
    // plan + provider/metadata plane, exactly what batching attacks.
    let (img, cs) = (2u64 << 30, 256 << 10);
    let plan = updates(img, cs);

    let mut group = c.benchmark_group("paper_scale_2gb_commit");
    for (name, mode) in [
        ("sequential_push", ReplicationMode::Sequential),
        ("fanout_batched", ReplicationMode::Fanout),
    ] {
        let client = deploy(cs, 32, 3, mode);
        group.bench_function(name, |b| {
            b.iter_batched(
                || (client.create_blob(img).expect("create"), plan.clone()),
                |(blob, plan)| {
                    client
                        .write_chunks(blob, Version(0), plan)
                        .expect("write_chunks")
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cold_write_sweep, bench_paper_scale_commit);
criterion_main!(benches);
