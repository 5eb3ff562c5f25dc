//! The read-pipeline benches behind the perf trajectory (`BENCH_*.json`):
//! a cold-boot read sweep through the mirror-to-provider path, comparing
//! the per-run read loop against the vectored `read_multi` pipeline, plus
//! the warm re-read that resolves every descriptor from the node's
//! cached tree nodes.
//!
//! The cold sweep models what a booting VM does right after deployment
//! (§3.1.2): many scattered reads against a snapshot none of whose chunk
//! descriptors are known locally yet. Per-run, every read descends the
//! segment tree; vectored, the whole plan costs one descent and batched
//! per-provider transfers.

use bff_blobseer::{BlobConfig, BlobId, BlobStore, BlobTopology, Client, NodeContext, Version};
use bff_data::Payload;
use bff_net::{Fabric, LocalFabric, NodeId};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::ops::Range;
use std::sync::Arc;

/// One deployed repository holding an uploaded image.
struct Repo {
    store: Arc<BlobStore>,
    blob: BlobId,
    version: Version,
}

fn deploy(image_bytes: u64, chunk_size: u64, nodes: u32) -> Repo {
    let fabric = LocalFabric::new(nodes as usize + 1);
    let compute: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(nodes));
    let cfg = BlobConfig {
        chunk_size,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
    let uploader = Client::new(Arc::clone(&store), NodeId(0));
    let (blob, version) = uploader
        .upload(Payload::synth(0xB00, 0, image_bytes))
        .expect("upload");
    Repo {
        store,
        blob,
        version,
    }
}

impl Repo {
    /// A client with genuinely cold caches. `Client::new` attaches to
    /// the node's *shared* context (which stays warm across iterations),
    /// so cold-path benches must bring their own fresh one.
    fn cold_client(&self, node: NodeId) -> Client {
        let ctx = Arc::new(NodeContext::new(self.store.config()));
        Client::with_context(Arc::clone(&self.store), node, ctx)
    }
}

/// The boot-like sweep plan: every other chunk, as disjoint runs.
fn sweep_plan(image_bytes: u64, chunk_size: u64) -> Vec<Range<u64>> {
    (0..image_bytes / chunk_size)
        .step_by(2)
        .map(|i| i * chunk_size..(i + 1) * chunk_size)
        .collect()
}

fn bench_cold_boot_sweep(c: &mut Criterion) {
    // 4 MiB image in 4 KiB chunks = 1024 chunks (span 1024, depth 11);
    // the sweep reads 512 disjoint runs.
    let (img, cs) = (4 << 20, 4 << 10);
    let repo = deploy(img, cs, 16);
    let plan = sweep_plan(img, cs);
    let swept: u64 = plan.iter().map(|r| r.end - r.start).sum();

    let mut group = c.benchmark_group("cold_boot_sweep");
    group.throughput(Throughput::Bytes(swept));
    group.bench_function("per_run_reads", |b| {
        b.iter_batched(
            // A fresh client per iteration: a cold node metadata cache.
            || repo.cold_client(NodeId(1)),
            |client| {
                for r in &plan {
                    client
                        .read(repo.blob, repo.version, r.clone())
                        .expect("read");
                }
                client
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("read_multi", |b| {
        b.iter_batched(
            || repo.cold_client(NodeId(1)),
            |client| {
                client
                    .read_multi(repo.blob, repo.version, &plan)
                    .expect("read_multi");
                client
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_paper_scale_image(c: &mut Criterion) {
    // The paper's geometry: a 2 GB image in 256 KB chunks (8192 chunks).
    // Synthetic payloads keep this O(1) memory; the cost measured is the
    // metadata plane + plan assembly, which is exactly what the vectored
    // pipeline attacks.
    let (img, cs) = (2u64 << 30, 256 << 10);
    let repo = deploy(img, cs, 32);
    let plan = sweep_plan(img, cs); // 4096 runs

    let mut group = c.benchmark_group("paper_scale_2gb");
    group.bench_function("cold_read_multi_full_sweep", |b| {
        b.iter_batched(
            || repo.cold_client(NodeId(2)),
            |client| {
                client
                    .read_multi(repo.blob, repo.version, &plan)
                    .expect("read_multi");
                client
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("warm_desc_cache_resweep", |b| {
        // The node's tree-node cache stays warm across iterations: after
        // the first sweep every read walks cached nodes and the metadata
        // plane is never touched again. (The name predates the
        // per-version descriptor cache's removal; BENCH_1/2 record it.)
        let client = Client::new(Arc::clone(&repo.store), NodeId(3));
        client
            .read_multi(repo.blob, repo.version, &plan)
            .expect("warm-up sweep");
        b.iter(|| {
            client
                .read_multi(repo.blob, repo.version, &plan)
                .expect("read_multi")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cold_boot_sweep, bench_paper_scale_image);
criterion_main!(benches);
