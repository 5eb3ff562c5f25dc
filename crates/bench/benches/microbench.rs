//! Criterion microbenchmarks for the hot data structures and algorithms:
//! segment-tree shadowing, range sets, payload ropes, chunk-map planning,
//! the max-min flow network, and the qcow2 mapping path.

use bff_blobseer::segtree::{build_new_tree, collect_leaves_multi, NodeIo};
use bff_blobseer::{BlobError, BlobResult, ChunkDesc, ChunkId, NodeKey, TreeNode};
use bff_core::ChunkMap;
use bff_data::{Payload, RangeSet};
use bff_net::NodeId;
use bff_qcow2::{MemBacking, MemBlockDev, Qcow2Image};
use bff_sim::FlowNet;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::collections::HashMap;
use std::ops::Range;

/// In-memory NodeIo for isolated segment-tree benchmarking.
#[derive(Default)]
struct MemIo {
    nodes: HashMap<NodeKey, TreeNode>,
    next: u64,
}

impl NodeIo for MemIo {
    fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
        keys.iter()
            .map(|k| {
                self.nodes
                    .get(k)
                    .cloned()
                    .ok_or(BlobError::MetadataMissing(*k))
            })
            .collect()
    }
    fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>> {
        let s = self.next.max(1);
        self.next = s + n;
        Ok(s..s + n)
    }
    fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()> {
        self.nodes.extend(nodes);
        Ok(())
    }
}

fn full_tree(io: &mut MemIo, span: u64) -> NodeKey {
    let updates: bff_data::FastMap<u64, ChunkDesc> = (0..span)
        .map(|i| {
            (
                i,
                ChunkDesc {
                    id: ChunkId(i + 1),
                    replicas: [NodeId((i % 8) as u32)].into(),
                },
            )
        })
        .collect();
    build_new_tree(io, NodeKey::NULL, span, &updates).expect("build")
}

fn bench_segtree(c: &mut Criterion) {
    // The paper's geometry: 2 GB image, 256 KB chunks => span 8192.
    let span = 8192u64;
    let mut group = c.benchmark_group("segtree");
    group.bench_function("shadow_commit_60_chunks", |b| {
        let mut io = MemIo::default();
        let root = full_tree(&mut io, span);
        let updates: bff_data::FastMap<u64, ChunkDesc> = (0..60u64)
            .map(|i| {
                (
                    i * 136,
                    ChunkDesc {
                        id: ChunkId(100_000 + i),
                        replicas: [NodeId(0)].into(),
                    },
                )
            })
            .collect();
        b.iter(|| build_new_tree(&mut io, root, span, &updates).expect("commit"));
    });
    group.bench_function("descend_boot_read", |b| {
        let mut io = MemIo::default();
        let root = full_tree(&mut io, span);
        b.iter(|| {
            collect_leaves_multi(&mut io, root, span, std::slice::from_ref(&(4000..4002)))
                .expect("read")
        });
    });
    group.finish();
}

fn bench_rangeset(c: &mut Criterion) {
    let mut group = c.benchmark_group("rangeset");
    group.bench_function("insert_scattered_1k", |b| {
        b.iter_batched(
            RangeSet::new,
            |mut set| {
                for i in 0..1000u64 {
                    let at = (i * 7919) % 100_000;
                    set.insert(at..at + 16);
                }
                set
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("gap_query_fragmented", |b| {
        let mut set = RangeSet::new();
        for i in 0..1000u64 {
            set.insert(i * 100..i * 100 + 50);
        }
        b.iter(|| set.gaps_within(&(0..100_000)).len());
    });
    group.finish();
}

fn bench_payload(c: &mut Criterion) {
    let mut group = c.benchmark_group("payload");
    group.throughput(Throughput::Bytes(256 << 10));
    group.bench_function("materialize_synth_chunk", |b| {
        let p = Payload::synth(7, 0, 256 << 10);
        b.iter(|| p.materialize());
    });
    group.bench_function("digest_synth_chunk", |b| {
        let p = Payload::synth(7, 0, 256 << 10);
        b.iter(|| p.digest());
    });
    group.finish();
}

fn bench_chunkmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunkmap");
    group.bench_function("boot_plan_sequence", |b| {
        b.iter_batched(
            || ChunkMap::new(2 << 30, 256 << 10),
            |mut map| {
                for i in 0..500u64 {
                    let at = (i * 104_729) % ((2 << 30) - 65_536);
                    for r in map.plan_read(&(at..at + 4096), true) {
                        map.note_fetched(r);
                    }
                }
                map
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("serialize_roundtrip", |b| {
        let mut map = ChunkMap::new(2 << 30, 256 << 10);
        for i in 0..200u64 {
            map.note_written(i * 10_000_000..i * 10_000_000 + 8192, true);
        }
        b.iter(|| ChunkMap::deserialize(&map.serialize()).expect("roundtrip"));
    });
    group.finish();
}

fn bench_flownet(c: &mut Criterion) {
    let mut group = c.benchmark_group("flownet");
    group.bench_function("recompute_110_flows", |b| {
        let mut net = FlowNet::uniform(111, 117.5);
        for i in 0..110u32 {
            net.start_flow(
                0,
                i,
                (i + 37) % 111,
                1 << 20,
                bff_sim::CompletionId(i as u64),
            );
        }
        b.iter(|| net.recompute());
    });
    group.finish();
}

fn bench_qcow2(c: &mut Criterion) {
    let mut group = c.benchmark_group("qcow2");
    group.throughput(Throughput::Bytes(64 << 10));
    group.bench_function("cow_cluster_write", |b| {
        b.iter_batched(
            || {
                Qcow2Image::create(
                    MemBlockDev::new(),
                    64 << 20,
                    16,
                    Some(Box::new(MemBacking::new(Payload::synth(1, 0, 64 << 20)))),
                )
                .expect("create")
            },
            |mut img| {
                img.write(1 << 20, Payload::synth(2, 0, 64 << 10))
                    .expect("write");
                img
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_segtree,
    bench_rangeset,
    bench_payload,
    bench_chunkmap,
    bench_flownet,
    bench_qcow2
);
criterion_main!(benches);
