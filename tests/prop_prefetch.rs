//! Property suite for the adaptive cross-VM prefetching pipeline: for
//! random boot-like read traces (plus a write/commit tail), a
//! prefetch-on stack and a prefetch-off stack must be indistinguishable
//! to every reader — across both replication modes — and prefetch
//! must never *increase* the provider bytes a node pulls per unique
//! chunk: a chunk is fetched once (by the prefetcher or by the demand
//! path), never twice.
//!
//! The harness mirrors the multideployment shape: a *leader* VM on node
//! 0 executes the trace cold and publishes its access pattern to the
//! `PatternBoard`; a *follower* VM on node 1 then burns guest idle time
//! (which the prefetch-on stack spends on read-ahead) and replays the
//! same trace. Since the traces coincide, prediction is exact — so any
//! extra byte the follower receives with prefetch on is a pipeline bug
//! (double fetch, claim leak, cache miss-accounting), not waste.

use bff::blobseer::{BlobStore, BlobTopology, ReplicationMode};
use bff::core::{MemStore, MirrorConfig, MirroredImage};
use bff::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const IMG: u64 = 1 << 16; // 64 KiB images keep cases fast
const CHUNK: u64 = 4 << 10;

const MODES: [ReplicationMode; 2] = [ReplicationMode::Sequential, ReplicationMode::Fanout];

struct Stack {
    fabric: Arc<LocalFabric>,
    client: BlobClient,
    blob: BlobId,
    version: Version,
}

fn stack(seed: u64, mode: ReplicationMode, prefetch: bool) -> Stack {
    let fabric = LocalFabric::new(4);
    let compute: Vec<NodeId> = (0..3).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(3));
    let bcfg = BlobConfig {
        chunk_size: CHUNK,
        replication: 2,
        replication_mode: mode,
        prefetch,
        // The received-bytes bound below pins the raw read-ahead
        // mechanics; the confidence filter's confirmation publishes
        // would add control traffic to the follower (it has its own
        // unit and sweep coverage).
        prefetch_min_publishers: 1,
        ..Default::default()
    };
    let store = BlobStore::new(bcfg, topo, fabric.clone() as Arc<dyn Fabric>);
    let client = BlobClient::new(store, NodeId(0));
    let (blob, version) = client.upload(Payload::synth(seed, 0, IMG)).unwrap();
    Stack {
        fabric,
        client,
        blob,
        version,
    }
}

fn mirror_on(stack: &Stack, node: NodeId) -> MirroredImage {
    MirroredImage::open(
        BlobClient::new(Arc::clone(stack.client.store()), node),
        stack.blob,
        stack.version,
        Box::new(MemStore::new(IMG)),
        MirrorConfig::default(),
    )
    .unwrap()
}

/// Drain the predicted read-ahead: each call is one guest idle burst.
/// On the prefetch-off stack `idle` consumes nothing and this is a
/// no-op, exactly like a hypervisor whose module has no prefetcher.
fn drain_idle(img: &mut MirroredImage) {
    let mut rounds = 0;
    while img.poke_prefetch() {
        rounds += 1;
        assert!(rounds < 1000, "idle prefetch failed to terminate");
    }
}

#[derive(Debug, Clone)]
struct ReadOp {
    offset: u64,
    len: u64,
}

fn arb_read() -> impl Strategy<Value = ReadOp> {
    (0..IMG, 1..20_000u64).prop_map(|(o, l)| {
        let o = o.min(IMG - 1);
        ReadOp {
            offset: o,
            len: l.min(IMG - o).max(1),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Prefetch on/off is invisible to every reader in every
    /// replication mode, and the follower node never receives more
    /// bytes with prefetch on than off (no chunk is fetched twice).
    #[test]
    fn prefetch_is_invisible_and_never_double_fetches(
        base_seed in any::<u64>(),
        reads in prop::collection::vec(arb_read(), 1..8),
        write_at in 0..(IMG / CHUNK),
        write_seed in 0..3u64) {
        let follower = NodeId(1);
        let mut received = Vec::new();
        let mut snapshots = Vec::new();
        let mut live_images = Vec::new();
        for mode in MODES {
            let mut per_mode = Vec::new();
            for prefetch in [true, false] {
                let s = stack(base_seed, mode, prefetch);
                // Leader boots cold on node 0, publishing its pattern.
                let mut leader = mirror_on(&s, NodeId(0));
                for r in &reads {
                    leader.read(r.offset..r.offset + r.len).unwrap();
                }
                // Follower: idle (read-ahead window), then the same
                // trace, then a private write + snapshot.
                let mut img = mirror_on(&s, follower);
                s.fabric.stats().reset();
                drain_idle(&mut img);
                let mut outputs = Vec::new();
                for r in &reads {
                    outputs.push(img.read(r.offset..r.offset + r.len).unwrap());
                }
                let node_received = s.fabric.stats().node(follower).received;
                img.write(
                    write_at * CHUNK,
                    Payload::synth(2000 + write_seed, 0, CHUNK),
                )
                .unwrap();
                let v = img.commit().unwrap();
                let snap = s.client.read(img.blob(), v, 0..IMG).unwrap();
                let live = img.read(0..IMG).unwrap();
                let stats = s.client.store().node_context(follower).prefetch_stats();
                per_mode.push((prefetch, outputs, node_received, stats));
                snapshots.push((mode, prefetch, snap));
                live_images.push((mode, prefetch, live));
            }
            received.push((mode, per_mode));
        }

        // 1. Every read and every snapshot is byte-identical across all
        //    (mode, prefetch) combinations.
        let reference_reads = &received[0].1[0].1;
        for (mode, per_mode) in &received {
            for (prefetch, outputs, _, _) in per_mode {
                for (i, (got, want)) in outputs.iter().zip(reference_reads).enumerate() {
                    prop_assert!(
                        got.content_eq(want),
                        "read {i} differs ({mode:?}, prefetch={prefetch})"
                    );
                }
            }
        }
        let (_, _, ref_snap) = &snapshots[0];
        for (mode, prefetch, snap) in &snapshots[1..] {
            prop_assert!(
                snap.content_eq(ref_snap),
                "snapshot differs ({mode:?}, prefetch={prefetch})"
            );
        }
        let (_, _, ref_live) = &live_images[0];
        for (mode, prefetch, live) in &live_images[1..] {
            prop_assert!(
                live.content_eq(ref_live),
                "live image differs ({mode:?}, prefetch={prefetch})"
            );
        }

        // 2. Exact prediction ⇒ the follower never pulls more bytes
        //    with prefetch on (each unique chunk crosses the wire at
        //    most once, prefetched or demanded — never both), and the
        //    prefetch accounting balances.
        for (mode, per_mode) in &received {
            let on = per_mode.iter().find(|(p, ..)| *p).unwrap();
            let off = per_mode.iter().find(|(p, ..)| !*p).unwrap();
            prop_assert!(
                on.2 <= off.2,
                "{mode:?}: prefetch-on follower received {} > {} bytes",
                on.2,
                off.2
            );
            let s = &on.3;
            prop_assert!(s.hits <= s.prefetched_chunks);
            prop_assert!(
                s.hits + s.wasted_chunks <= s.prefetched_chunks,
                "{mode:?}: accounting leak: {s:?}"
            );
            prop_assert_eq!(
                off.3,
                PrefetchStats::default(),
                "prefetch-off stack must record nothing"
            );
        }
    }
}
