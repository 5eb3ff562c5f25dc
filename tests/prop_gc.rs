//! Property suite for snapshot garbage collection: for random
//! write/snapshot/clone/delete sequences, deleting snapshots must never
//! change a single byte of any *surviving* snapshot — across all four
//! replication modes × dedup on/off — deleted snapshots must stop
//! resolving, and rewriting content identical to reclaimed chunks must
//! round-trip byte-identically (the stale-index self-heal path).
//!
//! Content seeds are drawn from a tiny pool, so deleted chunk payloads
//! recur in later writes: every delete→rewrite interleaving the ops can
//! express gets exercised, with the digest indexes (node and cluster)
//! carrying entries for reclaimed chunks into subsequent commits.
//!
//! A second property checks the collector's *answer*, not only its
//! effect: a model that tracks leaf-node identity per version (the full
//! reachability walk, done on paper) predicts the exact dead-leaf count
//! of every delete and the exact number of references left behind. Two
//! plain tests pin its *cost*: metadata rounds per delete are bounded by
//! the tree depth however many live roots the family has, and a lineage
//! that never diverged from its source is dropped without reading a
//! single tree node.

use bff::blobseer::{BlobResult, BlobStore, BlobTopology, ReplicationMode};
use bff::core::{MemStore, MirrorConfig, MirroredImage};
use bff::prelude::*;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const IMG: u64 = 1 << 16; // 64 KiB images keep cases fast
const CHUNK: u64 = 4 << 10;

const MODES: [ReplicationMode; 4] = [
    ReplicationMode::Sequential,
    ReplicationMode::Fanout,
    ReplicationMode::Chain,
    ReplicationMode::ChainPipelined,
];

fn stack(seed: u64, mode: ReplicationMode, dedup: bool) -> (BlobClient, MirroredImage) {
    let fabric = LocalFabric::new(4);
    let compute: Vec<NodeId> = (0..3).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(3));
    let bcfg = BlobConfig {
        chunk_size: CHUNK,
        replication: 2,
        replication_mode: mode,
        dedup,
        // The cluster index rides along whenever dedup is on, so GC's
        // index evictions and the rewrite self-heal cover it too.
        cluster_dedup: dedup,
        ..Default::default()
    };
    let store = BlobStore::new(bcfg, topo, fabric as Arc<dyn Fabric>);
    let client = BlobClient::new(store, NodeId(0));
    let (blob, v) = client.upload(Payload::synth(seed, 0, IMG)).unwrap();
    let img = MirroredImage::open(
        client.clone(),
        blob,
        v,
        Box::new(MemStore::new(IMG)),
        MirrorConfig::default(),
    )
    .unwrap();
    (client, img)
}

#[derive(Debug, Clone)]
enum Op {
    /// Write `Payload::synth(1000 + seed, 0, len)` at `offset`: equal
    /// `(seed, len)` pairs produce identical bytes wherever they land —
    /// including bytes a delete reclaimed earlier.
    Write {
        offset: u64,
        len: u64,
        seed: u64,
    },
    Snapshot,
    Clone,
    /// Delete the `nth` (mod live count) still-live published snapshot
    /// that is not the live image's current base.
    Delete {
        nth: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..IMG, 1..3000u64, 0..3u64).prop_map(|(o, l, s)| {
            let o = o.min(IMG - 1);
            Op::Write {
                offset: o,
                len: l.min(IMG - o).max(1),
                seed: s,
            }
        }),
        // Whole aligned chunks from the pool — the checkpoint pattern
        // that makes delete→rewrite duplicates certain.
        (0..(IMG / CHUNK), 0..3u64).prop_map(|(c, s)| Op::Write {
            offset: c * CHUNK,
            len: CHUNK,
            seed: s,
        }),
        Just(Op::Snapshot),
        Just(Op::Clone),
        (0..64usize).prop_map(|nth| Op::Delete { nth }),
        (0..64usize).prop_map(|nth| Op::Delete { nth }),
    ]
}

/// One published snapshot tracked by the model.
struct Snap {
    blob: BlobId,
    version: Version,
    expect: Payload,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Deleting snapshots frees only unreachable bytes: every surviving
    /// snapshot stays byte-identical through arbitrary delete
    /// interleavings, deleted snapshots stop resolving, and rewrites of
    /// reclaimed content round-trip — in every replication mode, with
    /// and without dedup.
    #[test]
    fn gc_preserves_survivors_and_roundtrips_rewrites(
        base_seed in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 1..12)) {
        // Eight identical stacks: 4 modes × dedup {on, off}.
        let mut stacks: Vec<(bool, ReplicationMode, BlobClient, MirroredImage)> = Vec::new();
        for mode in MODES {
            for dedup in [true, false] {
                let (c, m) = stack(base_seed, mode, dedup);
                stacks.push((dedup, mode, c, m));
            }
        }
        // The model: live image contents plus every published snapshot
        // (identity and expected bytes), with deletions tracked.
        let mut live = Payload::synth(base_seed, 0, IMG);
        let mut snaps: Vec<Snap> = Vec::new();
        let mut recorded: HashSet<(BlobId, Version)> = HashSet::new();
        let mut deleted: Vec<Snap> = Vec::new();
        let mut deletes_ran = 0usize;

        for op in &ops {
            match op {
                Op::Write { offset, len, seed } => {
                    let data = Payload::synth(1000 + seed, 0, *len);
                    for (_, _, _, img) in stacks.iter_mut() {
                        img.write(*offset, data.clone()).unwrap();
                    }
                    live = live.overwrite(*offset, data);
                }
                Op::Snapshot => {
                    let mut ids = Vec::new();
                    for (_, _, _, img) in stacks.iter_mut() {
                        let v = img.commit().unwrap();
                        ids.push((img.blob(), v));
                    }
                    prop_assert!(
                        ids.windows(2).all(|w| w[0] == w[1]),
                        "stacks diverged in snapshot identity: {ids:?}"
                    );
                    // A commit with nothing dirty republishes the same
                    // identity; track each snapshot once.
                    if recorded.insert(ids[0]) {
                        snaps.push(Snap {
                            blob: ids[0].0,
                            version: ids[0].1,
                            expect: live.clone(),
                        });
                    }
                }
                Op::Clone => {
                    let mut ids = Vec::new();
                    for (_, _, _, img) in stacks.iter_mut() {
                        ids.push(img.clone_image().unwrap());
                    }
                    prop_assert!(ids.windows(2).all(|w| w[0] == w[1]));
                }
                Op::Delete { nth } => {
                    // Victims: live snapshots that are not any stack's
                    // current base (deleting the base the live image
                    // commits onto is a middleware error, not a GC case).
                    let base = (stacks[0].3.blob(), stacks[0].3.base_version());
                    let victims: Vec<usize> = (0..snaps.len())
                        .filter(|&i| (snaps[i].blob, snaps[i].version) != base)
                        .collect();
                    if victims.is_empty() {
                        continue;
                    }
                    let at = victims[nth % victims.len()];
                    let snap = snaps.remove(at);
                    for (dedup, mode, client, _) in stacks.iter() {
                        let report = client
                            .delete_snapshot(snap.blob, snap.version)
                            .unwrap_or_else(|e| {
                                panic!("delete failed ({mode:?}, dedup={dedup}): {e}")
                            });
                        prop_assert_eq!(report.deleted_versions, 1);
                    }
                    deleted.push(snap);
                    deletes_ran += 1;
                    // The GC invariant, checked at every delete: no
                    // surviving snapshot lost a byte, in any stack.
                    for snap in &snaps {
                        for (dedup, mode, client, _) in stacks.iter() {
                            let got = client.read(snap.blob, snap.version, 0..IMG).unwrap();
                            prop_assert!(
                                got.content_eq(&snap.expect),
                                "survivor {:?}/{:?} corrupted by GC ({mode:?}, dedup={dedup})",
                                snap.blob,
                                snap.version
                            );
                        }
                    }
                }
            }
        }

        // Deleted snapshots are gone for good, in every stack.
        for snap in &deleted {
            for (dedup, mode, client, _) in stacks.iter() {
                prop_assert!(
                    client.read(snap.blob, snap.version, 0..IMG).is_err(),
                    "deleted {:?}/{:?} still readable ({mode:?}, dedup={dedup})",
                    snap.blob,
                    snap.version
                );
            }
        }

        // Explicit delete→rewrite round-trip: re-commit pool content
        // (bytes that deletes may have reclaimed and whose index entries
        // may be stale) and verify every stack reads it back exactly.
        let rewrite = Payload::synth(1000, 0, CHUNK);
        let mut ids = Vec::new();
        for (_, _, _, img) in stacks.iter_mut() {
            img.write(0, rewrite.clone()).unwrap();
            let v = img.commit().unwrap();
            ids.push((img.blob(), v));
        }
        prop_assert!(ids.windows(2).all(|w| w[0] == w[1]));
        live = live.overwrite(0, rewrite);
        for (dedup, mode, client, _) in stacks.iter() {
            let got = client.read(ids[0].0, ids[0].1, 0..IMG).unwrap();
            prop_assert!(
                got.content_eq(&live),
                "post-delete rewrite differs ({mode:?}, dedup={dedup}, \
                 {deletes_ran} deletes ran)"
            );
        }

        // The live image itself reads byte-identical everywhere.
        let (first, rest) = stacks.split_first_mut().unwrap();
        let reference = first.3.read(0..IMG).unwrap();
        prop_assert!(reference.content_eq(&live), "model diverged from stack");
        for (dedup, mode, _, img) in rest.iter_mut() {
            let got = img.read(0..IMG).unwrap();
            prop_assert!(
                got.content_eq(&reference),
                "live image differs ({mode:?}, dedup={dedup})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Leaf-identity model: what the collector must find, and what it may cost.
// ---------------------------------------------------------------------

const MODEL_CHUNKS: u64 = 16;

fn client_stack(dedup: bool) -> BlobClient {
    let fabric = LocalFabric::new(4);
    let compute: Vec<NodeId> = (0..3).map(NodeId).collect();
    let cfg = BlobConfig {
        chunk_size: CHUNK,
        replication: 1,
        dedup,
        cluster_dedup: dedup,
        ..Default::default()
    };
    let store = BlobStore::new(
        cfg,
        BlobTopology::colocated(&compute, NodeId(3)),
        fabric as Arc<dyn Fabric>,
    );
    BlobClient::new(store, NodeId(0))
}

#[derive(Debug, Clone)]
enum FamilyOp {
    /// Overwrite `chunks` whole (content from a 3-seed pool) on top of
    /// the `nth` writable lineage's latest version.
    Write {
        nth: usize,
        chunks: Vec<u64>,
        seed: u64,
    },
    /// CLONE the `nth` live snapshot into a new lineage.
    Clone { nth: usize },
    /// Delete the `nth` live snapshot.
    DeleteOne { nth: usize },
    /// Delete every live version of the `nth` lineage.
    DeleteLineage { nth: usize },
}

fn arb_family_op() -> impl Strategy<Value = FamilyOp> {
    prop_oneof![
        (
            0..64usize,
            prop::collection::vec(0..MODEL_CHUNKS, 1..4),
            0..3u64
        )
            .prop_map(|(nth, chunks, seed)| FamilyOp::Write { nth, chunks, seed }),
        (
            0..64usize,
            prop::collection::vec(0..MODEL_CHUNKS, 1..4),
            0..3u64
        )
            .prop_map(|(nth, chunks, seed)| FamilyOp::Write { nth, chunks, seed }),
        (0..64usize).prop_map(|nth| FamilyOp::Clone { nth }),
        (0..64usize).prop_map(|nth| FamilyOp::DeleteOne { nth }),
        (0..64usize).prop_map(|nth| FamilyOp::DeleteLineage { nth }),
    ]
}

/// One live snapshot in the model: per chunk index, the identity of
/// the leaf node that holds it (a fresh id per written chunk per
/// commit; shadowing and CLONE share ids) and the content seed.
#[derive(Clone)]
struct ModelSnap {
    leaves: Vec<(u64, u64)>,
}

impl ModelSnap {
    fn expect(&self) -> Payload {
        let mut out = Payload::zeros(MODEL_CHUNKS * CHUNK);
        for (i, &(_, seed)) in self.leaves.iter().enumerate() {
            out.overwrite_in_place(i as u64 * CHUNK, Payload::synth(seed, 0, CHUNK));
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Over random write / clone / delete-one / delete-lineage
    /// histories, every delete reports exactly the leaves the full
    /// reachability walk finds dead (reachable from a deleted version,
    /// from no live one), releases exactly one reference per dead leaf,
    /// conserves references — with dedup off a provider chunk *is* a
    /// live leaf, so the stored chunk count must equal the model's live
    /// leaf count after every step — and leaves every survivor
    /// byte-identical.
    #[test]
    fn deletes_find_exactly_the_unreachable_leaves(
        ops in prop::collection::vec(arb_family_op(), 1..24)) {
        for dedup in [false, true] {
            let client = client_stack(dedup);
            let mut next_leaf = 0u64;
            let mut fresh = |seed: u64| {
                next_leaf += 1;
                (next_leaf, seed)
            };
            let base = ModelSnap {
                leaves: (0..MODEL_CHUNKS).map(|i| fresh(100 + i)).collect(),
            };
            let (blob, v1) = client.upload(base.expect()).unwrap();
            let mut live: Vec<((BlobId, Version), ModelSnap)> = vec![((blob, v1), base)];
            // Lineages that can still be written: blob → latest version.
            // A lineage whose latest version was deleted is sealed (the
            // version manager rejects commits onto a deleted base).
            let mut heads: HashMap<BlobId, Version> = HashMap::from([(blob, v1)]);

            for op in &ops {
                let mut doomed: Vec<(BlobId, Version)> = Vec::new();
                match op {
                    FamilyOp::Write { nth, chunks, seed } => {
                        let mut writable: Vec<BlobId> = heads.keys().copied().collect();
                        writable.sort();
                        if writable.is_empty() {
                            continue;
                        }
                        let blob = writable[nth % writable.len()];
                        let head = heads[&blob];
                        let mut snap = live
                            .iter()
                            .find(|(id, _)| *id == (blob, head))
                            .expect("a head is live")
                            .1
                            .clone();
                        let chunks: HashSet<u64> = chunks.iter().copied().collect();
                        let updates = chunks
                            .iter()
                            .map(|&i| (i, Payload::synth(1000 + seed, 0, CHUNK)))
                            .collect();
                        let v = client.write_chunks(blob, head, updates).unwrap();
                        for i in chunks {
                            snap.leaves[i as usize] = fresh(1000 + seed);
                        }
                        heads.insert(blob, v);
                        live.push(((blob, v), snap));
                    }
                    FamilyOp::Clone { nth } => {
                        if live.is_empty() {
                            continue;
                        }
                        let ((src, v), snap) = live[nth % live.len()].clone();
                        let clone = client.clone_blob(src, v).unwrap();
                        heads.insert(clone, Version(1));
                        live.push(((clone, Version(1)), snap));
                    }
                    FamilyOp::DeleteOne { nth } => {
                        if live.is_empty() {
                            continue;
                        }
                        doomed.push(live[nth % live.len()].0);
                    }
                    FamilyOp::DeleteLineage { nth } => {
                        let mut blobs: Vec<BlobId> = live.iter().map(|(id, _)| id.0).collect();
                        blobs.sort();
                        blobs.dedup();
                        if blobs.is_empty() {
                            continue;
                        }
                        let blob = blobs[nth % blobs.len()];
                        doomed = live.iter().map(|(id, _)| *id).filter(|id| id.0 == blob).collect();
                    }
                }
                if !doomed.is_empty() {
                    let blob = doomed[0].0;
                    let versions: Vec<Version> = doomed.iter().map(|id| id.1).collect();
                    // The oracle: the full walks, on the model.
                    let (dead, survivors): (Vec<_>, Vec<_>) =
                        live.drain(..).partition(|(id, _)| doomed.contains(id));
                    live = survivors;
                    let reachable = |snaps: &[((BlobId, Version), ModelSnap)]| -> HashSet<u64> {
                        snaps.iter().flat_map(|(_, s)| s.leaves.iter().map(|l| l.0)).collect()
                    };
                    let dead_leaves = reachable(&dead).difference(&reachable(&live)).count() as u64;

                    let report = client.delete_snapshots(blob, &versions).unwrap();
                    prop_assert_eq!(report.deleted_versions, versions.len());
                    prop_assert_eq!(report.dead_leaves, dead_leaves, "dedup={}", dedup);
                    prop_assert_eq!(report.released_refs, dead_leaves, "dedup={}", dedup);
                    if heads.get(&blob).is_some_and(|h| versions.contains(h)) {
                        heads.remove(&blob);
                    }
                    for (b, v) in doomed {
                        prop_assert!(client.read(b, v, 0..CHUNK).is_err());
                    }
                }
                if !dedup {
                    // Reference conservation: one stored chunk per live leaf.
                    let live_leaves: HashSet<u64> =
                        live.iter().flat_map(|(_, s)| s.leaves.iter().map(|l| l.0)).collect();
                    prop_assert_eq!(client.store().total_chunks(), live_leaves.len());
                }
            }
            // A reader with cold caches sees every survivor intact.
            let reader = BlobClient::new(Arc::clone(client.store()), NodeId(1));
            for ((b, v), snap) in &live {
                let got = reader.read(*b, *v, 0..MODEL_CHUNKS * CHUNK).unwrap();
                prop_assert!(got.content_eq(&snap.expect()), "{:?}/{:?} dedup={}", b, v, dedup);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Node-shared metadata caches: sharing must be unobservable.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HandleOp {
    /// Commit `chunks` (pool content) on top of the `nth` snapshot ever
    /// published — live or deleted, head or not.
    Commit {
        node: u32,
        nth: usize,
        chunks: Vec<u64>,
        seed: u64,
    },
    /// CLONE the `nth` snapshot.
    Clone { node: u32, nth: usize },
    /// Delete the `nth` snapshot (again, if it is already gone).
    Delete { node: u32, nth: usize },
    /// Boot the `nth` snapshot: open it and read it whole.
    Boot { node: u32, nth: usize },
}

fn arb_handle_op() -> impl Strategy<Value = HandleOp> {
    let commit = || {
        (
            0..2u32,
            0..64usize,
            prop::collection::vec(0..MODEL_CHUNKS, 1..4),
            0..3u64,
        )
            .prop_map(|(node, nth, chunks, seed)| HandleOp::Commit {
                node,
                nth,
                chunks,
                seed,
            })
    };
    prop_oneof![
        commit(),
        commit(),
        (0..2u32, 0..64usize).prop_map(|(node, nth)| HandleOp::Clone { node, nth }),
        (0..2u32, 0..64usize).prop_map(|(node, nth)| HandleOp::Delete { node, nth }),
        (0..2u32, 0..64usize).prop_map(|(node, nth)| HandleOp::Boot { node, nth }),
        (0..2u32, 0..64usize).prop_map(|(node, nth)| HandleOp::Boot { node, nth }),
    ]
}

/// What one operation answered, reduced to what a caller can observe.
#[derive(Debug, PartialEq)]
enum Answer {
    Version(BlobResult<Version>),
    Blob(BlobResult<BlobId>),
    Dead(BlobResult<(u64, u64)>),
    Image(BlobResult<bff::data::Digest>),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Over random commit / clone / delete / boot sequences issued
    /// through a new handle per operation on two nodes, every answer —
    /// snapshot identities, images, dead-leaf counts, and every error —
    /// is the one the same sequence gets when each handle brings a
    /// context of its own that nobody shares and nothing outlives.
    #[test]
    fn node_shared_metadata_is_unobservable(
        ops in prop::collection::vec(arb_handle_op(), 1..24)) {
        for dedup in [false, true] {
            let shared = client_stack(dedup);
            let alone = client_stack(dedup);
            let handle = |stack: &BlobClient, node: u32, private: bool| {
                let store = Arc::clone(stack.store());
                if private {
                    let ctx = Arc::new(NodeContext::new(store.config()));
                    BlobClient::with_context(store, NodeId(node), ctx)
                } else {
                    BlobClient::new(store, NodeId(node))
                }
            };
            let image = Payload::synth(77, 0, MODEL_CHUNKS * CHUNK);
            let mut snaps = vec![shared.upload(image.clone()).unwrap()];
            prop_assert_eq!(alone.upload(image).unwrap(), snaps[0]);

            for op in &ops {
                let run = |stack: &BlobClient, private: bool| match op {
                    HandleOp::Commit { node, nth, chunks, seed } => {
                        let (blob, base) = snaps[nth % snaps.len()];
                        let chunks: HashSet<u64> = chunks.iter().copied().collect();
                        let updates = chunks
                            .into_iter()
                            .map(|i| (i, Payload::synth(1000 + seed, 0, CHUNK)))
                            .collect();
                        Answer::Version(handle(stack, *node, private).write_chunks(blob, base, updates))
                    }
                    HandleOp::Clone { node, nth } => {
                        let (blob, v) = snaps[nth % snaps.len()];
                        Answer::Blob(handle(stack, *node, private).clone_blob(blob, v))
                    }
                    HandleOp::Delete { node, nth } => {
                        let (blob, v) = snaps[nth % snaps.len()];
                        let report = handle(stack, *node, private).delete_snapshot(blob, v);
                        Answer::Dead(report.map(|r| (r.dead_leaves, r.freed_bytes)))
                    }
                    HandleOp::Boot { node, nth } => {
                        let (blob, v) = snaps[nth % snaps.len()];
                        let client = handle(stack, *node, private);
                        Answer::Image(client.snapshot_size(blob, v).and_then(|size| {
                            Ok(client.read(blob, v, 0..size)?.digest())
                        }))
                    }
                };
                let got = run(&shared, false);
                let want = run(&alone, true);
                prop_assert_eq!(&got, &want, "dedup={}, {:?}", dedup, op);
                match (op, got) {
                    (HandleOp::Commit { nth, .. }, Answer::Version(Ok(v))) => {
                        snaps.push((snaps[nth % snaps.len()].0, v));
                    }
                    (_, Answer::Blob(Ok(clone))) => snaps.push((clone, Version(1))),
                    _ => {}
                }
            }
        }
    }
}

/// Deleting one version of a 64-chunk blob costs at most tree-depth (7)
/// metadata rounds whether the family has 1, 8 or 32 other live roots —
/// the per-root walks cost 7 rounds *each*.
#[test]
fn delete_rounds_are_bounded_by_depth_not_by_live_roots() {
    const CHUNKS: u64 = 64;
    for k in [1u64, 8, 32] {
        let client = client_stack(false);
        let (base, v1) = client.upload(Payload::synth(7, 0, CHUNKS * CHUNK)).unwrap();
        // K live roots: the base image and K − 1 diverged lineage heads.
        for i in 1..k {
            let lineage = client.clone_blob(base, v1).unwrap();
            let updates = [(3 * i) % CHUNKS, (7 * i + 1) % CHUNKS]
                .map(|c| (c, Payload::synth(50 + i, 0, CHUNK)))
                .to_vec();
            client.write_chunks(lineage, Version(1), updates).unwrap();
        }
        let victim = client.clone_blob(base, v1).unwrap();
        let updates = [5u64, 21, 40]
            .map(|c| (c, Payload::synth(9, c, CHUNK)))
            .to_vec();
        let v2 = client.write_chunks(victim, Version(1), updates).unwrap();

        // A fresh client: nothing of the trees is cached, as in a
        // middleware that opens a handle per operation.
        let collector = BlobClient::new(Arc::clone(client.store()), NodeId(2));
        let report = collector.delete_snapshot(victim, v2).unwrap();
        assert_eq!(report.dead_leaves, 3, "K={k}");
        assert!(
            collector.meta_fetch_calls() <= 7,
            "K={k}: {} metadata rounds for a depth-7 tree",
            collector.meta_fetch_calls()
        );
        assert!(client
            .read(base, v1, 0..CHUNKS * CHUNK)
            .unwrap()
            .content_eq(&Payload::synth(7, 0, CHUNKS * CHUNK)));
    }
}

/// Terminating a lineage that never diverged from its source: its only
/// version *is* a live root, so the collector stops at level 0 — no
/// tree node is read, nothing is released, the source is untouched.
#[test]
fn never_diverged_lineage_is_dropped_without_reading_a_node() {
    let client = client_stack(true);
    let image = Payload::synth(11, 0, MODEL_CHUNKS * CHUNK);
    let (base, v1) = client.upload(image.clone()).unwrap();
    let idle = client.clone_blob(base, v1).unwrap();
    let stored = client.store().total_stored_bytes();

    let collector = BlobClient::new(Arc::clone(client.store()), NodeId(2));
    let versions = collector.live_snapshots(idle).unwrap();
    assert_eq!(versions, vec![Version(1)]);
    let report = collector.delete_snapshots(idle, &versions).unwrap();
    assert_eq!(collector.meta_fetch_calls(), 0);
    assert_eq!(
        (report.dead_leaves, report.released_refs, report.freed_bytes),
        (0, 0, 0)
    );
    assert_eq!(client.store().total_stored_bytes(), stored);
    assert!(collector
        .read(base, v1, 0..MODEL_CHUNKS * CHUNK)
        .unwrap()
        .content_eq(&image));
}
