//! Property suite for content-addressed write dedup: for random
//! write/snapshot/clone sequences, a dedup-on stack and a dedup-off
//! stack must be indistinguishable to every reader — across both
//! replication modes — and dedup must never *increase* provider bytes
//! stored.
//!
//! Content seeds are drawn from a tiny pool and a share of the writes
//! are whole aligned chunks, so identical chunk payloads recur both
//! within one commit and across snapshots: every dedup path (intra-commit
//! collapse, digest-index reuse, reuse after clone) gets exercised.

use bff::blobseer::{BlobStore, BlobTopology, ReplicationMode};
use bff::core::{MemStore, MirrorConfig, MirroredImage};
use bff::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const IMG: u64 = 1 << 16; // 64 KiB images keep cases fast
const CHUNK: u64 = 4 << 10;

const MODES: [ReplicationMode; 2] = [ReplicationMode::Sequential, ReplicationMode::Fanout];

fn stack(seed: u64, mode: ReplicationMode, dedup: bool) -> (BlobClient, MirroredImage) {
    let fabric = LocalFabric::new(4);
    let compute: Vec<NodeId> = (0..3).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(3));
    let bcfg = BlobConfig {
        chunk_size: CHUNK,
        replication: 2,
        replication_mode: mode,
        dedup,
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
    /// `(seed, len)` pairs produce identical bytes wherever they land.
    Write {
        offset: u64,
        len: u64,
        seed: u64,
    },
    Snapshot,
    Clone,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Scattered writes from a 3-seed content pool.
        (0..IMG, 1..3000u64, 0..3u64).prop_map(|(o, l, s)| {
            let o = o.min(IMG - 1);
            Op::Write {
                offset: o,
                len: l.min(IMG - o).max(1),
                seed: s,
            }
        }),
        // Whole aligned chunks from the pool — the checkpoint pattern
        // that makes cross-snapshot duplicates certain.
        (0..(IMG / CHUNK), 0..3u64).prop_map(|(c, s)| Op::Write {
            offset: c * CHUNK,
            len: CHUNK,
            seed: s,
        }),
        Just(Op::Snapshot),
        Just(Op::Clone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dedup on/off is invisible to every reader in every replication
    /// mode, and never costs storage.
    #[test]
    fn dedup_is_invisible_and_never_increases_storage(
        base_seed in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 1..10)) {
        // Six identical stacks: 3 modes × dedup {on, off}, adjacent per
        // mode (on at even index, off right after).
        let mut stacks: Vec<(bool, ReplicationMode, BlobClient, MirroredImage)> = Vec::new();
        for mode in MODES {
            for dedup in [true, false] {
                let (c, m) = stack(base_seed, mode, dedup);
                stacks.push((dedup, mode, c, m));
            }
        }
        // Drive the same sequence through all of them, recording every
        // published snapshot identity (these must stay in lockstep).
        let mut snaps: Vec<(BlobId, Version)> = Vec::new();
        for op in &ops {
            match op {
                Op::Write { offset, len, seed } => {
                    let data = Payload::synth(1000 + seed, 0, *len);
                    for (_, _, _, img) in stacks.iter_mut() {
                        img.write(*offset, data.clone()).unwrap();
                    }
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
                    snaps.push(ids[0]);
                }
                Op::Clone => {
                    let mut ids = Vec::new();
                    for (_, _, _, img) in stacks.iter_mut() {
                        ids.push(img.clone_image().unwrap());
                    }
                    prop_assert!(ids.windows(2).all(|w| w[0] == w[1]));
                }
            }
        }
        // The live image reads byte-identical everywhere.
        let (first, rest) = stacks.split_first_mut().unwrap();
        let reference = first.3.read(0..IMG).unwrap();
        for (dedup, mode, _, img) in rest.iter_mut() {
            let got = img.read(0..IMG).unwrap();
            prop_assert!(
                got.content_eq(&reference),
                "live image differs ({mode:?}, dedup={dedup})"
            );
        }
        // Every published snapshot reads byte-identical everywhere.
        for &(blob, v) in &snaps {
            let want = stacks[0].2.read(blob, v, 0..IMG).unwrap();
            for (dedup, mode, client, _) in &stacks[1..] {
                let got = client.read(blob, v, 0..IMG).unwrap();
                prop_assert!(
                    got.content_eq(&want),
                    "snapshot {blob:?}/{v:?} differs ({mode:?}, dedup={dedup})"
                );
            }
        }
        // Dedup never increases provider bytes stored, mode by mode.
        for pair in stacks.chunks(2) {
            let (on, off) = (&pair[0], &pair[1]);
            prop_assert!(on.0 && !off.0, "stack layout: dedup-on first");
            let (on_bytes, off_bytes) = (
                on.2.store().total_stored_bytes(),
                off.2.store().total_stored_bytes(),
            );
            prop_assert!(
                on_bytes <= off_bytes,
                "dedup increased storage under {:?}: {on_bytes} > {off_bytes}",
                on.1
            );
        }
    }
}
