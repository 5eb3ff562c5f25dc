//! Real-thread concurrency over the in-process stack: many OS threads
//! booting, writing and snapshotting against one shared repository at
//! once. The simulator serializes execution, so this is the test that
//! exercises the actual lock discipline of the server state machines
//! (providers, managers, metadata shards) under parallelism.

use bff::blobseer::{BlobStore, BlobTopology};
use bff::cloud::backend::{ImageBackend, MirrorBackend};
use bff::cloud::params::Calibration;
use bff::prelude::*;
use std::sync::Arc;

const IMG: u64 = 2 << 20;
const THREADS: usize = 16;

fn shared_store() -> (Arc<BlobStore>, BlobId, Version, Payload) {
    let fabric = LocalFabric::new(THREADS + 1);
    let compute: Vec<NodeId> = (0..THREADS as u32).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(THREADS as u32));
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
    let image = Payload::synth(0x7EAD, 0, IMG);
    let client = BlobClient::new(Arc::clone(&store), NodeId(0));
    let (blob, v) = client.upload(image.clone()).unwrap();
    (store, blob, v, image)
}

#[test]
fn concurrent_boots_read_identical_content() {
    let (store, blob, v, image) = shared_store();
    std::thread::scope(|s| {
        for i in 0..THREADS {
            let store = Arc::clone(&store);
            let image = image.clone();
            s.spawn(move || {
                let client = BlobClient::new(store, NodeId(i as u32));
                let mut b = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
                // Interleaved partial reads, then the whole image.
                for k in 0..8u64 {
                    let at = (k * 293_339) % (IMG - 10_000);
                    let got = b.read(at..at + 10_000).unwrap();
                    assert!(got.content_eq(&image.slice(at, at + 10_000)), "thread {i}");
                }
                let full = b.read(0..IMG).unwrap();
                assert!(full.content_eq(&image), "thread {i} full image");
            });
        }
    });
}

#[test]
fn concurrent_snapshots_commute() {
    let (store, blob, v, image) = shared_store();
    let snaps: Vec<(BlobId, Version)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let client = BlobClient::new(store, NodeId(i as u32));
                    let mut b =
                        MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
                    // Every thread writes its own mark and snapshots
                    // twice, racing against all the others.
                    b.write(1000 * i as u64, Payload::from(vec![i as u8 + 1; 500]))
                        .unwrap();
                    b.snapshot().unwrap();
                    b.write(IMG / 2, Payload::from(vec![i as u8 + 1; 64]))
                        .unwrap();
                    b.snapshot().unwrap();
                    (b.blob(), b.version())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    // All clones are distinct and each holds exactly its own writes.
    let verifier = BlobClient::new(Arc::clone(&store), NodeId(0));
    for (i, (b, ver)) in snaps.iter().enumerate() {
        let got = verifier.read(*b, *ver, 0..IMG).unwrap();
        let expect = image
            .clone()
            .overwrite(1000 * i as u64, Payload::from(vec![i as u8 + 1; 500]))
            .overwrite(IMG / 2, Payload::from(vec![i as u8 + 1; 64]));
        assert!(
            got.content_eq(&expect),
            "snapshot {i} isolated under concurrency"
        );
    }
    // The origin is untouched.
    let orig = verifier.read(blob, v, 0..IMG).unwrap();
    assert!(orig.content_eq(&image));
    // Storage stays shared: far below one full image per snapshot.
    let stored = store.total_stored_bytes();
    assert!(
        stored < IMG + THREADS as u64 * ((3 * 64) << 10),
        "stored {stored} should be near one image"
    );
}

#[test]
fn co_located_clients_share_one_node_context() {
    // N OS threads play co-located VMs on ONE node, each with its own
    // Client, all racing reads and commits through the node's shared
    // NodeContext. Checks: content correctness under the shared cache,
    // Arc-identity of the context, and that the aggregate hit/miss
    // counters exactly account every chunk lookup (no lost descriptors,
    // no double counting).
    const CS: u64 = 64 << 10;
    const SHARED: u64 = 1 << 20; // 16 chunks
    const OWN: u64 = 256 << 10; // 4 chunks
    const WORKERS: usize = 16;
    let fabric = LocalFabric::new(5);
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(4));
    let cfg = BlobConfig {
        chunk_size: CS,
        dedup: false, // counter accounting below assumes no reuse
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
    let image = Payload::synth(0xC010, 0, SHARED);
    // Stage the shared image from the service node so node 0 starts cold.
    let stage = BlobClient::new(Arc::clone(&store), NodeId(4));
    let (shared, v) = stage.upload(image.clone()).unwrap();

    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let store = Arc::clone(&store);
            let image = image.clone();
            s.spawn(move || {
                let client = BlobClient::new(store, NodeId(0));
                // Everyone reads the whole shared snapshot (racing the
                // first resolver) — 16 chunk lookups each.
                let got = client.read(shared, v, 0..SHARED).unwrap();
                assert!(got.content_eq(&image), "worker {t} read torn content");
                // Everyone publishes its own blob, then reads it back —
                // 4 chunk lookups each (the commit cached the nodes it
                // stored, so these should all be hits).
                let own = Payload::synth(0xD000 + t as u64, 0, OWN);
                let (blob, ov) = client.upload(own.clone()).unwrap();
                let got = client.read(blob, ov, 0..OWN).unwrap();
                assert!(got.content_eq(&own), "worker {t} own blob torn");
            });
        }
    });

    // All clients attached to one context.
    let ctx = store.node_context(NodeId(0));
    let other = BlobClient::new(Arc::clone(&store), NodeId(0));
    assert!(Arc::ptr_eq(&ctx, other.context()), "context not shared");

    // Counter consistency: every chunk lookup is accounted exactly once.
    let stats = ctx.stats();
    let expected = WORKERS as u64 * (SHARED / CS + OWN / CS);
    assert_eq!(
        stats.desc_hits + stats.desc_misses,
        expected,
        "hit/miss counters lost or double-counted lookups: {stats:?}"
    );
    // The shared snapshot is resolved at most once per chunk per racer
    // window; with 16 racers at least some sharing must materialize, and
    // every self-committed read is a pure hit.
    assert!(
        stats.desc_hits >= WORKERS as u64 * (OWN / CS),
        "committers must hit their own stored nodes: {stats:?}"
    );

    // No lost descriptors: a fresh co-located client replays every
    // blob's latest snapshot without touching the metadata plane.
    let verifier = BlobClient::new(Arc::clone(&store), NodeId(0));
    verifier.read(shared, v, 0..SHARED).unwrap();
    assert_eq!(
        verifier.meta_fetch_calls(),
        0,
        "shared snapshot descriptors were lost from the node cache"
    );
}

#[test]
fn lru_bound_holds_under_concurrent_version_churn() {
    // 8 threads × 24 private snapshots each churn far past a tiny
    // 8-version bound on the version facts and trackers: reads must stay
    // correct while entries are concurrently evicted and re-resolved.
    const CS: u64 = 64 << 10;
    const IMGS: u64 = 128 << 10;
    let fabric = LocalFabric::new(5);
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(4));
    let cfg = BlobConfig {
        chunk_size: CS,
        desc_cache_versions: 8,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);

    std::thread::scope(|s| {
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let client = BlobClient::new(store, NodeId(0));
                let (blob, mut v) = client.upload(Payload::synth(t, 0, IMGS)).unwrap();
                let mut expect = Payload::synth(t, 0, IMGS);
                for round in 0..24u64 {
                    let patch = Payload::synth(t * 1000 + round, 0, CS);
                    v = client.write(blob, v, 0, patch.clone()).unwrap();
                    expect = expect.overwrite(0, patch);
                    let got = client.read(blob, v, 0..IMGS).unwrap();
                    assert!(got.content_eq(&expect), "thread {t} round {round}");
                }
            });
        }
    });
}

#[test]
fn concurrent_commits_to_one_blob_conflict_cleanly() {
    // Optimistic concurrency at the version manager: when threads race to
    // publish onto the SAME blob, exactly the losers see Conflict and no
    // committed data is lost or interleaved.
    let (store, blob, v, _image) = shared_store();
    let results: Vec<Result<Version, bff::blobseer::BlobError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let client = BlobClient::new(store, NodeId(i as u32));
                    client.write(blob, v, 0, Payload::from(vec![i as u8; 100]))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    let wins = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(wins, 1, "exactly one racer publishes version 2");
    assert!(results
        .iter()
        .filter(|r| r.is_err())
        .all(|r| matches!(r, Err(bff::blobseer::BlobError::Conflict { .. }))));
}

#[test]
fn racing_co_located_handles_share_one_tree_node_cache() {
    // Twelve snapshots staged from another node, each a few chunks off
    // its predecessor; eight handles on ONE cold node then resolve all of
    // them at once, each in its own order, through the node's shared
    // tree-node cache. Every read must equal the same read through a
    // context nobody else touches, and afterwards the shared cache holds
    // exactly the nodes those trees consist of — none lost to a racing
    // insert, none invented.
    const CS: u64 = 4 << 10;
    const SIZE: u64 = 64 * CS;
    const WORKERS: usize = 8;
    let fabric = LocalFabric::new(5);
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let cfg = BlobConfig {
        chunk_size: CS,
        prefetch: false, // every resolve goes through the descent
        ..Default::default()
    };
    let store = BlobStore::new(
        cfg,
        BlobTopology::colocated(&compute, NodeId(4)),
        fabric as Arc<dyn Fabric>,
    );
    let stage = BlobClient::new(Arc::clone(&store), NodeId(3));
    let (blob, v1) = stage.upload(Payload::synth(0x5A, 0, SIZE)).unwrap();
    let mut versions = vec![v1];
    for step in 1..12u64 {
        let at = (step * 7) % 61;
        let patch = Payload::synth(0x5A00 + step, 0, 3 * CS);
        let v = stage
            .write(blob, *versions.last().unwrap(), at * CS, patch)
            .unwrap();
        versions.push(v);
    }

    // The reference: one handle, one private context, no sharing.
    let alone = Arc::new(NodeContext::new(store.config()));
    let reference = BlobClient::with_context(Arc::clone(&store), NodeId(0), Arc::clone(&alone));
    let want: Vec<bff::data::Digest> = versions
        .iter()
        .map(|&v| reference.read(blob, v, 0..SIZE).unwrap().digest())
        .collect();

    let start = std::sync::Barrier::new(WORKERS);
    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let (store, versions, want, start) = (&store, &versions, &want, &start);
            s.spawn(move || {
                let client = BlobClient::new(Arc::clone(store), NodeId(0));
                start.wait();
                for k in 0..versions.len() {
                    // Coprime strides: every worker a different order.
                    let i = (t + k * (2 * t + 1)) % versions.len();
                    let got = client.read(blob, versions[i], 0..SIZE).unwrap();
                    assert_eq!(got.digest(), want[i], "worker {t}, version {i}");
                }
            });
        }
    });
    let shared = store.node_context(NodeId(0));
    assert_eq!(
        shared.tree_node_entries(),
        alone.tree_node_entries(),
        "the shared cache must hold exactly the trees' nodes"
    );
    // No lost node: with the version facts dropped, a late handle walks
    // every tree again and finds all of it on the node.
    for &v in &versions {
        shared.purge_version((blob, v));
    }
    let before = shared.stats();
    let late = BlobClient::new(Arc::clone(&store), NodeId(0));
    for (&v, digest) in versions.iter().zip(&want) {
        assert_eq!(late.read(blob, v, 0..SIZE).unwrap().digest(), *digest);
    }
    let after = shared.stats();
    assert!(after.node_hits > before.node_hits);
    assert_eq!(after.node_misses, before.node_misses);
}

#[test]
fn a_read_racing_a_delete_never_revives_the_version() {
    // Readers on ONE node resolve a chain of snapshots through fresh
    // handles while a handle on another node deletes them one by one. A
    // read that overlaps a delete may still see the snapshot (or lose a
    // freed chunk); a read that *starts* after the delete returned must
    // get `NoSuchVersion` — also when an overlapping reader obtained the
    // version manager's answer before the mark and filed it afterwards.
    use bff::blobseer::BlobError;
    use std::sync::atomic::{AtomicBool, Ordering};
    const CS: u64 = 4 << 10;
    const SIZE: u64 = 16 * CS;
    const SNAPSHOTS: u64 = 48;
    const READERS: usize = 6;
    let fabric = LocalFabric::new(5);
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let cfg = BlobConfig {
        chunk_size: CS,
        prefetch: false,
        ..Default::default()
    };
    let store = BlobStore::new(
        cfg,
        BlobTopology::colocated(&compute, NodeId(4)),
        fabric as Arc<dyn Fabric>,
    );
    let stage = BlobClient::new(Arc::clone(&store), NodeId(3));
    let (blob, base) = stage.upload(Payload::synth(0xD0, 0, SIZE)).unwrap();
    let mut versions = Vec::new();
    let mut want = Vec::new();
    let mut last = base;
    for step in 0..SNAPSHOTS {
        let patch = Payload::synth(0xD000 + step, 0, CS);
        last = stage.write(blob, last, (step % 16) * CS, patch).unwrap();
        versions.push(last);
        want.push(stage.read(blob, last, 0..SIZE).unwrap().digest());
    }
    let gone: Vec<AtomicBool> = versions.iter().map(|_| AtomicBool::new(false)).collect();

    std::thread::scope(|s| {
        let (store, versions, want, gone) = (&store, &versions, &want, &gone);
        s.spawn(move || {
            let deleter = BlobClient::new(Arc::clone(store), NodeId(1));
            for (i, &v) in versions.iter().enumerate() {
                deleter.delete_snapshot(blob, v).unwrap();
                gone[i].store(true, Ordering::SeqCst);
            }
        });
        for t in 0..READERS {
            s.spawn(move || {
                for round in 0..4 {
                    for k in 0..versions.len() {
                        let i = (t + round + k * (2 * t + 1)) % versions.len();
                        let was_gone = gone[i].load(Ordering::SeqCst);
                        let reader = BlobClient::new(Arc::clone(store), NodeId(0));
                        match reader.read(blob, versions[i], 0..SIZE) {
                            Err(BlobError::NoSuchVersion(..)) => {}
                            Ok(got) if !was_gone => assert_eq!(got.digest(), want[i]),
                            Err(BlobError::ChunkUnavailable(_)) if !was_gone => {}
                            other => panic!(
                                "reader {t}, snapshot {i}, deleted before the read: \
                                 {was_gone}: {:?}",
                                other.map(|p| p.len())
                            ),
                        }
                    }
                }
            });
        }
    });
    let late = BlobClient::new(Arc::clone(&store), NodeId(0));
    for &v in &versions {
        assert!(matches!(
            late.read(blob, v, 0..SIZE),
            Err(BlobError::NoSuchVersion(..))
        ));
    }
    // The base outlives every snapshot cut from it.
    assert_eq!(
        late.read(blob, base, 0..SIZE).unwrap().digest(),
        Payload::synth(0xD0, 0, SIZE).digest()
    );
}
