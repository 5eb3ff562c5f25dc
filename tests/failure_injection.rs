//! Failure injection: fail-stop provider losses against the replication
//! knob (§3.1.3: "chunks can be replicated on different local disks" for
//! availability and fault tolerance) — including losses of *deduped*
//! chunks whose refcounted replicas are shared by several blobs.

use bff::blobseer::{BlobStore, BlobTopology, ChunkId, Placement, ServerState};
use bff::cloud::backend::{BackendError, ImageBackend, MirrorBackend};
use bff::cloud::params::Calibration;
use bff::net::transport::{CodecTransport, RouteKey, Transport, WireError};
use bff::prelude::*;
use bff::wire::msg::{
    MetaResp, PmReq, PmResp, ProviderReq, ProviderResp, Req, Resp, RetainOutcome, VmReq, VmResp,
};
use std::sync::{Arc, Mutex};

const IMG: u64 = 2 << 20;

fn setup(replication: usize) -> (Arc<LocalFabric>, BlobClient, BlobId, Version) {
    let fabric = LocalFabric::new(7);
    let compute: Vec<NodeId> = (0..6).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(6));
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        replication,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
    let client = BlobClient::new(store, NodeId(0));
    let (blob, v) = client.upload(Payload::synth(0xFA11, 0, IMG)).unwrap();
    (fabric, client, blob, v)
}

#[test]
fn replicated_deployment_survives_one_provider_loss() {
    let (fabric, client, blob, v) = setup(2);
    fabric.fail_node(NodeId(3));
    // A VM on node 0 boots the whole image through the mirror.
    let mut backend = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
    let got = backend.read(0..IMG).unwrap();
    assert!(got.content_eq(&Payload::synth(0xFA11, 0, IMG)));
}

#[test]
fn replicated_deployment_survives_any_single_loss() {
    for victim in 1..6u32 {
        let (fabric, client, blob, v) = setup(2);
        fabric.fail_node(NodeId(victim));
        let mut backend = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
        let got = backend.read(0..IMG).unwrap();
        assert!(
            got.content_eq(&Payload::synth(0xFA11, 0, IMG)),
            "victim {victim}"
        );
    }
}

#[test]
fn two_losses_defeat_two_replicas_somewhere() {
    let (fabric, client, blob, v) = setup(2);
    // Adjacent providers hold both replicas of some chunks (consecutive
    // placement), so losing two adjacent nodes loses data.
    fabric.fail_node(NodeId(2));
    fabric.fail_node(NodeId(3));
    let mut backend = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
    let err = backend.read(0..IMG).unwrap_err();
    assert!(matches!(err, BackendError::Blob(_)), "unexpected: {err}");
}

#[test]
fn three_replicas_survive_two_losses() {
    let (fabric, client, blob, v) = setup(3);
    fabric.fail_node(NodeId(2));
    fabric.fail_node(NodeId(3));
    let mut backend = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
    assert!(backend.read(0..IMG).is_ok());
}

#[test]
fn unreplicated_loss_is_detected_not_silent() {
    let (fabric, client, blob, v) = setup(1);
    fabric.fail_node(NodeId(1));
    let mut backend = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
    // Some chunk lived only on node 1: the read must error, never return
    // wrong bytes.
    let result = backend.read(0..IMG);
    assert!(result.is_err());
}

#[test]
fn recovery_restores_service() {
    let (fabric, client, blob, v) = setup(1);
    fabric.fail_node(NodeId(1));
    let mut backend =
        MirrorBackend::open(client.clone(), blob, v, &Calibration::default()).unwrap();
    assert!(backend.read(0..IMG).is_err());
    fabric.recover_node(NodeId(1));
    let got = backend.read(0..IMG).unwrap();
    assert!(got.content_eq(&Payload::synth(0xFA11, 0, IMG)));
}

/// A deployment with dedup forced on (tests must not depend on the
/// `BFF_DEDUP` environment default) and replicated chunks.
fn setup_dedup() -> (Arc<LocalFabric>, BlobClient) {
    let fabric = LocalFabric::new(7);
    let compute: Vec<NodeId> = (0..6).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(6));
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        replication: 2,
        dedup: true,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
    (fabric, BlobClient::new(store, NodeId(0)))
}

/// Providers currently holding `id`, with their refcounts.
fn holders(client: &BlobClient, id: ChunkId) -> Vec<(NodeId, u64)> {
    client
        .store()
        .topology()
        .providers
        .iter()
        .filter_map(|&p| client.store().providers().refcount(p, id).map(|r| (p, r)))
        .collect()
}

#[test]
fn deduped_shared_chunk_fails_over_to_surviving_replica() {
    // Two blobs share one refcounted chunk through the digest index;
    // a provider holding it dies mid-run. Readers of the *other* blob —
    // which never pushed the bytes itself — must fail over to the
    // surviving replica.
    const CS: u64 = 64 << 10;
    const IMG2: u64 = 8 * CS;
    let (fabric, client) = setup_dedup();
    let (a, va) = client.upload(Payload::synth(0xA11CE, 0, IMG2)).unwrap(); // ids 1..=8
    let x = Payload::synth(0xDD, 0, CS);
    let va2 = client.write_chunks(a, va, vec![(0, x.clone())]).unwrap(); // id 9

    // Blob B commits the same content: reuse, no new replicas.
    let b = client.create_blob(IMG2).unwrap();
    let vb = client
        .write_chunks(b, Version(0), vec![(5, x.clone())])
        .unwrap();
    let shared = ChunkId(9);
    let held = holders(&client, shared);
    assert_eq!(held.len(), 2, "two replicas of the shared chunk: {held:?}");
    assert!(
        held.iter().all(|&(_, r)| r == 2),
        "both replicas carry both blobs' references: {held:?}"
    );

    // Kill one replica holder mid-run.
    fabric.fail_node(held[0].0);

    // A reader on a fresh node (cold cache, no dedup knowledge) still
    // reads both blobs byte-exactly through the survivor.
    let reader = BlobClient::new(Arc::clone(client.store()), NodeId(3));
    let got = reader.read(b, vb, 5 * CS..6 * CS).unwrap();
    assert!(
        got.content_eq(&x),
        "blob B must fail over on the shared chunk"
    );
    let got = reader.read(a, va2, 0..CS).unwrap();
    assert!(got.content_eq(&x), "blob A likewise");

    // And with the survivor also gone, the loss is detected, not silent.
    fabric.fail_node(held[1].0);
    let fresh = BlobClient::new(Arc::clone(client.store()), NodeId(4));
    assert!(fresh.read(b, vb, 5 * CS..6 * CS).is_err());
}

#[test]
fn dedup_after_replica_loss_reuses_only_survivors() {
    // A provider dies *between* two deduped commits: the next
    // commit-by-reference must validate replicas and publish only the
    // survivor — never a descriptor pointing at the dead copy only.
    const CS: u64 = 64 << 10;
    let (fabric, client) = setup_dedup();
    let (a, va) = client.upload(Payload::synth(0xBEEF, 0, 4 * CS)).unwrap(); // ids 1..=4
    let x = Payload::synth(0xEE, 0, CS);
    client.write_chunks(a, va, vec![(0, x.clone())]).unwrap(); // id 5
    let shared = ChunkId(5);
    let held = holders(&client, shared);
    fabric.fail_node(held[0].0);

    let b = client.create_blob(4 * CS).unwrap();
    let vb = client
        .write_chunks(b, Version(0), vec![(2, x.clone())])
        .unwrap();
    // The reuse retained only on the survivor.
    let held_after = holders(&client, shared);
    let survivor = held[1].0;
    assert!(held_after.contains(&(survivor, 2)), "{held_after:?}");
    // Readable even though the preferred replica may be the dead one.
    let reader = BlobClient::new(Arc::clone(client.store()), NodeId(5));
    let got = reader.read(b, vb, 2 * CS..3 * CS).unwrap();
    assert!(got.content_eq(&x));
}

#[test]
fn refcounts_never_underflow_on_repeated_rollback_and_release() {
    const CS: u64 = 64 << 10;
    let (_fabric, client) = setup_dedup();
    let (a, va) = client.upload(Payload::synth(0xF00D, 0, 4 * CS)).unwrap();
    let x = Payload::synth(0x77, 0, CS);
    let va2 = client.write_chunks(a, va, vec![(0, x.clone())]).unwrap(); // id 5
    let shared = ChunkId(5);
    let before = holders(&client, shared);

    // Two successive stale-base commits dedup onto the chunk, then lose
    // the publish race: each rollback releases exactly its own
    // references — never the published snapshot's.
    for _ in 0..2 {
        let err = client
            .write_chunks(a, va, vec![(1, x.clone())])
            .unwrap_err();
        assert!(matches!(err, BlobError::Conflict { .. }));
        assert_eq!(holders(&client, shared), before, "rollback must be exact");
    }
    let got = client.read(a, va2, 0..CS).unwrap();
    assert!(got.content_eq(&x), "survived double rollback");

    // API-level double-release storm on a scratch chunk: the counters
    // saturate at removal and every further release is a no-op.
    let store = client.store();
    let scratch = ChunkId(9_999);
    let node = NodeId(1);
    let stored_before = store.total_stored_bytes();
    store.providers().put(node, scratch, Payload::zeros(1024));
    assert!(store.providers().retain(node, scratch));
    assert!(store.providers().release(node, scratch)); // 2 → 1
    assert!(store.providers().release(node, scratch)); // 1 → 0, removed
    for _ in 0..3 {
        assert!(
            !store.providers().release(node, scratch),
            "must not underflow"
        );
    }
    assert_eq!(store.providers().refcount(node, scratch), None);
    assert_eq!(
        store.total_stored_bytes(),
        stored_before,
        "aggregate byte counter drifted through the release storm"
    );
}

/// A deployment with prefetch forced on (tests must not depend on the
/// `BFF_PREFETCH` environment default). Metadata and managers live on
/// the service node so that failing a provider kills only its chunk
/// store — these tests isolate the *data-plane* failover of the
/// prefetch pipeline.
fn setup_prefetch(
    replication: usize,
) -> (Arc<LocalFabric>, Arc<BlobStore>, BlobId, Version, Payload) {
    let fabric = LocalFabric::new(7);
    let compute: Vec<NodeId> = (0..6).map(NodeId).collect();
    let topo = BlobTopology {
        vmanager: NodeId(6),
        pmanager: NodeId(6),
        metadata: vec![NodeId(6)],
        providers: compute,
    };
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        replication,
        prefetch: true,
        // These tests pin exact transfer counts of the read-ahead
        // mechanics; the confidence filter's confirmation publishes
        // would shift them (it has its own tests).
        prefetch_min_publishers: 1,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
    let image = Payload::synth(0xFE7C, 0, IMG);
    let client = BlobClient::new(Arc::clone(&store), NodeId(0));
    let (blob, v) = client.upload(image.clone()).unwrap();
    // The leader VM on node 0 boots the image and publishes its access
    // pattern to the board.
    let mut leader = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
    leader.read(0..IMG).unwrap();
    (fabric, store, blob, v, image)
}

#[test]
fn prefetch_fails_over_when_provider_dies_before_read_ahead() {
    // A provider dies while the follower's read-ahead is in flight
    // (fail-stop before the prefetch step): the prefetcher must fail
    // over per chunk like the demand path, land everything off the
    // surviving replicas, and account nothing twice.
    let (fabric, store, blob, v, image) = setup_prefetch(2);
    let follower = NodeId(1);
    let mut backend = MirrorBackend::open(
        BlobClient::new(Arc::clone(&store), follower),
        blob,
        v,
        &Calibration::default(),
    )
    .unwrap();
    fabric.fail_node(NodeId(3));
    while backend.poke_prefetch() {}
    let stats = store.node_context(follower).prefetch_stats();
    let total_chunks = IMG / (64 << 10);
    assert_eq!(
        stats.prefetched_chunks, total_chunks,
        "every chunk must land via failover"
    );
    // The demand replay is served entirely from the cache — correct
    // bytes, no double fetch, exact accounting.
    let transfers = fabric.stats().transfer_count();
    let got = backend.read(0..IMG).unwrap();
    assert!(got.content_eq(&image));
    assert_eq!(fabric.stats().transfer_count(), transfers);
    let stats = store.node_context(follower).prefetch_stats();
    assert_eq!(stats.hits, total_chunks);
    assert_eq!(stats.prefetched_chunks, total_chunks, "no double count");
    assert_eq!(stats.wasted_chunks, 0);
}

#[test]
fn unreplicated_prefetch_skips_lost_chunks_and_demand_still_errors() {
    // Replication 1 and a dead provider: the prefetcher must skip that
    // provider's chunks (best-effort, no error, no phantom cache
    // entries), and the demand read must surface the same loss it would
    // have surfaced without prefetching — never wrong bytes.
    let (fabric, store, blob, v, _image) = setup_prefetch(1);
    let follower = NodeId(1);
    let mut backend = MirrorBackend::open(
        BlobClient::new(Arc::clone(&store), follower),
        blob,
        v,
        &Calibration::default(),
    )
    .unwrap();
    fabric.fail_node(NodeId(2));
    while backend.poke_prefetch() {}
    let stats = store.node_context(follower).prefetch_stats();
    let total_chunks = IMG / (64 << 10);
    assert!(
        stats.prefetched_chunks < total_chunks,
        "the dead provider's chunks cannot land"
    );
    assert!(stats.prefetched_chunks > 0, "the rest still lands");
    let result = backend.read(0..IMG);
    assert!(result.is_err(), "the loss must not be masked");
    // Recovery: the skipped chunks arrive on demand, byte-correct, and
    // the prefetcher never re-fetches what already landed.
    fabric.recover_node(NodeId(2));
    let got = backend.read(0..IMG).unwrap();
    assert!(got.content_eq(&Payload::synth(0xFE7C, 0, IMG)));
    let after = store.node_context(follower).prefetch_stats();
    assert_eq!(
        after.prefetched_chunks, stats.prefetched_chunks,
        "demand recovery must not be billed as prefetch"
    );
}

#[test]
fn prefetched_cache_serves_reads_through_total_provider_loss() {
    // Once the read-ahead landed, the node-shared cache is local state:
    // even losing every provider holding a chunk cannot un-serve it —
    // the same availability a mirror's local store gives demand reads.
    let (fabric, store, blob, v, image) = setup_prefetch(2);
    let follower = NodeId(1);
    let mut backend = MirrorBackend::open(
        BlobClient::new(Arc::clone(&store), follower),
        blob,
        v,
        &Calibration::default(),
    )
    .unwrap();
    while backend.poke_prefetch() {}
    for victim in [2u32, 3, 4, 5] {
        fabric.fail_node(NodeId(victim));
    }
    let got = backend.read(0..IMG).unwrap();
    assert!(got.content_eq(&image));
}

#[test]
fn commit_fails_cleanly_when_target_provider_down() {
    let (fabric, client, blob, v) = setup(1);
    let mut backend = MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap();
    backend.write(0, Payload::from(vec![1u8; 100])).unwrap();
    // Kill a provider; round-robin allocation will hit it for some chunk
    // of a large enough commit.
    fabric.fail_node(NodeId(4));
    backend
        .write(1 << 20, Payload::synth(5, 0, 512 << 10))
        .unwrap();
    let res = backend.snapshot();
    assert!(res.is_err(), "commit must surface the failure");
    // The base version is still fully consistent for re-deployments.
    fabric.recover_node(NodeId(4));
    let got = backend.read(0..100).unwrap();
    assert!(
        got.content_eq(&Payload::from(vec![1u8; 100])),
        "local state intact"
    );
}

/// A replicated deployment with dedup + the cluster index forced on and
/// a fleet of snapshot lineages to collect (tests must not depend on
/// the `BFF_*` environment defaults).
fn setup_gc() -> (
    Arc<LocalFabric>,
    BlobClient,
    BlobId,
    Version,
    Vec<(BlobId, Version)>,
) {
    let fabric = LocalFabric::new(7);
    let compute: Vec<NodeId> = (0..6).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(6));
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        replication: 2,
        dedup: true,
        cluster_dedup: true,
        ..Default::default()
    };
    let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
    let client = BlobClient::new(store, NodeId(0));
    let (blob, v) = client.upload(Payload::synth(0x6C01, 0, IMG)).unwrap();
    // Eight divergent lineages, each with two private snapshots.
    let mut snaps = Vec::new();
    for vm in 0..8u64 {
        let clone = client.clone_blob(blob, v).unwrap();
        let v2 = client
            .write_chunks(
                clone,
                Version(1),
                vec![(vm, Payload::synth(0xD00 + vm, 0, 64 << 10))],
            )
            .unwrap();
        let v3 = client
            .write_chunks(
                clone,
                v2,
                vec![(vm, Payload::synth(0xE00 + vm, 0, 64 << 10))],
            )
            .unwrap();
        snaps.push((clone, v2));
        snaps.push((clone, v3));
    }
    (fabric, client, blob, v, snaps)
}

#[test]
fn gc_release_storm_survives_provider_loss() {
    // A provider dies in the middle of a snapshot-delete storm: the
    // storm must keep going (down replicas are skipped, their refs die
    // with the node), survivors must stay byte-identical, counters must
    // never underflow, and rewriting reclaimed content must still
    // round-trip.
    let (fabric, client, blob, v, snaps) = setup_gc();
    let image = Payload::synth(0x6C01, 0, IMG);
    let stored_before = client.store().total_stored_bytes();
    // First half of the storm with all providers up.
    for &(b, ver) in &snaps[..8] {
        let report = client.delete_snapshot(b, ver).expect("pre-loss delete");
        assert_eq!(report.released_refs, 2 * report.dead_leaves);
    }
    // Fail-stop one provider mid-storm; the batch of releases aimed at
    // it is skipped whole — its store is not touched, no reference is
    // released twice elsewhere to make up for it — and everything else
    // proceeds.
    fabric.fail_node(NodeId(3));
    let lost_load = client.store().provider_loads()[3];
    let mut skipped = 0;
    for &(b, ver) in &snaps[8..] {
        let report = client.delete_snapshot(b, ver).expect("mid-loss delete");
        assert!(report.dead_leaves > 0);
        assert!(report.released_refs <= 2 * report.dead_leaves);
        assert!(report.released_refs >= report.dead_leaves);
        skipped += 2 * report.dead_leaves - report.released_refs;
    }
    assert!(skipped > 0, "some replicas sat on the lost provider");
    assert_eq!(client.store().provider_loads()[3], lost_load);
    assert!(
        client.store().total_stored_bytes() < stored_before,
        "the storm reclaimed storage despite the loss"
    );
    // The base image survives the storm and the loss (replication 2).
    let got = client.read(blob, v, 0..IMG).unwrap();
    assert!(got.content_eq(&image));
    // Deleted snapshots are gone, not half-alive.
    for &(b, ver) in &snaps {
        assert!(client.read(b, ver, 0..IMG).is_err(), "{b:?}/{ver:?}");
    }
    // Rewriting content identical to reclaimed chunks self-heals any
    // stale index entry (including ones pointing at the dead node).
    let clone = client.clone_blob(blob, v).unwrap();
    let rewrite = Payload::synth(0xD00, 0, 64 << 10);
    let vr = client
        .write_chunks(clone, Version(1), vec![(0, rewrite.clone())])
        .unwrap();
    let got = client.read(clone, vr, 0..(64 << 10)).unwrap();
    assert!(got.content_eq(&rewrite));
    // Double-delete storms on the recovered node never underflow.
    fabric.recover_node(NodeId(3));
    let report = client.delete_snapshot(clone, vr).unwrap();
    assert!(report.released_refs > 0);
    let got = client.read(blob, v, 0..IMG).unwrap();
    assert!(got.content_eq(&image), "base intact after every storm");
}

/// Eight chunk indices spread over the 32-chunk image: a commit (or a
/// collection) of them touches nodes on every metadata shard.
fn spread_updates(seed: u64) -> Vec<(u64, Payload)> {
    (0..8)
        .map(|i| (4 * i, Payload::synth(seed + i, 0, 64 << 10)))
        .collect()
}

#[test]
fn failed_commit_plants_no_tree_nodes_and_the_node_boots_on() {
    // The tree-node cache is shared by every handle on the node, so a
    // commit that dies at a metadata shard must leave it exactly as it
    // was: no node no shard holds, nothing useful evicted.
    let (fabric, client, blob, v1) = setup(1);
    let ctx = client.store().node_context(NodeId(0));
    let known = ctx.tree_node_entries();
    assert!(known > 0, "the uploader's node knows the tree it stored");

    fabric.fail_node(NodeId(3)); // a metadata shard (and a provider)
    let failed = client.write_chunks(blob, v1, spread_updates(0xC0));
    assert!(failed.is_err(), "the commit must surface the lost shard");
    assert_eq!(
        ctx.tree_node_entries(),
        known,
        "a failed commit is invisible"
    );

    // The shard comes back, the commit is retried, and the new version
    // boots on the same node through a fresh handle.
    fabric.recover_node(NodeId(3));
    let v2 = client.write_chunks(blob, v1, spread_updates(0xC0)).unwrap();
    assert!(
        ctx.tree_node_entries() > known,
        "acknowledged nodes are shared"
    );
    let mut want = Payload::synth(0xFA11, 0, IMG);
    for (i, data) in spread_updates(0xC0) {
        want = want.overwrite(i * (64 << 10), data);
    }
    let fresh = BlobClient::new(Arc::clone(client.store()), NodeId(0));
    let mut boot = MirrorBackend::open(fresh, blob, v2, &Calibration::default()).unwrap();
    assert!(boot.read(0..IMG).unwrap().content_eq(&want));
    // The same boot from a node that has seen nothing.
    let cold = BlobClient::new(Arc::clone(client.store()), NodeId(5));
    let mut boot = MirrorBackend::open(cold, blob, v2, &Calibration::default()).unwrap();
    assert!(boot.read(0..IMG).unwrap().content_eq(&want));
    // And the base is what it was.
    let got = client.read(blob, v1, 0..IMG).unwrap();
    assert!(got.content_eq(&Payload::synth(0xFA11, 0, IMG)));
}

#[test]
fn failed_collection_still_ends_the_version_for_every_handle() {
    // The version manager marks the versions dead first; the collection
    // that follows can fail (here: a metadata shard is down, and the
    // collector's node has never seen the trees). The mark stands, so no
    // handle may keep resolving the version from what its node cached.
    let (fabric, client, blob, v1) = setup(1);
    let v2 = client.write_chunks(blob, v1, spread_updates(0xD0)).unwrap();
    let reader = BlobClient::new(Arc::clone(client.store()), NodeId(1));
    reader.read(blob, v2, 0..IMG).unwrap();

    fabric.fail_node(NodeId(3));
    let collector = BlobClient::new(Arc::clone(client.store()), NodeId(2));
    assert!(
        collector.delete_snapshot(blob, v2).is_err(),
        "the descent needs the lost shard"
    );
    fabric.recover_node(NodeId(3));
    for handle in [&client, &reader, &collector] {
        assert_eq!(
            handle.read(blob, v2, 0..IMG).unwrap_err(),
            BlobError::NoSuchVersion(blob, v2)
        );
    }
    let got = reader.read(blob, v1, 0..IMG).unwrap();
    assert!(got.content_eq(&Payload::synth(0xFA11, 0, IMG)));
}

// ---------------------------------------------------------------------
// Faults between the steps of one commit, injected where a client
// process meets the server roles: the transport.
// ---------------------------------------------------------------------

/// A client process's view of the server roles that can lose one
/// provider: once `lose_after_retain` names a node, the reply to that
/// node's next `Retain` is the last thing it ever says. Also keeps every
/// `Retain` verdict it carried.
struct LossyTransport {
    inner: CodecTransport,
    lose_after_retain: Mutex<Option<NodeId>>,
    lost: Mutex<Option<NodeId>>,
    verdicts: Mutex<Vec<RetainOutcome>>,
}

impl Transport for LossyTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        if let RouteKey::Provider(node) = route {
            if *self.lost.lock().unwrap() == Some(node) {
                return Err(WireError::Closed);
            }
        }
        let reply = self.inner.call(route, frame)?;
        if let Ok(Req::Provider {
            node,
            req: ProviderReq::Retain(_),
        }) = bff::wire::decode::<Req>(frame)
        {
            if let Ok(Resp::Provider(ProviderResp::Retained(outcomes))) =
                bff::wire::decode::<Resp>(&reply)
            {
                self.verdicts.lock().unwrap().extend(outcomes);
            }
            let mut armed = self.lose_after_retain.lock().unwrap();
            if *armed == Some(node) {
                *self.lost.lock().unwrap() = armed.take();
            }
        }
        Ok(reply)
    }
}

/// The deployment the client processes below attach to.
fn process_deployment(cluster_dedup: bool) -> (BlobConfig, BlobTopology) {
    let compute: Vec<NodeId> = (0..6).map(NodeId).collect();
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        replication: 2,
        dedup: true,
        cluster_dedup,
        ..Default::default()
    };
    (cfg, BlobTopology::colocated(&compute, NodeId(6)))
}

/// A client process attached to `state`: its own [`LossyTransport`], its
/// own node contexts.
fn attach_process(
    state: &Arc<ServerState>,
    cluster_dedup: bool,
) -> (Arc<LossyTransport>, Arc<BlobStore>) {
    let (cfg, topo) = process_deployment(cluster_dedup);
    let served = Arc::clone(state);
    let transport = Arc::new(LossyTransport {
        inner: CodecTransport::new(Arc::new(move |route, frame| {
            served.handle_frame(route, frame)
        })),
        lose_after_retain: Mutex::new(None),
        lost: Mutex::new(None),
        verdicts: Mutex::new(Vec::new()),
    });
    let store = BlobStore::remote(
        cfg,
        topo,
        LocalFabric::new(7) as Arc<dyn Fabric>,
        Arc::clone(&transport) as Arc<dyn Transport>,
    );
    (transport, store)
}

fn serve_processes(cluster_dedup: bool) -> Arc<ServerState> {
    let (cfg, topo) = process_deployment(cluster_dedup);
    Arc::new(ServerState::new(&cfg, &topo, Placement::RoundRobin))
}

#[test]
fn provider_lost_between_retain_and_publish_rolls_back_on_the_survivors() {
    // A commit dedups onto a chunk with two replicas; one of the two
    // providers answers the `Retain` and is never heard from again; the
    // publish then fails (a stale base). The rollback is one batch per
    // provider in one step: the lost provider's batch fails, which must
    // cost the surviving one nothing.
    const CS: u64 = 64 << 10;
    let state = serve_processes(false);
    let (transport, store) = attach_process(&state, false);
    let client = BlobClient::new(store, NodeId(0));
    let (a, va) = client.upload(Payload::synth(0x10E, 0, 4 * CS)).unwrap(); // ids 1..=4
    let x = Payload::synth(0x10F, 0, CS);
    let va2 = client.write_chunks(a, va, vec![(0, x.clone())]).unwrap(); // id 5
    let shared = ChunkId(5);
    let refs = |node: NodeId| state.providers().refcount(node, shared);
    let holders: Vec<NodeId> = (0..6).map(NodeId).filter(|&n| refs(n).is_some()).collect();
    let (lost, survivor) = (holders[0], holders[1]);
    assert_eq!(
        (holders.len(), refs(lost), refs(survivor)),
        (2, Some(1), Some(1))
    );
    let stored = state.providers().total_stored_bytes();

    *transport.lose_after_retain.lock().unwrap() = Some(lost);
    let fresh = Payload::synth(0x110, 0, CS);
    let updates = vec![(1, x.clone()), (2, fresh.clone())];
    let err = client.write_chunks(a, va, updates.clone()).unwrap_err();
    assert!(matches!(err, BlobError::Conflict { .. }), "{err:?}");
    assert_eq!(
        *transport.lost.lock().unwrap(),
        Some(lost),
        "the fault fired"
    );
    assert_eq!(refs(survivor), Some(1), "the survivor's count is exact");
    assert_eq!(
        refs(lost),
        Some(2),
        "the reference the lost provider took is the bounded leak"
    );
    assert_eq!(
        state.providers().total_stored_bytes(),
        stored,
        "the fresh chunk the failed commit pushed is gone again"
    );

    // Retried from the right base, provider still lost: the reuse counts
    // on the survivor only, the fresh chunk lands where it can.
    let vb = client.write_chunks(a, va2, updates).unwrap();
    assert_eq!((refs(survivor), refs(lost)), (Some(2), Some(2)));
    let reader = BlobClient::new(Arc::clone(client.store()), NodeId(survivor.0));
    let got = reader.read(a, vb, 0..3 * CS).unwrap();
    assert!(got.content_eq(&x.clone().concat(x).concat(fresh)));
}

#[test]
fn a_chunk_collected_between_the_index_hit_and_the_retain_reads_gone_and_is_pushed_fresh() {
    // Two client processes on one cluster. The first commits X and so
    // indexes it — on its node and in the cluster index. The second
    // deletes that snapshot, which frees X's chunk and tells the cluster
    // index; the first process's node index is never told. When it
    // commits X again its index hit is stale: the provider answers
    // `Gone`, both indexes forget the entry, the bytes are pushed fresh.
    const CS: u64 = 64 << 10;
    let state = serve_processes(true);
    let (transport, store) = attach_process(&state, true);
    let writer = BlobClient::new(store, NodeId(0));
    let collector = BlobClient::new(attach_process(&state, true).1, NodeId(1));
    let x = Payload::synth(0x60E, 0, CS);
    let a = writer.create_blob(4 * CS).unwrap();
    let va = writer
        .write_chunks(a, Version(0), vec![(0, x.clone())])
        .unwrap(); // id 1
    assert_eq!(state.cluster_index().read().len(), 1);
    let report = collector.delete_snapshot(a, va).unwrap();
    assert_eq!(report.freed_chunks, 2, "both replicas of X's chunk");
    assert_eq!(state.providers().total_stored_bytes(), 0);
    assert_eq!(state.cluster_index().read().len(), 0);
    assert_eq!(writer.context().digest_entries(), 1, "the stale entry");

    transport.verdicts.lock().unwrap().clear();
    let b = writer.create_blob(4 * CS).unwrap();
    let vb = writer
        .write_chunks(b, Version(0), vec![(3, x.clone())])
        .unwrap();
    assert_eq!(
        *transport.verdicts.lock().unwrap(),
        [RetainOutcome::Gone, RetainOutcome::Gone],
        "one verdict per replica of the stale descriptor"
    );
    assert_eq!(
        state.providers().total_stored_bytes(),
        2 * CS,
        "pushed fresh, both replicas"
    );
    let fresh_id = ChunkId(2);
    let held: Vec<u64> = (0..6)
        .filter_map(|n| state.providers().refcount(NodeId(n), fresh_id))
        .collect();
    assert_eq!(held, [1, 1], "a new chunk, one reference per replica");
    // Both indexes now name the new chunk: the next commit of X, from
    // either process, is by reference again.
    let again = collector.create_blob(4 * CS).unwrap();
    collector
        .write_chunks(again, Version(0), vec![(1, x.clone())])
        .unwrap();
    assert_eq!(state.providers().total_stored_bytes(), 2 * CS);
    let got = collector.read(b, vb, 3 * CS..4 * CS).unwrap();
    assert!(got.content_eq(&x));
}

// ---------------------------------------------------------------------
// Malformed replies: a reply of the wrong arity is its destination
// failing, a chunk of the wrong length is its replica failing.
// ---------------------------------------------------------------------

/// A provider's answer to `Fetch`: per id, the chunk and whether its
/// read cache held it.
type Fetched = Vec<Option<(Payload, bool)>>;

/// What a garbling transport does to a provider's `Fetched` reply.
type Spoil = fn(&mut Fetched);

/// A client process's transport that hands back malformed replies: every
/// `Fetched` reply of one provider goes through `spoil`, and the next
/// `Nodes` reply of any metadata shard loses its last entry.
struct GarblingTransport {
    inner: CodecTransport,
    fetched: Option<(NodeId, Spoil)>,
    nodes_once: Mutex<bool>,
}

impl Transport for GarblingTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let reply = self.inner.call(route, frame)?;
        let garbled = match (bff::wire::decode::<Resp>(&reply), self.fetched) {
            (Ok(Resp::Provider(ProviderResp::Fetched(mut chunks))), Some((node, spoil)))
                if route == RouteKey::Provider(node) =>
            {
                spoil(&mut chunks);
                Resp::Provider(ProviderResp::Fetched(chunks))
            }
            (Ok(Resp::Meta(MetaResp::Nodes(Ok(mut nodes)))), _)
                if std::mem::take(&mut *self.nodes_once.lock().unwrap()) =>
            {
                nodes.pop();
                Resp::Meta(MetaResp::Nodes(Ok(nodes)))
            }
            _ => return Ok(reply),
        };
        Ok(bff::wire::encode(&garbled))
    }
}

/// A cluster holding the test image at `replication`, and a reader on
/// node 5 — a process of its own, cold caches — behind a garbling
/// transport.
fn garbled_reader(
    replication: usize,
    fetched: Option<(NodeId, Spoil)>,
    nodes_once: bool,
) -> (BlobClient, BlobId, Version) {
    let compute: Vec<NodeId> = (0..6).map(NodeId).collect();
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        replication,
        ..Default::default()
    };
    let topo = BlobTopology::colocated(&compute, NodeId(6));
    let state = Arc::new(ServerState::new(&cfg, &topo, Placement::RoundRobin));
    let process = |transport: Arc<dyn Transport>| {
        BlobStore::remote(cfg, topo.clone(), LocalFabric::new(7), transport)
    };
    let served = Arc::clone(&state);
    let codec = move || {
        let served = Arc::clone(&served);
        CodecTransport::new(Arc::new(move |route, frame| {
            served.handle_frame(route, frame)
        }))
    };
    let writer = BlobClient::new(process(Arc::new(codec())), NodeId(0));
    let (blob, v) = writer.upload(Payload::synth(0xFA11, 0, IMG)).unwrap();
    let garbling = GarblingTransport {
        inner: codec(),
        fetched,
        nodes_once: Mutex::new(nodes_once),
    };
    let reader = BlobClient::new(process(Arc::new(garbling)), NodeId(5));
    (reader, blob, v)
}

#[test]
fn a_short_reply_or_chunk_fails_that_replica_never_reads_zeros() {
    let image = Payload::synth(0xFA11, 0, IMG);
    let short_reply: Spoil = |chunks| drop(chunks.pop());
    let short_chunk: Spoil = |chunks| {
        if let Some(Some((data, _))) = chunks.first_mut() {
            *data = data.slice(0, data.len() - 1);
        }
    };
    for (what, spoil) in [
        ("a short reply", short_reply),
        ("a short chunk", short_chunk),
    ] {
        // A second replica serves what the garbling provider spoils.
        let (reader, blob, v) = garbled_reader(2, Some((NodeId(2), spoil)), false);
        let got = reader.read(blob, v, 0..IMG).unwrap();
        assert!(got.content_eq(&image), "{what}: byte-identical");
        // With no second replica, the spoiled chunks are unavailable.
        let (reader, blob, v) = garbled_reader(1, Some((NodeId(2), spoil)), false);
        let err = reader.read(blob, v, 0..IMG).unwrap_err();
        assert!(
            matches!(err, BlobError::ChunkUnavailable(_)),
            "{what}: {err:?}"
        );
    }
}

#[test]
fn a_short_nodes_reply_is_a_typed_error_and_poisons_nothing() {
    let image = Payload::synth(0xFA11, 0, IMG);
    for replication in [1, 2] {
        let (reader, blob, v) = garbled_reader(replication, None, true);
        assert_eq!(
            reader.read(blob, v, 0..IMG).unwrap_err(),
            BlobError::Net(bff::net::NetError::Wire(WireError::BadFrame)),
            "replication {replication}"
        );
        // Nothing of the spoiled level was cached: the retry descends
        // again and reads the image.
        let got = reader.read(blob, v, 0..IMG).unwrap();
        assert!(got.content_eq(&image), "replication {replication}");
    }
}

/// A request's fields come from outside the process: a frame the state
/// machines cannot serve is answered with `BadInput`, never a panic.
fn serve_decoded(frame: &[u8], want: Req) -> Resp {
    let req: Req = bff::wire::decode(frame).expect("a well-formed frame");
    assert_eq!(req, want);
    serve_processes(false).dispatch(req).expect("served")
}

#[test]
fn a_blob_with_more_chunks_than_a_tree_spans_is_bad_input() {
    let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let frame = [&[0, 0][..], &max, &[1]].concat();
    let create = VmReq::CreateBlob {
        size: u64::MAX,
        chunk_size: 1,
    };
    let why = "blob size has more chunks than a metadata tree can span";
    assert_eq!(
        serve_decoded(&frame, Req::Vm(create)),
        Resp::Vm(VmResp::Created(Err(BlobError::BadInput(why))))
    );
}

#[test]
fn an_allocation_no_reply_frame_could_carry_is_bad_input() {
    let frame = [
        1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 1, 0,
    ];
    let allocate = PmReq::Allocate {
        n: usize::MAX / 2,
        chunk_bytes: 0,
        replication: 1,
        down: vec![],
    };
    let why = "allocation larger than one reply frame";
    assert_eq!(
        serve_decoded(&frame, Req::Pm(allocate)),
        Resp::Pm(PmResp::Allocated(Err(BlobError::BadInput(why))))
    );
}
