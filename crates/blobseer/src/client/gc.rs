//! Snapshot deletion and chunk garbage collection: mark at the version
//! manager, one joint pruned descent for the dead leaves, one
//! `ReleaseCounted` step over their providers, one eviction round.

use super::step::{self, Step};
use super::Client;
use crate::api::{BlobId, BlobResult, ChunkId, Version};
use crate::segtree;
use bff_data::FastSet;
use bff_wire::msg::{ProviderReq, Req};

/// What a snapshot delete reclaimed (see [`Client::delete_snapshots`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Versions marked dead at the version manager.
    pub deleted_versions: usize,
    /// Metadata leaf nodes reachable only from the deleted versions.
    pub dead_leaves: u64,
    /// Provider-side chunk references released (one per dead leaf per
    /// reachable acked replica).
    pub released_refs: u64,
    /// Chunk *replica instances* whose refcount reached zero and were
    /// removed from their provider.
    pub freed_chunks: u64,
    /// Provider storage bytes those removals reclaimed (replicas
    /// counted separately, matching `total_stored_bytes`).
    pub freed_bytes: u64,
}

impl Client {
    /// Delete one snapshot and reclaim the chunk storage nothing else
    /// references (see [`Client::delete_snapshots`]).
    pub fn delete_snapshot(&self, blob: BlobId, version: Version) -> BlobResult<GcReport> {
        self.delete_snapshots(blob, std::slice::from_ref(&version))
    }

    /// Delete a batch of snapshots of `blob` and garbage-collect the
    /// chunk storage that only they referenced.
    ///
    /// The version manager marks the versions dead (one control RPC,
    /// all-or-nothing) and hands back every live root of the blob's
    /// *clone family*, each once — the only trees that can share
    /// metadata nodes with the deleted ones. The collector descends the
    /// dead and the live trees together, one metadata round per level,
    /// abandoning every subtree a live tree shares
    /// ([`segtree::collect_dead_leaves`]): it reads the paths on which
    /// the deleted versions differ from their family, not the family's
    /// trees. A leaf only dead roots reach holds exactly one
    /// provider-side reference per acked replica in its descriptor — the
    /// write path's refcount invariant — so releasing those references
    /// (one batched RPC per provider, down providers skipped) frees
    /// precisely the chunks no surviving snapshot can reach, and never a
    /// shared one. Zero-ref chunks are removed by the providers with the
    /// aggregate storage counters maintained exactly.
    ///
    /// Freed chunks are evicted from the cluster dedup index, every
    /// node's digest index and chunk cache, and the deleted versions'
    /// facts, access trackers and board patterns are dropped (one
    /// control RPC to the index host plus a gossip round charge; the
    /// eviction is a cache/index hygiene matter — a stale entry that
    /// survives, e.g. across a partition, self-heals at its next
    /// validated use).
    ///
    /// Errors after the marking RPC leave the versions deleted with
    /// their references unreleased — a bounded leak, never a wrong
    /// free. The mark is journaled on a durable deployment, so a crash
    /// at that point recovers to the same state: re-deleting is not
    /// possible (the versions no longer resolve), and nothing records
    /// which releases were still owed.
    pub fn delete_snapshots(&self, blob: BlobId, versions: &[Version]) -> BlobResult<GcReport> {
        if versions.is_empty() {
            return Ok(GcReport::default());
        }
        // 1. Serialize the delete at the version manager and snapshot
        //    the family's live-root frontier under the same lock.
        let outcome = self.store.vm_delete_snapshots(self.node, blob, versions)?;
        // The versions are dead from here on, whatever happens below:
        // no handle of this store may resolve them from a cache again.
        let keys: Vec<(BlobId, Version)> = versions.iter().map(|&v| (blob, v)).collect();
        self.store.purge_versions(&keys);

        // 2. Reachability diff by leaf node key: dead = reachable from a
        //    deleted root and from no live one.
        let dead = segtree::collect_dead_leaves(
            &mut self.node_io(),
            &outcome.dead_roots,
            &outcome.live_roots,
            outcome.span,
        )?;
        let mut report = GcReport {
            deleted_versions: versions.len(),
            dead_leaves: dead.len() as u64,
            ..GcReport::default()
        };

        // 3. Release the dead leaves' references on every acked replica,
        //    one batch per provider, all in one step. A down or
        //    unreachable provider is skipped with its whole batch — its
        //    copy is gone with it (or will resurface as an orphan a
        //    future stale-hit validation cleans up); the storm must not
        //    fail because one node died mid-release. A batch whose
        //    exchange fails reads as skipped too.
        let mut release = Step::new();
        for (_, desc) in &dead {
            for &prov in desc.replicas.iter() {
                release.add(prov, desc.id);
            }
        }
        let mut freed_ids: FastSet<ChunkId> = FastSet::default();
        release.run(
            self,
            |prov, ids| {
                Some(Req::Provider {
                    node: prov,
                    req: ProviderReq::ReleaseCounted(ids.clone()),
                })
            },
            step::released,
            |_, ids, reply| {
                let released = reply.and_then(Result::ok).unwrap_or_default();
                for (&id, (bytes, removed, dropped)) in ids.iter().zip(released) {
                    report.released_refs += dropped as u64;
                    if removed {
                        report.freed_chunks += 1;
                        report.freed_bytes += bytes;
                        freed_ids.insert(id);
                    }
                }
            },
        );

        // 4. Evict the freed entries cluster-wide: board patterns of
        //    the dead versions, digest/chunk-cache entries of the freed
        //    chunks, on the index host and every node replica. Charged
        //    as one control RPC plus a gossip round when the host is
        //    reachable; the eviction itself is applied regardless
        //    (replicas converge eventually — stale survivors self-heal
        //    at validation).
        self.store.purge_deleted(self.node, &keys, &freed_ids);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

    #[test]
    fn gc_reclaims_unique_chunks_and_preserves_survivors() {
        let (_f, a, _b) = setup_cluster(true);
        let image = Payload::synth(220, 0, 1024); // 8 chunks
        let (blob, v1) = a.upload(image.clone()).unwrap();
        let stored_v1 = a.store().total_stored_bytes();
        // v2 rewrites chunks 2 and 3 with fresh content.
        let v2 = a
            .write_chunks(
                blob,
                v1,
                vec![
                    (2, Payload::synth(221, 0, 128)),
                    (3, Payload::synth(222, 0, 128)),
                ],
            )
            .unwrap();
        assert_eq!(a.store().total_stored_bytes(), stored_v1 + 256);

        let report = a.delete_snapshot(blob, v2).unwrap();
        assert_eq!(report.deleted_versions, 1);
        assert_eq!(report.dead_leaves, 2, "only v2's shadowed leaves die");
        assert_eq!(report.freed_chunks, 2);
        assert_eq!(report.freed_bytes, 256);
        assert_eq!(
            a.store().total_stored_bytes(),
            stored_v1,
            "v2's unique bytes reclaimed exactly"
        );
        // The surviving snapshot is byte-identical; the deleted one is
        // gone for good.
        let got = a.read(blob, v1, 0..1024).unwrap();
        assert!(got.content_eq(&image));
        assert!(matches!(
            a.read(blob, v2, 0..1024),
            Err(BlobError::NoSuchVersion(_, _))
        ));
        assert!(matches!(
            a.delete_snapshot(blob, v2),
            Err(BlobError::NoSuchVersion(_, _))
        ));
        assert!(matches!(
            a.delete_snapshot(blob, Version(0)),
            Err(BlobError::BadInput(_))
        ));
    }

    #[test]
    fn gc_middle_of_chain_keeps_neighbors_byte_identical() {
        let (_f, a, _b) = setup_cluster(true);
        let (blob, v1) = a.upload(Payload::synth(230, 0, 512)).unwrap();
        let v2 = a
            .write_chunks(blob, v1, vec![(1, Payload::synth(231, 0, 128))])
            .unwrap();
        let v3 = a
            .write_chunks(blob, v2, vec![(1, Payload::synth(232, 0, 128))])
            .unwrap();
        let before_v1 = a.read(blob, v1, 0..512).unwrap();
        let before_v3 = a.read(blob, v3, 0..512).unwrap();
        let stored = a.store().total_stored_bytes();
        let report = a.delete_snapshot(blob, v2).unwrap();
        assert_eq!(report.freed_bytes, 128, "v2's private chunk only");
        assert_eq!(a.store().total_stored_bytes(), stored - 128);
        assert!(a.read(blob, v1, 0..512).unwrap().content_eq(&before_v1));
        assert!(a.read(blob, v3, 0..512).unwrap().content_eq(&before_v3));
    }

    #[test]
    fn gc_never_frees_chunks_shared_by_dedup_reference() {
        let (_f, a, b) = setup_cluster(true);
        let content = Payload::synth(240, 0, 128);
        let blob_a = a.create_blob(128).unwrap();
        let va = a
            .write_chunks(blob_a, Version(0), vec![(0, content.clone())])
            .unwrap();
        // Node 1 commits the same bytes by cluster reference (refcount 2).
        let blob_b = b.create_blob(128).unwrap();
        let vb = b
            .write_chunks(blob_b, Version(0), vec![(0, content.clone())])
            .unwrap();
        assert_eq!(refcounts(&a, 1), vec![2]);
        // Deleting one snapshot releases one reference; the bytes stay.
        let report = a.delete_snapshot(blob_a, va).unwrap();
        assert_eq!(report.released_refs, 1);
        assert_eq!(report.freed_chunks, 0, "the other lineage still refs it");
        assert_eq!(refcounts(&a, 1), vec![1]);
        assert!(b.read(blob_b, vb, 0..128).unwrap().content_eq(&content));
        // Deleting the second snapshot frees the chunk for real.
        let report = b.delete_snapshot(blob_b, vb).unwrap();
        assert_eq!((report.freed_chunks, report.freed_bytes), (1, 128));
        assert_eq!(refcounts(&a, 1), Vec::<u64>::new());
    }

    #[test]
    fn gc_respects_clone_aliases_across_blobs() {
        let (_f, a, _b) = setup_cluster(true);
        let image = Payload::synth(250, 0, 512);
        let (blob, v1) = a.upload(image.clone()).unwrap();
        let clone = a.clone_blob(blob, v1).unwrap();
        let stored = a.store().total_stored_bytes();
        // The clone's Version(1) *is* the source tree: deleting the
        // source version must free nothing while the alias lives.
        let report = a.delete_snapshot(blob, v1).unwrap();
        assert_eq!(report.dead_leaves, 0, "alias root keeps every leaf live");
        assert_eq!(a.store().total_stored_bytes(), stored);
        let got = a.read(clone, Version(1), 0..512).unwrap();
        assert!(got.content_eq(&image));
        // Once the alias goes too, the tree is unreachable and frees.
        let report = a.delete_snapshot(clone, Version(1)).unwrap();
        assert_eq!(report.freed_bytes, 512);
        assert_eq!(a.store().total_stored_bytes(), 0);
    }

    #[test]
    fn gc_delete_then_rewrite_identical_content_roundtrips() {
        // The delete→rewrite path: indexes may still carry entries for
        // reclaimed chunks; validation must catch them (retain fails),
        // push fresh bytes, and read back the identical content.
        for strong in [false, true] {
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: true,
                cluster_dedup: true,
                strong_digest: strong,
                ..Default::default()
            };
            let (_, store) = deploy(4, cfg);
            let a = Client::new(Arc::clone(&store), NodeId(0));
            let b = Client::new(store, NodeId(1));
            let content = Payload::synth(260, 0, 128);
            let blob = a.create_blob(128).unwrap();
            let v = a
                .write_chunks(blob, Version(0), vec![(0, content.clone())])
                .unwrap();
            a.delete_snapshot(blob, v).unwrap();
            assert_eq!(a.store().total_stored_bytes(), 0);
            // Rewrite the same bytes from the *other* node (its caches
            // never saw the delete's origin): must store fresh and read
            // back byte-identical.
            let blob2 = b.create_blob(128).unwrap();
            let v2 = b
                .write_chunks(blob2, Version(0), vec![(0, content.clone())])
                .unwrap();
            assert_eq!(
                b.store().total_stored_bytes(),
                128,
                "strong={strong}: rewrite stores fresh bytes"
            );
            let got = b.read(blob2, v2, 0..128).unwrap();
            assert!(got.content_eq(&content), "strong={strong}");
        }
    }

    #[test]
    fn gc_evicts_freed_chunks_from_indexes_and_caches() {
        let (_f, a, b) = setup_cluster(true);
        let content = Payload::synth(270, 0, 128);
        let blob = a.create_blob(128).unwrap();
        let v = a
            .write_chunks(blob, Version(0), vec![(0, content.clone())])
            .unwrap();
        assert_eq!(a.store().cluster_index().read().len(), 1);
        assert!(a.context().digest_entries() > 0);
        let report = a.delete_snapshot(blob, v).unwrap();
        assert_eq!(report.freed_chunks, 1);
        assert_eq!(
            a.store().cluster_index().read().len(),
            0,
            "freed chunk evicted from the cluster index"
        );
        assert_eq!(
            a.context().digest_entries(),
            0,
            "freed chunk evicted from the node digest index"
        );
        let _ = b;
    }

    /// A delete through one handle ends the version for *every* handle
    /// of the store: what a node knows about a version lives in its
    /// context, and the delete purges every context the moment the
    /// version manager has marked the version dead. (The per-handle
    /// cache this replaced kept answering from the other handle's copy:
    /// `ChunkUnavailable` once the chunks were freed, or a successful
    /// read of a deleted snapshot when dedup kept them alive.)
    #[test]
    fn a_delete_ends_the_version_for_every_handle_of_the_store() {
        use crate::api::TransportMode::*;
        for transport in [Direct, Codec, Socket] {
            let fabric = LocalFabric::new(5);
            let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: true,
                transport,
                ..Default::default()
            };
            let store = BlobStore::new(
                cfg,
                BlobTopology::colocated(&compute, NodeId(4)),
                fabric as Arc<dyn Fabric>,
            );
            let deleter = Client::new(Arc::clone(&store), NodeId(0));
            let neighbour = Client::new(Arc::clone(&store), NodeId(0));
            let remote = Client::new(Arc::clone(&store), NodeId(1));
            let image = Payload::synth(60, 0, 1024);
            let (blob, v1) = deleter.upload(image.clone()).unwrap();
            // v2: one chunk of its own, one that dedup shares with v1.
            let updates = vec![(1, Payload::synth(61, 0, 128)), (2, image.slice(0, 128))];
            let v2 = deleter.write_chunks(blob, v1, updates).unwrap();
            // Every handle has resolved v2 before it dies.
            for handle in [&deleter, &neighbour, &remote] {
                handle.read(blob, v2, 0..1024).unwrap();
            }
            deleter.delete_snapshot(blob, v2).unwrap();
            for (who, handle) in [
                ("the deleter", &deleter),
                ("a co-located handle", &neighbour),
                ("a handle on another node", &remote),
            ] {
                for range in [0..1024, 256..384] {
                    assert_eq!(
                        handle.read(blob, v2, range).unwrap_err(),
                        BlobError::NoSuchVersion(blob, v2),
                        "{who} under {transport:?}"
                    );
                }
                assert_eq!(
                    handle.snapshot_size(blob, v2).unwrap_err(),
                    BlobError::NoSuchVersion(blob, v2),
                    "{who} under {transport:?}"
                );
                assert!(handle.read(blob, v1, 0..1024).unwrap().content_eq(&image));
            }
        }
    }

    /// The interleaving a racing read can produce, step by step: a
    /// reader misses the node's facts and gets the version manager's
    /// answer, the version is deleted (mark, purge, collection, purge),
    /// and only then does the reader file the answer. The late answer is
    /// dropped: every handle of the node keeps getting `NoSuchVersion`.
    #[test]
    fn an_answer_older_than_the_delete_is_not_filed() {
        let (_f, a, b) = setup_cluster(true);
        let image = Payload::synth(70, 0, 1024);
        let (blob, v1) = b.upload(image.clone()).unwrap();
        let v2 = b
            .write_chunks(blob, v1, vec![(1, Payload::synth(71, 0, 128))])
            .unwrap();
        let seen = a.ctx.version_facts((blob, v2)).unwrap_err();
        let answer = a.store.vm_version_meta(a.node, blob, v2).unwrap();
        b.delete_snapshot(blob, v2).unwrap();
        a.ctx.record_version_facts((blob, v2), answer, seen);
        let fresh = Client::new(Arc::clone(a.store()), NodeId(0));
        for handle in [&a, &fresh] {
            assert_eq!(
                handle.read(blob, v2, 0..1024).unwrap_err(),
                BlobError::NoSuchVersion(blob, v2)
            );
            assert!(handle.read(blob, v1, 0..1024).unwrap().content_eq(&image));
        }
    }
}
