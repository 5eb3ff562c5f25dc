//! The write path: a COMMIT is a short sequence of steps —
//!
//! 1. **plan** the update set by content (`plan_commit`);
//! 2. **probe** the dedup indexes and have the providers verify and
//!    retain every hit, one `Retain` batch per provider (`dedup_probe`);
//! 3. **allocate and push** what no verified reference covers
//!    (`store_fresh`, then the replication pipeline);
//! 4. **retain** once more per extra intra-commit use, one batch per
//!    provider (`retain_extra_uses`);
//! 5. **shadow** the metadata tree (one `WriteNodes` step per level of
//!    new nodes) and **publish** at the version manager;
//! 6. **record** the content for future reuse. The new snapshot needs
//!    no cache seeding: step 5 cached every node it stored, so a read
//!    from this node walks the new tree without a metadata round.
//!
//! Every provider-side reference a step takes is recorded on the
//! [`Commit`], so a commit that fails anywhere releases all of them in
//! one `ReleaseCounted` step (`release_retained`); releases never
//! underflow.
//!
//! # Content-addressed write dedup
//!
//! When [`crate::BlobConfig::dedup`] is on, identical payloads *within*
//! the commit collapse to one stored chunk, and payloads whose `(length,
//! digest)` already map to live replicas in the node's
//! [`crate::NodeContext`] digest index (or, on a miss, the cluster
//! index) are committed **by reference** — the published leaf reuses
//! the existing descriptor and bumps a provider-side refcount instead of
//! re-replicating the bytes — once the provider has found its *stored*
//! chunk to have that length and digest. Snapshot storage therefore
//! grows with dirty *unique* bytes, not dirty bytes (the write-side half
//! of §3.1.3's dedup claim).

use super::step::{self, Step};
use super::{Client, VersionMeta};
use crate::api::{BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, Version};
use crate::segtree;
use bff_data::{chunk_cover, chunk_range, intersect, ContentKey, FastMap, FastSet, Payload};
use bff_net::NodeId;
use bff_wire::msg::{ProviderReq, Req, RetainOutcome};

/// One distinct payload content within a commit's update set.
#[derive(Debug)]
struct UniqueChunk {
    /// Content key, `None` when dedup is off (no digest computed).
    key: Option<ContentKey>,
    /// First update slot carrying this content (its payload is pushed).
    first_slot: usize,
    /// How many update slots carry this content.
    uses: u64,
    /// Validated digest-index hit: commit by reference to this
    /// descriptor instead of pushing.
    reused: Option<ChunkDesc>,
}

/// A commit in flight: the update set planned by content, and every
/// provider-side reference taken for it so far — what a failed commit
/// rolls back.
struct Commit<'a> {
    updates: &'a [(u64, Payload)],
    /// One entry per distinct payload, in first-appearance order.
    uniques: Vec<UniqueChunk>,
    /// Update slot → its unique.
    slot_of: Vec<usize>,
    retained: Vec<(NodeId, ChunkId)>,
}

impl Client {
    /// Write `data` at `offset` on top of `(blob, base)` and publish the
    /// result as the next snapshot. Partially covered chunks are
    /// read-modify-written against the base version.
    pub fn write(
        &self,
        blob: BlobId,
        base: Version,
        offset: u64,
        data: Payload,
    ) -> BlobResult<Version> {
        let meta = self.version_meta(blob, base)?;
        let len = data.len();
        if offset + len > meta.size {
            return Err(BlobError::OutOfBounds {
                offset,
                len,
                size: meta.size,
            });
        }
        if len == 0 {
            return Err(BlobError::BadInput("empty write"));
        }
        let range = offset..offset + len;
        let cover = chunk_cover(&range, meta.chunk_size);
        let mut updates: Vec<(u64, Payload)> =
            Vec::with_capacity((cover.end - cover.start) as usize);
        for idx in cover {
            let cr = chunk_range(idx, meta.chunk_size, meta.size);
            let part = intersect(&cr, &range);
            let piece = data.slice(part.start - offset, part.end - offset);
            let full = if part == cr {
                piece
            } else {
                // Read-modify-write against the base snapshot, splicing
                // the patch in place (no head/tail rope rebuild).
                let mut old = self.read(blob, base, cr.clone())?;
                old.overwrite_in_place(part.start - cr.start, piece);
                old
            };
            updates.push((idx, full));
        }
        self.write_chunks(blob, base, updates)
    }

    /// Publish a snapshot from whole-chunk updates (the COMMIT fast path:
    /// the mirroring module gap-fills chunks locally, so every modified
    /// chunk arrives complete). `updates` maps chunk index → full chunk
    /// payload; an index past the blob's end is out of bounds, and one
    /// listed twice is bad input.
    ///
    /// With [`crate::BlobConfig::dedup`] on, identical payloads within
    /// the commit collapse to one stored chunk and payloads already
    /// indexed by content in the node's [`crate::NodeContext`] are
    /// committed by reference (see the module docs). A failed publish
    /// releases every provider-side reference the commit took.
    pub fn write_chunks(
        &self,
        blob: BlobId,
        base: Version,
        updates: Vec<(u64, Payload)>,
    ) -> BlobResult<Version> {
        self.write_chunks_accounted(blob, base, updates)
            .map(|(v, _)| v)
    }

    /// [`Client::write_chunks`], additionally returning the payload
    /// bytes *this commit* published by reference (index reuse +
    /// intra-commit collapse). Callers attributing dedup savings to one
    /// image (e.g. the mirror's COMMIT stats) must use this rather than
    /// delta-reading the node-shared [`crate::NodeContext`] counters,
    /// which interleave across co-located committers.
    pub fn write_chunks_accounted(
        &self,
        blob: BlobId,
        base: Version,
        updates: Vec<(u64, Payload)>,
    ) -> BlobResult<(Version, u64)> {
        let meta = self.version_meta(blob, base)?;
        if updates.is_empty() {
            return Err(BlobError::BadInput("empty update set"));
        }
        let chunks = meta.size.div_ceil(meta.chunk_size);
        let mut indices = FastSet::default();
        for (idx, data) in &updates {
            if *idx >= chunks {
                return Err(BlobError::OutOfBounds {
                    offset: idx.saturating_mul(meta.chunk_size),
                    len: data.len(),
                    size: meta.size,
                });
            }
            // A snapshot has one leaf per index: a second payload for it
            // would be stored or retained, and never released.
            if !indices.insert(*idx) {
                return Err(BlobError::BadInput("duplicate chunk index"));
            }
            let cr = chunk_range(*idx, meta.chunk_size, meta.size);
            if data.len() != cr.end - cr.start {
                return Err(BlobError::BadInput("update is not a full chunk"));
            }
        }
        let mut commit = self.plan_commit(&updates);
        if self.cfg().dedup {
            self.dedup_probe(&mut commit);
        }
        let result = self.publish_planned(blob, base, meta, &mut commit);
        if result.is_err() {
            self.release_retained(commit.retained);
        }
        result
    }

    /// Group the update set by content: one `UniqueChunk` per distinct
    /// payload (first-appearance order) and the slot → unique mapping.
    /// With dedup off every slot is its own unique and no digest is
    /// computed.
    fn plan_commit<'a>(&self, updates: &'a [(u64, Payload)]) -> Commit<'a> {
        let (dedup, strong) = (self.cfg().dedup, self.cfg().strong_digest);
        let mut uniques: Vec<UniqueChunk> = Vec::with_capacity(updates.len());
        let mut slot_of: Vec<usize> = Vec::with_capacity(updates.len());
        let mut by_key: FastMap<ContentKey, usize> = FastMap::default();
        for (slot, (_, data)) in updates.iter().enumerate() {
            let key = dedup.then(|| (data.len(), data.content_digest(strong)));
            let u = match key.and_then(|key| by_key.get(&key)) {
                Some(&u) => u,
                None => {
                    if let Some(key) = key {
                        by_key.insert(key, uniques.len());
                    }
                    uniques.push(UniqueChunk {
                        key,
                        first_slot: slot,
                        uses: 0,
                        reused: None,
                    });
                    uniques.len() - 1
                }
            };
            uniques[u].uses += 1;
            slot_of.push(u);
        }
        Commit {
            updates,
            uniques,
            slot_of,
            retained: Vec::new(),
        }
    }

    /// Probe the node's digest index — then, for every miss at once, the
    /// cluster-wide [`crate::cluster::ClusterIndex`] (one `ClusterReq::Get`,
    /// which the cost book prices at zero) — for each unique payload and
    /// validate the hits where the bytes are: every reachable provider holding
    /// a candidate gets **one** batch of `(chunk id, content key)` entries, all
    /// providers in one step (one control round per provider, as for any
    /// batched round). The provider compares each key with the length and
    /// digest of the chunk *it stores* and takes the reference iff they are
    /// equal — so what a hit guarantees is digest equality against the stored
    /// bytes, never just against an index entry: 64 bits of it by default,
    /// [`crate::BlobConfig::strong_digest`] for the collision-resistant mode;
    /// one path for both, and no chunk travels to be compared. Replicas that
    /// are down, unreachable or no longer hold the chunk drop out — exactly the
    /// push pipeline's per-replica failover semantics. A hit whose chunk is
    /// gone everywhere is forgotten in both indexes; a mismatch (the index
    /// entry points at other content) keeps the entry — it is still correct for
    /// the *other* payload — and pushes fresh. Cluster hits ride the identical
    /// validation and rollback path as node-local ones.
    fn dedup_probe(&self, commit: &mut Commit) {
        let mut candidates: Vec<(usize, ContentKey, ChunkDesc)> = Vec::new();
        let mut cluster_misses: Vec<(usize, ContentKey)> = Vec::new();
        for (u, unique) in commit.uniques.iter().enumerate() {
            let key = unique.key.expect("dedup plan carries keys");
            if let Some(desc) = self.ctx.digest_lookup(&key) {
                candidates.push((u, key, desc));
            } else if self.cfg().cluster_dedup {
                cluster_misses.push((u, key));
            }
        }
        // Probe every node-index miss under ONE shared acquisition of the
        // cluster index: commits probing concurrently share the lock, and
        // a commit never pays more than one acquisition however many
        // chunks it carries.
        if !cluster_misses.is_empty() {
            let keys: Vec<ContentKey> = cluster_misses.iter().map(|&(_, key)| key).collect();
            let hits = self.store.cluster_get(self.node, keys);
            for ((u, key), hit) in cluster_misses.into_iter().zip(hits) {
                if let Some(desc) = hit {
                    candidates.push((u, key, desc));
                }
            }
        }
        if candidates.is_empty() {
            return;
        }
        // Each provider's share of the candidates: `(candidate, chunk
        // id, key)` per replica it holds.
        let mut retain = Step::new();
        for (c, (_, key, desc)) in candidates.iter().enumerate() {
            for &prov in desc.replicas.iter() {
                retain.add(prov, (c, desc.id, *key));
            }
        }
        // Per candidate: the replicas that took the reference, and
        // whether any replica found other content under the id.
        let mut took: Vec<Vec<NodeId>> = vec![Vec::new(); candidates.len()];
        let mut mismatched = vec![false; candidates.len()];
        let retained = &mut commit.retained;
        retain.run(
            self,
            |prov, entries| {
                Some(Req::Provider {
                    node: prov,
                    req: ProviderReq::Retain(
                        entries.iter().map(|&(_, id, key)| (id, key)).collect(),
                    ),
                })
            },
            step::retained,
            // No verdicts (the provider is down, or the exchange failed):
            // nothing of that provider's share reads as retained, and the
            // commit pushes fresh bytes instead — always safe (a reference
            // a lost reply hid is a bounded leak).
            |prov, entries, reply| {
                let verdicts = reply.and_then(Result::ok).unwrap_or_default();
                for (&(c, id, _), verdict) in entries.iter().zip(verdicts) {
                    match verdict {
                        RetainOutcome::Retained => {
                            took[c].push(prov);
                            retained.push((prov, id));
                        }
                        RetainOutcome::Mismatch => mismatched[c] = true,
                        RetainOutcome::Gone => {}
                    }
                }
            },
        );
        for (c, (u, key, desc)) in candidates.into_iter().enumerate() {
            let survivors: Vec<NodeId> = desc
                .replicas
                .iter()
                .copied()
                .filter(|prov| took[c].contains(prov))
                .collect();
            if !survivors.is_empty() {
                commit.uniques[u].reused = Some(ChunkDesc {
                    id: desc.id,
                    replicas: survivors.into(),
                });
            } else if !mismatched[c] {
                self.forget_stale_hit(&key);
            }
        }
    }

    /// A validated dedup hit turned out to point at content that no
    /// longer exists anywhere (e.g. snapshot GC reclaimed it): drop the
    /// entry from both the node index and the cluster replica, wherever
    /// it lives — a stale key is stale in either.
    fn forget_stale_hit(&self, key: &ContentKey) {
        self.ctx.digest_forget(key);
        if self.cfg().cluster_dedup {
            self.store.cluster_forget(self.node, key);
        }
    }

    /// Allocate, push, shadow and publish a content-planned commit;
    /// returns the new version and the payload bytes it published by
    /// reference. Any error propagates to `write_chunks_accounted`, which
    /// rolls back `commit.retained`.
    fn publish_planned(
        &self,
        blob: BlobId,
        base: Version,
        meta: VersionMeta,
        commit: &mut Commit,
    ) -> BlobResult<(Version, u64)> {
        let descs = self.store_fresh(meta.chunk_size, commit)?;
        self.retain_extra_uses(commit, &descs);

        // Shadow the metadata tree with one descriptor per slot.
        let update_map: FastMap<u64, ChunkDesc> = commit
            .updates
            .iter()
            .zip(&commit.slot_of)
            .map(|((i, _), &u)| (*i, descs[u].clone()))
            .collect();
        let new_root =
            segtree::build_new_tree(&mut self.node_io(), meta.root, meta.span, &update_map)?;

        // Publish at the version manager (the total-order point).
        let seen = self.ctx.version_purges();
        let v = self.store.vm_publish(self.node, blob, base, new_root)?;
        let facts = VersionMeta {
            root: new_root,
            ..meta
        };
        self.ctx.record_version_facts((blob, v), facts, seen);

        // The commit is durable: record its content for future reuse.
        let reused = if self.cfg().dedup {
            self.record_content(commit, &descs)
        } else {
            0
        };
        Ok((v, reused))
    }

    /// Allocate chunk ids and providers for the uniques no validated
    /// reference covers (one provider-manager RPC, skipped entirely when
    /// every chunk commits by reference), avoiding providers the fabric
    /// currently reports down, and push them through the configured
    /// replication pipeline with per-replica failover — deduplicated
    /// bytes never reach the wire. Returns every unique's descriptor.
    fn store_fresh(&self, chunk_size: u64, commit: &mut Commit) -> BlobResult<Vec<ChunkDesc>> {
        let fresh: Vec<&UniqueChunk> = commit
            .uniques
            .iter()
            .filter(|u| u.reused.is_none())
            .collect();
        let mut pushed = Vec::new().into_iter();
        if !fresh.is_empty() {
            let n = fresh.len();
            let down: Vec<bool> = self
                .store
                .topology()
                .providers
                .iter()
                .map(|&p| self.store.fabric.is_down(p))
                .collect();
            let descs =
                self.store
                    .pm_allocate(self.node, n, chunk_size, self.cfg().replication, down)?;
            // A fresh put stores each replica at refcount 1 — record that
            // implicit reference *before* pushing, so a failed push or
            // publish releases (and thereby frees) whatever actually got
            // stored instead of orphaning it on the providers. Releasing
            // a replica the push never reached is a no-op.
            for desc in &descs {
                for &prov in desc.replicas.iter() {
                    commit.retained.push((prov, desc.id));
                }
            }
            let payloads = fresh.iter().map(|u| &commit.updates[u.first_slot].1);
            pushed = self.push_chunks(payloads.collect(), descs)?.into_iter();
        }
        Ok(commit
            .uniques
            .iter()
            .map(|u| match &u.reused {
                Some(desc) => desc.clone(),
                None => pushed
                    .next()
                    .expect("one pushed descriptor per fresh unique"),
            })
            .collect())
    }

    /// Every use of a unique beyond its first takes one more
    /// provider-side reference (a fresh put starts at refcount 1 — its
    /// first use; a validated reuse already retained once): one batch
    /// per provider, all in one step, the id listed once per extra use.
    fn retain_extra_uses(&self, commit: &mut Commit, descs: &[ChunkDesc]) {
        let mut extra = Step::new();
        for (unique, desc) in commit.uniques.iter().zip(descs) {
            for _ in 1..unique.uses {
                let key = unique.key.expect("only a dedup plan collapses slots");
                for &prov in desc.replicas.iter() {
                    extra.add(prov, (desc.id, key));
                }
            }
        }
        let retained = &mut commit.retained;
        extra.run(
            self,
            |prov, entries| {
                Some(Req::Provider {
                    node: prov,
                    req: ProviderReq::Retain(entries.clone()),
                })
            },
            step::retained,
            |prov, entries, reply| {
                let verdicts = reply.and_then(Result::ok).unwrap_or_default();
                for (&(id, _), verdict) in entries.iter().zip(verdicts) {
                    if verdict == RetainOutcome::Retained {
                        retained.push((prov, id));
                    }
                }
            },
        );
    }

    /// Record a durable commit's content in the node's digest index and
    /// the cluster index, and account its dedup savings. Returns the
    /// payload bytes it published by reference (index reuse +
    /// intra-commit collapse).
    fn record_content(&self, commit: &Commit, descs: &[ChunkDesc]) -> u64 {
        let (mut chunks, mut bytes) = (0u64, 0u64);
        for (unique, desc) in commit.uniques.iter().zip(descs) {
            if let Some(key) = unique.key {
                self.ctx.digest_record(key, desc.clone());
            }
            let by_reference = match unique.reused {
                Some(_) => unique.uses,
                None => unique.uses - 1,
            };
            chunks += by_reference;
            bytes += commit.updates[unique.first_slot].1.len() * by_reference;
        }
        if chunks > 0 {
            self.ctx.note_dedup(chunks, bytes);
        }
        self.publish_cluster_entries(commit, descs);
        bytes
    }

    /// Push a durable commit's content keys to the cluster-wide dedup
    /// index: one request carries them to the index host beside the
    /// provider manager, which files the keys it does not already hold
    /// and answers how many that was. Only those are charged — one
    /// control RPC plus the gossip that carries the update to the other
    /// compute nodes along the broadcast tree; content the cluster
    /// already indexes (the common converged boot path) costs nothing
    /// beyond the request. Best-effort like every index update: an
    /// unreachable host just drops the batch.
    fn publish_cluster_entries(&self, commit: &Commit, descs: &[ChunkDesc]) {
        if !self.cfg().cluster_dedup || self.store.fabric.is_down(self.store.topo.pmanager) {
            return; // index host unreachable: skip, the content stays node-local
        }
        let entries: Vec<(ContentKey, ChunkDesc)> = commit
            .uniques
            .iter()
            .zip(descs)
            .filter_map(|(unique, desc)| Some((unique.key?, desc.clone())))
            .collect();
        self.store.cluster_record(self.node, entries);
    }

    /// Roll back a failed commit: drop every reference it took, one
    /// `ReleaseCounted` batch per provider, all in one step. A release
    /// never underflows, so a partial rollback racing other commits stays
    /// safe; a provider that cannot be reached keeps its share (a bounded
    /// leak, like skipping a down provider) and costs the others nothing.
    fn release_retained(&self, retained: Vec<(NodeId, ChunkId)>) {
        let mut release = Step::new();
        for (prov, id) in retained {
            release.add(prov, id);
        }
        release.run(
            self,
            |prov, ids| {
                Some(Req::Provider {
                    node: prov,
                    req: ProviderReq::ReleaseCounted(std::mem::take(ids)),
                })
            },
            step::released,
            |_, _, _| {},
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

    #[test]
    fn unaligned_write_read_modify_writes() {
        let (_f, client) = setup(4);
        let base = Payload::synth(2, 0, 1000);
        let (blob, v1) = client.upload(base.clone()).unwrap();
        // Overwrite 50..200 (chunk size 128: spans chunks 0 and 1).
        let patch = Payload::from(vec![0xABu8; 150]);
        let v2 = client.write(blob, v1, 50, patch.clone()).unwrap();
        assert_eq!(v2, Version(2));
        let got = client.read(blob, v2, 0..1000).unwrap();
        let expect = base.overwrite(50, patch);
        assert!(got.content_eq(&expect));
        // v1 still reads the original (shadowing).
        let got1 = client.read(blob, v1, 0..1000).unwrap();
        assert!(got1.content_eq(&base));
    }

    #[test]
    fn snapshots_are_totally_ordered_and_immutable() {
        let (_f, client) = setup(3);
        let (blob, v1) = client.upload(Payload::zeros(512)).unwrap();
        let mut versions = vec![v1];
        let mut expect = vec![Payload::zeros(512)];
        for i in 0..4u64 {
            let patch = Payload::synth(100 + i, 0, 64);
            let base = *versions.last().expect("non-empty");
            let v = client.write(blob, base, i * 128, patch.clone()).unwrap();
            versions.push(v);
            let prev = expect.last().expect("non-empty").clone();
            expect.push(prev.overwrite(i * 128, patch));
        }
        for (v, e) in versions.iter().zip(&expect) {
            let got = client.read(blob, *v, 0..512).unwrap();
            assert!(got.content_eq(e), "version {v} mismatch");
        }
    }

    #[test]
    fn conflicting_write_rejected() {
        let (_f, client) = setup(2);
        let (blob, v1) = client.upload(Payload::zeros(256)).unwrap();
        client
            .write(blob, v1, 0, Payload::from(vec![1u8; 10]))
            .unwrap();
        let err = client
            .write(blob, v1, 0, Payload::from(vec![2u8; 10]))
            .unwrap_err();
        assert!(matches!(err, BlobError::Conflict { .. }));
    }

    #[test]
    fn an_out_of_range_chunk_index_is_an_error_not_a_panic() {
        let (_f, client) = setup(4);
        let (blob, v) = client.upload(Payload::synth(3, 0, 512)).unwrap(); // 4 chunks
        for idx in [4, 9, u64::MAX] {
            let err = client
                .write_chunks(blob, v, vec![(idx, Payload::synth(4, 0, 128))])
                .unwrap_err();
            assert!(
                matches!(err, BlobError::OutOfBounds { .. }),
                "{idx}: {err:?}"
            );
        }
        assert_eq!(client.store().total_stored_bytes(), 512);
    }

    #[test]
    fn a_duplicate_chunk_index_is_bad_input_and_takes_nothing() {
        // Two payloads for one index: the snapshot could keep one leaf,
        // so the other would be stored (dedup off) or retained (dedup
        // on, when both carry one content) and never released.
        let (a, b) = (Payload::synth(5, 0, 128), Payload::synth(6, 0, 128));
        for dedup in [false, true] {
            let (_f, client) = setup_dedup(4, 1, dedup);
            let (blob, v) = client.upload(Payload::synth(7, 0, 512)).unwrap();
            let stored = client.store().total_stored_bytes();
            for dup in [
                vec![(1, a.clone()), (1, b.clone())],
                vec![(1, a.clone()); 2],
            ] {
                let err = client.write_chunks(blob, v, dup).unwrap_err();
                assert!(
                    matches!(err, BlobError::BadInput(_)),
                    "dedup={dedup}: {err:?}"
                );
            }
            assert_eq!(client.store().total_stored_bytes(), stored, "dedup={dedup}");
            // Nothing was taken: deleting the base frees all it stored.
            client.delete_snapshot(blob, v).unwrap();
            assert_eq!(client.store().total_stored_bytes(), 0, "dedup={dedup}");
        }
    }

    #[test]
    fn commit_stores_only_differences() {
        let (_f, client) = setup(4);
        let image = Payload::synth(6, 0, 4096); // 32 chunks of 128
        let (a, va) = client.upload(image).unwrap();
        let bytes_initial = client.store().total_stored_bytes();
        assert_eq!(bytes_initial, 4096);
        let b = client.clone_blob(a, va).unwrap();
        // Dirty one chunk.
        client
            .write_chunks(b, Version(1), vec![(3, Payload::synth(7, 0, 128))])
            .unwrap();
        let bytes_after = client.store().total_stored_bytes();
        assert_eq!(
            bytes_after - bytes_initial,
            128,
            "one chunk of new data only"
        );
    }

    #[test]
    fn dedup_commits_identical_content_by_reference() {
        let (_f, client) = setup_dedup(4, 1, true);
        let (a, va) = client.upload(Payload::synth(60, 0, 512)).unwrap(); // ids 1..=4
        let content = Payload::synth(77, 0, 128);
        let v2 = client
            .write_chunks(a, va, vec![(0, content.clone())])
            .unwrap(); // id 5
        let stored = client.store().total_stored_bytes();
        assert_eq!(refcounts(&client, 5), vec![1]);

        // A different blob commits the same bytes: no new storage, the
        // leaf references chunk 5 and bumps its refcount.
        let b = client.create_blob(512).unwrap();
        let vb = client
            .write_chunks(b, Version(0), vec![(1, content.clone())])
            .unwrap();
        assert_eq!(
            client.store().total_stored_bytes(),
            stored,
            "identical content must not grow provider storage"
        );
        assert_eq!(refcounts(&client, 5), vec![2]);
        let got = client.read(b, vb, 128..256).unwrap();
        assert!(got.content_eq(&content));
        // The origin snapshot still reads its copy.
        let got = client.read(a, v2, 0..128).unwrap();
        assert!(got.content_eq(&content));
        assert_eq!(client.context().stats().dedup_hits, 1);

        // Dedup off: the same sequence stores the chunk twice.
        let (_f2, off) = setup_dedup(4, 1, false);
        let (a2, va2) = off.upload(Payload::synth(60, 0, 512)).unwrap();
        off.write_chunks(a2, va2, vec![(0, content.clone())])
            .unwrap();
        let stored_off = off.store().total_stored_bytes();
        let b2 = off.create_blob(512).unwrap();
        off.write_chunks(b2, Version(0), vec![(1, content.clone())])
            .unwrap();
        assert_eq!(off.store().total_stored_bytes(), stored_off + 128);
    }

    #[test]
    fn intra_commit_duplicates_collapse() {
        let (_f, client) = setup_dedup(4, 1, true);
        // Four identical all-zero chunks upload as one stored chunk with
        // four references.
        let (blob, v) = client.upload(Payload::zeros(512)).unwrap();
        assert_eq!(client.store().total_stored_bytes(), 128);
        assert_eq!(client.store().total_chunks(), 1);
        assert_eq!(refcounts(&client, 1), vec![4]);
        let got = client.read(blob, v, 0..512).unwrap();
        assert!(got.content_eq(&Payload::zeros(512)));
    }

    #[test]
    fn dedup_reads_byte_identical_to_dedup_off() {
        // The same commit sequence through both configurations must be
        // byte-identical on every snapshot (the content-plane invariant
        // the property suite checks at scale).
        let patches: Vec<(u64, Payload)> = vec![
            (0, Payload::zeros(128)),
            (3, Payload::synth(81, 0, 128)),
            (5, Payload::zeros(128)),
            (7, Payload::synth(81, 0, 128)),
        ];
        let mut snapshots: Vec<Vec<Payload>> = Vec::new();
        for dedup in [true, false] {
            let (_f, client) = setup_dedup(4, 2, dedup);
            let (blob, v1) = client.upload(Payload::synth(80, 0, 1024)).unwrap();
            let v2 = client.write_chunks(blob, v1, patches.clone()).unwrap();
            let v3 = client
                .write_chunks(blob, v2, vec![(1, Payload::zeros(128))])
                .unwrap();
            snapshots.push(
                [v1, v2, v3]
                    .iter()
                    .map(|&v| client.read(blob, v, 0..1024).unwrap())
                    .collect(),
            );
        }
        for (on, off) in snapshots[0].iter().zip(&snapshots[1]) {
            assert!(on.content_eq(off), "dedup changed snapshot content");
        }
    }

    #[test]
    fn dedup_conflict_rolls_back_refcounts() {
        let (_f, client) = setup_dedup(4, 2, true);
        let (blob, v1) = client.upload(Payload::synth(90, 0, 512)).unwrap();
        let content = Payload::synth(91, 0, 128);
        client
            .write_chunks(blob, v1, vec![(0, content.clone())])
            .unwrap(); // id 5
        let before = refcounts(&client, 5);
        assert_eq!(before, vec![1, 1], "one reference per replica");
        // A second commit from the same base dedups onto chunk 5, then
        // loses the publish race: its references must be released.
        let err = client
            .write_chunks(blob, v1, vec![(1, content.clone())])
            .unwrap_err();
        assert!(matches!(err, BlobError::Conflict { .. }));
        assert_eq!(
            refcounts(&client, 5),
            before,
            "failed publish must release its dedup references"
        );
        // Releasing a chunk that was never stored is a clean no-op.
        assert!(!client
            .store()
            .providers()
            .release(NodeId(0), crate::api::ChunkId(999)));
    }

    #[test]
    fn accounted_commit_reports_only_its_own_reuse() {
        // Two co-located clients share one NodeContext; each commit must
        // report exactly its own by-reference bytes, not a delta of the
        // shared counters (which interleave across committers).
        let (_f, c1) = setup_dedup(4, 1, true);
        let c2 = Client::new(Arc::clone(c1.store()), NodeId(0));
        let (b1, v1) = c1.upload(Payload::synth(80, 0, 512)).unwrap();
        let (b2, v2) = c2.upload(Payload::synth(81, 0, 512)).unwrap();
        let shared = Payload::synth(82, 0, 128);
        // c1 stores the content fresh: nothing reused.
        let (v1b, r1) = c1
            .write_chunks_accounted(b1, v1, vec![(0, shared.clone())])
            .unwrap();
        assert_eq!(r1, 0, "fresh content must report zero reuse");
        // c2 commits the same content (index hit) plus a fresh chunk:
        // exactly the shared chunk's bytes are reported, never c1's.
        let (_, r2) = c2
            .write_chunks_accounted(
                b2,
                v2,
                vec![(0, shared.clone()), (1, Payload::synth(83, 0, 128))],
            )
            .unwrap();
        assert_eq!(r2, 128, "exactly the deduped chunk's bytes");
        // An intra-commit collapse is attributed to the committing
        // client as well: 3 identical fresh chunks -> 2 by reference.
        let fresh = Payload::synth(84, 0, 128);
        let (_, r3) = c1
            .write_chunks_accounted(
                b1,
                v1b,
                vec![(1, fresh.clone()), (2, fresh.clone()), (3, fresh.clone())],
            )
            .unwrap();
        assert_eq!(r3, 256, "uses beyond the first commit by reference");
    }

    #[test]
    fn digest_collision_never_publishes_wrong_bytes() {
        use crate::api::ChunkId;
        let (_f, client) = setup_dedup(4, 1, true);
        let (blob, v1) = client.upload(Payload::synth(98, 0, 512)).unwrap(); // ids 1..=4
        let a = Payload::synth(99, 0, 128);
        let b = Payload::from(vec![0x5Au8; 128]);
        // Chunk id 5 stores A.
        let v2 = client.write_chunks(blob, v1, vec![(0, a.clone())]).unwrap();
        // Poison the digest index: claim B's content key maps to the
        // chunk storing A — a simulated 64-bit digest collision.
        let prov = client
            .store()
            .topology()
            .providers
            .iter()
            .copied()
            .find(|&p| client.store().providers().refcount(p, ChunkId(5)).is_some())
            .expect("chunk 5 stored somewhere");
        client.context().digest_record(
            (b.len(), b.content_digest(false)),
            ChunkDesc {
                id: ChunkId(5),
                replicas: vec![prov].into(),
            },
        );
        // Committing B must detect the mismatch, push fresh, and leave
        // chunk 5's refcount untouched.
        let stored = client.store().total_stored_bytes();
        let v3 = client.write_chunks(blob, v2, vec![(1, b.clone())]).unwrap();
        assert_eq!(client.store().total_stored_bytes(), stored + 128);
        assert_eq!(refcounts(&client, 5), vec![1]);
        let got = client.read(blob, v3, 128..256).unwrap();
        assert!(
            got.content_eq(&b),
            "a digest collision must never publish the wrong bytes"
        );
    }

    #[test]
    fn failed_publish_releases_freshly_pushed_chunks() {
        // A commit that loses the publish race has already pushed its
        // *new* chunks to the providers; the rollback must release them
        // (fresh puts carry refcount 1), not orphan them — otherwise
        // provider storage grows without bound under commit contention.
        for dedup in [true, false] {
            let (_f, client) = setup_dedup(4, 2, dedup);
            let (blob, v1) = client.upload(Payload::synth(95, 0, 512)).unwrap();
            client
                .write_chunks(blob, v1, vec![(0, Payload::synth(96, 0, 128))])
                .unwrap();
            let stored = client.store().total_stored_bytes();
            let chunks = client.store().total_chunks();
            // Conflicting commit with brand-new content.
            let err = client
                .write_chunks(blob, v1, vec![(1, Payload::synth(97, 0, 128))])
                .unwrap_err();
            assert!(matches!(err, BlobError::Conflict { .. }), "dedup={dedup}");
            assert_eq!(
                client.store().total_stored_bytes(),
                stored,
                "dedup={dedup}: conflicted push left orphaned bytes"
            );
            assert_eq!(client.store().total_chunks(), chunks, "dedup={dedup}");
        }
    }

    #[test]
    fn strong_digest_dedups_without_byte_verify() {
        let cfg = BlobConfig {
            chunk_size: 128,
            dedup: true,
            strong_digest: true,
            ..Default::default()
        };
        let (_, store) = deploy(4, cfg);
        let client = Client::new(store, NodeId(0));
        let (a, va) = client.upload(Payload::synth(60, 0, 512)).unwrap();
        let content = Payload::synth(77, 0, 128);
        client
            .write_chunks(a, va, vec![(0, content.clone())])
            .unwrap();
        let stored = client.store().total_stored_bytes();
        // Same bytes from another blob: committed by reference off the
        // SHA-256 index, no storage growth, content correct.
        let b = client.create_blob(512).unwrap();
        let vb = client
            .write_chunks(b, Version(0), vec![(1, content.clone())])
            .unwrap();
        assert_eq!(client.store().total_stored_bytes(), stored);
        let got = client.read(b, vb, 128..256).unwrap();
        assert!(got.content_eq(&content));
        assert_eq!(client.context().stats().dedup_hits, 1);
    }

    #[test]
    fn cluster_dedup_commits_cross_node_content_by_reference() {
        let (_f, a, b) = setup_cluster(true);
        let content = Payload::synth(200, 0, 128);
        let (blob_a, va) = a.upload(Payload::synth(201, 0, 512)).unwrap();
        let _v2 = a
            .write_chunks(blob_a, va, vec![(0, content.clone())])
            .unwrap(); // id 5
        let stored = a.store().total_stored_bytes();
        assert_eq!(refcounts(&a, 5), vec![1]);

        // A *different node* commits the same bytes: its node index has
        // never seen them, but the cluster replica has — the commit
        // references chunk 5 instead of pushing a sixth chunk.
        let blob_b = b.create_blob(512).unwrap();
        let vb = b
            .write_chunks(blob_b, Version(0), vec![(3, content.clone())])
            .unwrap();
        assert_eq!(
            b.store().total_stored_bytes(),
            stored,
            "cross-node identical content must not grow provider storage"
        );
        assert_eq!(refcounts(&b, 5), vec![2]);
        assert_eq!(b.context().stats().dedup_hits, 1, "hit counted on node 1");
        let got = b.read(blob_b, vb, 3 * 128..4 * 128).unwrap();
        assert!(got.content_eq(&content));

        // Node-local-only dedup stores the second copy.
        let (_f2, a2, b2) = setup_cluster(false);
        let (blob_a2, va2) = a2.upload(Payload::synth(201, 0, 512)).unwrap();
        a2.write_chunks(blob_a2, va2, vec![(0, content.clone())])
            .unwrap();
        let stored_off = a2.store().total_stored_bytes();
        let blob_b2 = b2.create_blob(512).unwrap();
        b2.write_chunks(blob_b2, Version(0), vec![(3, content.clone())])
            .unwrap();
        assert_eq!(b2.store().total_stored_bytes(), stored_off + 128);
    }

    #[test]
    fn cluster_publishes_are_novelty_filtered() {
        let (f, a, b) = setup_cluster(true);
        // (bulk transfers, control rounds) a commit costs the fabric.
        let commit = |c: &Client, content: &Payload| {
            let blob = c.create_blob(128).unwrap();
            let stats = f.stats();
            let before = (stats.transfer_count(), stats.rpc_count());
            c.write_chunks(blob, Version(0), vec![(0, content.clone())])
                .unwrap();
            (
                stats.transfer_count() - before.0,
                stats.rpc_count() - before.1,
            )
        };
        let content = Payload::synth(210, 0, 128);
        let fresh = commit(&a, &content);
        let indexed = a.store().cluster_index().read().len();
        assert_eq!(indexed, 1, "the commit published its content key");
        // A second node committing the same content publishes nothing
        // new: same index size, and the only control traffic beyond the
        // commit itself is the validation/retain round.
        let reused = commit(&b, &content);
        assert_eq!(
            b.store().cluster_index().read().len(),
            indexed,
            "an already-indexed key is not re-published"
        );
        assert_eq!(
            reused.0, 0,
            "no chunk pushed and no key published: no bulk transfer"
        );
        assert_eq!(
            reused.1,
            fresh.1 - 2 + 1,
            "no allocation round and no index publish; one retain round"
        );
    }
}
