//! Adaptive cross-VM prefetching ([`crate::BlobConfig::prefetch`]):
//! a guest's reads ([`Client::read_multi_hinted`]) tell the node what
//! they touched, the node publishes the first-touch order of the chunks
//! those reads *moved* to the cluster [`crate::board::PatternBoard`],
//! and a node running behind its cohort reads ahead the window the
//! board's sequence predicts ([`Client::prefetch_chunks`]) into the
//! node-shared chunk cache, which `read_multi` consults before touching
//! providers. The hypervisor model overlaps read-ahead steps with guest
//! compute bursts. Strictly best-effort: snapshot content is
//! byte-identical with prefetch on or off.
//!
//! **Ask on evidence.** One local decision,
//! [`crate::NodeContext::read_ahead`], says whether a read-ahead step
//! claims, polls the board first, or does nothing; `prefetch_chunks` is
//! the one place a poll is sent, at open or after a demand miss.
//!
//! **Publish what you moved.** A chunk a read fetched from a provider,
//! or served from a read-ahead entry on that entry's first use (which
//! confirms the peer pattern), is published; so is an unwritten chunk,
//! which reads as zeros. A chunk served from an entry an earlier read
//! landed — for this version, or for another version that shares the
//! chunk — is recorded as touched but not published. So a node that
//! boots a new snapshot of an image it holds asks the board only its
//! open-time poll. The trade-off: a cold node booting a new version
//! finds no pattern from warm nodes; it demand-fetches and publishes the
//! pattern itself.

use super::Client;
use crate::api::{BlobId, BlobResult, ChunkDesc, Version};
use crate::context::{ChunkOrigin, ReadAhead};
use bff_data::{chunk_range, coalesce_runs};

impl Client {
    /// Access hint from a guest read of `(blob, version)` (see
    /// [`Client::read_multi_hinted`]): its `touches` in access order,
    /// each `(chunk index, moved)`, and whether it `fetched` any chunk
    /// from a provider (see [`crate::NodeContext::note_accesses`]). Once
    /// [`crate::context::PUBLISH_BATCH`] moved first touches accumulate,
    /// the batch is published to the cluster
    /// [`PatternBoard`](crate::board::PatternBoard) (one control RPC to
    /// the provider-manager node, then a gossip round to the compute
    /// nodes), less the indices the node's replica holds *and* has seen
    /// confirmed by [`crate::BlobConfig::prefetch_min_publishers`]
    /// distinct publishers: once the pattern converges and is
    /// cohort-confirmed the control plane goes quiet — no frame, no
    /// charge. No-op when prefetching is off.
    ///
    /// Hints are *advisory*: they never move data and never fail — a
    /// publish that cannot reach the board (manager down) is dropped.
    pub(super) fn hint_touches(
        &self,
        blob: BlobId,
        version: Version,
        touches: impl IntoIterator<Item = (u64, bool)>,
        fetched: bool,
    ) {
        let key = (blob, version);
        if !self.ctx.prefetch_on() {
            return;
        }
        if let Some(batch) = self.ctx.note_accesses(key, touches, fetched) {
            let (batch, from) = self.ctx.unconfirmed_of(key, batch);
            if !batch.is_empty() {
                self.sync_board_replica(key, batch, from);
            }
        }
    }

    /// One exchange with the board on behalf of the node's replica of
    /// `key`'s peer sequence, which holds `from` entries: publish `batch`
    /// (empty = a poll) and file the answer. Best-effort: a transport
    /// failure reads as "the board has nothing new", which only costs
    /// prefetch opportunity.
    fn sync_board_replica(&self, key: (BlobId, Version), batch: Vec<u64>, from: usize) {
        let min_pub = self.cfg().prefetch_min_publishers;
        self.ctx.note_board_sync(key, batch.is_empty());
        if let Some(sync) = self.store.board_sync(key, self.node, batch, from, min_pub) {
            self.ctx.board_synced(key, from, sync);
        }
    }

    /// Asynchronous batched read-ahead: claim up to `max_chunks` chunks
    /// the cohort touched but this node has not (the predicted
    /// next-chunk window off the [`PatternBoard`](crate::board::PatternBoard)
    /// sequence), resolve their descriptors, fetch them through the
    /// batched per-provider pipeline and land them in the node-shared
    /// chunk cache, where [`Client::read_multi`] serves them without
    /// touching the providers again.
    ///
    /// [`crate::NodeContext::read_ahead`] decides first: claim, poll the
    /// board before claiming (the one place a node polls), or nothing.
    ///
    /// Best-effort semantics: chunks whose every replica is down are
    /// skipped (per-chunk failover first, like the demand path — a
    /// provider lost mid-prefetch costs nothing but that chunk), and the
    /// call returns how many chunks actually landed. Claimed chunks are
    /// never re-claimed, so a chunk is prefetched at most once per node
    /// and a later demand read is the only retry path. Returns `Ok(0)`
    /// immediately when prefetching is off or nothing is predicted.
    pub fn prefetch_chunks(
        &self,
        blob: BlobId,
        version: Version,
        max_chunks: usize,
    ) -> BlobResult<usize> {
        let key = (blob, version);
        if max_chunks == 0 {
            return Ok(0);
        }
        match self.ctx.read_ahead(key) {
            ReadAhead::Claim => {}
            ReadAhead::Poll { from } => self.sync_board_replica(key, Vec::new(), from),
            ReadAhead::Idle => return Ok(0),
        }
        let candidates = self.ctx.claim_prefetch(key, max_chunks);
        if candidates.is_empty() {
            return Ok(0);
        }
        let meta = self.version_meta(blob, version)?;
        // The claimed indices as maximal runs for the single descent
        // (claims come board-ordered, not index-ordered).
        let runs = coalesce_runs(
            candidates
                .iter()
                .filter(|&&i| i < meta.span)
                .map(|&i| i..i + 1),
        );
        if runs.is_empty() {
            return Ok(0);
        }
        let descs = self.resolve_descs(&meta, &runs)?;
        // Fetch in *peer-access order* (the order the guests will
        // demand), not index order — read-ahead must stay ahead of the
        // stream it predicts.
        let fetch: Vec<(u64, ChunkDesc, u64)> = candidates
            .iter()
            .filter_map(|&idx| {
                let desc = descs.get(&idx)?; // unwritten chunks: nothing to move
                if self.ctx.chunk_cache_contains(desc.id) {
                    return None; // a co-located client already landed it
                }
                let cr = chunk_range(idx, meta.chunk_size, meta.size);
                Some((idx, desc.clone(), cr.end - cr.start))
            })
            .collect();
        // Land the window in small batched sub-fetches so early chunks
        // become servable while later ones are still on the wire — a
        // wide in-flight budget must not turn the whole window into one
        // all-or-nothing arrival that demand reads race past. Each
        // sub-batch is re-filtered against the cache right before its
        // fetch: a chunk a demand read landed mid-step is not fetched a
        // second time.
        const SUB_BATCH: usize = 8;
        let (mut landed, mut bytes) = (0u64, 0u64);
        for group in fetch.chunks(SUB_BATCH) {
            let group: Vec<(u64, ChunkDesc, u64)> = group
                .iter()
                .filter(|(_, desc, _)| !self.ctx.chunk_cache_contains(desc.id))
                .cloned()
                .collect();
            for (idx, res) in self.fetch_chunks_results(&group) {
                if let Ok(data) = res {
                    bytes += data.len();
                    landed += 1;
                    let id = descs.get(&idx).expect("fetched chunks have descs").id;
                    self.ctx.chunk_cache_insert(id, data, ChunkOrigin::Prefetch);
                }
            }
        }
        if landed > 0 {
            self.ctx.note_prefetched(landed, bytes);
        }
        Ok(landed as usize)
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

    /// Setup with prefetch explicitly on and a second node's client, so
    /// the cross-node pattern flow (hint → board → prefetch) is
    /// observable regardless of the `BFF_PREFETCH` environment.
    fn setup_prefetch(chunk_size: u64) -> (Arc<LocalFabric>, Client, Client) {
        let cfg = BlobConfig {
            chunk_size,
            prefetch: true,
            // These tests pin the unfiltered read-ahead mechanics; the
            // confidence filter has its own tests below.
            prefetch_min_publishers: 1,
            ..Default::default()
        };
        let (fabric, store) = deploy(4, cfg);
        let a = Client::new(Arc::clone(&store), NodeId(0));
        let b = Client::new(store, NodeId(1));
        (fabric, a, b)
    }

    #[test]
    fn hints_publish_peer_pattern_and_prefetch_lands_in_cache() {
        let (_f, a, b) = setup_prefetch(128);
        let data = Payload::synth(120, 0, 4096); // 32 chunks
        let (blob, v) = a.upload(data.clone()).unwrap();
        // Node 0's VM faults in a boot-like window: the read moves every
        // chunk, so its hint publishes their first-touch order to the
        // board.
        a.read_multi_hinted(blob, v, std::slice::from_ref(&(0..2048)))
            .unwrap();
        let seq = a
            .store()
            .pattern_board()
            .sequence((blob, v))
            .expect("pattern published");
        assert_eq!(*seq, (0..16).collect::<Vec<u64>>());

        // Node 1 has touched nothing and never asked: a prefetch step
        // polls, then pulls the peer window into ITS node-shared chunk
        // cache.
        assert_eq!(
            b.context().read_ahead((blob, v)),
            ReadAhead::Poll { from: 0 }
        );
        let landed = b.prefetch_chunks(blob, v, 8).unwrap();
        assert_eq!(landed, 8);
        let stats = b.context().prefetch_stats();
        assert_eq!(stats.prefetched_chunks, 8);
        assert_eq!(stats.prefetched_bytes, 8 * 128);
        assert_eq!(stats.cached_chunks, 8);

        // The demand read of the prefetched window is served from the
        // cache: zero provider traffic, byte-identical content.
        let transfers_before = _f.stats().transfer_count();
        let got = b.read(blob, v, 0..1024).unwrap();
        assert!(got.content_eq(&data.slice(0, 1024)));
        assert_eq!(
            _f.stats().transfer_count(),
            transfers_before,
            "prefetched chunks must not be re-fetched from providers"
        );
        let stats = b.context().prefetch_stats();
        assert_eq!(stats.hits, 8, "every prefetched chunk served a read");
        assert_eq!(stats.wasted_chunks, 0);
    }

    #[test]
    fn prefetch_is_incremental_and_never_refetches() {
        let (_f, a, b) = setup_prefetch(128);
        let (blob, v) = a.upload(Payload::synth(121, 0, 4096)).unwrap();
        a.read_multi_hinted(blob, v, std::slice::from_ref(&(0..4096)))
            .unwrap();
        // Two bounded steps walk the peer sequence incrementally.
        assert_eq!(b.prefetch_chunks(blob, v, 10).unwrap(), 10);
        assert_eq!(b.prefetch_chunks(blob, v, 10).unwrap(), 10);
        // A chunk is claimed at most once per node: replaying the
        // sequence fetches only the remainder, then nothing.
        assert_eq!(b.prefetch_chunks(blob, v, 100).unwrap(), 12);
        // Consumed, and no demand read missed since the one poll: the
        // replica holds all there is, so nothing more is asked.
        assert_eq!(b.context().read_ahead((blob, v)), ReadAhead::Idle);
        assert_eq!(b.prefetch_chunks(blob, v, 100).unwrap(), 0);
        assert_eq!(b.context().prefetch_stats().board_polls, 1);
        assert_eq!(b.context().prefetch_stats().prefetched_chunks, 32);
    }

    #[test]
    fn prefetch_skips_chunks_this_node_already_read() {
        let (_f, a, b) = setup_prefetch(128);
        let (blob, v) = a.upload(Payload::synth(122, 0, 2048)).unwrap();
        a.read_multi_hinted(blob, v, std::slice::from_ref(&(0..2048)))
            .unwrap();
        // Node 1's guest reads half the window first.
        b.read_multi_hinted(blob, v, std::slice::from_ref(&(0..1024)))
            .unwrap();
        let landed = b.prefetch_chunks(blob, v, 100).unwrap();
        assert_eq!(landed, 8, "only the unseen half is prefetched");
    }

    #[test]
    fn prefetch_disabled_is_inert() {
        let cfg = BlobConfig {
            chunk_size: 128,
            prefetch: false,
            ..Default::default()
        };
        let (_, off_store) = deploy(4, cfg);
        let off = Client::new(off_store, NodeId(0));
        let (blob, v) = off.upload(Payload::synth(123, 0, 1024)).unwrap();
        off.read_multi_hinted(blob, v, std::slice::from_ref(&(0..1024)))
            .unwrap();
        assert!(off.store().pattern_board().is_empty());
        assert_eq!(off.context().read_ahead((blob, v)), ReadAhead::Idle);
        assert_eq!(off.prefetch_chunks(blob, v, 8).unwrap(), 0);
        assert_eq!(off.context().prefetch_stats(), Default::default());

        // A chunk cache that cannot hold one chunk — zero, or bounded
        // below the chunk size so every insert would self-evict —
        // disables the pipeline too, even with the flag on: read-ahead
        // with nowhere to land the data would fetch every predicted
        // chunk twice.
        for cache_bytes in [0u64, 64] {
            let cfg = BlobConfig {
                chunk_size: 128,
                prefetch: true,
                chunk_cache_bytes: cache_bytes,
                ..Default::default()
            };
            let (fabric, store) = deploy(4, cfg);
            let capless = Client::new(store, NodeId(0));
            let (blob, v) = capless.upload(Payload::synth(124, 0, 4096)).unwrap();
            capless
                .read_multi_hinted(blob, v, std::slice::from_ref(&(0..4096)))
                .unwrap();
            assert!(capless.store().pattern_board().is_empty());
            assert_eq!(capless.context().read_ahead((blob, v)), ReadAhead::Idle);
            let transfers = fabric.stats().transfer_count();
            assert_eq!(capless.prefetch_chunks(blob, v, 8).unwrap(), 0);
            assert_eq!(
                fabric.stats().transfer_count(),
                transfers,
                "cache bound {cache_bytes}: capless prefetch must move nothing"
            );
            assert_eq!(capless.context().prefetch_stats(), Default::default());
        }
    }

    #[test]
    fn prefetch_confidence_skips_single_publisher_chunks() {
        let cfg = BlobConfig {
            chunk_size: 128,
            prefetch: true,
            prefetch_min_publishers: 2, // explicit: tests must not drift
            ..Default::default()
        };
        let (_, store) = deploy(4, cfg);
        let a = Client::new(Arc::clone(&store), NodeId(0));
        let c = Client::new(Arc::clone(&store), NodeId(2));
        let (blob, v) = a.upload(Payload::synth(280, 0, 4096)).unwrap(); // 32 chunks
        let key = (blob, v);
        // One publisher so far: everything it reports is prefetchable.
        store
            .pattern_board()
            .merge(key, NodeId(0), &(0..16).collect::<Vec<u64>>());
        // A second cohort member confirms only the first half; the tail
        // 8..16 stays single-publisher (private divergence).
        store
            .pattern_board()
            .merge(key, NodeId(1), &(0..8).collect::<Vec<u64>>());
        let landed = c.prefetch_chunks(blob, v, 100).unwrap();
        assert_eq!(landed, 8, "only cohort-confirmed chunks are prefetched");
        let stats = c.context().prefetch_stats();
        assert_eq!(stats.prefetched_chunks, 8);
        // The unconfirmed tail was consumed, not deferred: nothing more
        // to do until new pattern data arrives.
        assert_eq!(c.prefetch_chunks(blob, v, 100).unwrap(), 0);
    }
}
