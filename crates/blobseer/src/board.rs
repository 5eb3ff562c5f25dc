//! The cluster-level access-pattern board: the control plane of the
//! adaptive cross-VM prefetching pipeline (§3.1.3).
//!
//! Co-deployed VMs booting the same image touch nearly identical chunk
//! sequences with a skew of ~100 ms. The [`PatternBoard`] turns that
//! observation into a service: every node's shared
//! [`crate::NodeContext`] batches the first-touch chunk order of its
//! demand reads and publishes compact summaries here; a node deploying
//! the same `(blob, version)` later (or merely running behind) reads the
//! merged peer sequence back and asks
//! [`crate::Client::prefetch_chunks`] to fetch the predicted next window
//! ahead of its guest.
//!
//! Deployment-wise the board is hosted *beside the provider manager*
//! (one logical instance per service, on `topology().pmanager`): a
//! publish costs one small control RPC to that node, and the board then
//! **gossips** the update to the compute nodes along a k-ary
//! [`bff_bcast::tree`] — one tiny transfer per tree edge — so reads of
//! the local replica are free. In this model the replica state itself is
//! shared memory; the gossip charges make the fabric see the
//! dissemination traffic and latency that a real deployment would pay.
//!
//! The board stores the *union* of all publishers' first-touch orders,
//! deduplicated in arrival order. That is deliberately coarse: the point
//! is not to replay one peer's exact trace but to know, cheaply, which
//! chunks the cohort touches and roughly in which order — which is also
//! why a bounded sequence ([`BOARD_SEQ_CAP`]) suffices.

use crate::api::{BlobId, Version};
use crate::lockstat::{probed_read, probed_write, LockContention, LockProbe};
use bff_data::{FastMap, FastSet};
use bff_net::{Fabric, NodeId, Transfer};
use parking_lot::RwLock;
use std::sync::Arc;

/// Cap on the merged access sequence kept per `(blob, version)`. A boot
/// touches a few thousand chunks; the cap only guards against
/// pathological full-image scans flooding the board.
pub const BOARD_SEQ_CAP: usize = 1 << 14;

/// Cap on `(blob, version)` patterns tracked at once. Inserting beyond
/// it evicts the least-recently-merged pattern — a cohort that stopped
/// publishing long ago has either converged (its nodes hold gossiped
/// replicas and local caches) or dissolved; either way its board slot
/// is reclaimable. Bounds the board's memory under unbounded snapshot
/// churn.
pub const BOARD_PATTERN_CAP: usize = 1024;

/// Gossip fan-out for summary dissemination (taktuk-like small arity).
pub const GOSSIP_ARITY: usize = 2;

#[derive(Debug, Default)]
struct BoardEntry {
    /// Merged first-touch sequence (arrival order across publishers).
    seq: Arc<Vec<u64>>,
    /// Membership set of `seq` (dedup across publishers).
    members: FastSet<u64>,
    /// Distinct nodes that have published for this snapshot.
    publishers: FastSet<NodeId>,
    /// Distinct publishers per chunk index (saturating). Each node
    /// publishes each index at most once (its tracker's `published`
    /// prefix guarantees it), so counting batches counts publishers —
    /// the confidence signal behind
    /// [`PatternBoard::sequence_with_confidence`].
    confirms: FastMap<u64, u32>,
    /// Publish batches merged so far.
    publishes: u64,
    /// Stamp of the last merge (LRU eviction under
    /// [`BOARD_PATTERN_CAP`]).
    last_merge: u64,
}

pub use bff_wire::msg::ConfidentSequence;

/// The board state (one logical instance per deployed service; see
/// module docs).
#[derive(Debug, Default)]
pub struct PatternBoard {
    entries: FastMap<(BlobId, Version), BoardEntry>,
    tick: u64,
}

impl PatternBoard {
    /// Merge `publisher`'s first-touch `batch` into the sequence for
    /// `key`. Returns how many indices were new to the board (0 means
    /// the cohort already knew everything in the batch). Every batch
    /// index also confirms the chunk for `publisher` — the per-chunk
    /// distinct-publisher counts behind the prefetch confidence filter.
    pub fn merge(&mut self, key: (BlobId, Version), publisher: NodeId, batch: &[u64]) -> usize {
        if self.entries.len() >= BOARD_PATTERN_CAP && !self.entries.contains_key(&key) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_merge)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
            }
        }
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.entry(key).or_default();
        entry.last_merge = tick;
        entry.publishes += 1;
        entry.publishers.insert(publisher);
        let mut appended = 0;
        for &idx in batch {
            if entry.members.len() >= BOARD_SEQ_CAP && !entry.members.contains(&idx) {
                continue; // the sequence is full; known chunks still confirm
            }
            if entry.members.insert(idx) {
                Arc::make_mut(&mut entry.seq).push(idx);
                appended += 1;
            }
            let c = entry.confirms.entry(idx).or_insert(0);
            *c = c.saturating_add(1);
        }
        appended
    }

    /// The subset of `batch` still worth publishing to the board: the
    /// indices the board does not know, plus known indices whose
    /// distinct-publisher count has not yet reached `min_publishers`
    /// (an extra confirmation strengthens the confidence signal).
    /// Publishers consult their gossiped *local replica* with this
    /// before paying the publish RPC, so once the pattern has both
    /// converged *and* been cohort-confirmed the control plane goes
    /// quiet. `min_publishers ≤ 1` reduces to pure novelty filtering.
    pub fn novel_of(
        &self,
        key: (BlobId, Version),
        batch: &[u64],
        min_publishers: usize,
    ) -> Vec<u64> {
        match self.entries.get(&key) {
            Some(e) => batch
                .iter()
                .copied()
                .filter(|idx| {
                    !e.members.contains(idx)
                        || (e.confirms.get(idx).copied().unwrap_or(0) as usize) < min_publishers
                })
                .collect(),
            None => batch.to_vec(),
        }
    }

    /// The merged peer sequence for `key`, cheaply shareable (readers
    /// hold the `Arc` while the prefetcher walks it; a concurrent merge
    /// copies-on-write).
    pub fn sequence(&self, key: (BlobId, Version)) -> Option<Arc<Vec<u64>>> {
        self.entries.get(&key).map(|e| Arc::clone(&e.seq))
    }

    /// The merged peer sequence plus its confidence mask: `mask[i]` is
    /// whether `seq[i]` was reported by at least `min_publishers`
    /// distinct nodes. The mask is `None` — no filtering — while the
    /// filter is off (`min_publishers ≤ 1`) or the board has seen fewer
    /// than `min_publishers` publishers for this snapshot: a lone seed
    /// VM's pattern is better than nothing, but the moment a cohort
    /// exists, chunks only one member touched (private divergence) are
    /// not worth read-ahead.
    pub fn sequence_with_confidence(
        &self,
        key: (BlobId, Version),
        min_publishers: usize,
    ) -> Option<ConfidentSequence> {
        let e = self.entries.get(&key)?;
        let seq = Arc::clone(&e.seq);
        if min_publishers <= 1 || e.publishers.len() < min_publishers {
            return Some((seq, None));
        }
        let mask: Vec<bool> = seq
            .iter()
            .map(|idx| e.confirms.get(idx).copied().unwrap_or(0) as usize >= min_publishers)
            .collect();
        Some((seq, Some(mask)))
    }

    /// Distinct nodes that have published for `key` so far.
    pub fn publisher_count(&self, key: (BlobId, Version)) -> usize {
        self.entries.get(&key).map_or(0, |e| e.publishers.len())
    }

    /// Drop the pattern for `key` (snapshot-delete eviction: a deleted
    /// snapshot can never be deployed again, so its board slot and
    /// gossiped replicas are garbage).
    pub fn drop_pattern(&mut self, key: (BlobId, Version)) {
        self.entries.remove(&key);
    }

    /// Length of the merged sequence for `key` (0 when absent) — the
    /// cheap pre-check the prefetcher uses before cloning the sequence.
    pub fn sequence_len(&self, key: (BlobId, Version)) -> usize {
        self.entries.get(&key).map_or(0, |e| e.seq.len())
    }

    /// Publish batches merged for `key` so far (experiment diagnostics).
    pub fn publishes(&self, key: (BlobId, Version)) -> u64 {
        self.entries.get(&key).map_or(0, |e| e.publishes)
    }

    /// `(blob, version)` patterns currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the board tracks no patterns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shards in a [`BoardService`]. Keys hash across shards, so publishes
/// and polls for distinct snapshots never touch the same lock.
pub const BOARD_SHARDS: usize = 16;

/// The board behind its own locking: sharded `RwLock`s over
/// [`PatternBoard`] state.
///
/// The board replica is the hottest shared structure in the serving
/// path: every VM polls [`BoardService::sequence_len`] before every
/// guest compute burst ([`crate::Client::has_prefetch_work`]), and every
/// node publishes batches concurrently. Behind a single `Mutex` (the
/// pre-wall-clock design) those polls serialize the whole cohort. Here
/// reads (`sequence_len`, `novel_of`, `sequence_with_confidence`) take a
/// shard read lock and run concurrently; writes (`merge`,
/// `drop_pattern`) exclude only their own shard. Sequence payloads are
/// `Arc` copy-on-write, so read guards are held only for the map lookup,
/// never while a caller walks the sequence.
///
/// With `coarse` set the service emulates the old design — every key on
/// shard 0, every access exclusive — which is how `load_sweep` measures
/// what the sharding is worth. All acquisitions are counted through a
/// [`LockProbe`].
#[derive(Debug)]
pub struct BoardService {
    shards: Vec<RwLock<PatternBoard>>,
    coarse: bool,
    probe: LockProbe,
}

impl BoardService {
    /// A fresh board; `coarse` emulates the single-mutex design.
    pub fn new(coarse: bool) -> Self {
        Self {
            shards: (0..BOARD_SHARDS).map(|_| RwLock::default()).collect(),
            coarse,
            probe: LockProbe::default(),
        }
    }

    fn shard_of(&self, key: (BlobId, Version)) -> usize {
        if self.coarse {
            return 0;
        }
        let h = (key.0 .0 ^ key.1 .0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.shards.len()
    }

    fn with_read<R>(&self, key: (BlobId, Version), f: impl FnOnce(&PatternBoard) -> R) -> R {
        let shard = &self.shards[self.shard_of(key)];
        if self.coarse {
            // The old Mutex was exclusive even for reads.
            f(&probed_write(&self.probe, shard))
        } else {
            f(&probed_read(&self.probe, shard))
        }
    }

    fn with_write<R>(&self, key: (BlobId, Version), f: impl FnOnce(&mut PatternBoard) -> R) -> R {
        f(&mut probed_write(
            &self.probe,
            &self.shards[self.shard_of(key)],
        ))
    }

    /// See [`PatternBoard::merge`].
    pub fn merge(&self, key: (BlobId, Version), publisher: NodeId, batch: &[u64]) -> usize {
        self.with_write(key, |b| b.merge(key, publisher, batch))
    }

    /// See [`PatternBoard::novel_of`].
    pub fn novel_of(
        &self,
        key: (BlobId, Version),
        batch: &[u64],
        min_publishers: usize,
    ) -> Vec<u64> {
        self.with_read(key, |b| b.novel_of(key, batch, min_publishers))
    }

    /// See [`PatternBoard::sequence`].
    pub fn sequence(&self, key: (BlobId, Version)) -> Option<Arc<Vec<u64>>> {
        self.with_read(key, |b| b.sequence(key))
    }

    /// See [`PatternBoard::sequence_with_confidence`].
    pub fn sequence_with_confidence(
        &self,
        key: (BlobId, Version),
        min_publishers: usize,
    ) -> Option<ConfidentSequence> {
        self.with_read(key, |b| b.sequence_with_confidence(key, min_publishers))
    }

    /// See [`PatternBoard::sequence_len`].
    pub fn sequence_len(&self, key: (BlobId, Version)) -> usize {
        self.with_read(key, |b| b.sequence_len(key))
    }

    /// See [`PatternBoard::publisher_count`].
    pub fn publisher_count(&self, key: (BlobId, Version)) -> usize {
        self.with_read(key, |b| b.publisher_count(key))
    }

    /// See [`PatternBoard::publishes`].
    pub fn publishes(&self, key: (BlobId, Version)) -> u64 {
        self.with_read(key, |b| b.publishes(key))
    }

    /// See [`PatternBoard::drop_pattern`].
    pub fn drop_pattern(&self, key: (BlobId, Version)) {
        self.with_write(key, |b| b.drop_pattern(key));
    }

    /// Patterns tracked across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| probed_read(&self.probe, s).len())
            .sum()
    }

    /// Whether no shard tracks any pattern.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| probed_read(&self.probe, s).is_empty())
    }

    /// Contention counters of the board locks.
    pub fn contention(&self) -> LockContention {
        self.probe.snapshot()
    }
}

/// Charge the fabric for gossiping a `summary_bytes`-sized board update
/// from `host` (the provider-manager node) to `targets` along the k-ary
/// broadcast tree. Down or unreachable nodes are skipped — gossip is
/// best-effort; a node that missed an update simply prefetches a little
/// later. The publisher itself should be excluded by the caller (it
/// already holds its own accesses).
pub fn gossip_charge(
    fabric: &Arc<dyn Fabric>,
    host: NodeId,
    targets: &[NodeId],
    summary_bytes: u64,
) {
    // One small one-way message per tree edge, all in flight at once
    // (summaries are tiny; relays forward without store-and-forward
    // delays, so the whole round costs ~one link latency of virtual
    // time). Edges touching dead nodes are skipped — gossip is
    // best-effort; a node that missed an update prefetches a little
    // later.
    let xfers: Vec<Transfer> = bff_bcast::tree::tree_edges(host, targets, GOSSIP_ARITY)
        .into_iter()
        .filter(|&(p, c)| !fabric.is_down(p) && !fabric.is_down(c))
        .map(|(parent, child)| Transfer {
            src: parent,
            dst: child,
            bytes: summary_bytes,
        })
        .collect();
    let _ = fabric.transfer_all(&xfers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bff_net::LocalFabric;

    const KEY: (BlobId, Version) = (BlobId(1), Version(1));

    #[test]
    fn merge_unions_in_arrival_order() {
        let mut b = PatternBoard::default();
        assert_eq!(b.merge(KEY, NodeId(0), &[3, 1, 2]), 3);
        // A second publisher with overlap appends only the novel tail.
        assert_eq!(b.merge(KEY, NodeId(1), &[1, 2, 9]), 1);
        assert_eq!(*b.sequence(KEY).unwrap(), vec![3, 1, 2, 9]);
        assert_eq!(b.sequence_len(KEY), 4);
        assert_eq!(b.publishes(KEY), 2);
        assert_eq!(b.publisher_count(KEY), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn confidence_mask_confirms_cohort_chunks_only() {
        let mut b = PatternBoard::default();
        b.merge(KEY, NodeId(0), &[1, 2, 3]);
        // One publisher so far: the filter stays off (mask is None).
        let (seq, mask) = b.sequence_with_confidence(KEY, 2).unwrap();
        assert_eq!(*seq, vec![1, 2, 3]);
        assert!(mask.is_none(), "a lone seed's pattern is unfiltered");
        // A second publisher confirms 2 and 3 and adds a private 4.
        b.merge(KEY, NodeId(1), &[2, 3, 4]);
        let (seq, mask) = b.sequence_with_confidence(KEY, 2).unwrap();
        assert_eq!(*seq, vec![1, 2, 3, 4]);
        assert_eq!(mask.unwrap(), vec![false, true, true, false]);
        // min_publishers 1 disables the filter outright.
        let (_, mask) = b.sequence_with_confidence(KEY, 1).unwrap();
        assert!(mask.is_none());
    }

    #[test]
    fn novelty_filter_admits_confirmations_up_to_threshold() {
        let mut b = PatternBoard::default();
        b.merge(KEY, NodeId(0), &[1, 2]);
        // With the confidence filter on, a second publisher's overlap is
        // still worth publishing (it confirms), a third's is not.
        assert_eq!(b.novel_of(KEY, &[1, 2, 5], 2), vec![1, 2, 5]);
        b.merge(KEY, NodeId(1), &[1, 2, 5]);
        assert_eq!(b.novel_of(KEY, &[1, 2], 2), Vec::<u64>::new());
        // Pure novelty mode drops known indices after one publisher.
        assert_eq!(b.novel_of(KEY, &[1, 2, 7], 1), vec![7]);
    }

    #[test]
    fn drop_pattern_forgets_the_snapshot() {
        let mut b = PatternBoard::default();
        b.merge(KEY, NodeId(0), &[1, 2]);
        b.drop_pattern(KEY);
        assert!(b.sequence(KEY).is_none());
        assert_eq!(b.publisher_count(KEY), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn absent_key_reads_empty() {
        let b = PatternBoard::default();
        assert!(b.sequence(KEY).is_none());
        assert_eq!(b.sequence_len(KEY), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn sequence_is_bounded() {
        let mut b = PatternBoard::default();
        let big: Vec<u64> = (0..(BOARD_SEQ_CAP as u64 + 100)).collect();
        b.merge(KEY, NodeId(0), &big);
        assert_eq!(b.sequence_len(KEY), BOARD_SEQ_CAP);
        // Further novel indices are dropped, not wrapped.
        b.merge(KEY, NodeId(0), &[u64::MAX]);
        assert_eq!(b.sequence_len(KEY), BOARD_SEQ_CAP);
    }

    #[test]
    fn pattern_count_is_bounded_lru() {
        let mut b = PatternBoard::default();
        for v in 1..=(BOARD_PATTERN_CAP as u64 + 50) {
            b.merge((BlobId(1), Version(v)), NodeId(0), &[1, 2, 3]);
        }
        assert_eq!(b.len(), BOARD_PATTERN_CAP);
        // The newest pattern is present, the oldest was evicted.
        assert!(b
            .sequence((BlobId(1), Version(BOARD_PATTERN_CAP as u64 + 50)))
            .is_some());
        assert!(b.sequence((BlobId(1), Version(1))).is_none());
    }

    #[test]
    fn readers_hold_snapshots_across_merges() {
        let mut b = PatternBoard::default();
        b.merge(KEY, NodeId(0), &[1, 2]);
        let snap = b.sequence(KEY).unwrap();
        b.merge(KEY, NodeId(1), &[3]);
        assert_eq!(*snap, vec![1, 2], "held snapshot is immutable");
        assert_eq!(*b.sequence(KEY).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn board_service_mirrors_the_plain_board() {
        for coarse in [false, true] {
            let s = BoardService::new(coarse);
            assert!(s.is_empty(), "coarse={coarse}");
            assert_eq!(s.merge(KEY, NodeId(0), &[3, 1, 2]), 3);
            assert_eq!(s.merge(KEY, NodeId(1), &[1, 2, 9]), 1);
            assert_eq!(*s.sequence(KEY).unwrap(), vec![3, 1, 2, 9]);
            assert_eq!(s.sequence_len(KEY), 4);
            assert_eq!(s.publishes(KEY), 2);
            assert_eq!(s.publisher_count(KEY), 2);
            assert_eq!(s.novel_of(KEY, &[1, 2, 7], 1), vec![7]);
            let (seq, mask) = s.sequence_with_confidence(KEY, 2).unwrap();
            assert_eq!(seq.len(), 4);
            assert_eq!(mask.unwrap(), vec![false, true, true, false]);
            assert_eq!(s.len(), 1);
            s.drop_pattern(KEY);
            assert!(s.is_empty(), "coarse={coarse}");
            let c = s.contention();
            assert!(c.acquires > 0, "every access is counted");
        }
    }

    #[test]
    fn board_service_spreads_keys_over_shards() {
        let sharded = BoardService::new(false);
        let coarse = BoardService::new(true);
        for v in 1..=64u64 {
            let key = (BlobId(7), Version(v));
            sharded.merge(key, NodeId(0), &[v]);
            coarse.merge(key, NodeId(0), &[v]);
        }
        assert_eq!(sharded.len(), 64);
        assert_eq!(coarse.len(), 64);
        let spread = sharded
            .shards
            .iter()
            .filter(|s| !s.read().is_empty())
            .count();
        assert!(spread > 1, "64 keys must land on more than one shard");
        let packed = coarse
            .shards
            .iter()
            .filter(|s| !s.read().is_empty())
            .count();
        assert_eq!(packed, 1, "coarse mode pins everything to shard 0");
    }

    #[test]
    fn gossip_charges_one_message_per_edge() {
        let fabric = LocalFabric::new(8);
        let targets: Vec<NodeId> = (1..8).map(NodeId).collect();
        gossip_charge(
            &(Arc::clone(&fabric) as Arc<dyn Fabric>),
            NodeId(0),
            &targets,
            100,
        );
        // 7 edges x 100 bytes, one-way.
        assert_eq!(fabric.stats().total_network_bytes(), 700);
        // A dead relay does not abort the rest of the gossip.
        fabric.stats().reset();
        fabric.fail_node(NodeId(1));
        gossip_charge(
            &(Arc::clone(&fabric) as Arc<dyn Fabric>),
            NodeId(0),
            &targets,
            100,
        );
        assert!(fabric.stats().total_network_bytes() > 0);
    }
}
