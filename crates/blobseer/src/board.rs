//! The cluster-level access-pattern board: the control plane of the
//! adaptive cross-VM prefetching pipeline (§3.1.3).
//!
//! Co-deployed VMs booting the same image touch nearly identical chunk
//! sequences with a skew of ~100 ms. The [`PatternBoard`] turns that
//! observation into a service: every node's shared
//! [`crate::NodeContext`] batches the first-touch order of the chunks
//! its guests' reads moved (fetched, or read ahead and used for the
//! first time — not those it already held) and publishes compact
//! summaries here; a node deploying
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
//! the local replica are free.
//!
//! The replica is real: each node's [`crate::NodeContext`] keeps, per
//! snapshot, the prefix of the merged sequence it has been sent, with
//! the confirmation flags of that moment. The publisher's novelty
//! filter, the read-ahead decision
//! ([`crate::NodeContext::read_ahead`]) and the read-ahead claims read
//! it and nothing else. One request refreshes it,
//! [`BoardService::sync`], and a frame carries it to the board only
//!
//! * to **publish** a first-touch batch the replica calls novel or not
//!   yet cohort-confirmed — the reply brings back what the replica
//!   lacks, the publisher's own entries included, in board order; or
//! * as one empty-batch **poll** by a read-ahead step when the node has
//!   consumed its replica, has not touched every chunk of the snapshot,
//!   and has never asked about it or has missed the pattern since its
//!   last exchange (see [`crate::NodeContext::read_ahead`]).
//!
//! A reply never repeats an entry the replica holds, so a replica's
//! flags can lag the board's: a lagging node may publish a batch the
//! board already has (harmless — one more confirmation) or walk past a
//! chunk confirmed a moment later (best-effort, like every prefetch
//! miss). The fabric is charged for publishes (control RPC plus the
//! gossip fan-out, [`gossip_charge`]); replica reads and polls model
//! the gossip already paid for and are free.
//!
//! The board stores the *union* of all publishers' first-touch orders,
//! deduplicated in arrival order. That is deliberately coarse: the point
//! is not to replay one peer's exact trace but to know, cheaply, which
//! chunks the cohort touches and roughly in which order — which is also
//! why a bounded sequence ([`BOARD_SEQ_CAP`]) suffices.

use crate::api::{BlobId, Version};
use bff_data::{FastMap, FastSet};
use bff_net::{Fabric, NodeId, Transfer};
use bff_wire::msg::BoardSync;
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
    /// the confidence signal behind [`PatternBoard::tail`].
    confirms: FastMap<u64, u32>,
    /// Publish batches merged so far.
    publishes: u64,
    /// Stamp of the last merge (LRU eviction under
    /// [`BOARD_PATTERN_CAP`]).
    last_merge: u64,
}

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

    /// The merged peer sequence for `key`, cheaply shareable (readers
    /// hold the `Arc` while the prefetcher walks it; a concurrent merge
    /// copies-on-write).
    pub fn sequence(&self, key: (BlobId, Version)) -> Option<Arc<Vec<u64>>> {
        self.entries.get(&key).map(|e| Arc::clone(&e.seq))
    }

    /// What a replica holding the first `from` entries of `key`'s
    /// sequence lacks (see [`BoardSync`]). Each entry's flag is whether at least `min_publishers`
    /// distinct nodes reported it — with `min_publishers ≤ 1` every
    /// entry is confirmed. `cohort` tells the reader whether to apply
    /// the flags at all: a lone seed VM's pattern is better than
    /// nothing, but the moment a cohort exists, chunks only one member
    /// touched (private divergence) are not worth read-ahead.
    pub fn tail(&self, key: (BlobId, Version), from: usize, min_publishers: usize) -> BoardSync {
        let Some(e) = self.entries.get(&key) else {
            return BoardSync::default();
        };
        let confirmed =
            |idx: &u64| e.confirms.get(idx).copied().unwrap_or(0) as usize >= min_publishers;
        BoardSync {
            len: e.seq.len(),
            cohort: e.publishers.len() >= min_publishers,
            tail: e
                .seq
                .get(from..)
                .unwrap_or_default()
                .iter()
                .map(|idx| (*idx, confirmed(idx)))
                .collect(),
        }
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

    /// Length of the merged sequence for `key` (0 when absent).
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
/// Every node of a cohort publishes batches and polls concurrently
/// ([`BoardService::sync`]): a poll takes a shard read lock and polls run
/// concurrently; a publish (and `drop_pattern`) excludes only its own
/// shard.
#[derive(Debug)]
pub struct BoardService {
    shards: Vec<RwLock<PatternBoard>>,
}

impl Default for BoardService {
    fn default() -> Self {
        Self::new()
    }
}

impl BoardService {
    /// A fresh, empty board.
    pub fn new() -> Self {
        Self {
            shards: (0..BOARD_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard_of(&self, key: (BlobId, Version)) -> usize {
        let h = (key.0 .0 ^ key.1 .0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.shards.len()
    }

    fn with_read<R>(&self, key: (BlobId, Version), f: impl FnOnce(&PatternBoard) -> R) -> R {
        f(&self.shards[self.shard_of(key)].read())
    }

    fn with_write<R>(&self, key: (BlobId, Version), f: impl FnOnce(&mut PatternBoard) -> R) -> R {
        f(&mut self.shards[self.shard_of(key)].write())
    }

    /// See [`PatternBoard::merge`].
    pub fn merge(&self, key: (BlobId, Version), publisher: NodeId, batch: &[u64]) -> usize {
        self.with_write(key, |b| b.merge(key, publisher, batch))
    }

    /// The one request a node's board replica makes (see the module
    /// docs): merge `publisher`'s `batch` if there is one, and answer
    /// with what a replica of `from` entries lacks. An empty batch is a
    /// poll: a read, it creates no pattern and counts as no publish.
    pub fn sync(
        &self,
        key: (BlobId, Version),
        publisher: NodeId,
        batch: &[u64],
        from: usize,
        min_publishers: usize,
    ) -> BoardSync {
        if batch.is_empty() {
            return self.with_read(key, |b| b.tail(key, from, min_publishers));
        }
        self.with_write(key, |b| {
            b.merge(key, publisher, batch);
            b.tail(key, from, min_publishers)
        })
    }

    /// See [`PatternBoard::sequence`].
    pub fn sequence(&self, key: (BlobId, Version)) -> Option<Arc<Vec<u64>>> {
        self.with_read(key, |b| b.sequence(key))
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
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether no shard tracks any pattern.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
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
    fn confirmation_flags_mark_cohort_chunks_only() {
        let mut b = PatternBoard::default();
        b.merge(KEY, NodeId(0), &[1, 2, 3]);
        // One publisher so far: no cohort, so a reader ignores the flags
        // (a lone seed's pattern is unfiltered).
        let sync = b.tail(KEY, 0, 2);
        assert_eq!(sync.tail, [(1, false), (2, false), (3, false)]);
        assert_eq!((sync.len, sync.cohort), (3, false));
        // A second publisher confirms 2 and 3 and adds a private 4.
        b.merge(KEY, NodeId(1), &[2, 3, 4]);
        let sync = b.tail(KEY, 0, 2);
        assert_eq!(sync.tail, [(1, false), (2, true), (3, true), (4, false)]);
        assert_eq!((sync.len, sync.cohort), (4, true));
        // min_publishers 1 confirms everything outright.
        let sync = b.tail(KEY, 0, 1);
        assert!(sync.cohort && sync.tail.iter().all(|&(_, confirmed)| confirmed));
    }

    #[test]
    fn a_tail_starts_where_the_replica_ends() {
        let mut b = PatternBoard::default();
        b.merge(KEY, NodeId(0), &[1, 2]);
        b.merge(KEY, NodeId(1), &[1, 2, 5]);
        // A replica that holds two entries is sent the third only.
        let sync = b.tail(KEY, 2, 2);
        assert_eq!((sync.tail, sync.len), (vec![(5, false)], 3));
        // One that holds everything — or more than the board has, after
        // the board lost the pattern — is sent nothing but the length.
        assert_eq!(b.tail(KEY, 3, 2).tail, []);
        let ahead = b.tail(KEY, 9, 2);
        assert_eq!((ahead.tail, ahead.len), (vec![], 3));
        b.drop_pattern(KEY);
        assert_eq!(b.tail(KEY, 3, 2), BoardSync::default());
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
        let s = BoardService::new();
        assert!(s.is_empty());
        assert_eq!(s.merge(KEY, NodeId(0), &[3, 1, 2]), 3);
        assert_eq!(s.merge(KEY, NodeId(1), &[1, 2, 9]), 1);
        assert_eq!(*s.sequence(KEY).unwrap(), vec![3, 1, 2, 9]);
        assert_eq!(s.sequence_len(KEY), 4);
        assert_eq!(s.publishes(KEY), 2);
        assert_eq!(s.publisher_count(KEY), 2);
        // A poll reads: no publish, no publisher, nothing merged.
        let poll = s.sync(KEY, NodeId(7), &[], 1, 2);
        assert_eq!(poll.tail, [(1, true), (2, true), (9, false)]);
        assert_eq!((poll.len, poll.cohort), (4, true));
        assert_eq!((s.publishes(KEY), s.publisher_count(KEY)), (2, 2));
        // A publish merges, then answers from the caller's length.
        let published = s.sync(KEY, NodeId(2), &[9, 7], 4, 2);
        assert_eq!(published.len, 5);
        assert_eq!(published.tail, [(7, false)]);
        assert_eq!(*s.sequence(KEY).unwrap(), vec![3, 1, 2, 9, 7]);
        assert_eq!(s.len(), 1);
        s.drop_pattern(KEY);
        assert!(s.is_empty());
    }

    #[test]
    fn board_service_spreads_keys_over_shards() {
        let s = BoardService::new();
        for v in 1..=64u64 {
            s.merge((BlobId(7), Version(v)), NodeId(0), &[v]);
        }
        assert_eq!(s.len(), 64);
        let spread = s.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert!(spread > 1, "64 keys must land on more than one shard");
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
