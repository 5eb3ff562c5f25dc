//! The cluster-wide content-addressed dedup index.
//!
//! The node-local digest index (PR 3) collapses duplicate content a
//! *single* node commits, but the paper's multisnapshotting claim is
//! storage efficiency under many concurrent writers of near-identical
//! data: co-deployed VMs on *different* nodes commit the same
//! contextualization payloads, and a node-local index stores (and
//! replicates over the network) each node's copy redundantly. The
//! [`ClusterIndex`] promotes the digest index to a cluster service
//! hosted *beside the provider manager*, on the same deployment and
//! transport model as the [`crate::board::PatternBoard`]:
//!
//! * **Probes cost the model nothing.** A commit asks the host about
//!   all its node-index misses in one `ClusterReq::Get` — a real frame
//!   behind a transport hop — which the cost book prices at zero, as if
//!   the node consulted a replica gossiped along the `bff_bcast` k-ary
//!   tree: the common boot-path commit (all content already indexed, or
//!   all content fresh) never pays an extra control round for the
//!   cluster probe.
//! * **Publishes are batched and novelty-filtered.** After a commit
//!   becomes durable, its content keys go to the host in **one**
//!   request ([`ClusterIndex::record_novel`]): the index files the keys
//!   it does not already hold and says how many there were, and only
//!   those are charged — one control RPC, gossiped onward
//!   ([`gossip_charge`](crate::board::gossip_charge) charges the
//!   dissemination). Once a cohort's content has converged, commits
//!   publish nothing and the control plane is quiet.
//! * **Hits commit by reference.** A cluster hit is validated and
//!   retained through exactly the machinery of a node-local hit (one
//!   [`crate::provider::ProviderStore::retain_matching`] batch per live
//!   replica's provider: the provider compares the key with the bytes it
//!   stores), so the rollback-exact failure semantics of the write path
//!   carry over unchanged. The node-local index stays as the first-level
//!   filter — the cluster replica is only probed on a node-local miss.
//!
//! The index also keeps a reverse chunk-id map so snapshot garbage
//! collection ([`crate::Client::delete_snapshot`]) can evict the entries
//! of freed chunks in O(freed), not O(index).

use crate::api::{ChunkDesc, ChunkId};
use bff_data::{ContentKey, DigestIndex, FastMap, FastSet};

/// The cluster dedup index state (one logical instance per deployed
/// service, hosted on `topology().pmanager`; compute nodes read their
/// gossiped replicas — in this model the replica state *is* the shared
/// memory, and the gossip charges make the fabric see the dissemination
/// traffic a real deployment would pay).
#[derive(Debug)]
pub struct ClusterIndex {
    entries: DigestIndex<ChunkDesc>,
    /// Reverse map: chunk id → content keys indexed under it (almost
    /// always exactly one; a digest collision keyed by different
    /// lengths can map two keys to one id's content — kept as a set so
    /// GC eviction never strands an entry).
    by_chunk: FastMap<ChunkId, FastSet<ContentKey>>,
}

impl ClusterIndex {
    /// An index bounded at `cap` entries (`0` disables it).
    pub fn new(cap: usize) -> Self {
        Self {
            entries: DigestIndex::new(cap),
            by_chunk: FastMap::default(),
        }
    }

    /// Look up a content key in the (gossiped) index.
    pub fn get(&self, key: &ContentKey) -> Option<ChunkDesc> {
        self.entries.get(key).cloned()
    }

    /// Whether the index holds `key`.
    pub fn holds(&self, key: &ContentKey) -> bool {
        self.entries.get(key).is_some()
    }

    /// Record the entries whose key the index does not hold yet and
    /// return how many there were — what the publisher is charged for,
    /// so converged cohorts publish nothing. A held key is left alone,
    /// descriptor and recency: its entry is either right or found stale
    /// (and forgotten) by whoever validates it next.
    pub fn record_novel(
        &mut self,
        entries: impl IntoIterator<Item = (ContentKey, ChunkDesc)>,
    ) -> usize {
        if self.entries.capacity() == 0 {
            return 0;
        }
        let mut novel = 0;
        for (key, desc) in entries {
            if !self.holds(&key) {
                self.record(key, desc);
                novel += 1;
            }
        }
        novel
    }

    /// Record (or refresh) the descriptor holding `key`'s content,
    /// maintaining the reverse map — including entries displaced by the
    /// capacity bound.
    pub fn record(&mut self, key: ContentKey, desc: ChunkDesc) {
        if self.entries.capacity() == 0 {
            return;
        }
        // A re-record under a different chunk id must not leave the old
        // reverse slot behind.
        if let Some(old) = self.entries.get(&key) {
            if old.id != desc.id {
                self.unlink(&key, old.id);
            }
        }
        let id = desc.id;
        self.entries.insert(key, desc);
        self.by_chunk.entry(id).or_default().insert(key);
        // The bounded insert may have evicted older entries; resync the
        // reverse map lazily by dropping reverse slots whose key no
        // longer resolves (cheap: only this id's set is touched on the
        // hot path, the full sweep happens on GC evictions).
        if self.entries.len() * 2 < self.by_chunk.len() {
            let entries = &self.entries;
            self.by_chunk.retain(|_, keys| {
                keys.retain(|k| entries.get(k).is_some());
                !keys.is_empty()
            });
        }
    }

    /// Drop a stale entry (the consumer validated a hit and found the
    /// chunk gone everywhere).
    pub fn forget(&mut self, key: &ContentKey) {
        if let Some(desc) = self.entries.remove(key) {
            self.unlink(key, desc.id);
        }
    }

    /// GC eviction: drop every entry whose descriptor points at one of
    /// the freed `ids`. Returns how many entries left the index.
    pub fn evict_chunks(&mut self, ids: &FastSet<ChunkId>) -> usize {
        let mut keys: Vec<ContentKey> = Vec::new();
        for id in ids {
            if let Some(set) = self.by_chunk.remove(id) {
                keys.extend(set);
            }
        }
        let mut removed = 0;
        for key in &keys {
            // Only remove if the entry still points at a freed id — a
            // racing re-record under a fresh chunk must survive.
            if self.entries.get(key).is_some_and(|d| ids.contains(&d.id)) {
                self.entries.remove(key);
                removed += 1;
            }
        }
        removed
    }

    fn unlink(&mut self, key: &ContentKey, id: ChunkId) {
        if let Some(set) = self.by_chunk.get_mut(&id) {
            set.remove(key);
            if set.is_empty() {
                self.by_chunk.remove(&id);
            }
        }
    }

    /// Number of content keys currently indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bff_data::{ContentDigest, Digest};
    use bff_net::NodeId;
    use std::sync::Arc;

    fn key(n: u64) -> ContentKey {
        (100, ContentDigest::Weak(Digest(n)))
    }

    fn desc(id: u64) -> ChunkDesc {
        ChunkDesc {
            id: ChunkId(id),
            replicas: Arc::from([NodeId(0), NodeId(1)].as_slice()),
        }
    }

    #[test]
    fn record_lookup_forget_roundtrip() {
        let mut idx = ClusterIndex::new(16);
        assert!(idx.get(&key(1)).is_none());
        idx.record(key(1), desc(7));
        assert_eq!(idx.get(&key(1)), Some(desc(7)));
        assert_eq!(idx.len(), 1);
        idx.forget(&key(1));
        assert!(idx.get(&key(1)).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn record_novel_files_and_counts_unknown_keys_only() {
        let mut idx = ClusterIndex::new(16);
        idx.record(key(1), desc(7));
        let entries = [(key(1), desc(9)), (key(2), desc(8))];
        assert_eq!(idx.record_novel(entries.iter().cloned()), 1);
        assert_eq!(idx.get(&key(1)), Some(desc(7)), "a held key is left alone");
        assert_eq!(idx.get(&key(2)), Some(desc(8)));
        assert_eq!(idx.record_novel(entries.iter().cloned()), 0);
        // A disabled index files nothing and charges nothing.
        assert_eq!(ClusterIndex::new(0).record_novel(entries), 0);
    }

    #[test]
    fn evict_chunks_drops_only_freed_entries() {
        let mut idx = ClusterIndex::new(16);
        idx.record(key(1), desc(7));
        idx.record(key(2), desc(8));
        idx.record(key(3), desc(7)); // a length-distinct key on the same id
        let mut freed: FastSet<ChunkId> = FastSet::default();
        freed.insert(ChunkId(7));
        assert_eq!(idx.evict_chunks(&freed), 2);
        assert!(idx.get(&key(1)).is_none());
        assert!(idx.get(&key(3)).is_none());
        assert_eq!(idx.get(&key(2)), Some(desc(8)), "unrelated entry survives");
    }

    #[test]
    fn rerecord_moves_reverse_slot() {
        let mut idx = ClusterIndex::new(16);
        idx.record(key(1), desc(7));
        idx.record(key(1), desc(9)); // content re-pushed under a new chunk
        let mut freed: FastSet<ChunkId> = FastSet::default();
        freed.insert(ChunkId(7));
        // Evicting the old id must not take the re-recorded entry down.
        assert_eq!(idx.evict_chunks(&freed), 0);
        assert_eq!(idx.get(&key(1)), Some(desc(9)));
    }

    #[test]
    fn zero_capacity_index_is_inert() {
        let mut idx = ClusterIndex::new(0);
        idx.record(key(1), desc(7));
        assert!(idx.is_empty());
        assert!(idx.get(&key(1)).is_none());
    }
}
