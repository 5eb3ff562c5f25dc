//! [`LruMap`]: the bounded map behind the node-side indexes (content
//! digests, segment-tree nodes, version facts).
//!
//! Recency is a lazily invalidated queue: every insert or refresh stamps
//! the entry with a fresh sequence number and pushes a `(key, seq)` slot;
//! a slot is live iff its stamp still matches the entry's, so a stale
//! slot — left by a removal, a re-insert or a refresh — can never evict
//! a live entry in its place. Which accesses count as *use* is the
//! caller's choice: [`LruMap::get`] only peeks (eviction then follows
//! insertion order, re-inserting a key refreshes it), while
//! [`LruMap::get_refresh`] marks the entry most-recently used.

use crate::FastMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// A map holding at most `cap` entries, evicting the least-recently
/// inserted-or-refreshed *live* entry once the capacity is exceeded.
#[derive(Debug)]
pub struct LruMap<K, V> {
    /// Live entries, each stamped with the sequence of the insert or
    /// refresh that last touched it.
    map: FastMap<K, (u64, V)>,
    /// Recency queue of `(key, seq)` slots; a slot is live iff its seq
    /// matches the map's current stamp for that key.
    order: VecDeque<(K, u64)>,
    seq: u64,
    cap: usize,
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    /// A map holding at most `cap` entries (`cap == 0` disables it:
    /// every insert is dropped, every lookup misses).
    pub fn new(cap: usize) -> Self {
        Self {
            map: FastMap::default(),
            order: VecDeque::new(),
            seq: 0,
            cap,
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Look up a key without touching its recency.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(_, v)| v)
    }

    /// Look up a key and mark it most-recently used.
    pub fn get_refresh(&mut self, key: &K) -> Option<&V> {
        // Compact what earlier refreshes left behind *before* taking the
        // entry, so the hit is one map lookup; the slot pushed below
        // waits for the next operation.
        self.compact();
        let (stamp, value) = self.map.get_mut(key)?;
        // Already the most recent: nothing to reorder (the common case
        // of one reader going back to the same entry).
        if *stamp != self.seq {
            self.seq += 1;
            *stamp = self.seq;
            self.order.push_back((*key, self.seq));
        }
        Some(value)
    }

    /// Whether a queue slot no longer corresponds to a live entry.
    fn is_stale(map: &FastMap<K, (u64, V)>, slot: &(K, u64)) -> bool {
        map.get(&slot.0).is_none_or(|(cur, _)| *cur != slot.1)
    }

    /// Drop the stale slots once they outnumber the live entries. The
    /// pass is O(queue) but runs only after the queue doubles, so
    /// operations stay amortized O(1) and `order.len() ≤ max(2·len(), 8)`
    /// (plus the one slot a refresh has just pushed) — also behind a
    /// live, never-refreshed key parked at the front (content committed
    /// once, early), which a drain of the stale *prefix* alone would let
    /// shield an unbounded tail of stale slots.
    fn compact(&mut self) {
        if self.order.len() > self.map.len().saturating_mul(2).max(8) {
            self.order.retain(|slot| !Self::is_stale(&self.map, slot));
        }
    }

    /// Insert (or replace) an entry as most-recently used, evicting the
    /// least-recently used live one if the map is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        self.seq += 1;
        self.map.insert(key, (self.seq, value));
        self.order.push_back((key, self.seq));
        while self.map.len() > self.cap {
            match self.order.pop_front() {
                Some(slot) => {
                    // Stale slots (removed, re-inserted or refreshed
                    // keys) remove nothing; keep popping until a live
                    // entry leaves.
                    if !Self::is_stale(&self.map, &slot) {
                        self.map.remove(&slot.0);
                    }
                }
                None => break,
            }
        }
        self.compact();
    }

    /// Drop an entry (e.g. after the consumer found it stale). The
    /// recency queue keeps a stale slot that eviction skips.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(_, v)| v)
    }

    /// Drop every entry matching `pred`, returning how many left. This
    /// is the garbage-collection hook: when stored content is reclaimed
    /// (its chunk freed), the index entries that point at it must go —
    /// by *value* predicate, because the collector knows what it freed
    /// (a chunk id), not the keys that mapped to it. O(len); collectors
    /// batch their evictions so the scan runs once per GC pass, not once
    /// per freed chunk.
    pub fn remove_matching(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, (_, v)| !pred(k, v));
        before - self.map.len()
    }

    /// Slots in the recency queue, live and stale.
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.order.len()
    }

    /// Iterate the live entries (GC reverse-lookup and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (_, v))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    // Insert/peek/remove behaviour is pinned by the `DigestIndex` tests
    // in `crate::digest`; these cover what use-recency adds.
    use super::*;

    #[test]
    fn refreshed_entry_outlives_newer_untouched_ones() {
        let mut m: LruMap<u64, u32> = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        // A peek is not a use ...
        assert_eq!(m.get(&2), Some(&20));
        // ... a refresh is.
        assert_eq!(m.get_refresh(&1), Some(&10));
        m.insert(3, 30);
        assert_eq!(m.get(&1), Some(&10), "the used entry stays");
        assert_eq!(m.get(&2), None, "the least-recently used one left");
        assert_eq!(m.get_refresh(&9), None);
    }

    #[test]
    fn hit_churn_keeps_queue_bounded() {
        // Every refresh parks a queue slot; with the working set under
        // the bound eviction never runs, so the queue must self-compact
        // instead of growing per hit — also behind a live key parked at
        // the front.
        let mut m: LruMap<u64, u32> = LruMap::new(1 << 16);
        m.insert(0, 0);
        for k in 1..=4 {
            m.insert(k, 0);
        }
        for round in 0..10_000u64 {
            assert!(m.get_refresh(&(1 + round % 4)).is_some());
        }
        assert_eq!(m.len(), 5);
        assert!(
            m.queue_len() <= 11,
            "queue grew to {} slots for 5 live entries",
            m.queue_len()
        );
    }

    #[test]
    fn zero_capacity_map_is_inert() {
        let mut m: LruMap<u64, u32> = LruMap::new(0);
        m.insert(1, 10);
        assert!(m.is_empty());
        assert_eq!(m.get_refresh(&1), None);
    }
}
