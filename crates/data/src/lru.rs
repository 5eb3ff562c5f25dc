//! [`LruMap`]: the one bounded map behind the node-side indexes and
//! caches (content digests, segment-tree nodes, version facts,
//! descriptor-cache shards, access trackers, chunk payloads).
//!
//! Recency is a lazily invalidated queue: every insert or refresh stamps
//! the entry with a fresh sequence number and pushes a `(key, seq)` slot;
//! a slot is live iff its stamp still matches the entry's, so a stale
//! slot — left by a removal, a re-insert or a refresh — can never evict
//! a live entry in its place. Which accesses count as *use* is the
//! caller's choice: [`LruMap::get`] only peeks (eviction then follows
//! insertion order, re-inserting a key refreshes it), while
//! [`LruMap::get_refresh`] and [`LruMap::get_refresh_mut`] mark the
//! entry most-recently used.
//!
//! The bound is on total *weight*: an entry inserted with
//! [`LruMap::insert`] weighs 1, so the bound counts entries; one
//! inserted with [`LruMap::insert_weighted`] weighs what the caller says
//! (a payload's bytes), and the entries evicted to make room are handed
//! back.

use crate::FastMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// One live entry: its value, its weight, and the sequence of the insert
/// or refresh that last touched it.
#[derive(Debug)]
struct Slot<V> {
    stamp: u64,
    weight: u64,
    value: V,
}

/// A map whose entries weigh at most `cap` in total, evicting the
/// least-recently inserted-or-refreshed *live* entry once the bound is
/// exceeded.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: FastMap<K, Slot<V>>,
    /// Recency queue of `(key, seq)` slots; a slot is live iff its seq
    /// matches the map's current stamp for that key.
    order: VecDeque<(K, u64)>,
    seq: u64,
    /// Sum of the live entries' weights.
    weight: u64,
    cap: u64,
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    /// A map whose entries weigh at most `cap` in total (`cap == 0`
    /// disables it: every insert is dropped, every lookup misses).
    pub fn new(cap: usize) -> Self {
        Self {
            map: FastMap::default(),
            order: VecDeque::new(),
            seq: 0,
            weight: 0,
            cap: cap as u64,
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

    /// The bound on total weight.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Total weight of the entries held (their count when every entry
    /// came in through [`LruMap::insert`]).
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Look up a key without touching its recency.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Look up a key and mark it most-recently used.
    pub fn get_refresh(&mut self, key: &K) -> Option<&V> {
        self.get_refresh_mut(key).map(|v| &*v)
    }

    /// [`LruMap::get_refresh`], lending the value mutably.
    pub fn get_refresh_mut(&mut self, key: &K) -> Option<&mut V> {
        // Compact what earlier refreshes left behind *before* taking the
        // entry, so the hit is one map lookup; the slot pushed below
        // waits for the next operation.
        self.compact();
        let slot = self.map.get_mut(key)?;
        // Already the most recent: nothing to reorder (the common case
        // of one reader going back to the same entry).
        if slot.stamp != self.seq {
            self.seq += 1;
            slot.stamp = self.seq;
            self.order.push_back((*key, self.seq));
        }
        Some(&mut slot.value)
    }

    /// The entry for `key`, marked most-recently used; an absent key is
    /// first inserted as `make()` (weight 1). `None` only from a
    /// zero-capacity map, which keeps nothing to lend.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> Option<&mut V> {
        if !self.map.contains_key(&key) {
            self.insert(key, make());
        }
        self.get_refresh_mut(&key)
    }

    /// Whether a queue slot no longer corresponds to a live entry.
    fn is_stale(map: &FastMap<K, Slot<V>>, slot: &(K, u64)) -> bool {
        map.get(&slot.0).is_none_or(|live| live.stamp != slot.1)
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

    /// Insert (or replace) an entry of weight 1 as most-recently used,
    /// evicting the least-recently used live one if the map is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_evicting(key, value, 1, |_, _| {});
    }

    /// Insert (or replace) an entry of weight `weight` as most-recently
    /// used, evicting least-recently used live entries until the total
    /// weight is within the bound again, and hand the evicted entries
    /// back, oldest first. An entry heavier than the whole bound is
    /// evicted itself, last.
    pub fn insert_weighted(&mut self, key: K, value: V, weight: u64) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        self.insert_evicting(key, value, weight, |k, v| evicted.push((k, v)));
        evicted
    }

    fn insert_evicting(&mut self, key: K, value: V, weight: u64, mut evicted: impl FnMut(K, V)) {
        if self.cap == 0 {
            return;
        }
        self.seq += 1;
        let slot = Slot {
            stamp: self.seq,
            weight,
            value,
        };
        if let Some(old) = self.map.insert(key, slot) {
            self.weight -= old.weight;
        }
        self.weight += weight;
        self.order.push_back((key, self.seq));
        while self.weight > self.cap {
            let Some(slot) = self.order.pop_front() else {
                break;
            };
            // Stale slots (removed, re-inserted or refreshed keys)
            // remove nothing; keep popping until a live entry leaves.
            if !Self::is_stale(&self.map, &slot) {
                let gone = self.map.remove(&slot.0).expect("a live slot has an entry");
                self.weight -= gone.weight;
                evicted(slot.0, gone.value);
            }
        }
        self.compact();
    }

    /// Drop an entry (e.g. after the consumer found it stale). The
    /// recency queue keeps a stale slot that eviction skips.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.weight -= slot.weight;
        Some(slot.value)
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
        let weight = &mut self.weight;
        self.map.retain(|k, slot| {
            let gone = pred(k, &slot.value);
            if gone {
                *weight -= slot.weight;
            }
            !gone
        });
        before - self.map.len()
    }

    /// Slots in the recency queue, live and stale.
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.order.len()
    }

    /// Iterate the live entries (GC reverse-lookup and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, slot)| (k, &slot.value))
    }
}

#[cfg(test)]
mod tests {
    // Insert/peek/remove behaviour is pinned by the `DigestIndex` tests
    // in `crate::digest`; these cover what use-recency and weight add.
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
    fn mutable_refresh_edits_in_place_and_counts_as_use() {
        let mut m: LruMap<u64, u32> = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        *m.get_refresh_mut(&1).expect("present") += 1;
        m.insert(3, 30);
        assert_eq!(m.get(&1), Some(&11), "edited, and refreshed past 2");
        assert_eq!(m.get(&2), None);
        // An absent key is made once, then found.
        *m.get_or_insert_with(4, || 40).expect("non-zero bound") += 1;
        assert_eq!(m.get_or_insert_with(4, || 0).copied(), Some(41));
        assert_eq!(m.get(&1), None, "making 4 evicted the LRU entry");
        assert_eq!(LruMap::<u64, u32>::new(0).get_or_insert_with(1, || 1), None);
    }

    #[test]
    fn weight_bound_evicts_in_lru_order_and_hands_entries_back() {
        let mut m: LruMap<u64, &str> = LruMap::new(300);
        for (k, v) in [(1, "a"), (2, "b"), (3, "c")] {
            assert!(m.insert_weighted(k, v, 100).is_empty());
        }
        assert_eq!((m.len(), m.weight()), (3, 300));
        // Use 1, so 2 then 3 are the oldest when 250 bytes arrive.
        m.get_refresh(&1);
        assert_eq!(m.insert_weighted(4, "d", 150), vec![(2, "b"), (3, "c")]);
        assert_eq!((m.len(), m.weight()), (2, 250));
        assert_eq!(m.get(&1), Some(&"a"));
        // Removal and replacement keep the weight exact.
        m.remove(&1);
        assert!(m.insert_weighted(4, "e", 50).is_empty());
        assert_eq!((m.len(), m.weight()), (1, 50));
        // An entry heavier than the bound leaves last, after the rest.
        assert_eq!(m.insert_weighted(5, "f", 400), vec![(4, "e"), (5, "f")]);
        assert_eq!((m.len(), m.weight()), (0, 0));
    }

    #[test]
    fn hit_churn_keeps_queue_bounded() {
        // Every refresh parks a queue slot; with the working set under
        // the bound eviction never runs, so the queue must self-compact
        // instead of growing per hit — also behind a live key parked at
        // the front, and whether the bound counts entries or bytes.
        for weight in [1, 64] {
            let mut m: LruMap<u64, u32> = LruMap::new(1 << 20);
            m.insert_weighted(0, 0, weight);
            for k in 1..=4 {
                m.insert_weighted(k, 0, weight);
            }
            for round in 0..10_000u64 {
                assert!(m.get_refresh_mut(&(1 + round % 4)).is_some());
            }
            assert_eq!((m.len(), m.weight()), (5, 5 * weight));
            assert!(
                m.queue_len() <= 11,
                "queue grew to {} slots for 5 live entries",
                m.queue_len()
            );
        }
    }

    #[test]
    fn zero_capacity_map_is_inert() {
        let mut m: LruMap<u64, u32> = LruMap::new(0);
        m.insert(1, 10);
        assert!(m.insert_weighted(2, 20, 1).is_empty());
        assert!(m.is_empty());
        assert_eq!(m.get_refresh(&1), None);
    }
}
