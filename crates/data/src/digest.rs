//! Content digests used for cheap equality checks, and the bounded
//! [`DigestIndex`] (an [`LruMap`] keyed by content) behind
//! content-addressed write deduplication.
//!
//! FNV-1a over 64 bits is sufficient here: digests are never used for
//! security, only to compare payloads without materializing both sides,
//! and collisions in test-sized inputs are vanishingly unlikely. Dedup
//! consumers additionally key by payload *length*, shrinking the
//! collision scope to equal-sized chunks.

use crate::LruMap;

/// A 64-bit FNV-1a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorb bytes.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let mut s = self.state;
        for &b in data {
            s ^= b as u64;
            s = s.wrapping_mul(FNV_PRIME);
        }
        self.state = s;
    }

    /// Finish and produce the digest.
    pub fn finish(&self) -> Digest {
        Digest(self.state)
    }
}

impl Digest {
    /// Digest a byte slice in one call.
    pub fn of(data: &[u8]) -> Digest {
        let mut h = Hasher::new();
        h.update(data);
        h.finish()
    }
}

/// The digest half of a [`ContentKey`]: which hash identified the
/// content, and its value.
///
/// The two variants are the dedup pipeline's two strengths, validated
/// the same way: a hit counts only once the provider storing the chunk
/// has compared the key with the length and digest of the bytes it
/// holds. With [`ContentDigest::Weak`] (64-bit FNV-1a) that proves
/// 64-bit digest equality — cheap, and not collision-proof; with
/// [`ContentDigest::Strong`] (SHA-256) it proves content equality, for
/// the price of the stronger hash on every commit. The variants never
/// compare equal, so a deployment switching modes mid-life simply
/// re-indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentDigest {
    /// 64-bit FNV-1a: cheap, not collision-resistant.
    Weak(Digest),
    /// SHA-256: collision-resistant.
    Strong(crate::sha256::Sha256Digest),
}

/// Content key of a payload for dedup purposes: `(length, digest)`.
/// Keying by length as well as digest confines hash collisions to
/// equal-sized payloads.
pub type ContentKey = (u64, ContentDigest);

/// The bounded content-addressed index behind write dedup: maps
/// [`ContentKey`]s to arbitrary values (e.g. chunk descriptors). Lookups
/// peek ([`LruMap::get`]), so the oldest *recorded* entry is evicted
/// once the capacity is reached; re-recording a key refreshes it.
pub type DigestIndex<V> = LruMap<ContentKey, V>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(Digest::of(b""), Digest(0xcbf29ce484222325));
        assert_eq!(Digest::of(b"a"), Digest(0xaf63dc4c8601ec8c));
        assert_eq!(Digest::of(b"foobar"), Digest(0x85944171f73967e8));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Hasher::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), Digest::of(b"hello world"));
    }

    #[test]
    fn order_matters() {
        assert_ne!(Digest::of(b"ab"), Digest::of(b"ba"));
    }

    #[test]
    fn index_roundtrip_and_fifo_eviction() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(2);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(1), 10);
        idx.insert(k(2), 20);
        assert_eq!(idx.get(&k(1)), Some(&10));
        // Third insert evicts the oldest (1), not the most recent.
        idx.insert(k(3), 30);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(&k(1)), None);
        assert_eq!(idx.get(&k(2)), Some(&20));
        assert_eq!(idx.get(&k(3)), Some(&30));
    }

    #[test]
    fn index_explicit_removal_leaves_queue_consistent() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(2);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(1), 10);
        idx.insert(k(2), 20);
        assert_eq!(idx.remove(&k(1)), Some(10));
        // The freed slot is really free: inserting 3 must NOT evict the
        // live 2 (the stale queue slot for 1 does not count against the
        // capacity).
        idx.insert(k(3), 30);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(&k(2)), Some(&20));
        // One more insert overflows for real and evicts the oldest live
        // entry (2), never losing the newest.
        idx.insert(k(4), 40);
        assert!(idx.len() <= 2);
        assert_eq!(idx.get(&k(2)), None);
        assert_eq!(idx.get(&k(3)), Some(&30));
        assert_eq!(idx.get(&k(4)), Some(&40));
    }

    #[test]
    fn reinserted_key_survives_its_own_stale_slot() {
        // remove + re-insert leaves a stale queue slot for the same key;
        // a later overflow must evict the oldest *live* entry, never the
        // freshly re-inserted one (the dedup pipeline hits this via
        // digest_forget followed by digest_record of the same content).
        let mut idx: DigestIndex<u32> = DigestIndex::new(2);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(1), 10);
        idx.insert(k(2), 20);
        idx.remove(&k(1));
        idx.insert(k(1), 11); // re-insert: queue now holds a stale slot for 1
        idx.insert(k(3), 30); // overflow: 2 is the oldest live entry
        assert_eq!(idx.get(&k(1)), Some(&11), "re-insert must survive");
        assert_eq!(idx.get(&k(2)), None);
        assert_eq!(idx.get(&k(3)), Some(&30));
        assert!(idx.len() <= 2);
    }

    #[test]
    fn refresh_churn_keeps_queue_bounded() {
        // The dedup pipeline re-records every unique key on every
        // commit. A live key parked at the queue front (content
        // committed once, never again) must not shield the stale slots
        // that refreshes of *other* keys leave behind — the queue stays
        // proportional to the live entries, not the commit count.
        let mut idx: DigestIndex<u32> = DigestIndex::new(1 << 16);
        let k = |n: u64| (n, ContentDigest::Weak(Digest(n)));
        idx.insert(k(0), 0); // parked live front slot
        for round in 0..10_000u32 {
            idx.insert(k(1), round); // the same checkpoint key, refreshed
        }
        assert_eq!(idx.len(), 2);
        assert!(
            idx.queue_len() <= 8,
            "queue grew to {} slots for 2 live entries",
            idx.queue_len()
        );
        assert_eq!(idx.get(&k(0)), Some(&0));
        assert_eq!(idx.get(&k(1)), Some(&9_999));
    }

    #[test]
    fn zero_capacity_index_is_inert() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(0);
        idx.insert((1, ContentDigest::Weak(Digest(1))), 10);
        assert!(idx.is_empty());
        assert_eq!(idx.get(&(1, ContentDigest::Weak(Digest(1)))), None);
    }

    #[test]
    fn reinsert_updates_value_without_growing() {
        let mut idx: DigestIndex<u32> = DigestIndex::new(4);
        idx.insert((1, ContentDigest::Weak(Digest(1))), 10);
        idx.insert((1, ContentDigest::Weak(Digest(1))), 11);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(&(1, ContentDigest::Weak(Digest(1)))), Some(&11));
    }
}
