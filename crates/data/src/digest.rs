//! Content digests used for cheap equality checks, and the bounded
//! [`DigestIndex`] (an [`LruMap`] keyed by content) behind
//! content-addressed write deduplication.
//!
//! The weak digest is XXH64 with seed 0: four independent `u64` lanes
//! consume the input eight bytes each per 32-byte stripe, so their
//! multiply chains overlap instead of running one byte at a time. It is
//! sufficient here: digests are never used for security, only to compare
//! payloads without materializing both sides, and every dedup hit is
//! validated by the provider storing the chunk. Dedup consumers
//! additionally key by payload *length*, shrinking the collision scope
//! to equal-sized chunks. No weak digest is persisted, so the function
//! may change. The on-disk record checksum ([`crate::log::checksum`]) is
//! the same XXH64, but it is part of the v1 record-log format: changing
//! it there needs a new format version.

use crate::LruMap;

/// A 64-bit XXH64 (seed 0) digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub u64);

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed by one step of the four lanes.
const STRIPE: usize = 32;

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge_round(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Incremental XXH64 (seed 0) hasher. Any split of the input across
/// [`Hasher::update`] calls yields the one-shot [`Digest::of`] value:
/// bytes short of a whole stripe wait in a carry buffer.
#[derive(Debug, Clone)]
pub struct Hasher {
    lanes: [u64; 4],
    /// Input not yet consumed by the lanes: `buf[..buffered]`.
    buf: [u8; STRIPE],
    buffered: usize,
    total: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; STRIPE],
            buffered: 0,
            total: 0,
        }
    }

    /// Feed whole stripes of `data` through the lanes; returns the
    /// unconsumed tail (shorter than a stripe).
    fn stripes<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut stripes = data.chunks_exact(STRIPE);
        for s in &mut stripes {
            a = round(a, word(s, 0));
            b = round(b, word(s, 8));
            c = round(c, word(s, 16));
            d = round(d, word(s, 24));
        }
        self.lanes = [a, b, c, d];
        stripes.remainder()
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.buffered > 0 {
            let take = (STRIPE - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < STRIPE {
                return;
            }
            let stripe = self.buf;
            self.stripes(&stripe);
            self.buffered = 0;
        }
        let rest = self.stripes(data);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finish and produce the digest.
    pub fn finish(&self) -> Digest {
        let mut h = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| merge_round(h, lane))
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.buf[..self.buffered];
        while tail.len() >= 8 {
            h ^= round(0, word(tail, 0));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h ^= u64::from(w).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        Digest(h)
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
/// holds. With [`ContentDigest::Weak`] (64-bit XXH64) that proves
/// 64-bit digest equality — cheap, and not collision-proof; with
/// [`ContentDigest::Strong`] (SHA-256) it proves content equality, for
/// the price of the stronger hash on every commit. The variants never
/// compare equal, so a deployment switching modes mid-life simply
/// re-indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentDigest {
    /// 64-bit XXH64: cheap, not collision-resistant.
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
        // Reference XXH64 values, seed 0.
        assert_eq!(Digest::of(b""), Digest(0xEF46_DB37_51D8_E999));
        assert_eq!(Digest::of(b"a"), Digest(0xD24E_C4F1_A98C_6E5B));
        assert_eq!(Digest::of(b"abc"), Digest(0x44BC_2CF5_AD77_0999));
        // 39 bytes: one stripe through the lanes, then a 4-byte and
        // three 1-byte tail steps.
        assert_eq!(
            Digest::of(b"Nobody inspects the spammish repetition"),
            Digest(0xFBCE_A83C_8A37_8BF1)
        );
    }

    #[test]
    fn split_anywhere_equals_one_shot() {
        // Every length up to a little over three stripes, split at every
        // point: short inputs, exactly one stripe, stripe boundaries in
        // the carry buffer, and every 8/4/1-byte tail shape.
        let data: Vec<u8> = (0..=100u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=data.len() {
            let whole = Digest::of(&data[..len]);
            for split in 0..=len {
                let mut h = Hasher::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finish(), whole, "len {len}, split at {split}");
            }
        }
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
