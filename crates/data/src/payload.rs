//! The payload rope: a cheaply sliceable, concatenable byte sequence whose
//! segments are either literal [`bytes::Bytes`], synthetic extents, or
//! zero-fill.
//!
//! Every storage layer in the workspace moves `Payload` values instead of
//! `Vec<u8>`. For tests and real-file examples the segments hold literal
//! bytes; for testbed-scale simulations the segments are synthetic
//! descriptors (seed + stream offset) so a 2 GB image costs O(1) memory.
//! Either way the byte content is fully defined: `materialize`, `byte_at`,
//! `digest` and equality all agree regardless of representation.

use crate::digest::{Digest, Hasher};
use crate::synth::SynthSource;
use bytes::Bytes;
use std::fmt;

/// One segment of a payload rope.
#[derive(Debug, Clone)]
enum Seg {
    /// Literal bytes.
    Bytes(Bytes),
    /// `len` bytes of the synthetic stream `seed` starting at stream
    /// position `start`.
    Synth { seed: u64, start: u64, len: u64 },
    /// `len` zero bytes.
    Zero { len: u64 },
}

impl Seg {
    #[inline]
    fn len(&self) -> u64 {
        match self {
            Seg::Bytes(b) => b.len() as u64,
            Seg::Synth { len, .. } | Seg::Zero { len } => *len,
        }
    }

    /// Sub-slice of this segment; `range` is relative to the segment start
    /// and must be within bounds.
    fn slice(&self, start: u64, end: u64) -> Seg {
        debug_assert!(start <= end && end <= self.len());
        match self {
            Seg::Bytes(b) => Seg::Bytes(b.slice(start as usize..end as usize)),
            Seg::Synth {
                seed, start: s0, ..
            } => Seg::Synth {
                seed: *seed,
                start: s0 + start,
                len: end - start,
            },
            Seg::Zero { .. } => Seg::Zero { len: end - start },
        }
    }

    #[inline]
    fn byte_at(&self, pos: u64) -> u8 {
        debug_assert!(pos < self.len());
        match self {
            Seg::Bytes(b) => b[pos as usize],
            Seg::Synth { seed, start, .. } => SynthSource::new(*seed).byte_at(start + pos),
            Seg::Zero { .. } => 0,
        }
    }

    fn write_into(&self, out: &mut [u8]) {
        debug_assert_eq!(out.len() as u64, self.len());
        match self {
            Seg::Bytes(b) => out.copy_from_slice(b),
            Seg::Synth { seed, start, .. } => SynthSource::new(*seed).fill(*start, out),
            Seg::Zero { .. } => out.fill(0),
        }
    }

    /// The bytes `at..at + buf.len()` of this segment: borrowed from a
    /// literal segment, generated into `buf` otherwise.
    fn window<'a>(&'a self, at: u64, buf: &'a mut [u8]) -> &'a [u8] {
        match self {
            Seg::Bytes(b) => &b[at as usize..at as usize + buf.len()],
            _ => {
                self.slice(at, at + buf.len() as u64).write_into(buf);
                buf
            }
        }
    }

    /// Whether `n` bytes of `self` from `at` equal `n` bytes of `other`
    /// from `other_at`.
    fn piece_eq(&self, at: u64, other: &Seg, other_at: u64, n: u64) -> bool {
        match (self, other) {
            (Seg::Zero { .. }, Seg::Zero { .. }) => true,
            (
                Seg::Synth {
                    seed: s1,
                    start: t1,
                    ..
                },
                Seg::Synth {
                    seed: s2,
                    start: t2,
                    ..
                },
            ) if s1 == s2 && t1 + at == t2 + other_at => true,
            (Seg::Bytes(x), Seg::Bytes(y)) => {
                let (at, other_at, n) = (at as usize, other_at as usize, n as usize);
                x[at..at + n] == y[other_at..other_at + n]
            }
            _ => {
                let (mut buf, mut other_buf) = ([0u8; 4096], [0u8; 4096]);
                let mut done = 0u64;
                while done < n {
                    let m = (n - done).min(buf.len() as u64) as usize;
                    let mine = self.window(at + done, &mut buf[..m]);
                    let theirs = other.window(other_at + done, &mut other_buf[..m]);
                    if mine != theirs {
                        return false;
                    }
                    done += m as u64;
                }
                true
            }
        }
    }

    /// Attempt to extend `self` with `other` if they are contiguous parts of
    /// the same underlying stream. Keeps rope length bounded under repeated
    /// appends of adjacent synthetic/zero extents.
    fn try_coalesce(&self, other: &Seg) -> Option<Seg> {
        match (self, other) {
            (Seg::Zero { len: a }, Seg::Zero { len: b }) => Some(Seg::Zero { len: a + b }),
            (
                Seg::Synth {
                    seed: s1,
                    start: st1,
                    len: l1,
                },
                Seg::Synth {
                    seed: s2,
                    start: st2,
                    len: l2,
                },
            ) if s1 == s2 && st1 + l1 == *st2 => Some(Seg::Synth {
                seed: *s1,
                start: *st1,
                len: l1 + l2,
            }),
            _ => None,
        }
    }
}

/// A borrowed view of one rope segment, exposing the payload's *structure*
/// without materializing it. Serializers use this so a synthetic 2 GB
/// extent costs a dozen bytes on the wire instead of 2 GB — the receiving
/// side rebuilds an equivalent rope and every content operation (digest,
/// equality, `materialize`) agrees because they are representation-
/// independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegView<'a> {
    /// Literal bytes.
    Bytes(&'a [u8]),
    /// `len` bytes of synthetic stream `seed` from stream position `start`.
    Synth {
        /// Stream seed.
        seed: u64,
        /// Stream position of the first byte.
        start: u64,
        /// Extent length.
        len: u64,
    },
    /// `len` zero bytes.
    Zero {
        /// Extent length.
        len: u64,
    },
}

/// A cheaply sliceable and concatenable byte sequence.
///
/// Cloning is O(number of segments); slicing shares underlying literal
/// buffers via [`Bytes`].
#[derive(Clone, Default)]
pub struct Payload {
    segs: Vec<Seg>,
    len: u64,
}

impl Payload {
    /// The empty payload.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A payload of `len` zero bytes (O(1) memory).
    pub fn zeros(len: u64) -> Self {
        if len == 0 {
            return Self::empty();
        }
        Self {
            segs: vec![Seg::Zero { len }],
            len,
        }
    }

    /// A payload of `len` bytes of synthetic stream `seed`, starting at
    /// stream position `start` (O(1) memory).
    pub fn synth(seed: u64, start: u64, len: u64) -> Self {
        if len == 0 {
            return Self::empty();
        }
        Self {
            segs: vec![Seg::Synth { seed, start, len }],
            len,
        }
    }

    /// A payload holding literal bytes.
    pub fn from_bytes(data: impl Into<Bytes>) -> Self {
        let b: Bytes = data.into();
        if b.is_empty() {
            return Self::empty();
        }
        let len = b.len() as u64;
        Self {
            segs: vec![Seg::Bytes(b)],
            len,
        }
    }

    /// Total length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rope segments (diagnostic; tests assert coalescing works).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Iterate the rope structure as borrowed [`SegView`]s, in order.
    pub fn segments(&self) -> impl Iterator<Item = SegView<'_>> {
        self.segs.iter().map(|seg| match seg {
            Seg::Bytes(b) => SegView::Bytes(b),
            Seg::Synth { seed, start, len } => SegView::Synth {
                seed: *seed,
                start: *start,
                len: *len,
            },
            Seg::Zero { len } => SegView::Zero { len: *len },
        })
    }

    /// Append another payload, coalescing adjacent compatible segments.
    pub fn append(&mut self, other: Payload) {
        for seg in other.segs {
            self.push_seg(seg);
        }
    }

    /// Concatenate two payloads.
    pub fn concat(mut self, other: Payload) -> Payload {
        self.append(other);
        self
    }

    fn push_seg(&mut self, seg: Seg) {
        let l = seg.len();
        if l == 0 {
            return;
        }
        if let Some(last) = self.segs.last() {
            if let Some(merged) = last.try_coalesce(&seg) {
                *self.segs.last_mut().expect("non-empty") = merged;
                self.len += l;
                return;
            }
        }
        self.segs.push(seg);
        self.len += l;
    }

    /// Sub-payload covering `start..end` (must be within bounds).
    pub fn slice(&self, start: u64, end: u64) -> Payload {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds (len {})",
            self.len
        );
        let mut out = Payload::empty();
        if start == end {
            return out;
        }
        let mut pos = 0u64;
        for seg in &self.segs {
            let sl = seg.len();
            let seg_start = pos;
            let seg_end = pos + sl;
            pos = seg_end;
            if seg_end <= start {
                continue;
            }
            if seg_start >= end {
                break;
            }
            let from = start.max(seg_start) - seg_start;
            let to = end.min(seg_end) - seg_start;
            out.push_seg(seg.slice(from, to));
        }
        debug_assert_eq!(out.len, end - start);
        out
    }

    /// The byte at position `pos`.
    pub fn byte_at(&self, pos: u64) -> u8 {
        assert!(
            pos < self.len,
            "byte_at {pos} out of bounds (len {})",
            self.len
        );
        let mut off = pos;
        for seg in &self.segs {
            if off < seg.len() {
                return seg.byte_at(off);
            }
            off -= seg.len();
        }
        unreachable!("position within len must fall in a segment")
    }

    /// Copy the full contents into `out` (whose length must equal `len()`).
    pub fn write_into(&self, out: &mut [u8]) {
        assert_eq!(out.len() as u64, self.len, "destination size mismatch");
        let mut off = 0usize;
        for seg in &self.segs {
            let l = seg.len() as usize;
            seg.write_into(&mut out[off..off + l]);
            off += l;
        }
    }

    /// Materialize the full contents as a vector.
    pub fn materialize(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len as usize];
        self.write_into(&mut v);
        v
    }

    /// Content digest, computed without allocating the whole payload at
    /// once (synthetic segments are streamed through a small buffer).
    pub fn digest(&self) -> Digest {
        let mut h = Hasher::new();
        let mut buf = [0u8; 4096];
        for seg in &self.segs {
            match seg {
                Seg::Bytes(b) => h.update(b),
                _ => {
                    let mut remaining = seg.len();
                    let mut at = 0u64;
                    while remaining > 0 {
                        let n = remaining.min(buf.len() as u64) as usize;
                        seg.slice(at, at + n as u64).write_into(&mut buf[..n]);
                        h.update(&buf[..n]);
                        at += n as u64;
                        remaining -= n as u64;
                    }
                }
            }
        }
        h.finish()
    }

    /// SHA-256 content digest, streamed like [`Payload::digest`] so
    /// synthetic segments never materialize whole.
    pub fn digest_sha256(&self) -> crate::sha256::Sha256Digest {
        let mut h = crate::sha256::Sha256::new();
        let mut buf = [0u8; 4096];
        for seg in &self.segs {
            match seg {
                Seg::Bytes(b) => h.update(b),
                _ => {
                    let mut remaining = seg.len();
                    let mut at = 0u64;
                    while remaining > 0 {
                        let n = remaining.min(buf.len() as u64) as usize;
                        seg.slice(at, at + n as u64).write_into(&mut buf[..n]);
                        h.update(&buf[..n]);
                        at += n as u64;
                        remaining -= n as u64;
                    }
                }
            }
        }
        h.finish()
    }

    /// The digest half of this payload's dedup [`crate::ContentKey`]:
    /// weak (64-bit XXH64) or strong (SHA-256, collision-resistant).
    pub fn content_digest(&self, strong: bool) -> crate::ContentDigest {
        if strong {
            crate::ContentDigest::Strong(self.digest_sha256())
        } else {
            crate::ContentDigest::Weak(self.digest())
        }
    }

    /// Whether the contents equal `other` byte-for-byte, whatever the two
    /// ropes' segmentation. The ropes are walked in lockstep and compared
    /// piece by piece: zero against zero and aligned pieces of one
    /// synthetic stream are equal by structure, literal against literal
    /// is a slice comparison, and anything else streams the non-literal
    /// side through a small buffer. Nothing is hashed.
    pub fn content_eq(&self, other: &Payload) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (self.segs.iter(), other.segs.iter());
        // The current segment of each rope and how much of it is done.
        let (mut seg_a, mut seg_b) = (a.next(), b.next());
        let (mut at_a, mut at_b) = (0u64, 0u64);
        while let (Some(x), Some(y)) = (seg_a, seg_b) {
            let n = (x.len() - at_a).min(y.len() - at_b);
            if !x.piece_eq(at_a, y, at_b, n) {
                return false;
            }
            at_a += n;
            at_b += n;
            if at_a == x.len() {
                (seg_a, at_a) = (a.next(), 0);
            }
            if at_b == y.len() {
                (seg_b, at_b) = (b.next(), 0);
            }
        }
        true
    }

    /// Overwrite the region `at..at + patch.len()` with `patch`, returning
    /// the new payload. Used by layers that maintain whole-object images
    /// (e.g. chunk read-modify-write).
    pub fn overwrite(&self, at: u64, patch: Payload) -> Payload {
        let mut out = self.clone();
        out.overwrite_in_place(at, patch);
        out
    }

    /// Overwrite the region `at..at + patch.len()` with `patch`, in place.
    ///
    /// Single pass over the segment rope: segments strictly before or
    /// after the patched window are kept (moved, not copied), boundary
    /// segments are split, and only the patch's own segments are inserted.
    /// The former `slice(0, at) + patch + slice(end, len)` rebuild scanned
    /// the rope twice from position zero per call, which made repeated
    /// chunk read-modify-writes quadratic in segment count.
    pub fn overwrite_in_place(&mut self, at: u64, patch: Payload) {
        let plen = patch.len();
        assert!(
            at + plen <= self.len,
            "overwrite {}..{} out of bounds (len {})",
            at,
            at + plen,
            self.len
        );
        if plen == 0 {
            return;
        }
        let end = at + plen;
        let total = self.len;
        let old = std::mem::take(self);
        self.segs.reserve(old.segs.len() + patch.segs.len());
        let mut pos = 0u64;
        let mut patch_done = false;
        for seg in old.segs {
            let sl = seg.len();
            let (seg_start, seg_end) = (pos, pos + sl);
            pos = seg_end;
            // Head piece (possibly the whole segment) before the window.
            if seg_start < at {
                let keep_to = at.min(seg_end);
                if keep_to == seg_end {
                    self.push_seg(seg);
                    continue;
                }
                self.push_seg(seg.slice(0, keep_to - seg_start));
            }
            // The patch goes in exactly once, when we first reach `at`.
            if !patch_done && seg_end > at {
                for p in &patch.segs {
                    self.push_seg(p.clone());
                }
                patch_done = true;
            }
            // Tail piece after the window.
            if seg_end > end {
                let from = end.max(seg_start);
                self.push_seg(seg.slice(from - seg_start, sl));
            }
        }
        debug_assert!(patch_done, "window within bounds implies insertion");
        debug_assert_eq!(self.len, total);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload(len={}, segs=[", self.len)?;
        for (i, seg) in self.segs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match seg {
                Seg::Bytes(b) => write!(f, "bytes:{}", b.len())?,
                Seg::Synth { seed, start, len } => write!(f, "synth{{{seed:#x}@{start}+{len}}}")?,
                Seg::Zero { len } => write!(f, "zero:{len}")?,
            }
        }
        write!(f, "])")
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.content_eq(other)
    }
}
impl Eq for Payload {}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_bytes(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::from_bytes(Bytes::copy_from_slice(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_behaves() {
        let p = Payload::empty();
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.materialize(), Vec::<u8>::new());
        assert!(p.content_eq(&Payload::zeros(0)));
    }

    #[test]
    fn zeros_materialize() {
        assert_eq!(Payload::zeros(5).materialize(), vec![0; 5]);
    }

    #[test]
    fn literal_roundtrip() {
        let p = Payload::from(&b"hello world"[..]);
        assert_eq!(p.materialize(), b"hello world");
        assert_eq!(p.byte_at(4), b'o');
    }

    #[test]
    fn synth_slice_equals_stream_slice() {
        let p = Payload::synth(9, 100, 50);
        let s = p.slice(10, 30);
        assert_eq!(s.materialize(), SynthSource::new(9).materialize(110, 20));
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Payload::from(&b"abc"[..]);
        let b = Payload::synth(1, 0, 4);
        let c = Payload::zeros(3);
        let whole = a.clone().concat(b.clone()).concat(c.clone());
        assert_eq!(whole.len(), 10);
        let mut expect = a.materialize();
        expect.extend(b.materialize());
        expect.extend(c.materialize());
        assert_eq!(whole.materialize(), expect);
        assert_eq!(whole.slice(2, 8).materialize(), &expect[2..8]);
    }

    #[test]
    fn adjacent_synth_segments_coalesce() {
        let mut p = Payload::synth(3, 0, 10);
        p.append(Payload::synth(3, 10, 10));
        assert_eq!(p.segment_count(), 1);
        assert_eq!(p.len(), 20);
        // Non-adjacent must not coalesce.
        p.append(Payload::synth(3, 100, 5));
        assert_eq!(p.segment_count(), 2);
        // Zeros coalesce with zeros.
        let mut z = Payload::zeros(4);
        z.append(Payload::zeros(6));
        assert_eq!(z.segment_count(), 1);
    }

    #[test]
    fn overwrite_patches_region() {
        let base = Payload::zeros(10);
        let patched = base.overwrite(3, Payload::from(&b"xyz"[..]));
        assert_eq!(patched.materialize(), b"\0\0\0xyz\0\0\0\0");
    }

    #[test]
    fn overwrite_in_place_matches_rebuild_everywhere() {
        // Sweep every (offset, length) against the naive slice+concat
        // reference, over a multi-segment rope.
        let base = Payload::from(&b"abcd"[..])
            .concat(Payload::synth(4, 8, 6))
            .concat(Payload::zeros(5));
        let len = base.len();
        for at in 0..len {
            for plen in 0..=(len - at) {
                let patch = Payload::synth(9, 100, plen);
                let reference = base
                    .slice(0, at)
                    .concat(patch.clone())
                    .concat(base.slice(at + plen, len));
                let mut got = base.clone();
                got.overwrite_in_place(at, patch);
                assert_eq!(got.len(), len);
                assert!(
                    got.content_eq(&reference),
                    "mismatch at={at} plen={plen}: {got:?} vs {reference:?}"
                );
            }
        }
    }

    #[test]
    fn overwrite_in_place_boundaries() {
        // Patch at 0, at the exact end, across segment boundaries, and
        // covering the whole payload.
        let mut p = Payload::zeros(4).concat(Payload::synth(1, 0, 4));
        p.overwrite_in_place(0, Payload::from(&b"ab"[..]));
        assert_eq!(&p.materialize()[..2], b"ab");
        p.overwrite_in_place(6, Payload::from(&b"yz"[..]));
        assert_eq!(&p.materialize()[6..], b"yz");
        p.overwrite_in_place(3, Payload::from(&b"mid"[..]));
        assert_eq!(&p.materialize()[3..6], b"mid");
        p.overwrite_in_place(0, Payload::synth(5, 0, 8));
        assert!(p.content_eq(&Payload::synth(5, 0, 8)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overwrite_in_place_oob_panics() {
        let mut p = Payload::zeros(4);
        p.overwrite_in_place(2, Payload::zeros(3));
    }

    #[test]
    fn content_eq_across_representations() {
        // A literal payload holding the same bytes as a synthetic one.
        let synth = Payload::synth(5, 32, 100);
        let lit = Payload::from(synth.materialize());
        assert!(synth.content_eq(&lit));
        assert_eq!(synth, lit);
        // Fast path: same descriptor.
        assert!(synth.content_eq(&Payload::synth(5, 32, 100)));
        // Different stream position differs (with overwhelming likelihood).
        assert!(!synth.content_eq(&Payload::synth(5, 33, 100)));
    }

    #[test]
    fn digest_is_representation_independent() {
        let p = Payload::synth(77, 0, 9000);
        let q = Payload::from(p.materialize());
        assert_eq!(p.digest(), q.digest());
        // And slicing + rejoining preserves it.
        let r = p.slice(0, 1234).concat(p.slice(1234, 9000));
        assert_eq!(r.digest(), p.digest());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Payload::zeros(4).slice(2, 6);
    }
}
