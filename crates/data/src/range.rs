//! Byte-range arithmetic shared by every storage layer.
//!
//! A range is the half-open interval `start..end` over `u64` byte offsets.
//! Chunk arithmetic follows the paper's striping scheme: an image of length
//! `L` split into chunks of size `c` has `ceil(L / c)` chunks, chunk `i`
//! covering `i*c .. min((i+1)*c, L)`.

use std::ops::Range;

/// Alias used across the workspace for byte intervals.
pub type ByteRange = Range<u64>;

/// Intersection of two ranges; empty ranges are normalized to `0..0`.
#[inline]
pub fn intersect(a: &ByteRange, b: &ByteRange) -> ByteRange {
    let start = a.start.max(b.start);
    let end = a.end.min(b.end);
    if start >= end {
        0..0
    } else {
        start..end
    }
}

/// Whether two ranges share at least one byte. Empty ranges never overlap.
#[inline]
pub fn ranges_overlap(a: &ByteRange, b: &ByteRange) -> bool {
    a.start < a.end && b.start < b.end && a.start < b.end && b.start < a.end
}

/// The minimal set of chunk indices whose union covers `range`
/// (the paper's "full minimal set of chunks that cover the requested
/// region", §3.3 strategy 1). Returns an index range `first..last+1`.
#[inline]
pub fn chunk_cover(range: &ByteRange, chunk_size: u64) -> Range<u64> {
    assert!(chunk_size > 0, "chunk size must be positive");
    if range.start >= range.end {
        return 0..0;
    }
    let first = range.start / chunk_size;
    let last = (range.end - 1) / chunk_size;
    first..last + 1
}

/// Coalesce index runs — any order, overlapping, adjacent or empty, a
/// single index `i` as `i..i + 1` — into the maximal runs covering the
/// same indices: sorted, disjoint and non-adjacent. A plan of many
/// chunks then costs one range operation per run, not one per chunk.
pub fn coalesce_runs(runs: impl IntoIterator<Item = Range<u64>>) -> Vec<Range<u64>> {
    let mut runs: Vec<Range<u64>> = runs.into_iter().filter(|r| r.start < r.end).collect();
    runs.sort_unstable_by_key(|r| r.start);
    runs.dedup_by(|next, prev| {
        let joins = next.start <= prev.end;
        if joins {
            prev.end = prev.end.max(next.end);
        }
        joins
    });
    runs
}

/// The byte range covered by chunk `index`, clamped to an image of
/// `image_len` bytes.
#[inline]
pub fn chunk_range(index: u64, chunk_size: u64, image_len: u64) -> ByteRange {
    assert!(chunk_size > 0, "chunk size must be positive");
    let start = index * chunk_size;
    let end = (start + chunk_size).min(image_len);
    assert!(
        start < end,
        "chunk {index} out of bounds for image of {image_len} bytes"
    );
    start..end
}

/// Number of chunks needed to cover `image_len` bytes.
#[inline]
pub fn chunk_count(image_len: u64, chunk_size: u64) -> u64 {
    assert!(chunk_size > 0, "chunk size must be positive");
    image_len.div_ceil(chunk_size)
}

/// Length helper tolerating the `0..0` empty normalization.
#[inline]
pub fn range_len(r: &ByteRange) -> u64 {
    r.end.saturating_sub(r.start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&(0..10), &(5..15)), 5..10);
        assert_eq!(intersect(&(0..10), &(10..15)), 0..0);
        assert_eq!(intersect(&(3..4), &(0..100)), 3..4);
        assert_eq!(intersect(&(0..0), &(0..100)), 0..0);
    }

    #[test]
    fn overlap_is_symmetric_and_strict() {
        assert!(ranges_overlap(&(0..10), &(9..11)));
        assert!(!ranges_overlap(&(0..10), &(10..11)));
        assert!(!ranges_overlap(&(10..11), &(0..10)));
        assert!(!ranges_overlap(&(5..5), &(0..10)));
    }

    #[test]
    fn chunk_cover_exact_boundaries() {
        // A read of exactly one chunk covers exactly that chunk.
        assert_eq!(chunk_cover(&(256..512), 256), 1..2);
        // A read of one byte past a boundary pulls in the next chunk.
        assert_eq!(chunk_cover(&(256..513), 256), 1..3);
        // A one-byte read.
        assert_eq!(chunk_cover(&(511..512), 256), 1..2);
        // Empty read covers nothing.
        assert_eq!(chunk_cover(&(512..512), 256), 0..0);
    }

    #[test]
    fn chunk_range_clamps_tail() {
        // 1000-byte image, 256-byte chunks: last chunk is short.
        assert_eq!(chunk_range(3, 256, 1000), 768..1000);
        assert_eq!(chunk_range(0, 256, 1000), 0..256);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn chunk_range_rejects_out_of_bounds() {
        chunk_range(4, 256, 1000);
    }

    #[test]
    fn chunk_count_rounding() {
        assert_eq!(chunk_count(0, 256), 0);
        assert_eq!(chunk_count(1, 256), 1);
        assert_eq!(chunk_count(256, 256), 1);
        assert_eq!(chunk_count(257, 256), 2);
        assert_eq!(chunk_count(2 << 30, 256 << 10), 8192);
    }

    #[test]
    fn coalesce_joins_overlapping_and_adjacent_runs() {
        let runs = coalesce_runs([7..9, 0..2, 2..3, 5..5, 1..2, 8..12, 4..5]);
        assert_eq!(runs, [0..3, 4..5, 7..12]);
        assert_eq!(coalesce_runs([3, 1, 2, 9].map(|i| i..i + 1)), [1..4, 9..10]);
        assert!(coalesce_runs(std::iter::empty()).is_empty());
    }

    #[test]
    fn cover_and_range_are_inverse() {
        let image_len = 10_000u64;
        let cs = 333u64;
        for i in 0..chunk_count(image_len, cs) {
            let r = chunk_range(i, cs, image_len);
            assert_eq!(chunk_cover(&r, cs), i..i + 1);
        }
    }
}
