//! Property-based tests for the data plane: payload rope algebra, range
//! sets and extent maps are each checked against brute-force reference
//! models over randomly generated operation sequences.

use bff_data::payload::Payload;
use bff_data::rangeset::RangeSet;
use bff_data::synth::SynthSource;
use bff_data::{chunk_cover, chunk_range, coalesce_runs, intersect, ExtentMap};
use proptest::prelude::*;

const UNIVERSE: u64 = 256;

fn arb_range() -> impl Strategy<Value = std::ops::Range<u64>> {
    (0..UNIVERSE, 0..UNIVERSE).prop_map(|(a, b)| {
        let (s, e) = if a <= b { (a, b) } else { (b, a) };
        s..e
    })
}

proptest! {
    /// RangeSet agrees with a bitset model under arbitrary insert/remove.
    #[test]
    fn rangeset_matches_bitset(ops in prop::collection::vec((arb_range(), any::<bool>()), 0..60),
                               probe in arb_range()) {
        let mut model = vec![false; UNIVERSE as usize];
        let mut set = RangeSet::new();
        for (r, is_insert) in &ops {
            if *is_insert {
                set.insert(r.clone());
                for i in r.clone() { model[i as usize] = true; }
            } else {
                set.remove(r.clone());
                for i in r.clone() { model[i as usize] = false; }
            }
        }
        // Per-position membership.
        for i in 0..UNIVERSE {
            prop_assert_eq!(set.contains(i), model[i as usize], "pos {}", i);
        }
        // contains_range is the conjunction.
        let expect_all = probe.clone().all(|i| model[i as usize]);
        prop_assert_eq!(set.contains_range(&probe), expect_all);
        // covered() counts the model.
        prop_assert_eq!(set.covered(), model.iter().filter(|&&b| b).count() as u64);
        // gaps + runs partition the probe range exactly.
        let mut cursor = probe.start;
        let mut pieces: Vec<(std::ops::Range<u64>, bool)> = Vec::new();
        for r in set.runs_within(&probe) { pieces.push((r, true)); }
        for g in set.gaps_within(&probe) { pieces.push((g, false)); }
        pieces.sort_by_key(|(r, _)| r.start);
        for (r, covered) in pieces {
            prop_assert_eq!(r.start, cursor, "pieces must tile the probe");
            for i in r.clone() {
                prop_assert_eq!(model[i as usize], covered, "pos {}", i);
            }
            cursor = r.end;
        }
        prop_assert_eq!(cursor.max(probe.start), probe.end.max(probe.start));
        // Runs are maximal: no two adjacent/overlapping runs.
        let runs: Vec<_> = set.iter().collect();
        for w in runs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "runs must be disjoint and non-adjacent");
        }
    }

    /// Payload slicing/concatenation agrees with Vec<u8> semantics.
    #[test]
    fn payload_rope_algebra(seed in any::<u64>(),
                            cuts in prop::collection::vec(0..200u64, 0..8),
                            patch_at in 0..150u64,
                            patch_len in 0..50u64) {
        let len = 200u64;
        let base = Payload::synth(seed, 0, len);
        let model = SynthSource::new(seed).materialize(0, len as usize);
        prop_assert_eq!(base.materialize(), model.clone());

        // Slicing at arbitrary cut points and re-concatenating is identity.
        let mut sorted = cuts.clone();
        sorted.push(0); sorted.push(len);
        sorted.sort_unstable(); sorted.dedup();
        let mut rebuilt = Payload::empty();
        for w in sorted.windows(2) {
            rebuilt.append(base.slice(w[0], w[1]));
        }
        prop_assert_eq!(rebuilt.len(), len);
        prop_assert!(rebuilt.content_eq(&base));

        // Overwrite matches model splice.
        let patch_bytes: Vec<u8> = (0..patch_len).map(|i| (i * 7 + 13) as u8).collect();
        let patched = base.overwrite(patch_at, Payload::from(patch_bytes.clone()));
        let mut model2 = model;
        model2.splice(patch_at as usize..(patch_at + patch_len) as usize, patch_bytes);
        prop_assert_eq!(patched.materialize(), model2);
    }

    /// `content_eq` (and the `==` built on it) is `materialize() ==
    /// materialize()` whatever the two ropes' shapes: the same bytes
    /// re-cut at arbitrary points with every piece either literal or in
    /// its structural form compare equal, and one differing byte at
    /// either end of any segment of either rope is seen.
    #[test]
    fn payload_content_eq_is_byte_equality(seed in any::<u64>(),
                                           segs in prop::collection::vec((0..3u8, 1..40u64), 1..6),
                                           cuts in prop::collection::vec(0..240u64, 0..8),
                                           literal in any::<u64>()) {
        let mut a = Payload::empty();
        for (i, (kind, l)) in segs.iter().enumerate() {
            match kind {
                0 => a.append(Payload::synth(seed, i as u64 * 1000, *l)),
                1 => a.append(Payload::zeros(*l)),
                _ => a.append(Payload::from(SynthSource::new(!seed).materialize(i as u64 * 50, *l as usize))),
            }
        }
        let len = a.len();
        let mut sorted: Vec<u64> = cuts.iter().map(|c| c % (len + 1)).collect();
        sorted.push(0); sorted.push(len);
        sorted.sort_unstable(); sorted.dedup();
        let mut b = Payload::empty();
        for (i, w) in sorted.windows(2).enumerate() {
            let piece = a.slice(w[0], w[1]);
            if literal >> (i % 64) & 1 == 1 {
                b.append(Payload::from(piece.materialize()));
            } else {
                b.append(piece);
            }
        }
        prop_assert_eq!(a.materialize(), b.materialize());
        prop_assert!(a.content_eq(&b) && b.content_eq(&a) && a == b);

        let edges = |p: &Payload| {
            let mut at = 0u64;
            let mut out = Vec::new();
            for seg in p.segments() {
                let l = match seg {
                    bff_data::payload::SegView::Bytes(s) => s.len() as u64,
                    bff_data::payload::SegView::Synth { len, .. }
                    | bff_data::payload::SegView::Zero { len } => len,
                };
                out.extend([at, at + l - 1]);
                at += l;
            }
            out
        };
        for pos in edges(&a).into_iter().chain(edges(&b)) {
            let flipped = b.overwrite(pos, Payload::from(vec![!b.byte_at(pos)]));
            prop_assert!(a.materialize() != flipped.materialize());
            prop_assert!(!a.content_eq(&flipped) && !flipped.content_eq(&a), "byte {}", pos);
        }
        // Unequal lengths, and equal-length ropes of other content.
        prop_assert!(!a.content_eq(&a.slice(0, len - 1)));
        let other = Payload::synth(seed ^ 1, 0, len);
        prop_assert_eq!(a.content_eq(&other), a.materialize() == other.materialize());
    }

    /// byte_at agrees with materialize for mixed ropes.
    #[test]
    fn payload_byte_at(seed in any::<u64>(), lens in prop::collection::vec(1..20u64, 1..6)) {
        let mut p = Payload::empty();
        for (i, l) in lens.iter().enumerate() {
            match i % 3 {
                0 => p.append(Payload::synth(seed, i as u64 * 100, *l)),
                1 => p.append(Payload::zeros(*l)),
                _ => p.append(Payload::from(vec![i as u8; *l as usize])),
            }
        }
        let m = p.materialize();
        for i in 0..p.len() {
            prop_assert_eq!(p.byte_at(i), m[i as usize]);
        }
        prop_assert_eq!(Payload::from(m.clone()).digest(), p.digest());
    }

    /// ExtentMap<Payload> read() returns exactly the last write at every
    /// position, with gaps where nothing was written.
    #[test]
    fn extent_map_matches_model(writes in prop::collection::vec((arb_range(), any::<u64>()), 0..30),
                                probe in arb_range()) {
        let mut model: Vec<Option<u8>> = vec![None; UNIVERSE as usize];
        let mut map: ExtentMap<Payload> = ExtentMap::new();
        for (r, seed) in &writes {
            if r.start >= r.end { continue; }
            let pl = Payload::synth(*seed, r.start, r.end - r.start);
            let bytes = pl.materialize();
            for (k, i) in (r.start..r.end).enumerate() {
                model[i as usize] = Some(bytes[k]);
            }
            map.insert(r.clone(), pl);
        }
        for piece in map.read(&probe) {
            match piece {
                bff_data::extent::ExtentPiece::Data(r, v) => {
                    prop_assert_eq!(v.len(), r.end - r.start);
                    let bytes = v.materialize();
                    for (k, i) in (r.start..r.end).enumerate() {
                        prop_assert_eq!(model[i as usize], Some(bytes[k]), "pos {}", i);
                    }
                }
                bff_data::extent::ExtentPiece::Gap(r) => {
                    for i in r.clone() {
                        prop_assert_eq!(model[i as usize], None, "pos {}", i);
                    }
                }
            }
        }
    }

    /// Chunk cover really is minimal and covering.
    #[test]
    fn chunk_cover_minimal(s in 0..10_000u64, l in 1..5_000u64, cs_pow in 4..12u32) {
        let cs = 1u64 << cs_pow;
        let image_len = 16_384u64;
        let e = (s + l).min(image_len);
        let s = s.min(e);
        if s == e { return Ok(()); }
        let cover = chunk_cover(&(s..e), cs);
        // Covering: the union of chunk ranges contains the request.
        let lo = chunk_range(cover.start, cs, image_len).start;
        let hi = chunk_range(cover.end - 1, cs, image_len).end;
        prop_assert!(lo <= s && e <= hi);
        // Minimal: first and last chunks intersect the request.
        prop_assert!(intersect(&chunk_range(cover.start, cs, image_len), &(s..e)).end > 0
                     || chunk_range(cover.start, cs, image_len).start == s);
        let first = chunk_range(cover.start, cs, image_len);
        let last = chunk_range(cover.end - 1, cs, image_len);
        prop_assert!(first.start < e && s < first.end, "first chunk must intersect");
        prop_assert!(last.start < e && s < last.end, "last chunk must intersect");
    }

    /// Coalesced runs are sorted, disjoint and non-adjacent, and cover
    /// exactly the indices of the input runs.
    #[test]
    fn coalesce_runs_are_maximal_and_exact(runs in prop::collection::vec(arb_range(), 0..20)) {
        let out = coalesce_runs(runs.clone());
        for pair in out.windows(2) {
            prop_assert!(pair[0].end < pair[1].start, "sorted, disjoint, non-adjacent: {:?}", pair);
        }
        let mut model = vec![false; UNIVERSE as usize];
        for r in &runs {
            for i in r.clone() { model[i as usize] = true; }
        }
        let mut covered = vec![false; UNIVERSE as usize];
        for r in &out {
            prop_assert!(r.start < r.end, "no empty run");
            for i in r.clone() { covered[i as usize] = true; }
        }
        prop_assert_eq!(covered, model);
    }
}
