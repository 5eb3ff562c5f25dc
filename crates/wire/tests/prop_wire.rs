//! Property tests for the wire protocol: `decode(encode(m)) == m` for
//! every message type, and decoding never panics on hostile input —
//! truncated frames, random garbage and bit-flipped valid frames all
//! come back as `WireError`s.
//!
//! Generators come from the protocol table itself: [`Arb`] is
//! implemented once per field type, and each table type draws a row
//! through its generated `draw`. So a new row is generated, swept and
//! tag-checked with no test edit beyond naming a new table type below.

use bff_data::{ContentDigest, Digest, Payload, Sha256Digest};
use bff_net::{NetError, NodeId};
use bff_wire::codec::{decode, decode_owned, encode, Wire};
use bff_wire::msg::{
    BoardReq, BoardResp, BoardSync, ClusterReq, ClusterResp, DeleteOutcome, MetaReq, MetaResp,
    PmReq, PmResp, ProviderReq, ProviderResp, Req, Resp, RetainOutcome, VersionInfo, VmReq, VmResp,
};
use bff_wire::table::Draw;
use bff_wire::types::{BlobError, BlobId, ChunkDesc, ChunkId, NodeKey, TreeNode, Version};
use bff_wire::WireError;
use proptest::prelude::*;
use proptest::strategy::TestRng;
use proptest::test_runner::run_cases;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

/// A random value of a field type.
trait Arb: Sized {
    fn arb(rng: &mut TestRng) -> Self;
}

/// Feeds a table's generated `draw` from [`Arb`].
struct Src<'a>(&'a mut TestRng);

impl<T: Arb> Draw<T> for Src<'_> {
    fn draw(&mut self) -> T {
        T::arb(self.0)
    }
}

/// Adapter: any [`Arb`] type is a strategy.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn arb<T: Arb>() -> Gen<T> {
    Gen(T::arb)
}

fn pick<T: Copy>(rng: &mut TestRng, of: &[T]) -> T {
    of[rng.below(of.len() as u64) as usize]
}

/// Varied magnitude: one- through ten-byte varints.
impl Arb for u64 {
    fn arb(rng: &mut TestRng) -> Self {
        rng.bits() >> (rng.below(64) as u32)
    }
}

impl Arb for usize {
    fn arb(rng: &mut TestRng) -> Self {
        (u64::arb(rng) & 0xFFFF) as usize
    }
}

impl Arb for u32 {
    fn arb(rng: &mut TestRng) -> Self {
        rng.below(1 << 20) as u32
    }
}

impl Arb for bool {
    fn arb(rng: &mut TestRng) -> Self {
        rng.below(2) == 0
    }
}

impl Arb for NodeId {
    fn arb(rng: &mut TestRng) -> Self {
        NodeId(u32::arb(rng))
    }
}

macro_rules! arb_newtypes {
    ($($t:ident),*) => {$(
        impl Arb for $t {
            fn arb(rng: &mut TestRng) -> Self {
                $t(u64::arb(rng))
            }
        }
    )*};
}

arb_newtypes!(BlobId, Version, ChunkId, NodeKey);

impl Arb for ContentDigest {
    fn arb(rng: &mut TestRng) -> Self {
        if bool::arb(rng) {
            ContentDigest::Weak(Digest(rng.bits()))
        } else {
            ContentDigest::Strong(Sha256Digest([(); 32].map(|()| rng.bits() as u8)))
        }
    }
}

/// Ropes mixing literal, synthetic and zero segments (the three
/// structural encodings), content-bounded so equality stays cheap.
impl Arb for Payload {
    fn arb(rng: &mut TestRng) -> Self {
        let mut p = Payload::empty();
        for _ in 0..rng.below(4) {
            p.append(match rng.below(3) {
                0 => Payload::from(
                    (0..rng.below(48))
                        .map(|_| rng.bits() as u8)
                        .collect::<Vec<_>>(),
                ),
                1 => Payload::synth(rng.bits(), u64::arb(rng), rng.below(1 << 16)),
                _ => Payload::zeros(rng.below(1 << 16)),
            });
        }
        p
    }
}

impl Arb for Range<u64> {
    fn arb(rng: &mut TestRng) -> Self {
        let start = u64::arb(rng);
        start..start.saturating_add(rng.below(1 << 10))
    }
}

impl Arb for WireError {
    fn arb(rng: &mut TestRng) -> Self {
        use std::io::ErrorKind::*;
        match rng.below(5) {
            0 => WireError::Truncated,
            1 => WireError::BadTag(
                pick(rng, &["bool", "tree node", "request"]),
                rng.bits() as u8,
            ),
            2 => WireError::BadFrame,
            3 => WireError::Closed,
            _ => WireError::Io(pick(rng, &[Other, UnexpectedEof, BrokenPipe, TimedOut])),
        }
    }
}

impl Arb for NetError {
    fn arb(rng: &mut TestRng) -> Self {
        match rng.below(3) {
            0 => NetError::NodeDown(Arb::arb(rng)),
            1 => NetError::Cancelled,
            _ => NetError::Wire(Arb::arb(rng)),
        }
    }
}

/// A `BadInput` message (a subset of the interned ones).
impl Arb for &'static str {
    fn arb(rng: &mut TestRng) -> Self {
        pick(rng, &["empty write", "cannot delete Version(0)"])
    }
}

impl<A: Arb, B: Arb> Arb for (A, B) {
    fn arb(rng: &mut TestRng) -> Self {
        (A::arb(rng), B::arb(rng))
    }
}

impl<A: Arb, B: Arb, C: Arb> Arb for (A, B, C) {
    fn arb(rng: &mut TestRng) -> Self {
        (A::arb(rng), B::arb(rng), C::arb(rng))
    }
}

impl<T: Arb> Arb for Vec<T> {
    fn arb(rng: &mut TestRng) -> Self {
        (0..rng.below(6)).map(|_| T::arb(rng)).collect()
    }
}

impl<T: Arb> Arb for Arc<[T]> {
    fn arb(rng: &mut TestRng) -> Self {
        Vec::arb(rng).into()
    }
}

impl<T: Arb> Arb for Option<T> {
    fn arb(rng: &mut TestRng) -> Self {
        (rng.below(3) != 0).then(|| T::arb(rng))
    }
}

impl<T: Arb> Arb for Result<T, BlobError> {
    fn arb(rng: &mut TestRng) -> Self {
        if rng.below(4) == 0 {
            Err(BlobError::arb(rng))
        } else {
            Ok(T::arb(rng))
        }
    }
}

macro_rules! records {
    ($($t:ident),*) => {$(
        impl Arb for $t {
            fn arb(rng: &mut TestRng) -> Self {
                $t::draw(&mut Src(rng))
            }
        }
    )*};
}

records!(VersionInfo, DeleteOutcome, BoardSync, ChunkDesc);

/// Every table enum: a uniformly drawn row as its [`Arb`], and the three
/// checks that range over all rows of all tables.
macro_rules! tables {
    ($($t:ident),*) => {
        $(
            impl Arb for $t {
                fn arb(rng: &mut TestRng) -> Self {
                    $t::draw(pick(rng, $t::TAGS), &mut Src(rng))
                }
            }
        )*

        /// Every live row of every table round-trips, with fresh fields
        /// per case: no row is left to the uniform draw's luck.
        #[test]
        fn every_row_of_every_table_roundtrips() {
            run_cases("every_row", &ProptestConfig::with_cases(16), |rng| {
                $( for &tag in $t::TAGS { roundtrip(&$t::draw(tag, &mut Src(rng))); } )*
                Ok(())
            });
        }

        /// A frame opening with a tag no row holds — retired or never
        /// used — is a `BadTag` naming the table, not a misreading.
        #[test]
        fn retired_and_unknown_tags_are_bad_tags() {
            $( dead_tags_are_bad_tags::<$t>($t::TAGS, $t::RETIRED, $t::CONTEXT); )*
        }

        /// A server's `BadTag` reply names a table's context; one missing
        /// from the interned list would travel as `"?"`.
        #[test]
        fn every_table_context_is_interned() {
            $( roundtrip(&WireError::BadTag($t::CONTEXT, 7)); )*
        }
    };
}

tables!(
    VmReq,
    VmResp,
    PmReq,
    PmResp,
    MetaReq,
    MetaResp,
    ProviderReq,
    ProviderResp,
    RetainOutcome,
    BoardReq,
    BoardResp,
    ClusterReq,
    ClusterResp,
    Req,
    Resp,
    TreeNode,
    BlobError
);

fn dead_tags_are_bad_tags<T: Wire + PartialEq + Debug>(
    live: &[u8],
    retired: &[u8],
    ctx: &'static str,
) {
    assert!(
        retired.iter().all(|t| !live.contains(t)),
        "{ctx}: a retired tag is live"
    );
    for tag in (0..=u8::MAX).filter(|t| !live.contains(t)) {
        assert_eq!(decode::<T>(&[tag]), Err(WireError::BadTag(ctx, tag)));
    }
}

fn roundtrip<T: Wire + PartialEq + Debug>(v: &T) {
    let frame = encode(v);
    match decode::<T>(&frame) {
        Ok(back) => assert_eq!(&back, v, "decode(encode(m)) != m"),
        Err(e) => panic!("decode(encode({v:?})) failed: {e}"),
    }
    same_either_way::<T>(&frame);
}

/// The owning decode (literal segments sliced out of the frame) and the
/// borrowing one (copied out) agree on every input, valid or not.
fn same_either_way<T: Wire + PartialEq + Debug>(frame: &[u8]) {
    assert_eq!(decode_owned::<T>(frame.to_vec()), decode::<T>(frame));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// encode→decode is the identity for requests and responses (all
    /// roles, all variants, every error a `BlobResult` can carry).
    #[test]
    fn messages_roundtrip(req in arb::<Req>(), resp in arb::<Resp>()) {
        roundtrip(&req);
        roundtrip(&resp);
    }

    /// Vocabulary outside the enum sweep round-trips on its own.
    #[test]
    fn vocabulary_roundtrips(desc in arb::<ChunkDesc>(),
                             key in arb::<(u64, ContentDigest)>(),
                             payload in arb::<Payload>()) {
        roundtrip(&desc);
        roundtrip(&key);
        // Payload equality is content equality; structure may coalesce.
        let back = decode::<Payload>(&encode(&payload)).unwrap();
        prop_assert!(back.content_eq(&payload));
        prop_assert_eq!(back.len(), payload.len());
        let owned = decode_owned::<Payload>(encode(&payload)).unwrap();
        prop_assert!(owned.content_eq(&payload));
        prop_assert_eq!(owned.len(), payload.len());
    }

    /// Any strict prefix of a valid frame decodes to a `WireError`
    /// (never panics, never half-succeeds): the codec demands exact
    /// consumption, so truncation is always detected.
    #[test]
    fn truncated_frames_are_errors(req in arb::<Req>(), cut in arb::<u64>()) {
        let frame = encode(&req);
        let cut = (cut % frame.len() as u64) as usize;
        prop_assert!(decode::<Req>(&frame[..cut]).is_err());
        same_either_way::<Req>(&frame[..cut]);
    }

    /// Random garbage never panics the decoder — every outcome is a
    /// clean `Result`.
    #[test]
    fn garbage_frames_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode::<Req>(&bytes);
        let _ = decode::<Resp>(&bytes);
        let _ = decode::<BlobError>(&bytes);
        let _ = decode::<Payload>(&bytes);
        same_either_way::<Req>(&bytes);
        same_either_way::<Resp>(&bytes);
        same_either_way::<BlobError>(&bytes);
        same_either_way::<Payload>(&bytes);
    }

    /// A single flipped byte in a valid frame either still decodes (the
    /// flip hit a don't-care bit of a varint) or errors — never panics.
    #[test]
    fn bitflipped_frames_never_panic(req in arb::<Req>(), pos in arb::<u64>(), bit in 0u64..8) {
        let mut frame = encode(&req);
        let pos = (pos % frame.len() as u64) as usize;
        frame[pos] ^= 1 << bit;
        let _ = decode::<Req>(&frame);
        same_either_way::<Req>(&frame);
    }
}

/// Cut a frame at ~64 places and flip a bit at ~256: every cut is an
/// error, no flip panics.
fn cuts_error_and_flips_never_panic(req: &Req, resp: &Resp) {
    roundtrip(req);
    roundtrip(resp);
    let (req, resp) = (encode(req), encode(resp));
    for cut in (0..req.len()).step_by(req.len() / 64 + 1) {
        assert!(decode::<Req>(&req[..cut]).is_err());
    }
    for cut in (0..resp.len()).step_by(resp.len() / 64 + 1) {
        assert!(decode::<Resp>(&resp[..cut]).is_err());
    }
    for frame in [&req, &resp] {
        for pos in (0..frame.len()).step_by(frame.len() / 256 + 1) {
            let mut flipped = frame.to_vec();
            flipped[pos] ^= 0x80;
            let _ = decode::<Req>(&flipped);
            let _ = decode::<Resp>(&flipped);
        }
    }
}

/// The batches the control plane travels in — a board sync with its
/// tail, a provider's share of a commit's dedup hits with its verdicts,
/// a commit's cluster-index entries with their count, a snapshot GC's
/// release with its outcomes — round trip empty, with one entry and with
/// 10 000, and no cut or bit flip of the frames panics the decoder.
#[test]
fn big_batches_roundtrip_and_never_panic() {
    // Weak and strong keys alternate.
    let key = |i: u64| {
        let digests = [
            ContentDigest::Weak(Digest(i << 40)),
            ContentDigest::Strong(Sha256Digest([i as u8; 32])),
        ];
        (i << 9, digests[(i % 2) as usize])
    };
    let outcome = |i: u64| {
        use RetainOutcome::*;
        [Retained, Mismatch, Gone][(i % 3) as usize]
    };
    let provider = |req| Req::Provider {
        node: NodeId(3),
        req,
    };
    for n in [0u64, 1, 10_000] {
        let desc = |i: u64| ChunkDesc {
            id: ChunkId(i << 20),
            replicas: vec![NodeId(i as u32 % 7), NodeId(i as u32 % 5)].into(),
        };
        let sync = BoardSync {
            len: 2 * n as usize,
            cohort: n % 2 == 0,
            tail: (0..n).map(|i| (i << 7, i % 3 == 0)).collect(),
        };
        // Ids wide enough for multi-byte varints, with repeats: an id
        // listed twice gains (or loses) two.
        let ids = (0..n).map(|i| ChunkId((i % 97) << 20));
        for (req, resp) in [
            (
                Req::Board(BoardReq::Sync {
                    key: (BlobId(n), Version(n << 30)),
                    publisher: NodeId(3),
                    batch: (0..n).map(|i| i << 7).collect(),
                    from: n as usize,
                    min_publishers: 2,
                }),
                Resp::Board(BoardResp::Synced(sync)),
            ),
            (
                provider(ProviderReq::Retain(
                    ids.clone().zip((0..n).map(key)).collect(),
                )),
                Resp::Provider(ProviderResp::Retained((0..n).map(outcome).collect())),
            ),
            (
                Req::Cluster(ClusterReq::Record(
                    (0..n).map(|i| (key(i), desc(i))).collect(),
                )),
                Resp::Cluster(ClusterResp::Recorded(n as usize)),
            ),
            (
                provider(ProviderReq::ReleaseCounted(ids.collect())),
                Resp::Provider(ProviderResp::ReleaseCounted(
                    (0..n).map(|i| (i << 12, i % 3 == 0, i % 2 == 0)).collect(),
                )),
            ),
        ] {
            cuts_error_and_flips_never_panic(&req, &resp);
        }
    }
    // A declared count beyond the frame is rejected before allocating.
    let mut lying = encode(&provider(ProviderReq::ReleaseCounted(vec![ChunkId(1)])));
    let count_at = lying.len() - 2;
    assert_eq!(lying[count_at], 1, "the batch length varint");
    lying[count_at] = 0x7F;
    assert!(decode::<Req>(&lying).is_err());
}
