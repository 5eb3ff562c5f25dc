//! Golden frames: the bytes that journals, segment files, ref logs and
//! sockets carry do not move.
//!
//! Each row pairs a value with the frame it encodes to, written out as
//! hex, and is checked both ways: encoding the value gives exactly those
//! bytes, and decoding the bytes gives exactly the value. There is one
//! row per live variant of every request, reply and on-disk record, plus
//! one per error variant a reply can carry.
//!
//! `tests/fixtures/wire_golden/` is a data directory that a durable
//! deployment wrote (see [`write_fixture`] for what it holds). Recovering
//! it must give the same versions and the same bytes.
//!
//! A row or the fixture changes only together with a migration of the
//! data already on disk.

use bff::blobseer::durable::{ChunkRecord, JournalRecord, RefRecord};
use bff::blobseer::{BlobConfig, BlobStore, BlobTopology, Client, Placement, RecoveryReport};
use bff::data::log::{Sealed, FILE_HEADER};
use bff::data::{ContentDigest, ContentKey, Digest, Payload, RecordLog, Sha256Digest};
use bff::net::{Fabric, LocalFabric, NetError, NodeId};
use bff::wire::msg::*;
use bff::wire::types::{BlobError, BlobId, ChunkDesc, ChunkId, NodeKey, TreeNode, Version};
use bff::wire::{decode, encode, Flat, Wire, WireError};
use std::fmt::Debug;
use std::path::Path;
use std::sync::Arc;

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digits"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Check every row both ways; report every row that moved, not only the
/// first.
fn golden<T: Wire + PartialEq + Debug>(rows: Vec<(T, &str)>) {
    let moved: Vec<String> = rows
        .iter()
        .filter_map(|(value, frame)| {
            let got = hex(&encode(value));
            let back = decode::<T>(&unhex(frame));
            (got != *frame || back.as_ref().ok() != Some(value))
                .then(|| format!("{value:?}\n  encodes to {got}\n  {frame} decodes to {back:?}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} rows moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// Every live tag of a message table opens some row's frame, so a new
/// row cannot land unpinned.
fn every_tag_pinned<T>(rows: &[(T, &str)], tags: &[u8]) {
    let pinned: Vec<u8> = rows.iter().map(|(_, frame)| unhex(frame)[0]).collect();
    let missing: Vec<u8> = tags
        .iter()
        .copied()
        .filter(|t| !pinned.contains(t))
        .collect();
    assert!(
        missing.is_empty(),
        "live tags with no golden row: {missing:?}"
    );
}

fn desc() -> ChunkDesc {
    ChunkDesc {
        id: ChunkId(1 << 40),
        replicas: vec![NodeId(1), NodeId(300)].into(),
    }
}

fn weak_key() -> ContentKey {
    (4096, ContentDigest::Weak(Digest(0x0123_4567_89ab_cdef)))
}

fn strong_key() -> ContentKey {
    (65536, ContentDigest::Strong(Sha256Digest([0x5a; 32])))
}

/// A rope with one segment of each kind: literal, zero and synthetic.
fn rope() -> Payload {
    Payload::from(&b"abc"[..])
        .concat(Payload::zeros(10))
        .concat(Payload::synth(5, 2, 300))
}

fn inner() -> TreeNode {
    TreeNode::Inner {
        left: NodeKey(300),
        right: NodeKey::NULL,
    }
}

fn leaf() -> TreeNode {
    TreeNode::Leaf { chunk: desc() }
}

fn nodes() -> Vec<(NodeKey, TreeNode)> {
    vec![(NodeKey(5), inner()), (NodeKey(300), leaf())]
}

#[rustfmt::skip]
#[test]
fn request_frames_are_golden() {
    let rows = vec![
        (Req::Vm(VmReq::CreateBlob { size: 1 << 30, chunk_size: 256 << 10 }), "00008080808004808010"),
        (Req::Vm(VmReq::CloneBlob { src: BlobId(3), version: Version(200) }), "000103c801"),
        (Req::Vm(VmReq::Latest(BlobId(1))), "000201"),
        (Req::Vm(VmReq::LiveSnapshots(BlobId(2))), "000402"),
        (Req::Vm(VmReq::VersionMeta(BlobId(2), Version(7))), "00050207"),
        (Req::Vm(VmReq::Publish { blob: BlobId(2), base: Version(7), root: NodeKey(70_000) }), "00060207f0a204"),
        (Req::Vm(VmReq::DeleteSnapshots { blob: BlobId(2), versions: vec![Version(3), Version(5)] }), "000702020305"),
        (Req::Vm(VmReq::ReserveKeys(16)), "000810"),
        (Req::Pm(PmReq::Allocate { n: 3, chunk_bytes: 65536, replication: 2, down: vec![false, true] }), "01000380800402020001"),
        (Req::Meta { shard: 1, req: MetaReq::ReadNodes(vec![NodeKey(1), NodeKey(300)]) }, "0201000201ac02"),
        (Req::Meta { shard: 0, req: MetaReq::WriteNodes(nodes()) }, "020001020500ac0200ac02018080808080200201ac02"),
        (Req::Provider { node: NodeId(300), req: ProviderReq::Put(vec![(ChunkId(9), rope())]) }, "03ac02000109030003616263020a010502ac02"),
        (Req::Provider { node: NodeId(1), req: ProviderReq::Fetch(vec![ChunkId(9), ChunkId(1 << 40)]) }, "0301010209808080808020"),
        (Req::Provider { node: NodeId(1), req: ProviderReq::ReleaseCounted(vec![ChunkId(9), ChunkId(9)]) }, "030105020909"),
        (Req::Provider { node: NodeId(2), req: ProviderReq::Retain(vec![(ChunkId(9), weak_key()), (ChunkId(10), strong_key())]) }, "0302060209802000ef9bafcdf8acd191010a808004015a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"),
        (Req::Board(BoardReq::Purge { keys: vec![(BlobId(2), Version(3))], freed: vec![ChunkId(9)] }), "04040102030109"),
        (Req::Board(BoardReq::Sync { key: (BlobId(2), Version(4)), publisher: NodeId(1), batch: vec![0, 130], from: 2, min_publishers: 2 }), "0405020401020082010202"),
        (Req::Cluster(ClusterReq::Get(vec![weak_key()])), "050001802000ef9bafcdf8acd19101"),
        (Req::Cluster(ClusterReq::Record(vec![(strong_key(), desc())])), "050301808004015a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a8080808080200201ac02"),
        (Req::Cluster(ClusterReq::Forget(weak_key())), "0504802000ef9bafcdf8acd19101"),
        (Req::Batch(Flat(vec![
            Req::Provider { node: NodeId(1), req: ProviderReq::Fetch(vec![ChunkId(9)]) },
            Req::Provider { node: NodeId(300), req: ProviderReq::Fetch(vec![ChunkId(1 << 40)]) },
        ])), "0602030101010903ac020101808080808020"),
    ];
    every_tag_pinned(&rows, Req::TAGS);
    golden(rows);
}

#[rustfmt::skip]
#[test]
fn reply_frames_are_golden() {
    let rows = vec![
        (Resp::Vm(VmResp::Created(Ok(BlobId(4)))), "00000004"),
        (Resp::Vm(VmResp::Cloned(Err(BlobError::NoSuchVersion(BlobId(1), Version(9))))), "000101010109"),
        (Resp::Vm(VmResp::Latest(Ok(Version(300)))), "000200ac02"),
        (Resp::Vm(VmResp::LiveSnapshots(Ok(vec![Version(1), Version(3)]))), "000400020103"),
        (Resp::Vm(VmResp::VersionMeta(Ok(VersionInfo { root: NodeKey(70_000), size: 1 << 20, chunk_size: 4096, span: 256 }))), "000500f0a20480804080208002"),
        (Resp::Vm(VmResp::Published(Err(BlobError::Conflict { blob: BlobId(2), base: Version(3), latest: Version(4) }))), "00060102020304"),
        (Resp::Vm(VmResp::Deleted(Ok(DeleteOutcome { dead_roots: vec![NodeKey(8)], live_roots: vec![NodeKey(2), NodeKey(300)], span: 256 }))), "00070001080202ac028002"),
        (Resp::Vm(VmResp::Reserved(100..116)), "00086474"),
        (Resp::Pm(PmResp::Allocated(Ok(vec![desc()]))), "010000018080808080200201ac02"),
        (Resp::Meta(MetaResp::Nodes(Ok(vec![inner(), leaf()]))), "0200000200ac0200018080808080200201ac02"),
        (Resp::Meta(MetaResp::Written), "0201"),
        (Resp::Provider(ProviderResp::Put(true)), "030001"),
        (Resp::Provider(ProviderResp::Fetched(vec![Some((rope(), true)), None])), "03010201030003616263020a010502ac020100"),
        (Resp::Provider(ProviderResp::ReleaseCounted(vec![(4096, true, true), (0, false, false)])), "03050280200101000000"),
        (Resp::Provider(ProviderResp::Retained(vec![RetainOutcome::Retained, RetainOutcome::Mismatch, RetainOutcome::Gone])), "030603000102"),
        (Resp::Board(BoardResp::Purged(2)), "040402"),
        (Resp::Board(BoardResp::Synced(BoardSync { len: 3, cohort: true, tail: vec![(130, true), (7, false)] })), "04050301028201010700"),
        (Resp::Cluster(ClusterResp::Got(vec![Some(desc()), None])), "050002018080808080200201ac0200"),
        (Resp::Cluster(ClusterResp::Recorded(1)), "050301"),
        (Resp::Cluster(ClusterResp::Forgotten), "0504"),
        (Resp::Batch(Flat(vec![
            Ok(Resp::Provider(ProviderResp::Fetched(vec![Some((rope(), false))]))),
            Err(WireError::Closed),
        ])), "06020003010101030003616263020a010502ac02000103"),
    ];
    every_tag_pinned(&rows, Resp::TAGS);
    golden(rows);
}

/// The errors a reply carries, down to the interned strings' indices.
#[rustfmt::skip]
#[test]
fn error_frames_are_golden() {
    let wire = |e| BlobError::Net(NetError::Wire(e));
    golden(vec![
        (BlobError::NoSuchBlob(BlobId(7)), "0007"),
        (BlobError::OutOfBounds { offset: 10, len: 20, size: 15 }, "030a140f"),
        (BlobError::ChunkUnavailable(ChunkId(9)), "0409"),
        (BlobError::MetadataMissing(NodeKey(300)), "05ac02"),
        (BlobError::Net(NetError::NodeDown(NodeId(2))), "060002"),
        (BlobError::Net(NetError::Cancelled), "0601"),
        (wire(WireError::Truncated), "060200"),
        (wire(WireError::BadTag("vm request", 3)), "0602010c03"),
        (wire(WireError::BadFrame), "060202"),
        (wire(WireError::Closed), "060203"),
        (wire(WireError::Io(std::io::ErrorKind::BrokenPipe)), "06020407"),
        (BlobError::BadInput("chunk_size must be positive"), "0708"),
    ]);
}

#[rustfmt::skip]
#[test]
fn record_frames_are_golden() {
    golden(vec![
        (ChunkRecord::Put { id: ChunkId(9), data: rope() }, "0009030003616263020a010502ac02"),
        (ChunkRecord::Free { id: ChunkId(300) }, "01ac02"),
    ]);
    golden(vec![
        (RefRecord::Retain { id: ChunkId(9), n: 2 }, "000902"),
        (RefRecord::Release { id: ChunkId(300), n: 1 }, "01ac0201"),
        (RefRecord::Snapshot(vec![(ChunkId(9), 3), (ChunkId(300), 0)]), "02020903ac0200"),
    ]);
    golden(vec![
        (JournalRecord::VmOp(VmReq::Publish { blob: BlobId(2), base: Version(7), root: NodeKey(70_000) }), "00060207f0a204"),
        (JournalRecord::MetaNodes { shard: 1, nodes: nodes() }, "0101020500ac0200ac02018080808080200201ac02"),
        (JournalRecord::KeyMark(65_552), "02908004"),
        (JournalRecord::ChunkMark(65_537), "03818004"),
    ]);
}

/// The bytes a record log holds on disk: the v1 file header, then each
/// record as `[u32 len][u64 XXH64][payload]`. Pinned as a whole file — a
/// fresh log holding the `Put` row's record above — and checked both
/// ways: appending writes exactly these bytes, and opening them replays
/// exactly that record.
#[test]
fn log_file_bytes_are_golden() {
    const HEADER: &str = "424646524c4f4701";
    const PUT: &str = "0f000000d67b589f1e3619380009030003616263020a010502ac02";
    assert_eq!(hex(&FILE_HEADER), HEADER);
    let record = encode(&ChunkRecord::Put {
        id: ChunkId(9),
        data: rope(),
    });
    let dir = std::env::temp_dir().join(format!("wire-golden-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("seg-0.log");
    let (mut log, _) = RecordLog::open(&path, |_, _| {}).unwrap();
    let off = log.append(&Sealed::new(record.clone())).unwrap();
    drop(log);
    assert_eq!(off, FILE_HEADER.len() as u64);
    assert_eq!(
        hex(&std::fs::read(&path).unwrap()),
        format!("{HEADER}{PUT}")
    );

    std::fs::write(&path, unhex(&format!("{HEADER}{PUT}"))).unwrap();
    let mut replayed = Vec::new();
    let (_, torn) = RecordLog::open(&path, |off, p| replayed.push((off, p.to_vec()))).unwrap();
    assert!(!torn);
    assert_eq!(replayed, vec![(off, record)]);
    let _ = std::fs::remove_dir_all(&dir);
}

const CHUNK: u64 = 512;

/// The deployment the fixture was written by and is recovered with:
/// providers and metadata on nodes 0 and 1, managers on node 2.
fn deployment(dir: &Path, dedup: bool) -> (Arc<BlobStore>, RecoveryReport) {
    let cfg = BlobConfig {
        chunk_size: CHUNK,
        dedup,
        cluster_dedup: dedup,
        ..BlobConfig::default()
    };
    let topo = BlobTopology::colocated(&[NodeId(0), NodeId(1)], NodeId(2));
    let fabric = LocalFabric::new(3) as Arc<dyn Fabric>;
    BlobStore::durable(cfg, topo, fabric, Placement::RoundRobin, dir).expect("durable deployment")
}

fn pattern(seed: u8, len: u64) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add((i / 7) as u8)).collect()
}

/// How the fixture was made: three blobs (literal bytes, a synthetic
/// image, and a clone of the first), two snapshots of the clone that
/// each rewrite its chunk 1 (the second a dedup hit on the first blob's
/// chunk 0), then the first of the two deleted, which frees its chunk.
/// It writes into a fresh temporary directory and prints its path; the
/// committed fixture is never rewritten.
#[test]
#[ignore = "writes a new fixture; run by hand with --ignored"]
fn write_fixture() {
    let dir = std::env::temp_dir().join(format!("wire-golden-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let client = Client::new(deployment(&dir, true).0, NodeId(0));
    let image = pattern(1, 4 * CHUNK);
    let (a, v1) = client.upload(Payload::from_bytes(image.clone())).unwrap();
    client.upload(Payload::synth(7, 0, 3 * CHUNK)).unwrap();
    let c = client.clone_blob(a, v1).unwrap();
    let fresh = Payload::from_bytes(pattern(50, CHUNK));
    let v2 = client.write(c, Version(1), CHUNK, fresh).unwrap();
    let chunk0 = Payload::from_bytes(image[..CHUNK as usize].to_vec());
    client.write(c, v2, CHUNK, chunk0).unwrap();
    client.delete_snapshot(c, v2).unwrap();
    println!("fixture written to {}", dir.display());
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// SHA-256 of the first blob's image, which its clone's first version
/// shares.
const IMAGE: &str = "1ebbdb5d392e9815cd9d92a91b263b62d310aa4e9b39cb6a858e55029d52c3d0";

/// Every blob in the fixture, with each live version and the SHA-256 of
/// that snapshot's bytes.
#[rustfmt::skip]
const SNAPSHOTS: &[(u64, &[(u64, &str)])] = &[
    (1, &[(1, IMAGE)]),
    (2, &[(1, "c10e13adee009b1f542d766cebb6c3e8cff6122a67059bf6f5ef3fdbb71fc8f5")]),
    (3, &[(1, IMAGE), (3, "11670b81c5571c112bfece6519c477975a4f1859effc27c6780029792962d17b")]),
];

#[test]
fn a_data_directory_written_before_the_table_recovers_unchanged() {
    // Recovery truncates torn tails and appends, so work on a copy.
    let dir = std::env::temp_dir().join(format!("wire-golden-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_golden"),
        &dir,
    );
    let (store, report) = deployment(&dir, BlobConfig::default().dedup);
    // A record that no longer decodes is skipped, not fatal: count them.
    assert!(!report.journal_torn);
    assert_eq!(
        (report.journal_records, report.chunks, report.torn_files),
        (18, 7, 0)
    );
    let client = Client::new(store, NodeId(1));
    let mut seen = Vec::new();
    // Blob ids are issued from 1 on; the first unknown one ends the list.
    for blob in (1..).map(BlobId) {
        let Ok(live) = client.live_snapshots(blob) else {
            break;
        };
        let digests: Vec<(u64, String)> = live
            .iter()
            .map(|&v| {
                let size = client.snapshot_size(blob, v).unwrap();
                let bytes = client.read(blob, v, 0..size).unwrap().materialize();
                (v.0, Sha256Digest::of(&bytes).to_string())
            })
            .collect();
        seen.push((blob.0, digests));
    }
    let want: Vec<(u64, Vec<(u64, String)>)> = SNAPSHOTS
        .iter()
        .map(|&(b, vs)| (b, vs.iter().map(|&(v, s)| (v, s.into())).collect()))
        .collect();
    assert_eq!(seen, want);
    let _ = std::fs::remove_dir_all(&dir);
}
