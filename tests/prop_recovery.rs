//! Property suite for crash recovery of the durable layer: for random
//! op sequences, killing the writer at an arbitrary byte offset (a torn
//! write — the file loses its tail, or a byte is damaged in place) must
//! leave a state that replay either fully restores or cleanly truncates
//! to a prefix of what was appended. Recovery never panics, never
//! errors, and never serves chunk bytes that differ from what was
//! originally put — a torn or flipped tail may *lose* trailing records
//! (that is what the fsync-on-ack barrier is for), but it can never
//! *corrupt* surviving ones.
//!
//! Three layers are attacked independently: the raw [`RecordLog`]
//! framing, the provider's log-structured [`SegmentStore`] (including
//! rotation and compaction, via a tiny segment size), and the manager
//! [`Journal`]. Two whole-deployment cases close the file: the version
//! manager's family live-root index — derived state no journal record
//! carries — is rebuilt exactly by replay, and a durable [`BlobStore`]
//! without a transport hop journals like one behind the codec, and
//! recovers byte-identically.

use bff::blobseer::durable::{Journal, SegmentStore};
use bff::blobseer::{
    BlobConfig, BlobId, BlobStore, BlobTopology, ChunkId, Client, DurabilityStats, GroupCommit,
    NodeKey, Placement, RecoveryReport, ServerState, TransportMode, Version,
};
use bff::data::{Payload, RecordLog};
use bff::net::{Fabric, LocalFabric, NodeId};
use bff::wire::msg::{Req, Resp, VmReq, VmResp};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-case scratch directory (no tempfile crate in the workspace).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bff-prop-recovery-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Truncate `path` to `len` bytes (the torn-write crash model: an
/// append was cut mid-frame and everything after the cut never hit the
/// disk).
fn cut_file(path: &PathBuf, len: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncation");
    f.set_len(len).expect("truncate");
}

/// Flip one byte of `path` in place (the damaged-sector crash model).
fn flip_byte(path: &PathBuf, at: usize) {
    let mut bytes = std::fs::read(path).expect("read file");
    if bytes.is_empty() {
        return;
    }
    let at = at % bytes.len();
    bytes[at] ^= 0x5A;
    std::fs::write(path, bytes).expect("write file");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cutting a record log at any byte offset recovers an exact prefix
    /// of the appended payloads; a cut at or past the end restores all
    /// of them.
    #[test]
    fn record_log_cut_recovers_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..24),
        cut_pct in 0u64..120,
    ) {
        let dir = scratch("log-cut");
        let path = dir.join("log");
        let (_, mut log, torn) = RecordLog::open(&path).unwrap();
        prop_assert!(!torn);
        for p in &payloads {
            log.append(p).unwrap();
        }
        drop(log);

        let len = std::fs::metadata(&path).unwrap().len();
        let cut = (len * cut_pct / 100).min(len);
        cut_file(&path, cut);

        let (records, mut log, _) = RecordLog::open(&path).unwrap();
        prop_assert!(records.len() <= payloads.len());
        for (got, want) in records.iter().zip(&payloads) {
            prop_assert_eq!(&got.1, want, "recovered record diverged");
        }
        if cut >= len {
            prop_assert_eq!(records.len(), payloads.len(), "nothing was cut");
        }
        // The truncated log must accept appends again and keep them.
        log.append(b"after-recovery").unwrap();
        let survivors = records.len();
        drop(log);
        let (records, _, torn) = RecordLog::open(&path).unwrap();
        prop_assert!(!torn, "re-opened log is clean");
        prop_assert_eq!(records.len(), survivors + 1);
        prop_assert_eq!(records.last().unwrap().1.clone(), b"after-recovery".to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte recovers an exact prefix: the checksum
    /// catches the damage and replay stops cleanly at the first bad
    /// record instead of panicking or returning garbage.
    #[test]
    fn record_log_flip_recovers_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..24),
        at in 0usize..1_000_000,
    ) {
        let dir = scratch("log-flip");
        let path = dir.join("log");
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        for p in &payloads {
            log.append(p).unwrap();
        }
        drop(log);

        flip_byte(&path, at);
        let (records, _, _) = RecordLog::open(&path).unwrap();
        prop_assert!(records.len() < payloads.len(), "damage always loses the hit record");
        for (got, want) in records.iter().zip(&payloads) {
            prop_assert_eq!(&got.1, want, "recovered record diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random put/free traffic through the segment store (tiny segments,
    /// so rotation and compaction both run), then a torn tail at an
    /// arbitrary offset of an arbitrary segment file: reopening must
    /// succeed, and every chunk it still serves must be byte-identical
    /// to what was put under that id. A cut that removes nothing must
    /// restore the exact live set.
    #[test]
    fn segment_store_torn_tail_never_serves_corrupt_bytes(
        ops in prop::collection::vec((0u8..10, 0u64..24, 0usize..2000), 1..60),
        pick_seg in any::<u64>(),
        cut_pct in 0u64..120,
    ) {
        let dir = scratch("segstore");
        let (mut store, _, _) = SegmentStore::open(&dir, 4096).unwrap();
        // Content per id is immutable (chunk ids never carry different
        // data); a free may be followed by a re-put of the same bytes.
        let mut content: HashMap<ChunkId, Vec<u8>> = HashMap::new();
        let mut live: Vec<ChunkId> = Vec::new();
        // One guaranteed put so the directory always holds a file to cut.
        let anchor = ChunkId(999);
        content.insert(anchor, vec![0xAB; 64]);
        store.put(anchor, &Payload::from_bytes(vec![0xAB; 64])).unwrap();
        live.push(anchor);
        for &(kind, id, len) in &ops {
            let id = ChunkId(id + 1);
            if kind < 7 {
                let data = content
                    .entry(id)
                    .or_insert_with(|| vec![(id.0 as u8).wrapping_mul(37); len])
                    .clone();
                store.put(id, &Payload::from_bytes(data)).unwrap();
                if !live.contains(&id) {
                    live.push(id);
                }
            } else if let Some(pos) = live.iter().position(|&l| l == id) {
                store.free(id).unwrap();
                live.remove(pos);
            }
        }
        for f in store.sync_handles().unwrap() {
            f.sync_data().unwrap();
        }
        drop(store);

        // Tear the tail off one of the on-disk files.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = &files[(pick_seg % files.len() as u64) as usize];
        let len = std::fs::metadata(victim).unwrap().len();
        let cut = (len * cut_pct / 100).min(len);
        cut_file(victim, cut);

        let (store, refs, _) = SegmentStore::open(&dir, 4096).unwrap();
        for &id in refs.keys() {
            if let Some(got) = store.read(id) {
                prop_assert_eq!(
                    got.materialize(),
                    content[&id].clone(),
                    "chunk {:?} served different bytes after recovery", id
                );
            }
        }
        if cut >= len {
            // Nothing was torn: the live set must survive exactly.
            for &id in &live {
                let got = store.read(id);
                prop_assert!(got.is_some(), "live chunk {:?} lost without damage", id);
                prop_assert_eq!(got.unwrap().materialize(), content[&id].clone());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Group commit preserves the fsync-before-ack contract at every
    /// crash point: appends go through the real [`GroupCommit`]
    /// coordinator (ticket under the log lock, leader fsync through
    /// [`RecordLog::sync_handle`]), only *some* of them commit — so the
    /// log alternates between fsynced prefixes and unsynced tails,
    /// exactly what interleaved committers leave between batched syncs.
    /// The crash then cuts the file anywhere *at or past* the last
    /// completed fsync (bytes a real crash could still tear). Replay
    /// must restore every acked record byte-identically (acked ⊆
    /// replayed), whatever survives must be an exact prefix of what was
    /// appended, and the truncated log must accept appends again.
    #[test]
    fn group_commit_crash_never_loses_acked_records(
        ops in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..200), any::<bool>()),
            1..30,
        ),
        cut_back in 0u64..1_000_000,
    ) {
        let dir = scratch("group-commit");
        let path = dir.join("log");
        let (_, log, torn) = RecordLog::open(&path).unwrap();
        prop_assert!(!torn);
        let log = Arc::new(Mutex::new(log));
        let gc = GroupCommit::new(
            Duration::from_millis(50),
            Arc::new(DurabilityStats::default()),
        );
        let mut appended = 0usize;
        let mut acked = 0usize;     // records covered by a completed fsync
        let mut durable_len = 0u64; // on-disk bytes covered by it
        for (payload, do_commit) in &ops {
            let ticket = {
                let mut l = log.lock().unwrap();
                l.append(payload).unwrap();
                gc.ticket()
            };
            appended += 1;
            if *do_commit {
                gc.commit(ticket, || {
                    let handle = log.lock().unwrap().sync_handle()?;
                    if let Some(f) = handle {
                        f.sync_data()?;
                    }
                    Ok(())
                })
                .unwrap();
                // The leader's high-water capture covers every append
                // at-or-before the ticket — here, all of them so far.
                acked = appended;
                durable_len = std::fs::metadata(&path).unwrap().len();
            }
        }
        drop(log);

        // Crash: anything past the last completed fsync may be torn,
        // anything before it may not (fdatasync completed).
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = durable_len + cut_back % (len - durable_len + 1);
        cut_file(&path, cut);

        let (records, mut log, _) = RecordLog::open(&path).unwrap();
        prop_assert!(
            records.len() >= acked,
            "lost acked records: {} acked, {} replayed", acked, records.len()
        );
        prop_assert!(records.len() <= appended);
        for (got, (want, _)) in records.iter().zip(&ops) {
            prop_assert_eq!(&got.1, want, "replayed record diverged");
        }
        // The truncated log accepts appends and keeps them.
        log.append(b"after-crash").unwrap();
        let survivors = records.len();
        drop(log);
        let (records, _, torn) = RecordLog::open(&path).unwrap();
        prop_assert!(!torn, "re-opened log is clean");
        prop_assert_eq!(records.len(), survivors + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Journal appends cut at an arbitrary byte offset recover an exact
    /// prefix of the journaled ops — a half-written publish is dropped,
    /// never misread as a different mutation.
    #[test]
    fn journal_cut_recovers_prefix(
        sizes in prop::collection::vec(1u64..1_000_000, 1..20),
        cut_pct in 0u64..120,
    ) {
        let dir = scratch("journal");
        let path = dir.join("journal.log");
        let (_, mut journal, torn) = Journal::open(&path).unwrap();
        prop_assert!(!torn);
        let ops: Vec<VmReq> = sizes
            .iter()
            .map(|&s| VmReq::CreateBlob { size: s, chunk_size: 4096 })
            .collect();
        for op in &ops {
            journal.append_vm(op).unwrap();
        }
        drop(journal);

        let len = std::fs::metadata(&path).unwrap().len();
        let cut = (len * cut_pct / 100).min(len);
        cut_file(&path, cut);

        let (records, _, _) = Journal::open(&path).unwrap();
        prop_assert!(records.len() <= ops.len());
        for (got, want) in records.iter().zip(&ops) {
            // Compare through the wire encoding: the record enums do not
            // implement PartialEq, the codec is canonical.
            let got = bff::wire::encode(got);
            let want =
                bff::wire::encode(&bff::blobseer::durable::JournalRecord::VmOp(want.clone()));
            prop_assert_eq!(got, want, "journal record diverged");
        }
        if cut >= len {
            prop_assert_eq!(records.len(), ops.len(), "nothing was cut");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What the test knows about one blob of the version manager.
struct ModelBlob {
    id: BlobId,
    family: u64,
    /// `roots[v]` is `Version(v)`'s root; `roots[0]` is NULL.
    roots: Vec<NodeKey>,
    deleted: HashSet<u64>,
}

impl ModelBlob {
    fn live(&self) -> Vec<u64> {
        (1..self.roots.len() as u64)
            .filter(|v| !self.deleted.contains(v))
            .collect()
    }
}

/// The brute-force frontier: scan every blob of `family` for live
/// roots, ascending, each key once.
fn scan_live_roots(model: &[ModelBlob], family: u64) -> Vec<NodeKey> {
    let mut out: Vec<NodeKey> = model
        .iter()
        .filter(|b| b.family == family)
        .flat_map(|b| b.live().into_iter().map(|v| b.roots[v as usize]))
        .collect();
    out.sort();
    out.dedup();
    out
}

fn vm_state(dir: &std::path::Path) -> ServerState {
    let compute: Vec<NodeId> = (0..3).map(NodeId).collect();
    ServerState::recover(
        &BlobConfig::default(),
        &BlobTopology::colocated(&compute, NodeId(3)),
        Placement::RoundRobin,
        dir,
    )
    .expect("durable server state")
    .0
}

/// Delete `versions` of `model[at]` and check the reply's live-root
/// frontier against the brute-force scan of the model.
fn delete_and_check(state: &ServerState, model: &mut [ModelBlob], at: usize, versions: &[u64]) {
    let blob = model[at].id;
    let resp = state
        .dispatch(Req::Vm(VmReq::DeleteSnapshots {
            blob,
            versions: versions.iter().map(|&v| Version(v)).collect(),
        }))
        .unwrap();
    let Resp::Vm(VmResp::Deleted(Ok(outcome))) = resp else {
        panic!("delete of live versions failed: {resp:?}");
    };
    model[at].deleted.extend(versions);
    let dead: Vec<NodeKey> = versions
        .iter()
        .map(|&v| model[at].roots[v as usize])
        .collect();
    assert_eq!(outcome.dead_roots, dead);
    assert_eq!(
        outcome.live_roots,
        scan_live_roots(model, model[at].family),
        "live-root index diverged from the scan (or repeats a key)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random create / clone / publish / delete traffic into a durable
    /// `ServerState`, with a restart (journal replay) at a random point:
    /// after every delete — before the restart and after it, down to the
    /// last live version — the frontier the version manager serves from
    /// its live-root index equals a brute-force scan of everything ever
    /// created, with no key repeated.
    #[test]
    fn live_root_index_survives_journal_replay(
        ops in prop::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 4..40),
        restart_pct in 0usize..100,
    ) {
        let dir = scratch("live-roots");
        let mut state = vm_state(&dir);
        let mut model: Vec<ModelBlob> = Vec::new();
        let mut next_root = 1u64;
        let restart_at = ops.len() * restart_pct / 100;
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            if step == restart_at {
                drop(state);
                state = vm_state(&dir);
            }
            if model.is_empty() || kind == 0 {
                let resp = state
                    .dispatch(Req::Vm(VmReq::CreateBlob { size: 1 << 20, chunk_size: CHUNK }))
                    .unwrap();
                let Resp::Vm(VmResp::Created(Ok(id))) = resp else {
                    panic!("create failed: {resp:?}");
                };
                model.push(ModelBlob {
                    id,
                    family: id.0,
                    roots: vec![NodeKey::NULL],
                    deleted: HashSet::new(),
                });
                continue;
            }
            let at = (a % model.len() as u64) as usize;
            let live = model[at].live();
            match kind {
                1..=3 => {
                    // Publish onto the latest version; refused (and
                    // unjournaled) when that version was deleted.
                    let base = model[at].roots.len() as u64 - 1;
                    let root = NodeKey(next_root);
                    next_root += 1;
                    let resp = state
                        .dispatch(Req::Vm(VmReq::Publish {
                            blob: model[at].id,
                            base: Version(base),
                            root,
                        }))
                        .unwrap();
                    match resp {
                        Resp::Vm(VmResp::Published(Ok(v))) => {
                            prop_assert_eq!(v, Version(base + 1));
                            model[at].roots.push(root);
                        }
                        Resp::Vm(VmResp::Published(Err(_))) => {
                            prop_assert!(model[at].deleted.contains(&base));
                        }
                        other => panic!("publish: {other:?}"),
                    }
                }
                4 | 5 if !live.is_empty() => {
                    let v = live[(b % live.len() as u64) as usize];
                    let resp = state
                        .dispatch(Req::Vm(VmReq::CloneBlob {
                            src: model[at].id,
                            version: Version(v),
                        }))
                        .unwrap();
                    let Resp::Vm(VmResp::Cloned(Ok(id))) = resp else {
                        panic!("clone failed: {resp:?}");
                    };
                    let (family, root) = (model[at].family, model[at].roots[v as usize]);
                    model.push(ModelBlob {
                        id,
                        family,
                        roots: vec![NodeKey::NULL, root],
                        deleted: HashSet::new(),
                    });
                }
                6 if !live.is_empty() => {
                    let v = live[(b % live.len() as u64) as usize];
                    delete_and_check(&state, &mut model, at, &[v]);
                }
                7 if !live.is_empty() => delete_and_check(&state, &mut model, at, &live),
                _ => {}
            }
        }
        // One more restart, then drain: every remaining live version
        // goes, one delete at a time, each reply checked.
        drop(state);
        let state = vm_state(&dir);
        for at in 0..model.len() {
            for v in model[at].live() {
                delete_and_check(&state, &mut model, at, &[v]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

const CHUNK: u64 = 4096;

fn durable_store(
    dir: &std::path::Path,
    transport: TransportMode,
) -> (Arc<BlobStore>, RecoveryReport) {
    let compute: Vec<NodeId> = (0..3).map(NodeId).collect();
    let cfg = BlobConfig {
        chunk_size: CHUNK,
        transport,
        ..BlobConfig::default()
    };
    BlobStore::durable(
        cfg,
        BlobTopology::colocated(&compute, NodeId(3)),
        LocalFabric::new(4) as Arc<dyn Fabric>,
        Placement::RoundRobin,
        dir,
    )
    .expect("durable deployment")
}

fn pattern(seed: u8, len: u64) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add((i / 7) as u8)).collect()
}

/// upload → clone → write → snapshot → delete-snapshot on a fresh
/// durable deployment over `transport`, then drop it. Returns the
/// expected bytes of every snapshot that survives.
fn run_durable_workload(
    dir: &std::path::Path,
    transport: TransportMode,
) -> Vec<(BlobId, Version, Vec<u8>)> {
    let (store, report) = durable_store(dir, transport);
    assert_eq!(report.journal_records, 0, "cold start");
    let client = Client::new(store, NodeId(0));
    let image = pattern(1, 8 * CHUNK);
    let (base, v1) = client.upload(Payload::from_bytes(image.clone())).unwrap();
    let clone = client.clone_blob(base, v1).unwrap();
    let patch = |mut bytes: Vec<u8>, at: u64, seed: u8| {
        let fill = pattern(seed, CHUNK);
        bytes[at as usize..(at + CHUNK) as usize].copy_from_slice(&fill);
        (bytes, Payload::from_bytes(fill))
    };
    let (doomed, fill) = patch(image.clone(), 2 * CHUNK, 50);
    let v2 = client.write(clone, Version(1), 2 * CHUNK, fill).unwrap();
    let (kept, fill) = patch(doomed, 5 * CHUNK, 90);
    let v3 = client.write(clone, v2, 5 * CHUNK, fill).unwrap();
    client.delete_snapshot(clone, v2).unwrap();
    vec![
        (base, v1, image.clone()),
        (clone, Version(1), image),
        (clone, v3, kept),
    ]
}

/// A durable deployment needs no transport hop to be durable: every
/// request is served — and journaled — by `ServerState::dispatch`, so
/// `TransportMode::Direct` leaves the same journal as the codec round
/// trip and recovers every surviving snapshot byte-identically.
#[test]
fn durable_direct_deployment_journals_and_recovers() {
    let direct_dir = scratch("durable-direct");
    let codec_dir = scratch("durable-codec");
    let survivors = run_durable_workload(&direct_dir, TransportMode::Direct);
    run_durable_workload(&codec_dir, TransportMode::Codec);

    let (store, report) = durable_store(&direct_dir, TransportMode::Direct);
    let (_, codec_report) = durable_store(&codec_dir, TransportMode::Codec);
    assert!(!report.journal_torn);
    assert!(report.journal_records > 0, "the direct path journals");
    assert_eq!(
        report.journal_records, codec_report.journal_records,
        "same workload, same journal, whichever way requests arrived"
    );

    let client = Client::new(store, NodeId(1));
    for (blob, version, want) in survivors {
        let got = client.read(blob, version, 0..want.len() as u64).unwrap();
        assert_eq!(got.materialize(), want, "{blob:?} {version:?} diverged");
    }
    let _ = std::fs::remove_dir_all(&direct_dir);
    let _ = std::fs::remove_dir_all(&codec_dir);
}
