//! Server-side dispatch: the passive state machines behind the typed
//! message boundary.
//!
//! A [`ServerState`] owns everything that lives on the *server* side of
//! the protocol — version manager, provider manager, metadata shards,
//! chunk providers, the pattern board and the cluster dedup index — and
//! answers [`bff_wire::Req`] values with [`bff_wire::Resp`] values.
//! [`ServerState::dispatch`] is the **only** way into that state: an
//! in-process [`crate::BlobStore`] without a transport hop calls it with
//! the typed value, and every framed transport reaches it through
//! [`ServerState::handle_frame`] (decode → dispatch → encode, never
//! panicking on input), which [`ServerState::serve`] puts behind
//! loopback listeners for socket deployments and the standalone
//! `blob_server` processes (see the `bff-bench` crate). Locking and
//! journaling are therefore decided here, once: a batch request takes
//! its state machine's lock once for the whole batch, a per-item request
//! once per message, and a mutation is journaled under the lock that
//! serialized it whichever way the request arrived.

use crate::api::{BlobConfig, BlobTopology};
use crate::board::BoardService;
use crate::cluster::ClusterIndex;
use crate::durable::{
    CommitPolicy, DurabilityCounters, DurabilityStats, GroupCommit, Journal, JournalRecord,
    RecoveryReport,
};
use crate::meta::MetaPartition;
use crate::pmanager::{PManager, Placement};
use crate::provider::ProviderStore;
use crate::vmanager::VManager;
use bff_data::FastSet;
use bff_net::transport::{FrameHandler, FrameServer, Role, RouteKey, WireError};
use bff_net::NodeId;
use bff_wire::msg::{
    BoardReq, BoardResp, ClusterReq, ClusterResp, DeleteOutcome, MetaReq, MetaResp, PmReq, PmResp,
    ProviderReq, ProviderResp, Req, Resp, VersionInfo, VmReq, VmResp,
};
use bff_wire::types::BlobError;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::Arc;

/// The manager journal plus its group-commit coordinator: appends
/// happen under the state-machine lock (journal order = serialization
/// order), the fsync barrier is crossed *after* that lock is released,
/// so concurrent mutations interleave appends and share one `sync_data`.
struct JournalHandle {
    journal: Mutex<Journal>,
    gc: Arc<GroupCommit>,
}

impl JournalHandle {
    /// Issue the sync ticket for a record just appended (call while
    /// still holding the state-machine lock that ordered the append).
    fn ticket(&self) -> u64 {
        self.gc.ticket()
    }

    /// Cross the fsync-before-ack barrier for `ticket`. Call with no
    /// state-machine lock held.
    fn commit(&self, ticket: u64) {
        self.gc
            .commit(ticket, || {
                // Claim under the journal lock, sync_data outside it.
                let handle = self.journal.lock().sync_handle()?;
                if let Some(f) = handle {
                    f.sync_data()?;
                }
                Ok(())
            })
            .expect("journal group sync")
    }
}

/// The server half of a deployment: every passive state machine, each
/// behind its own lock and reachable only through
/// [`ServerState::dispatch`] (plus the read-only diagnostics accessors).
pub struct ServerState {
    vmanager: Mutex<VManager>,
    pmanager: Mutex<PManager>,
    meta: Vec<Mutex<MetaPartition>>,
    /// Sharded one lock per provider: data-plane requests on distinct
    /// providers never contend (see [`ProviderStore`]).
    providers: ProviderStore,
    /// The cluster access-pattern board (see [`crate::board`]). The
    /// service does its own sharded read/write locking.
    pattern_board: BoardService,
    /// The cluster-wide content-addressed dedup index. Read-mostly after
    /// deployment convergence, so a read/write lock.
    cluster_index: RwLock<ClusterIndex>,
    /// The mutation journal, present only on durable deployments (see
    /// [`ServerState::recover`]). A leaf lock: always acquired *while
    /// holding* the state-machine lock whose mutation is being
    /// journaled, so journal order equals serialization order. The sync
    /// barrier, by contrast, is crossed after that lock drops.
    journal: Option<JournalHandle>,
    /// Deployment-wide durability counters (journal + provider
    /// coordinators share one instance; all-zero when volatile).
    durability: Arc<DurabilityStats>,
}

impl ServerState {
    /// Build the server state for a deployment (in-memory, the
    /// historical default).
    pub fn new(cfg: &BlobConfig, topo: &BlobTopology, placement: Placement) -> Self {
        Self::assemble(
            cfg,
            topo,
            placement,
            ProviderStore::new(&topo.providers),
            None,
            Arc::new(DurabilityStats::default()),
        )
    }

    fn assemble(
        cfg: &BlobConfig,
        topo: &BlobTopology,
        placement: Placement,
        providers: ProviderStore,
        journal: Option<JournalHandle>,
        durability: Arc<DurabilityStats>,
    ) -> Self {
        assert!(!topo.providers.is_empty(), "need at least one provider");
        assert!(
            !topo.metadata.is_empty(),
            "need at least one metadata server"
        );
        let cluster_cap = if cfg.cluster_dedup && cfg.dedup {
            cfg.cluster_index_chunks
        } else {
            0
        };
        Self {
            vmanager: Mutex::new(VManager::new()),
            pmanager: Mutex::new(PManager::new(topo.providers.clone(), placement)),
            meta: topo
                .metadata
                .iter()
                .map(|_| Mutex::new(MetaPartition::new()))
                .collect(),
            providers,
            pattern_board: BoardService::new(),
            cluster_index: RwLock::new(ClusterIndex::new(cluster_cap)),
            journal,
            durability,
        }
    }

    /// Build a durable server state rooted at `data_dir`: disk-backed
    /// providers (one directory per provider node) plus the mutation
    /// journal, both replayed before the state is handed out.
    ///
    /// Soft state — the pattern board and the cluster dedup index — is
    /// deliberately *not* journaled: both are self-healing caches
    /// (stale entries are re-learned or verified against providers),
    /// and an empty board after restart only costs warmup, never
    /// correctness. Each process must own `data_dir` exclusively; two
    /// writers would corrupt each other's live appends.
    pub fn recover(
        cfg: &BlobConfig,
        topo: &BlobTopology,
        placement: Placement,
        data_dir: &Path,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let policy = CommitPolicy::from_config(cfg);
        let (providers, seg) = ProviderStore::recover(&topo.providers, data_dir, &policy)?;
        let (records, journal, journal_torn) = Journal::open(&data_dir.join("journal.log"))?;
        let handle = JournalHandle {
            journal: Mutex::new(journal),
            gc: policy.coordinator(),
        };
        let state = Self::assemble(cfg, topo, placement, providers, Some(handle), policy.stats);
        let report = RecoveryReport {
            journal_records: records.len(),
            journal_torn,
            chunks: seg.chunks,
            chunk_bytes: seg.chunk_bytes,
            torn_files: seg.torn_files,
        };
        let mut vm = state.vmanager.lock();
        let mut pm = state.pmanager.lock();
        for rec in records {
            match rec {
                JournalRecord::VmOp(op) => replay_vm(&mut vm, &op),
                JournalRecord::MetaNodes { shard, nodes } => {
                    if let Some(part) = state.meta.get(shard as usize) {
                        part.lock().put(nodes);
                    }
                }
                JournalRecord::KeyMark(k) => vm.ensure_key_floor(k),
                JournalRecord::ChunkMark(c) => pm.ensure_chunk_floor(c),
            }
        }
        drop(vm);
        drop(pm);
        Ok((state, report))
    }

    /// Journal a successful version-manager mutation. Call sites hold
    /// the vmanager lock, so append order equals serialization order.
    /// Fail-stop: an unjournalable mutation must not be acked. Returns
    /// the sync ticket to pass to [`ServerState::journal_commit`]
    /// *after* the vmanager lock is released — the ack is not durable
    /// until that barrier is crossed.
    fn journal_append_vm(&self, op: &VmReq) -> Option<u64> {
        let j = self.journal.as_ref()?;
        j.journal.lock().append_vm(op).expect("journal vm append");
        Some(j.ticket())
    }

    /// Cross the fsync-before-ack barrier for an appended journal
    /// record. Call with no state-machine lock held; `None` (volatile
    /// deployment, or nothing appended) is a no-op.
    fn journal_commit(&self, ticket: Option<u64>) {
        if let (Some(j), Some(ticket)) = (self.journal.as_ref(), ticket) {
            j.commit(ticket);
        }
    }

    /// Advance the durable node-key allocator mark (call under the
    /// vmanager lock); `Some` carries the barrier ticket when a new
    /// mark was appended.
    fn journal_note_key(&self, next: u64) -> Option<u64> {
        let j = self.journal.as_ref()?;
        let appended = j.journal.lock().note_key(next).expect("journal key mark");
        appended.then(|| j.ticket())
    }

    /// [`ServerState::journal_note_key`] for the chunk-id allocator
    /// (call under the pmanager lock).
    fn journal_note_chunk(&self, next: u64) -> Option<u64> {
        let j = self.journal.as_ref()?;
        let appended = j
            .journal
            .lock()
            .note_chunk(next)
            .expect("journal chunk mark");
        appended.then(|| j.ticket())
    }

    /// Point-in-time durability counters (fsync barriers, acks covered,
    /// worst ticket wait) across the journal and every provider shard.
    pub fn durability(&self) -> DurabilityCounters {
        self.durability.snapshot()
    }

    /// The chunk provider set (diagnostics: stored bytes, refcounts,
    /// loads, page-cache ablations).
    pub fn providers(&self) -> &ProviderStore {
        &self.providers
    }

    /// The cluster access-pattern board (diagnostics).
    pub fn pattern_board(&self) -> &BoardService {
        &self.pattern_board
    }

    /// The cluster-wide dedup index (diagnostics).
    pub fn cluster_index(&self) -> &RwLock<ClusterIndex> {
        &self.cluster_index
    }

    /// Total metadata tree nodes stored across all shards.
    pub fn total_metadata_nodes(&self) -> usize {
        self.meta.iter().map(|m| m.lock().node_count()).sum()
    }

    /// Bind one loopback listener per role in `roles`, each feeding its
    /// frames to [`ServerState::handle_frame`]. Dropping a returned
    /// [`FrameServer`] stops its listener.
    pub fn serve(self: &Arc<Self>, roles: &[Role]) -> std::io::Result<Vec<(Role, FrameServer)>> {
        roles
            .iter()
            .map(|&role| {
                // A listener serves a role class: shard and provider
                // addressing travel in the request, so the index inside
                // the key is never looked at.
                let route = match role {
                    Role::Vm => RouteKey::Vm,
                    Role::Pm => RouteKey::Pm,
                    Role::Board => RouteKey::Board,
                    Role::Cluster => RouteKey::Cluster,
                    Role::Meta => RouteKey::Meta(0),
                    Role::Provider => RouteKey::Provider(NodeId(0)),
                };
                Ok((role, FrameServer::start(route, self.frame_handler())?))
            })
            .collect()
    }

    /// [`ServerState::handle_frame`] as a shareable
    /// `bff_net::FrameHandler`.
    pub(crate) fn frame_handler(self: &Arc<Self>) -> FrameHandler {
        let state = Arc::clone(self);
        Arc::new(move |route, frame| state.handle_frame(route, frame))
    }

    /// The `bff_net::FrameHandler` entry point: decode one request
    /// frame, dispatch it, encode the reply. `route` is the listener the
    /// frame arrived on; a frame whose payload addresses a different
    /// role class is rejected as corrupt (misrouted) rather than served.
    pub fn handle_frame(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let req: Req = bff_wire::decode(frame)?;
        if req.route().role() != route.role() {
            return Err(WireError::BadFrame);
        }
        let resp = self.dispatch(req)?;
        Ok(bff_wire::encode(&resp))
    }

    /// Serve one typed request against the passive state machines — the
    /// single entry point every client call arrives at, framed or not.
    ///
    /// A shard index beyond the deployment is an addressing error
    /// ([`WireError::BadFrame`]); a request for an *unknown provider
    /// node* is answered by `ProviderStore` as an absent chunk / rejected
    /// op, which is what the clients' per-chunk failover expects.
    pub fn dispatch(&self, req: Req) -> Result<Resp, WireError> {
        Ok(match req {
            Req::Vm(q) => Resp::Vm(self.dispatch_vm(q)),
            Req::Pm(q) => Resp::Pm(self.dispatch_pm(q)),
            Req::Meta { shard, req } => {
                let shard = shard as usize;
                if shard >= self.meta.len() {
                    return Err(WireError::BadFrame);
                }
                Resp::Meta(self.dispatch_meta(shard, req))
            }
            Req::Provider { node, req } => Resp::Provider(self.dispatch_provider(node, req)),
            Req::Board(q) => Resp::Board(self.dispatch_board(q)),
            Req::Cluster(q) => Resp::Cluster(self.dispatch_cluster(q)),
        })
    }

    fn dispatch_vm(&self, q: VmReq) -> VmResp {
        // One shape for every request: apply and journal under the
        // vmanager lock, park on the sync ticket only after dropping it —
        // concurrent publishes share one fsync under group commit
        // instead of serializing N barriers behind the state machine.
        let (resp, ticket) = {
            let mut vm = self.vmanager.lock();
            let resp = apply_vm(&mut vm, &q);
            let ticket = match &q {
                // Durable via high-water mark, not per-reservation
                // records: the barrier fires only when the allocator
                // crosses the last persisted mark.
                VmReq::ReserveKeys(_) => self.journal_note_key(vm.next_key()),
                _ if vm_mutated(&resp) => self.journal_append_vm(&q),
                _ => None,
            };
            (resp, ticket)
        };
        self.journal_commit(ticket);
        resp
    }

    fn dispatch_pm(&self, q: PmReq) -> PmResp {
        match q {
            PmReq::Allocate {
                n,
                chunk_bytes,
                replication,
                down,
            } => {
                let (res, ticket) = {
                    let mut pm = self.pmanager.lock();
                    let res = pm.allocate_avoiding(n, chunk_bytes, replication, &down);
                    let ticket = if res.is_ok() {
                        self.journal_note_chunk(pm.next_chunk())
                    } else {
                        None
                    };
                    (res, ticket)
                };
                self.journal_commit(ticket);
                PmResp::Allocated(res)
            }
        }
    }

    fn dispatch_meta(&self, shard: usize, q: MetaReq) -> MetaResp {
        match q {
            MetaReq::ReadNodes(keys) => {
                // One shard lock across the whole batch (the "one
                // metadata round per level" acquisition pattern).
                let part = self.meta[shard].lock();
                MetaResp::Nodes(keys.into_iter().map(|k| part.get(k)).collect())
            }
            MetaReq::WriteNodes(nodes) => {
                // Journaled without an fsync: nodes are unreachable
                // until the publish that references them, and the
                // publish's own fsync covers every record appended
                // before it. Ordering with the shard lock is immaterial
                // — node keys are write-once with identical content.
                if let Some(j) = &self.journal {
                    j.journal
                        .lock()
                        .append_meta(shard as u32, &nodes)
                        .expect("journal meta append");
                }
                self.meta[shard].lock().put(nodes);
                MetaResp::Written
            }
        }
    }

    fn dispatch_provider(&self, node: NodeId, q: ProviderReq) -> ProviderResp {
        match q {
            ProviderReq::Put(items) => ProviderResp::Put(self.providers.put_batch(node, items)),
            ProviderReq::Fetch(ids) => {
                // One provider-shard acquisition for the whole batch;
                // an unknown node serves every chunk as absent, which is
                // what the client's failover path expects.
                let fetched = match self.providers.lock(node) {
                    Some(mut p) => ids.into_iter().map(|id| p.get(id)).collect(),
                    None => vec![None; ids.len()],
                };
                ProviderResp::Fetched(fetched)
            }
            ProviderReq::ReleaseCounted(ids) => {
                ProviderResp::ReleaseCounted(self.providers.release_counted(node, &ids))
            }
            ProviderReq::Retain(entries) => {
                ProviderResp::Retained(self.providers.retain_matching(node, &entries))
            }
        }
    }

    fn dispatch_board(&self, q: BoardReq) -> BoardResp {
        match q {
            BoardReq::Sync {
                key,
                publisher,
                batch,
                from,
                min_publishers,
            } => BoardResp::Synced(self.pattern_board.sync(
                key,
                publisher,
                &batch,
                from,
                min_publishers,
            )),
            BoardReq::Purge { keys, freed } => {
                // Snapshot-GC hygiene for both services hosted beside the
                // provider manager, in one message: board patterns and
                // cluster-index entries of the freed chunks.
                for &key in &keys {
                    self.pattern_board.drop_pattern(key);
                }
                let evicted = if freed.is_empty() {
                    0
                } else {
                    let freed: FastSet<_> = freed.into_iter().collect();
                    self.cluster_index.write().evict_chunks(&freed)
                };
                BoardResp::Purged(evicted)
            }
        }
    }

    fn dispatch_cluster(&self, q: ClusterReq) -> ClusterResp {
        match q {
            ClusterReq::Get(keys) => {
                // One shared acquisition for the whole probe batch.
                let index = self.cluster_index.read();
                ClusterResp::Got(keys.iter().map(|k| index.get(k)).collect())
            }
            ClusterReq::Record(entries) => {
                // A converged commit (every key held) shares the lock
                // with the probes; a novel one pays one exclusive
                // acquisition for its whole batch.
                let converged = {
                    let index = self.cluster_index.read();
                    entries.iter().all(|(key, _)| index.holds(key))
                };
                ClusterResp::Recorded(if converged {
                    0
                } else {
                    self.cluster_index.write().record_novel(entries)
                })
            }
            ClusterReq::Forget(key) => {
                self.cluster_index.write().forget(&key);
                ClusterResp::Forgotten
            }
        }
    }
}

/// What each version-manager request does to the state machine. Live
/// dispatch and journal replay both come through here, so a replayed
/// record cannot drift from the request that produced it.
fn apply_vm(vm: &mut VManager, q: &VmReq) -> VmResp {
    match *q {
        VmReq::CreateBlob { size, chunk_size } => VmResp::Created(vm.create_blob(size, chunk_size)),
        VmReq::CloneBlob { src, version } => VmResp::Cloned(vm.clone_blob(src, version)),
        VmReq::Latest(blob) => VmResp::Latest(vm.meta(blob).map(|m| m.latest())),
        VmReq::LiveSnapshots(blob) => VmResp::LiveSnapshots(vm.live_snapshots(blob)),
        VmReq::VersionMeta(blob, version) => VmResp::VersionMeta(vm.meta(blob).and_then(|meta| {
            let root = meta
                .root(version)
                .ok_or(BlobError::NoSuchVersion(blob, version))?;
            Ok(VersionInfo {
                root,
                size: meta.size,
                chunk_size: meta.chunk_size,
                span: meta.span,
            })
        })),
        VmReq::Publish { blob, base, root } => VmResp::Published(vm.publish(blob, base, root)),
        // Compound: the caller holds ONE lock across the delete and the
        // live-root frontier snapshot, so the pair is atomic.
        VmReq::DeleteSnapshots { blob, ref versions } => VmResp::Deleted((|| {
            let dead_roots = vm.delete_snapshots(blob, versions)?;
            let live_roots = vm.family_live_roots(blob)?;
            let span = vm.meta(blob)?.span;
            Ok(DeleteOutcome {
                dead_roots,
                live_roots,
                span,
            })
        })()),
        VmReq::ReserveKeys(n) => VmResp::Reserved(vm.reserve_keys(n)),
    }
}

/// Re-apply one journaled mutation through the function that served it.
/// The op was journaled only after succeeding, so an error here means
/// the record is obsolete (e.g. delete of an already-deleted version
/// whose first delete was also replayed) — never fatal. Exhaustive on
/// purpose: a new `VmReq` variant does not compile until it is
/// classified here, so replay can never silently drop one.
fn replay_vm(vm: &mut VManager, op: &VmReq) {
    match op {
        VmReq::CreateBlob { .. } | VmReq::CloneBlob { .. } | VmReq::Publish { .. } => {
            let _ = apply_vm(vm, op);
        }
        // Only the mutation: a delete's reply carries the family's
        // live-root frontier, which replay would build and throw away.
        VmReq::DeleteSnapshots { blob, versions } => {
            let _ = vm.delete_snapshots(*blob, versions);
        }
        // Never journaled: read-only, or durable through
        // `JournalRecord::KeyMark` high-water marks.
        VmReq::Latest(_)
        | VmReq::LiveSnapshots(_)
        | VmReq::VersionMeta(..)
        | VmReq::ReserveKeys(_) => {}
    }
}

/// Whether `resp` reports a version-manager mutation that was applied
/// and must therefore be journaled (and handed to [`replay_vm`] on
/// recovery). Exhaustive for the same reason as [`replay_vm`].
fn vm_mutated(resp: &VmResp) -> bool {
    match resp {
        VmResp::Created(r) | VmResp::Cloned(r) => r.is_ok(),
        VmResp::Published(r) => r.is_ok(),
        VmResp::Deleted(r) => r.is_ok(),
        // Read-only, or durable through `JournalRecord::KeyMark`.
        VmResp::Latest(_)
        | VmResp::LiveSnapshots(_)
        | VmResp::VersionMeta(_)
        | VmResp::Reserved(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bff_wire::types::{BlobId, ChunkId, NodeKey};

    fn state() -> ServerState {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(4));
        ServerState::new(&BlobConfig::default(), &topo, Placement::RoundRobin)
    }

    #[test]
    fn vm_roundtrip_through_dispatch() {
        let s = state();
        let resp = s
            .dispatch(Req::Vm(VmReq::CreateBlob {
                size: 1024,
                chunk_size: 256,
            }))
            .unwrap();
        let Resp::Vm(VmResp::Created(Ok(blob))) = resp else {
            panic!("unexpected response: {resp:?}");
        };
        let resp = s.dispatch(Req::Vm(VmReq::Latest(blob))).unwrap();
        assert_eq!(resp, Resp::Vm(VmResp::Latest(Ok(crate::api::Version(0)))));
    }

    #[test]
    fn unknown_provider_degrades_gracefully() {
        let s = state();
        let stranger = NodeId(99);
        let resp = s
            .dispatch(Req::Provider {
                node: stranger,
                req: ProviderReq::Fetch(vec![ChunkId(1), ChunkId(2)]),
            })
            .unwrap();
        assert_eq!(
            resp,
            Resp::Provider(ProviderResp::Fetched(vec![None, None]))
        );
        let key = (64, bff_data::ContentDigest::Weak(bff_data::Digest(1)));
        let resp = s
            .dispatch(Req::Provider {
                node: stranger,
                req: ProviderReq::Retain(vec![(ChunkId(1), key)]),
            })
            .unwrap();
        let gone = vec![bff_wire::msg::RetainOutcome::Gone];
        assert_eq!(resp, Resp::Provider(ProviderResp::Retained(gone)));
    }

    #[test]
    fn out_of_range_shard_is_wire_error() {
        let s = state();
        let err = s
            .dispatch(Req::Meta {
                shard: 99,
                req: MetaReq::ReadNodes(vec![NodeKey(1)]),
            })
            .unwrap_err();
        assert_eq!(err, WireError::BadFrame);
    }

    #[test]
    fn misrouted_frame_rejected() {
        let s = state();
        let frame = bff_wire::encode(&Req::Vm(VmReq::Latest(BlobId(1))));
        assert_eq!(
            s.handle_frame(RouteKey::Pm, &frame).unwrap_err(),
            WireError::BadFrame
        );
        // Correctly routed frames decode, dispatch and encode.
        let reply = s.handle_frame(RouteKey::Vm, &frame).unwrap();
        let resp: Resp = bff_wire::decode(&reply).unwrap();
        assert_eq!(
            resp,
            Resp::Vm(VmResp::Latest(Err(BlobError::NoSuchBlob(BlobId(1)))))
        );
    }
}
