//! The assembled storage service: the client-side handle that binds a
//! deployment's configuration, topology and [`Fabric`] to the server
//! roles.
//!
//! All server components are passive state machines guarded by mutexes
//! (see [`crate::server::ServerState`]); *clients* execute the protocol
//! logic, and every request they send pays its modelled network and
//! disk cost to the fabric around those state transitions. Locks are
//! never held across fabric calls, so the same `BlobStore` works under
//! real thread concurrency (in-process mode) and under simulated
//! concurrency (coroutine processes).
//!
//! There is **one request path**: a single-destination request goes
//! through a typed accessor here (`vm_*`, `pm_*`, `provider_*`,
//! `board_*`, `cluster_*`), which builds a [`bff_wire::Req`], hands it to
//! `BlobStore::call` and unpacks the [`bff_wire::Resp`]; a protocol step
//! that addresses several destinations is driven by the client's one
//! step helper (`client/step.rs`), which sends it through
//! `BlobStore::call_many` — or, without a hop, a step whose replies
//! carry charges (a fetch, a replicated push) one request per
//! `par_join` task through `BlobStore::send`. Each takes the caller's
//! node, because what a request costs the model is decided in one
//! place: the cost book (`cost.rs`), which `call` and the step apply to
//! every request they send. Every request is served by
//! [`ServerState::dispatch`]; the only thing a deployment chooses is
//! whether a hop sits in front of it:
//!
//! * no hop ([`TransportMode::Direct`]) — the typed value is handed to
//!   the in-process `dispatch` as is; no frame ever exists;
//! * a [`Transport`] hop (codec round trip, loopback sockets, or the
//!   external processes behind [`BlobStore::remote`]) — the request is
//!   encoded, carried, decoded by [`ServerState::handle_frame`] on the
//!   serving side, dispatched, and the reply travels back the same way.
//!   A lone request and a step alike are one frame and one
//!   [`Transport::call`]: a step's requests are all for one server role
//!   and share a [`Req::Batch`], so both go through one frame sender.
//!
//! Lock granularity, journaling and replies are therefore the same by
//! construction, and every *modelled* cost is paid at the same point of
//! the protocol whichever way the message moves — so logical outcomes
//! are transport-invariant (the `cross_stack_equivalence` suite pins
//! this).

use crate::api::{BlobConfig, BlobId, BlobTopology, ChunkDesc, ChunkId, TransportMode, Version};
use crate::api::{BlobResult, NodeKey};
use crate::board::BoardService;
use crate::cluster::ClusterIndex;
use crate::context::NodeContext;
use crate::cost;
use crate::pmanager::Placement;
use crate::provider::ProviderStore;
use crate::server::ServerState;
use bff_data::{ContentKey, FastMap, FastSet, Payload};
use bff_net::transport::{
    CodecTransport, FrameServer, Role, RouteKey, RouteTable, SocketTransport, Transport, WireStats,
};
use bff_net::{Fabric, NodeId};
use bff_wire::msg::{
    unexpected_resp, BoardReq, BoardResp, BoardSync, ClusterReq, ClusterResp, DeleteOutcome, PmReq,
    PmResp, ProviderReq, ProviderResp, Req, Resp, VersionInfo, VmReq, VmResp,
};
use bff_wire::Flat;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;

/// A provider's answer to a `Fetch`: per requested id, the payload and
/// whether the provider's read cache held it.
pub(crate) type Fetched = Vec<Option<(Payload, bool)>>;

/// A deployed BlobSeer-like service, seen from the client side.
pub struct BlobStore {
    pub(crate) cfg: BlobConfig,
    pub(crate) topo: BlobTopology,
    pub(crate) fabric: Arc<dyn Fabric>,
    /// One [`NodeContext`] per compute node, created lazily: every
    /// client on a node attaches to the same shared cache module (the
    /// paper's per-node FUSE process, §4.1). Contexts are client-side
    /// state — they exist in every deployment mode, including remote.
    contexts: Mutex<FastMap<NodeId, Arc<NodeContext>>>,
    /// Client-side topology knowledge: which nodes are providers
    /// (membership checks must not require a server round trip).
    provider_set: FastSet<NodeId>,
    /// The server half, when it lives in this process (`None` for a
    /// [`BlobStore::remote`] handle talking to external processes).
    srv: Option<Arc<ServerState>>,
    /// The hop in front of `dispatch`; `None` hands typed requests to
    /// the in-process `srv` unencoded. At least one of the two is set.
    transport: Option<Arc<dyn Transport>>,
    /// In-process socket mode: the listener threads serving `srv`
    /// (dropping the store stops them).
    _listeners: Vec<(Role, FrameServer)>,
}

impl BlobStore {
    /// Deploy the service with the given configuration and placement.
    /// `cfg.transport` selects the hop in front of the server roles (all
    /// three modes host the server state in this process).
    pub fn new(cfg: BlobConfig, topo: BlobTopology, fabric: Arc<dyn Fabric>) -> Arc<Self> {
        Self::with_placement(cfg, topo, fabric, Placement::RoundRobin)
    }

    /// Deploy with an explicit chunk-placement strategy.
    pub fn with_placement(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        placement: Placement,
    ) -> Arc<Self> {
        let srv = Arc::new(ServerState::new(&cfg, &topo, placement));
        Self::attach(cfg, topo, fabric, srv)
    }

    /// Deploy a **durable** service rooted at `data_dir`: disk-backed
    /// providers (one directory per provider node) plus the mutation
    /// journal, both replayed before the handle is returned — the
    /// in-process twin of attaching to `blob_server --data-dir`
    /// processes via [`BlobStore::remote`]. Any [`TransportMode`] works:
    /// journaling happens in [`ServerState::dispatch`], which every
    /// request goes through.
    pub fn durable(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        placement: Placement,
        data_dir: &std::path::Path,
    ) -> std::io::Result<(Arc<Self>, crate::durable::RecoveryReport)> {
        let (srv, report) = ServerState::recover(&cfg, &topo, placement, data_dir)?;
        Ok((Self::attach(cfg, topo, fabric, Arc::new(srv)), report))
    }

    /// Bind an in-process server state behind the configured hop.
    fn attach(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        srv: Arc<ServerState>,
    ) -> Arc<Self> {
        let mut listeners = Vec::new();
        let transport: Option<Arc<dyn Transport>> = match cfg.transport {
            TransportMode::Direct => None,
            TransportMode::Codec => Some(Arc::new(CodecTransport::new(srv.frame_handler()))),
            TransportMode::Socket => {
                // One loopback listener per role, all serving the same
                // in-process state — the full framed-TCP path without
                // separate processes. (Multi-process deployments run
                // `blob_server` binaries and connect via
                // [`BlobStore::remote`].)
                listeners = srv.serve(&Role::ALL).expect("bind loopback listener");
                let addrs: HashMap<Role, SocketAddr> = listeners
                    .iter()
                    .map(|(role, s)| (*role, s.addr()))
                    .collect();
                let table = RouteTable::from_roles(&addrs).expect("every role is served");
                Some(Arc::new(SocketTransport::new(table)))
            }
        };
        Self::assemble(cfg, topo, fabric, Some(srv), transport, listeners)
    }

    /// Attach to a cluster whose server roles run in *other* processes,
    /// reached through `transport` (normally a
    /// [`SocketTransport`] built from the `READY` lines the
    /// `blob_server` processes print). The handle holds no server state;
    /// local-diagnostic accessors ([`BlobStore::providers`],
    /// [`BlobStore::pattern_board`], …) panic on it.
    pub fn remote(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        transport: Arc<dyn Transport>,
    ) -> Arc<Self> {
        Self::assemble(cfg, topo, fabric, None, Some(transport), Vec::new())
    }

    fn assemble(
        cfg: BlobConfig,
        topo: BlobTopology,
        fabric: Arc<dyn Fabric>,
        srv: Option<Arc<ServerState>>,
        transport: Option<Arc<dyn Transport>>,
        listeners: Vec<(Role, FrameServer)>,
    ) -> Arc<Self> {
        Arc::new(Self {
            provider_set: topo.providers.iter().copied().collect(),
            contexts: Mutex::new(FastMap::default()),
            srv,
            transport,
            _listeners: listeners,
            cfg,
            topo,
            fabric,
        })
    }

    /// The in-process server state (every [`TransportMode`] hosts it
    /// here). Absent only on [`BlobStore::remote`] handles.
    fn local(&self) -> &ServerState {
        self.server()
            .expect("server state lives in another process (remote BlobStore handle)")
    }

    /// The server half, when it lives in this process (`None` on a
    /// [`BlobStore::remote`] handle).
    pub fn server(&self) -> Option<&ServerState> {
        self.srv.as_deref()
    }

    /// The one request path: a client on `from` pays `req`'s price from
    /// the cost book ([`crate::cost`]) — the before-send half first; a
    /// request whose charge the fabric refuses is not sent — then the
    /// request is served and the reply's half is paid.
    fn call(&self, from: NodeId, req: Req) -> BlobResult<Resp> {
        let reply = cost::prepay(self, from, &req)?;
        let resp = self.send(req)?;
        reply.pay(self, from, &resp)?;
        Ok(resp)
    }

    /// Whether a transport hop sits in front of the server roles.
    pub(crate) fn has_hop(&self) -> bool {
        self.transport.is_some()
    }

    /// Serve `req` with [`ServerState::dispatch`], behind the transport
    /// hop when the deployment has one. It pays no price.
    pub(crate) fn send(&self, req: Req) -> BlobResult<Resp> {
        let Some(transport) = &self.transport else {
            return Ok(self.local().dispatch(req)?);
        };
        let route = req.route();
        send_frame(&**transport, route, vec![req])
            .pop()
            .expect("one outcome per request")
    }

    /// [`BlobStore::call`] for one protocol step that addresses several
    /// destinations of one server role. `steps` yields each
    /// destination's tag with its request — `None` for a destination the
    /// step does not ask — and `sink` gets every tag back, in order, with
    /// its outcome (`None` when not asked). It pays no price: the
    /// client's step has paid every request's before-send charge when it
    /// gets here, and pays each reply's charge as it settles.
    ///
    /// Behind a transport hop the step is one frame and one wait: two or
    /// more requests travel as one [`Req::Batch`] (a role's listener
    /// serves every destination of its class), a lone request as its own
    /// frame, and a step that asks nobody sends nothing. A batch reply is
    /// decoded once, so the chunks it carries are views into its one
    /// buffer. Without a hop there is nothing to wait for, so each
    /// request is dispatched as `steps` produces it and no request or
    /// reply is ever collected.
    ///
    /// A step whose requests address two server roles is a programming
    /// error, and panics in every [`TransportMode`] at the first request
    /// of the second role, before that request is served (a hop has sent
    /// nothing by then).
    pub(crate) fn call_many<T>(
        &self,
        steps: impl Iterator<Item = (T, Option<Req>)>,
        mut sink: impl FnMut(T, Option<BlobResult<Resp>>),
    ) {
        let mut route = None;
        let Some(transport) = &self.transport else {
            let srv = self.local();
            steps.for_each(|(tag, req)| {
                sink(
                    tag,
                    req.map(|req| {
                        one_role(&mut route, &req);
                        srv.dispatch(req).map_err(Into::into)
                    }),
                )
            });
            return;
        };
        let mut reqs = Vec::new();
        let tags: Vec<(T, bool)> = steps
            .map(|(tag, req)| {
                let asked = req.is_some();
                if let Some(req) = req {
                    one_role(&mut route, &req);
                    reqs.push(req);
                }
                (tag, asked)
            })
            .collect();
        let mut outcomes = match route {
            Some(route) => send_frame(&**transport, route, reqs),
            None => Vec::new(),
        }
        .into_iter();
        for (tag, asked) in tags {
            sink(
                tag,
                asked.then(|| outcomes.next().expect("one outcome per request")),
            );
        }
    }

    /// Real serialized bytes the transport has moved (all zeros without
    /// a transport hop — no frame ever exists).
    pub fn wire_stats(&self) -> WireStats {
        self.transport
            .as_ref()
            .map_or_else(WireStats::default, |t| t.wire_stats())
    }

    /// Whether `node` hosts a chunk provider in this deployment.
    #[inline]
    pub(crate) fn is_provider(&self, node: NodeId) -> bool {
        self.provider_set.contains(&node)
    }

    /// Number of metadata shards (hash-partition count).
    #[inline]
    pub(crate) fn meta_shards(&self) -> usize {
        self.topo.metadata.len()
    }

    // -----------------------------------------------------------------
    // Version manager.
    // -----------------------------------------------------------------

    pub(crate) fn vm_create_blob(
        &self,
        from: NodeId,
        size: u64,
        chunk_size: u64,
    ) -> BlobResult<BlobId> {
        match self.call(from, Req::Vm(VmReq::CreateBlob { size, chunk_size }))? {
            Resp::Vm(VmResp::Created(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_clone_blob(
        &self,
        from: NodeId,
        src: BlobId,
        version: Version,
    ) -> BlobResult<BlobId> {
        match self.call(from, Req::Vm(VmReq::CloneBlob { src, version }))? {
            Resp::Vm(VmResp::Cloned(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_latest(&self, from: NodeId, blob: BlobId) -> BlobResult<Version> {
        match self.call(from, Req::Vm(VmReq::Latest(blob)))? {
            Resp::Vm(VmResp::Latest(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_live_snapshots(&self, from: NodeId, blob: BlobId) -> BlobResult<Vec<Version>> {
        match self.call(from, Req::Vm(VmReq::LiveSnapshots(blob)))? {
            Resp::Vm(VmResp::LiveSnapshots(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_version_meta(
        &self,
        from: NodeId,
        blob: BlobId,
        version: Version,
    ) -> BlobResult<VersionInfo> {
        match self.call(from, Req::Vm(VmReq::VersionMeta(blob, version)))? {
            Resp::Vm(VmResp::VersionMeta(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_publish(
        &self,
        from: NodeId,
        blob: BlobId,
        base: Version,
        root: NodeKey,
    ) -> BlobResult<Version> {
        match self.call(from, Req::Vm(VmReq::Publish { blob, base, root }))? {
            Resp::Vm(VmResp::Published(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_delete_snapshots(
        &self,
        from: NodeId,
        blob: BlobId,
        versions: &[Version],
    ) -> BlobResult<DeleteOutcome> {
        match self.call(
            from,
            Req::Vm(VmReq::DeleteSnapshots {
                blob,
                versions: versions.to_vec(),
            }),
        )? {
            Resp::Vm(VmResp::Deleted(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    pub(crate) fn vm_reserve_keys(&self, from: NodeId, n: u64) -> BlobResult<Range<u64>> {
        match self.call(from, Req::Vm(VmReq::ReserveKeys(n)))? {
            Resp::Vm(VmResp::Reserved(r)) => Ok(r),
            _ => Err(unexpected_resp()),
        }
    }

    // -----------------------------------------------------------------
    // Provider manager.
    // -----------------------------------------------------------------

    pub(crate) fn pm_allocate(
        &self,
        from: NodeId,
        n: usize,
        chunk_bytes: u64,
        replication: usize,
        down: Vec<bool>,
    ) -> BlobResult<Vec<ChunkDesc>> {
        match self.call(
            from,
            Req::Pm(PmReq::Allocate {
                n,
                chunk_bytes,
                replication,
                down,
            }),
        )? {
            Resp::Pm(PmResp::Allocated(r)) => r,
            _ => Err(unexpected_resp()),
        }
    }

    // -----------------------------------------------------------------
    // Chunk providers. A batched message holds the provider's shard lock
    // once; a step's per-provider batches go through `call_many`.
    // -----------------------------------------------------------------

    /// The per-chunk failover path's fetch: one provider, one round.
    pub(crate) fn provider_fetch(
        &self,
        from: NodeId,
        prov: NodeId,
        ids: Vec<ChunkId>,
    ) -> BlobResult<Fetched> {
        match self.call(
            from,
            Req::Provider {
                node: prov,
                req: ProviderReq::Fetch(ids),
            },
        )? {
            Resp::Provider(ProviderResp::Fetched(r)) => Ok(r),
            _ => Err(unexpected_resp()),
        }
    }

    // -----------------------------------------------------------------
    // Pattern board. All best-effort: a transport failure reads as "the
    // board knows nothing", which only costs prefetch opportunity.
    // -----------------------------------------------------------------

    /// The board replica of node `publisher` asks for what it lacks,
    /// publishing `batch` on the way (empty = a poll). `None` on
    /// transport failure, or when the publish could not be paid.
    pub(crate) fn board_sync(
        &self,
        key: (BlobId, Version),
        publisher: NodeId,
        batch: Vec<u64>,
        from: usize,
        min_publishers: usize,
    ) -> Option<BoardSync> {
        match self.call(
            publisher,
            Req::Board(BoardReq::Sync {
                key,
                publisher,
                batch,
                from,
                min_publishers,
            }),
        ) {
            Ok(Resp::Board(BoardResp::Synced(sync))) => Some(sync),
            _ => None,
        }
    }

    /// Snapshot-GC hygiene on the board/cluster host: drop the deleted
    /// versions' patterns and evict freed chunks from the cluster index.
    /// Returns evicted cluster-index entries (0 on transport failure —
    /// stale entries self-heal at their next validated use).
    pub(crate) fn board_purge(
        &self,
        from: NodeId,
        versions: &[(BlobId, Version)],
        freed: &FastSet<ChunkId>,
    ) -> usize {
        let mut freed: Vec<ChunkId> = freed.iter().copied().collect();
        freed.sort_unstable(); // deterministic frame bytes
        match self.call(
            from,
            Req::Board(BoardReq::Purge {
                keys: versions.to_vec(),
                freed,
            }),
        ) {
            Ok(Resp::Board(BoardResp::Purged(n))) => n,
            _ => 0,
        }
    }

    // -----------------------------------------------------------------
    // Cluster dedup index. Best-effort like every index update: a
    // transport failure reads as a miss / skipped publish.
    // -----------------------------------------------------------------

    /// Batch probe: one shared-lock acquisition for all keys. Transport
    /// failure → all misses.
    pub(crate) fn cluster_get(
        &self,
        from: NodeId,
        keys: Vec<ContentKey>,
    ) -> Vec<Option<ChunkDesc>> {
        let n = keys.len();
        match self.call(from, Req::Cluster(ClusterReq::Get(keys))) {
            Ok(Resp::Cluster(ClusterResp::Got(r))) if r.len() == n => r,
            _ => vec![None; n],
        }
    }

    /// Record the entries the index does not hold yet. Only those are
    /// published onward and charged; a transport failure files nothing
    /// (the content stays node-local).
    pub(crate) fn cluster_record(&self, from: NodeId, entries: Vec<(ContentKey, ChunkDesc)>) {
        let _ = self.call(from, Req::Cluster(ClusterReq::Record(entries)));
    }

    /// Drop a stale entry wherever it lives.
    pub(crate) fn cluster_forget(&self, from: NodeId, key: &ContentKey) {
        let _ = self.call(from, Req::Cluster(ClusterReq::Forget(*key)));
    }

    // -----------------------------------------------------------------
    // Client-side shared state and diagnostics.
    // -----------------------------------------------------------------

    /// The shared cache module of `node` (created on first use). All
    /// clients co-located on a node attach to the same context, sharing
    /// its metadata cache and content-digest index.
    pub fn node_context(&self, node: NodeId) -> Arc<NodeContext> {
        Arc::clone(
            self.contexts
                .lock()
                .entry(node)
                .or_insert_with(|| Arc::new(NodeContext::new(&self.cfg))),
        )
    }

    /// The cluster access-pattern board (diagnostics; the data plane
    /// goes through [`crate::Client`]). Requires in-process server state.
    pub fn pattern_board(&self) -> &BoardService {
        self.local().pattern_board()
    }

    /// The cluster-wide dedup index (diagnostics; the data plane goes
    /// through [`crate::Client::write_chunks`]). Requires in-process
    /// server state.
    pub fn cluster_index(&self) -> &RwLock<ClusterIndex> {
        self.local().cluster_index()
    }

    fn contexts(&self) -> Vec<Arc<NodeContext>> {
        self.contexts.lock().values().cloned().collect()
    }

    /// The moment versions are marked deleted: every node context drops
    /// what it knows about them (facts, descriptors, access tracker), so
    /// no handle of this store resolves them from a cache again — also
    /// when the collection that follows the mark fails.
    pub(crate) fn purge_versions(&self, versions: &[(BlobId, Version)]) {
        for ctx in self.contexts() {
            for &key in versions {
                ctx.purge_version(key);
            }
        }
    }

    /// Cluster-wide eviction after a snapshot delete: drop the deleted
    /// versions' patterns and every cached trace of the freed chunks
    /// from the cluster index and all node contexts. The deleting client
    /// on `from` pays the announcement and the gossip that carry these
    /// evictions; the state change itself is the replicas converging.
    pub(crate) fn purge_deleted(
        &self,
        from: NodeId,
        versions: &[(BlobId, Version)],
        freed: &FastSet<ChunkId>,
    ) {
        // Server side (board host): patterns + cluster-index entries.
        self.board_purge(from, versions, freed);
        // Client side: every local node context drops its cached traces —
        // the versions' once more, for the descriptors and trackers a
        // reader that resolved them before the mark put back during the
        // collection.
        for ctx in self.contexts() {
            for &key in versions {
                ctx.purge_version(key);
            }
            if !freed.is_empty() {
                ctx.purge_chunks(freed);
            }
        }
    }

    /// Service configuration.
    pub fn config(&self) -> &BlobConfig {
        &self.cfg
    }

    /// Service placement.
    pub fn topology(&self) -> &BlobTopology {
        &self.topo
    }

    /// The fabric this service charges.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    /// The deployed provider set (chunk stores, refcounts, loads).
    /// Requires in-process server state.
    pub fn providers(&self) -> &ProviderStore {
        self.local().providers()
    }

    /// Durability counters for this deployment: fsyncs issued, acks
    /// covered, the acks-per-fsync batching ratio, and the worst
    /// group-commit ticket wait. All-zero for non-durable deployments.
    /// Requires in-process server state.
    pub fn durability(&self) -> crate::durable::DurabilityCounters {
        self.local().durability()
    }

    /// Total chunk payload bytes stored across all providers. Shared
    /// chunks are stored once, so this is the paper's storage-space
    /// metric: snapshots that share content do not multiply it.
    /// Lock-free: maintained by the sharded store's atomic counters.
    pub fn total_stored_bytes(&self) -> u64 {
        self.providers().total_stored_bytes()
    }

    /// Total chunks stored across all providers (lock-free).
    pub fn total_chunks(&self) -> usize {
        self.providers().total_chunks()
    }

    /// Total metadata tree nodes stored.
    pub fn total_metadata_nodes(&self) -> usize {
        self.local().total_metadata_nodes()
    }

    /// Per-provider stored bytes, in `topology().providers` order
    /// (balance diagnostics).
    pub fn provider_loads(&self) -> Vec<u64> {
        self.providers().loads()
    }

    /// Drop all simulated page caches (ablations).
    pub fn drop_provider_caches(&self) {
        self.providers().drop_caches();
    }
}

/// Note `req` as one of a protocol step's requests, whose route so far
/// is `route`: a step addresses one server role, and one that addresses
/// two is a programming error that panics here.
pub(crate) fn one_role(route: &mut Option<RouteKey>, req: &Req) {
    let this = req.route();
    let first = *route.get_or_insert(this);
    assert!(
        first.role() == this.role(),
        "a protocol step addresses one server role, not {} and {}",
        first.role().name(),
        this.role().name()
    );
}

/// Send `reqs`, all for the server role behind `route`, as one frame
/// through `transport` — a lone request bare, several as one
/// [`Req::Batch`] — and return their outcomes in request order. A
/// transport or decoding failure fails every request the frame held; a
/// batch reply of the wrong shape is unexpected for each of them.
fn send_frame(transport: &dyn Transport, route: RouteKey, reqs: Vec<Req>) -> Vec<BlobResult<Resp>> {
    let n = reqs.len();
    let frame = match <[Req; 1]>::try_from(reqs) {
        Ok([req]) => bff_wire::encode(&req),
        Err(reqs) => bff_wire::encode(&Req::Batch(Flat(reqs))),
    };
    match transport
        .call(route, &frame)
        .and_then(bff_wire::decode_owned::<Resp>)
    {
        Ok(resp) if n == 1 => vec![Ok(resp)],
        Ok(Resp::Batch(Flat(resps))) if resps.len() == n => resps
            .into_iter()
            .map(|resp| resp.map_err(Into::into))
            .collect(),
        Ok(_) => vec![Err(unexpected_resp()); n],
        Err(e) => vec![Err(e.into()); n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TreeNode;
    use bff_net::transport::WireError;
    use bff_net::{LocalFabric, NodeId};
    use bff_wire::msg::{MetaReq, MetaResp, RetainOutcome};

    #[test]
    fn deploy_shapes_match_topology() {
        let fabric = LocalFabric::new(6);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(5));
        let store = BlobStore::new(BlobConfig::default(), topo, fabric);
        assert_eq!(store.providers().len(), 4);
        assert_eq!(store.meta_shards(), 4);
        assert_eq!(store.total_stored_bytes(), 0);
        assert_eq!(store.total_metadata_nodes(), 0);
    }

    #[test]
    fn node_contexts_shared_per_node() {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let store = BlobStore::new(BlobConfig::default(), topo, fabric);
        let a = store.node_context(NodeId(0));
        let b = store.node_context(NodeId(0));
        let c = store.node_context(NodeId(1));
        assert!(Arc::ptr_eq(&a, &b), "same node → same shared context");
        assert!(!Arc::ptr_eq(&a, &c), "different nodes stay isolated");
    }

    #[test]
    #[should_panic(expected = "provider")]
    fn empty_provider_set_rejected() {
        let fabric = LocalFabric::new(1);
        let topo = BlobTopology {
            vmanager: NodeId(0),
            pmanager: NodeId(0),
            metadata: vec![NodeId(0)],
            providers: vec![],
        };
        BlobStore::new(BlobConfig::default(), topo, fabric);
    }

    /// One step through `call_many`: every tag comes back in order, an
    /// unasked destination with no outcome.
    fn step(store: &BlobStore, reqs: Vec<Option<Req>>) -> Vec<Option<BlobResult<Resp>>> {
        let mut out = Vec::new();
        store.call_many(reqs.into_iter().enumerate(), |i, resp| {
            assert_eq!(i, out.len(), "tags come back in request order");
            out.push(resp);
        });
        out
    }

    fn meta(shard: u32, req: MetaReq) -> Option<Req> {
        Some(Req::Meta { shard, req })
    }

    fn provider(node: NodeId, req: ProviderReq) -> Option<Req> {
        Some(Req::Provider { node, req })
    }

    /// A two-shard, two-provider deployment under `transport`.
    fn deploy(transport: TransportMode) -> Arc<BlobStore> {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let cfg = BlobConfig {
            transport,
            ..Default::default()
        };
        BlobStore::new(cfg, topo, fabric)
    }

    /// Error-path calls answer the same with and without a transport
    /// hop: addressing errors are `Err`, unknown providers degrade, and
    /// in a step that mixes a good and a bad address only the bad one
    /// fails.
    #[test]
    fn error_paths_agree_across_transports() {
        let outcomes = |transport| {
            let store = deploy(transport);
            let stranger = NodeId(99);
            let key = (64, bff_data::ContentDigest::Weak(bff_data::Digest(1)));
            (
                step(
                    &store,
                    vec![
                        meta(99, MetaReq::ReadNodes(vec![NodeKey(1)])),
                        meta(99, MetaReq::WriteNodes(Vec::new())),
                    ],
                ),
                step(
                    &store,
                    vec![
                        provider(stranger, ProviderReq::Retain(vec![(ChunkId(1), key)])),
                        provider(stranger, ProviderReq::ReleaseCounted(vec![ChunkId(1)])),
                    ],
                ),
                step(
                    &store,
                    vec![
                        meta(0, MetaReq::ReadNodes(vec![NodeKey(1)])),
                        meta(99, MetaReq::ReadNodes(vec![NodeKey(1)])),
                    ],
                ),
                store.provider_fetch(NodeId(0), stranger, vec![ChunkId(1), ChunkId(2)]),
                store.vm_latest(NodeId(0), BlobId(7)),
            )
        };
        let direct = outcomes(TransportMode::Direct);
        assert_eq!(direct, outcomes(TransportMode::Codec));
        assert_eq!(direct, outcomes(TransportMode::Socket));
        let (shards, providers, mixed, fetched, latest) = direct;
        let missing = Err(crate::api::BlobError::MetadataMissing(NodeKey(1)));
        assert_eq!(
            mixed,
            [
                Some(Ok(Resp::Meta(MetaResp::Nodes(missing)))),
                Some(Err(WireError::BadFrame.into()))
            ],
            "shard 0 answers, shard 99 is an addressing error"
        );
        let [read, write] = shards.try_into().expect("two outcomes");
        assert!(matches!(read, Some(Err(_))), "out-of-range shard: {read:?}");
        assert!(
            matches!(write, Some(Err(_))),
            "out-of-range shard: {write:?}"
        );
        let [retained, released] = providers.try_into().expect("two outcomes");
        assert_eq!(
            retained,
            Some(Ok(Resp::Provider(ProviderResp::Retained(vec![
                RetainOutcome::Gone
            ]))))
        );
        assert_eq!(
            released,
            Some(Ok(Resp::Provider(ProviderResp::ReleaseCounted(vec![(
                0, false, false
            )]))))
        );
        assert_eq!(fetched, Ok(vec![None, None]), "unknown provider: absent");
        assert_eq!(latest, Err(crate::api::BlobError::NoSuchBlob(BlobId(7))));
    }

    /// A step that addresses two server roles is rejected alike under
    /// every transport: the same panic, raised before a hop sends
    /// anything.
    #[test]
    fn a_step_spanning_two_roles_fails_alike_under_every_transport() {
        for transport in TransportMode::ALL {
            let store = deploy(transport);
            let key = (64, bff_data::ContentDigest::Weak(bff_data::Digest(1)));
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                step(
                    &store,
                    vec![
                        meta(0, MetaReq::ReadNodes(vec![NodeKey(1)])),
                        None,
                        provider(NodeId(0), ProviderReq::Retain(vec![(ChunkId(1), key)])),
                    ],
                )
            }))
            .expect_err("a two-role step must not run");
            let message = panicked
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(
                message, "a protocol step addresses one server role, not meta and provider",
                "under {transport:?}"
            );
            assert_eq!(store.wire_stats().calls, 0, "under {transport:?}");
        }
    }

    /// A step over several shards is one frame and one round trip behind
    /// a hop (and no frame at all without one), with the same answers
    /// either way; a destination the step does not ask sends nothing and
    /// gets nothing, and a step that asks nobody sends no frame.
    #[test]
    fn a_batch_step_is_one_round_trip() {
        for (transport, frames) in TransportMode::ALL.into_iter().zip([0, 2, 2]) {
            let store = deploy(transport);
            let leaf = |id| TreeNode::Leaf {
                chunk: ChunkDesc {
                    id: ChunkId(id),
                    replicas: vec![NodeId(0)].into(),
                },
            };
            let written = step(
                &store,
                vec![
                    meta(0, MetaReq::WriteNodes(vec![(NodeKey(10), leaf(1))])),
                    None,
                    meta(
                        1,
                        MetaReq::WriteNodes(vec![(NodeKey(11), leaf(2)), (NodeKey(12), leaf(3))]),
                    ),
                ],
            );
            let ack = || Some(Ok(Resp::Meta(MetaResp::Written)));
            assert_eq!(written, [ack(), None, ack()]);
            let read = step(
                &store,
                vec![
                    meta(0, MetaReq::ReadNodes(vec![NodeKey(10)])),
                    meta(1, MetaReq::ReadNodes(vec![NodeKey(12), NodeKey(11)])),
                ],
            );
            let nodes = |n| Some(Ok(Resp::Meta(MetaResp::Nodes(Ok(n)))));
            assert_eq!(read, [nodes(vec![leaf(1)]), nodes(vec![leaf(3), leaf(2)])]);
            assert_eq!(step(&store, vec![None, None]), [None, None]);
            assert_eq!(store.wire_stats().calls, frames, "under {transport:?}");
        }
    }

    #[test]
    fn codec_transport_round_trips_requests() {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let cfg = BlobConfig {
            transport: crate::api::TransportMode::Codec,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric);
        let blob = store.vm_create_blob(NodeId(0), 1024, 256).unwrap();
        assert_eq!(store.vm_latest(NodeId(0), blob).unwrap(), Version(0));
        let stats = store.wire_stats();
        assert_eq!(stats.calls, 2);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    #[test]
    fn socket_transport_round_trips_requests() {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let cfg = BlobConfig {
            transport: crate::api::TransportMode::Socket,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric);
        let blob = store.vm_create_blob(NodeId(0), 4096, 512).unwrap();
        assert_eq!(
            store
                .vm_version_meta(NodeId(0), blob, Version(0))
                .unwrap()
                .size,
            4096
        );
        assert!(store.wire_stats().calls == 2);
    }
}
