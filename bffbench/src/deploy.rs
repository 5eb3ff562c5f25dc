//! The three deployments, built only from the program's public API, and
//! the pinned configuration they share.

use crate::trace::{traced_handler, TracedTransport, Tracer};
use bff_blobseer::{
    BlobConfig, BlobStore, BlobTopology, Placement, RecoveryReport, ReplicationMode, ServerState,
    TransportMode,
};
use bff_cloud::{Calibration, Cloud};
use bff_net::transport::{
    FrameHandler, FrameServer, RouteKey, RouteTable, SocketTransport, Transport,
};
use bff_net::{Fabric, LocalFabric, NodeId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Compute nodes; each is a provider and a metadata shard.
pub const NODES: u32 = 4;
/// The node hosting the managers (and the uploading client).
pub const SERVICE: NodeId = NodeId(NODES);
pub const CHUNK: u64 = 64 << 10;
/// Image size: 64 chunks.
pub const IMG: u64 = 4 << 20;
pub const CHUNKS_PER_IMG: u64 = IMG / CHUNK;

/// How requests reach the server roles, and whether they reach a disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployKind {
    /// `Cloud::new` with `TransportMode::Direct`: no frame, no socket,
    /// no disk.
    Direct,
    /// In-process `ServerState::new` behind six loopback listeners.
    Socket,
    /// As `Socket`, but `ServerState::recover` on a data directory with
    /// group commit: fsync before every acknowledgement.
    Durable,
}

impl DeployKind {
    pub fn name(self) -> &'static str {
        match self {
            DeployKind::Direct => "direct",
            DeployKind::Socket => "socket",
            DeployKind::Durable => "durable",
        }
    }
}

/// The pinned service configuration. Every field is written out: the
/// defaults read `BFF_*` variables, and a field added later must be a
/// decision here, not an accident.
pub fn blob_config(kind: DeployKind) -> BlobConfig {
    BlobConfig {
        chunk_size: CHUNK,
        replication: 1,
        replication_mode: ReplicationMode::Fanout,
        async_writes: true,
        provider_read_cache: true,
        node_bytes: 96,
        control_bytes: 64,
        dedup: true,
        cluster_dedup: true,
        cluster_index_chunks: 1 << 18,
        desc_cache_versions: 64,
        digest_index_chunks: 1 << 16,
        prefetch: true,
        prefetch_window: 8,
        prefetch_min_publishers: 2,
        chunk_cache_bytes: 64 << 20,
        strong_digest: false,
        coarse_board_lock: false,
        coarse_cache_locks: false,
        coarse_cluster_probe: false,
        transport: match kind {
            DeployKind::Direct => TransportMode::Direct,
            DeployKind::Socket | DeployKind::Durable => TransportMode::Socket,
        },
        group_commit: true,
        flush_interval_us: 500,
    }
}

/// The configuration as `key=value` pairs, for stamping results.
pub fn config_stamp(kind: DeployKind) -> Vec<(&'static str, String)> {
    let c = blob_config(kind);
    vec![
        ("deployment", kind.name().to_string()),
        ("compute_nodes", NODES.to_string()),
        ("image_bytes", IMG.to_string()),
        ("chunk_size", c.chunk_size.to_string()),
        ("replication", c.replication.to_string()),
        ("dedup", c.dedup.to_string()),
        ("cluster_dedup", c.cluster_dedup.to_string()),
        ("prefetch", c.prefetch.to_string()),
        ("prefetch_window", c.prefetch_window.to_string()),
        ("desc_cache_versions", c.desc_cache_versions.to_string()),
        ("chunk_cache_bytes", c.chunk_cache_bytes.to_string()),
        ("group_commit", c.group_commit.to_string()),
        ("flush_interval_us", c.flush_interval_us.to_string()),
        ("fabric", "LocalFabric".to_string()),
    ]
}

fn compute_nodes() -> Vec<NodeId> {
    (0..NODES).map(NodeId).collect()
}

fn topology() -> BlobTopology {
    BlobTopology::colocated(&compute_nodes(), SERVICE)
}

/// The server half of a socket or durable deployment.
struct Servers {
    state: Arc<ServerState>,
    routes: RouteTable,
    /// Dropping a listener stops it and joins its connection threads.
    _listeners: Vec<FrameServer>,
}

impl Servers {
    fn start(state: ServerState, tracer: Option<&Arc<Tracer>>) -> Self {
        let state = Arc::new(state);
        let routes = [
            RouteKey::Vm,
            RouteKey::Pm,
            RouteKey::Board,
            RouteKey::Cluster,
            RouteKey::Meta(0),
            RouteKey::Provider(NodeId(0)),
        ];
        let listeners: Vec<FrameServer> = routes
            .into_iter()
            .map(|route| {
                let served = Arc::clone(&state);
                let mut handler: FrameHandler =
                    Arc::new(move |route, frame| served.handle_frame(route, frame));
                if let Some(tracer) = tracer {
                    handler = traced_handler(handler, Arc::clone(tracer));
                }
                FrameServer::start(route, handler).expect("bind a loopback listener")
            })
            .collect();
        let routes = RouteTable {
            vm: listeners[0].addr(),
            pm: listeners[1].addr(),
            board: listeners[2].addr(),
            cluster: listeners[3].addr(),
            meta: listeners[4].addr(),
            provider: listeners[5].addr(),
        };
        Self {
            state,
            routes,
            _listeners: listeners,
        }
    }
}

/// One deployed repository with the middleware on top.
pub struct Deployment {
    pub kind: DeployKind,
    // Field order is drop order: the client stack (and its pooled
    // connections) goes before the listeners it talks to.
    pub cloud: Cloud,
    pub fabric: Arc<LocalFabric>,
    /// The transport handed to `BlobStore::remote` (`None` when direct).
    transport: Option<Arc<dyn Transport>>,
    servers: Option<Servers>,
    tracer: Option<Arc<Tracer>>,
    /// Last, so the logs are closed before their directory goes.
    data_dir: Option<DataDir>,
}

/// A durable deployment's data directory, removed when the deployment is
/// dropped (best effort; it lives under the build output).
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Deployment {
    /// Deploy `kind`. A durable deployment starts from an empty
    /// `data_dir` (wiped here); `tracer` installs both wrappers, `None`
    /// installs nothing at all.
    pub fn new(kind: DeployKind, data_dir: &Path, tracer: Option<Arc<Tracer>>) -> Self {
        let cfg = blob_config(kind);
        let fabric = LocalFabric::new(NODES as usize + 1);
        if kind == DeployKind::Direct {
            let cloud = Cloud::new(
                Arc::clone(&fabric) as Arc<dyn Fabric>,
                compute_nodes(),
                SERVICE,
                cfg,
                Calibration::default(),
            );
            return Self {
                kind,
                cloud,
                fabric,
                transport: None,
                servers: None,
                data_dir: None,
                tracer,
            };
        }
        let (state, data_dir) = if kind == DeployKind::Durable {
            let _ = std::fs::remove_dir_all(data_dir);
            std::fs::create_dir_all(data_dir).expect("create the data directory");
            let (state, _) =
                ServerState::recover(&cfg, &topology(), Placement::RoundRobin, data_dir)
                    .expect("open an empty data directory");
            (state, Some(DataDir(data_dir.to_path_buf())))
        } else {
            (
                ServerState::new(&cfg, &topology(), Placement::RoundRobin),
                None,
            )
        };
        let servers = Servers::start(state, tracer.as_ref());
        let (cloud, transport) = client_stack(kind, &fabric, servers.routes, tracer.as_ref());
        Self {
            kind,
            cloud,
            fabric,
            transport: Some(transport),
            servers: Some(servers),
            data_dir,
            tracer,
        }
    }

    /// A client stack that shares nothing with the measured one: new
    /// connections, empty descriptor and chunk caches. The direct
    /// deployment cannot attach a second store to its server state, so it
    /// hands back the service node's client, which booted nothing.
    pub fn fresh_cloud(&self) -> Option<Cloud> {
        let servers = self.servers.as_ref()?;
        Some(client_stack(self.kind, &self.fabric, servers.routes, None).0)
    }

    /// Real serialized bytes moved so far (zeros when direct).
    pub fn wire_stats(&self) -> bff_net::transport::WireStats {
        self.transport
            .as_ref()
            .map(|t| t.wire_stats())
            .unwrap_or_default()
    }

    /// Durability counters of the server state (zeros when volatile).
    pub fn durability(&self) -> bff_blobseer::DurabilityCounters {
        self.servers
            .as_ref()
            .map(|s| s.state.durability())
            .unwrap_or_default()
    }

    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_ref().map(|d| d.0.as_path())
    }

    /// Drop the whole deployment — client stack, listeners, server state
    /// and its open logs — and recover a new one from the same data
    /// directory. Returns it with the recovery time in seconds.
    pub fn recover(self) -> (Self, f64, RecoveryReport) {
        let Deployment {
            kind,
            cloud,
            fabric,
            transport,
            servers,
            data_dir,
            tracer,
        } = self;
        drop(cloud);
        drop(transport);
        let servers = servers.expect("only a durable deployment recovers");
        let Servers {
            state,
            routes: _,
            _listeners,
        } = servers;
        drop(_listeners);
        assert_eq!(
            Arc::strong_count(&state),
            1,
            "a handler outlived its listener"
        );
        drop(state);
        let dir = data_dir.expect("only a durable deployment recovers");
        let clock = std::time::Instant::now();
        let (state, report) = ServerState::recover(
            &blob_config(kind),
            &topology(),
            Placement::RoundRobin,
            &dir.0,
        )
        .expect("recover the data directory");
        let seconds = clock.elapsed().as_secs_f64();
        let servers = Servers::start(state, tracer.as_ref());
        let (cloud, transport) = client_stack(kind, &fabric, servers.routes, tracer.as_ref());
        (
            Self {
                kind,
                cloud,
                fabric,
                transport: Some(transport),
                servers: Some(servers),
                data_dir: Some(dir),
                tracer,
            },
            seconds,
            report,
        )
    }
}

fn client_stack(
    kind: DeployKind,
    fabric: &Arc<LocalFabric>,
    routes: RouteTable,
    tracer: Option<&Arc<Tracer>>,
) -> (Cloud, Arc<dyn Transport>) {
    let mut transport: Arc<dyn Transport> = Arc::new(SocketTransport::new(routes));
    if let Some(tracer) = tracer {
        transport = Arc::new(TracedTransport::new(transport, Arc::clone(tracer)));
    }
    let store = BlobStore::remote(
        blob_config(kind),
        topology(),
        Arc::clone(fabric) as Arc<dyn Fabric>,
        Arc::clone(&transport),
    );
    let cloud = Cloud::with_store(
        store,
        Arc::clone(fabric) as Arc<dyn Fabric>,
        compute_nodes(),
        SERVICE,
        Calibration::default(),
    );
    (cloud, transport)
}
