//! The cost book: what each BlobSeer request costs the modelled
//! [`Fabric`](bff_net::Fabric).
//!
//! The simulated figures (Figs. 4–8) and every traffic count read the
//! charges a client pays its fabric, and this module states them all:
//! `price` gives every request its price in one exhaustive `match` over
//! [`Req`], so a new request does not compile until it has one. A price
//! has two halves:
//!
//! * **before sending** — a control or metadata round, a `Put`'s
//!   transfer, a board publish's round and its gossip. The caller pays
//!   it before the request goes out ([`prepay`]). When the fabric
//!   refuses it (an end of it is down), the request is not sent, unless
//!   its row says it goes out unpaid;
//! * **from the reply** ([`OnReply`]) — a `Fetch`'s cold-disk read and
//!   the transfer of every byte the provider served, a `Put`'s disk
//!   write, a cluster `Record`'s publish of the keys it filed. A charge
//!   the fabric refuses fails the request.
//!
//! `BlobStore::call` applies both halves to one request. A client step
//! (`client/step.rs`) pays each destination's first half in ascending
//! order before it sends anything, and each reply's half as it settles
//! that destination. A step whose replies carry charges — a fetch, a
//! replicated push — settles each provider in one `par_join` task, so
//! the providers' disks and links overlap as the figures time them;
//! without a transport hop that task also pays the first half and
//! sends, so a `Put`'s transfer, store and disk write run in that order
//! per provider.
//!
//! Sizes are nominal — `control_bytes` for a control message,
//! `node_bytes` per tree node, 8 bytes per id, 24 per allocated
//! descriptor, 48 per filed index key — not the encoded frame's. The
//! model and the wire keep separate books (ROADMAP item 7).

use crate::board;
use crate::service::BlobStore;
use bff_net::{NetError, NodeId};
use bff_wire::msg::{
    BoardReq, ClusterReq, ClusterResp, MetaReq, PmReq, ProviderReq, ProviderResp, Req, Resp, VmReq,
};

/// A charge paid before a request is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    /// Nothing to pay.
    Free,
    /// A control round trip with `to`: `req` bytes there, `resp` back.
    Rpc { to: NodeId, req: u64, resp: u64 },
    /// `bytes` of bulk data from the caller to `to`.
    Transfer { to: NodeId, bytes: u64 },
    /// An update of `bytes` to the cluster service host beside the
    /// provider manager.
    Publish { bytes: u64 },
}

/// How a request's reply is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnReply {
    /// Nothing to pay.
    Free,
    /// A `Fetch` answered by `from`: the cold bytes of the chunks it
    /// served are read from its disk, then every byte it served travels
    /// to the caller. A reply that served nothing costs nothing.
    Served { from: NodeId },
    /// A `Put` of `bytes` acknowledged by `at`: written to its disk,
    /// through the page cache when `cached` (asynchronous writes).
    Stored {
        at: NodeId,
        bytes: u64,
        cached: bool,
    },
    /// A cluster `Record`: the keys the index filed are published, at
    /// 48 bytes each (length, digest, chunk id, replica set). Content
    /// the index already held costs nothing.
    Filed,
}

/// A request's modelled cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Price {
    before: Charge,
    /// Whether the request goes out even when `before` is refused.
    sent_unpaid: bool,
    reply: OnReply,
}

impl Price {
    /// Paid before sending, nothing from the reply.
    fn before(before: Charge) -> Self {
        Self {
            before,
            sent_unpaid: false,
            reply: OnReply::Free,
        }
    }

    /// Nothing before sending; `reply` from the reply.
    fn on_reply(reply: OnReply) -> Self {
        Self {
            before: Charge::Free,
            sent_unpaid: false,
            reply,
        }
    }
}

/// The book: every request's price, sent by a client of `store`.
fn price(store: &BlobStore, req: &Req) -> Price {
    let (cfg, topo) = (&store.cfg, &store.topo);
    let c = cfg.control_bytes;
    let control = |to| Charge::Rpc {
        to,
        req: c,
        resp: c,
    };
    let count = |n: usize| n as u64;
    match req {
        Req::Vm(
            VmReq::CreateBlob { .. }
            | VmReq::CloneBlob { .. }
            | VmReq::Latest(_)
            | VmReq::LiveSnapshots(_)
            | VmReq::VersionMeta(..)
            | VmReq::Publish { .. }
            | VmReq::DeleteSnapshots { .. }
            | VmReq::ReserveKeys(_),
        ) => Price::before(control(topo.vmanager)),
        Req::Pm(PmReq::Allocate { n, .. }) => Price::before(Charge::Rpc {
            to: topo.pmanager,
            req: c,
            resp: c + 24 * count(*n),
        }),
        Req::Meta { shard, req } => {
            // A shard the topology does not have is an addressing error
            // the server answers; there is no node to charge.
            let Some(&to) = topo.metadata.get(*shard as usize) else {
                return Price::before(Charge::Free);
            };
            Price::before(match req {
                MetaReq::ReadNodes(keys) => Charge::Rpc {
                    to,
                    req: c + 8 * count(keys.len()),
                    resp: cfg.node_bytes * count(keys.len()),
                },
                MetaReq::WriteNodes(nodes) => Charge::Rpc {
                    to,
                    req: cfg.node_bytes * count(nodes.len()),
                    resp: c,
                },
            })
        }
        Req::Provider { node, req } => match req {
            ProviderReq::Put(items) => {
                let bytes = items.iter().map(|(_, data)| data.len()).sum();
                Price {
                    before: Charge::Transfer { to: *node, bytes },
                    sent_unpaid: false,
                    reply: OnReply::Stored {
                        at: *node,
                        bytes,
                        cached: cfg.async_writes,
                    },
                }
            }
            ProviderReq::Fetch(_) => Price::on_reply(OnReply::Served { from: *node }),
            ProviderReq::ReleaseCounted(ids) => Price::before(Charge::Rpc {
                to: *node,
                req: c + 8 * count(ids.len()),
                resp: c,
            }),
            ProviderReq::Retain(_) => Price::before(control(*node)),
        },
        Req::Board(BoardReq::Sync { batch, .. }) => Price::before(match batch.len() {
            // A poll.
            0 => Charge::Free,
            n => Charge::Publish {
                bytes: c + 8 * count(n),
            },
        }),
        // GC's eviction round goes out even when its announcement could
        // not be paid: the deleted versions are dead either way.
        Req::Board(BoardReq::Purge { keys, freed }) => Price {
            before: Charge::Publish {
                bytes: c + 8 * count(keys.len() + freed.len()),
            },
            sent_unpaid: true,
            reply: OnReply::Free,
        },
        Req::Cluster(ClusterReq::Get(_) | ClusterReq::Forget(_)) => Price::before(Charge::Free),
        Req::Cluster(ClusterReq::Record(_)) => Price::on_reply(OnReply::Filed),
        // The one frame of a step with several requests for one role
        // carries them; each request in it paid its own price.
        Req::Batch(_) => Price::before(Charge::Free),
    }
}

/// Pay `req`'s before-send charge as a client on `me`. Returns how its
/// reply is charged when the request may go out, or why it may not.
pub(crate) fn prepay(store: &BlobStore, me: NodeId, req: &Req) -> Result<OnReply, NetError> {
    let price = price(store, req);
    match pay(store, me, price.before) {
        Err(e) if !price.sent_unpaid => Err(e),
        _ => Ok(price.reply),
    }
}

fn pay(store: &BlobStore, me: NodeId, charge: Charge) -> Result<(), NetError> {
    let fabric = &store.fabric;
    match charge {
        Charge::Free => Ok(()),
        Charge::Rpc { to, req, resp } => fabric.rpc(me, to, req, resp),
        Charge::Transfer { to, bytes } => fabric.transfer(me, to, bytes),
        Charge::Publish { bytes } => publish(store, me, bytes),
    }
}

/// One control round carries `bytes` to the cluster service host; once
/// the host took it, the gossip fan-out along the `bff_bcast` tree
/// carries it on to the other compute nodes. This is the shared
/// transport of the pattern board, the cluster dedup index and GC's
/// eviction round.
fn publish(store: &BlobStore, me: NodeId, bytes: u64) -> Result<(), NetError> {
    let host = store.topo.pmanager;
    store.fabric.rpc(me, host, bytes, store.cfg.control_bytes)?;
    let targets: Vec<NodeId> = store
        .topo
        .providers
        .iter()
        .copied()
        .filter(|&n| n != host && n != me)
        .collect();
    board::gossip_charge(&store.fabric, host, &targets, bytes);
    Ok(())
}

impl OnReply {
    /// Pay what `resp` owes a client on `me`.
    pub(crate) fn pay(self, store: &BlobStore, me: NodeId, resp: &Resp) -> Result<(), NetError> {
        let fabric = &store.fabric;
        match (self, resp) {
            (OnReply::Served { from }, Resp::Provider(ProviderResp::Fetched(chunks))) => {
                let (mut served, mut total, mut cold) = (false, 0, 0);
                for (data, hot) in chunks.iter().flatten() {
                    served = true;
                    total += data.len();
                    if !hot {
                        cold += data.len();
                    }
                }
                if !served {
                    return Ok(());
                }
                if cold > 0 {
                    fabric.disk_read(from, cold)?;
                }
                fabric.transfer(from, me, total)
            }
            (OnReply::Stored { at, bytes, cached }, Resp::Provider(ProviderResp::Put(_))) => {
                if cached {
                    fabric.disk_write_cached(at, bytes)
                } else {
                    fabric.disk_write(at, bytes)
                }
            }
            (OnReply::Filed, Resp::Cluster(ClusterResp::Recorded(n))) if *n > 0 => {
                publish(store, me, store.cfg.control_bytes + 48 * *n as u64)
            }
            // Nothing owed, or a reply of another kind: nothing was
            // served, stored or filed.
            _ => Ok(()),
        }
    }
}
