//! The one shape of a protocol step that addresses several destinations.
//!
//! A [`Step`] gathers a batch of items by destination (ascending, so
//! requests, charges and settles run in a deterministic order) and asks
//! each destination once for its request — or skips a destination it
//! cannot reach. A step's destinations are all of one server role (a
//! step spanning two roles panics in every deployment, before anything
//! is charged or sent), so behind a transport hop the step is one frame
//! and one `Transport::call`: each request's before-send price from the
//! cost book (`crate::cost`) is paid, in ascending order, before
//! anything is sent, and a request whose charge the fabric refuses is
//! not sent. Each group comes back with its reply, charged from the
//! book and validated: one answer per item, or the destination counts
//! as failed. Without a hop a step whose replies carry charges runs
//! each destination's whole exchange as one task of a `par_join`
//! ([`Step::run_joined`]).

use super::Client;
use crate::api::{BlobError, BlobResult};
use crate::cost::{self, OnReply};
use crate::service::{self, BlobStore, Fetched};
use bff_net::NodeId;
use bff_wire::msg::{unexpected_resp, MetaResp, ProviderResp, Req, Resp, RetainOutcome};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one destination's group got back: `None` when the step did not
/// ask it; else one answer per item of the group, or why there are
/// none (a refused charge, transport failure, a reply of the wrong kind
/// or arity, or the server's own error).
pub(super) type Reply<X> = Option<BlobResult<Vec<X>>>;

/// Unpacks a reply to a group of `n` items.
pub(super) type Answers<X> = fn(Resp, usize) -> BlobResult<Vec<X>>;

/// One protocol step: items grouped by destination.
pub(super) struct Step<D, T> {
    groups: BTreeMap<D, Vec<T>>,
}

/// Where one destination stands once the step has asked it.
enum Due {
    /// Not asked.
    Skipped,
    /// Not sent: the fabric refused the request's charge.
    Refused(BlobError),
    /// Sent: the number of answers expected, and how the reply is
    /// charged.
    Sent(usize, OnReply),
}

impl<D: Ord + Copy, T> Step<D, T> {
    pub(super) fn new() -> Self {
        Self {
            groups: BTreeMap::new(),
        }
    }

    /// Add `item` to `dest`'s group.
    pub(super) fn add(&mut self, dest: D, item: T) {
        self.groups.entry(dest).or_default().push(item);
    }

    /// Run the step. `ask` is called once per destination, in ascending
    /// order, and returns its request — moving the items into it when
    /// `settle` needs nothing of them back — or `None` to skip the
    /// destination; each request's charge is paid once every
    /// destination has been asked. Then every request goes out in one
    /// `call_many`; `answers` unpacks a reply to a group of `n` items,
    /// and `settle` gets every group back — asked or not, in the same
    /// order — with its [`Reply`], whose charge is paid first. Settles
    /// run inline, one after the other: a step whose replies carry
    /// charges uses [`Step::run_joined`].
    pub(super) fn run<X>(
        self,
        client: &Client,
        ask: impl FnMut(D, &mut Vec<T>) -> Option<Req>,
        answers: Answers<X>,
        mut settle: impl FnMut(D, Vec<T>, Reply<X>),
    ) {
        let (store, me) = (&*client.store, client.node);
        store.call_many(self.prepaid(client, ask), |(dest, items, due), resp| {
            settle(dest, items, due.settle(store, me, resp, answers));
        });
    }

    /// [`Step::run`] for a step whose replies carry charges (a fetch's
    /// disk reads and transfers, a put's disk write): the destinations
    /// run as the tasks of one `par_join`, so the providers' disks and
    /// links overlap as the simulated figures time them. Without a
    /// transport hop nothing shares a frame, so a task is a
    /// destination's whole exchange — before-send charge, dispatch,
    /// reply charge and settle — and a `Put`'s transfer, store and disk
    /// write run in that order per destination. Behind a hop the step is
    /// one frame as in [`Step::run`], and a task is one reply's charge
    /// and settle.
    pub(super) fn run_joined<X: 'static>(
        self,
        client: &Client,
        ask: impl FnMut(D, &mut Vec<T>) -> Option<Req>,
        answers: Answers<X>,
        settle: impl Fn(D, Vec<T>, Reply<X>) + Send + Sync + 'static,
    ) where
        D: Send + 'static,
        T: Send + 'static,
    {
        let (store, me, settle) = (&client.store, client.node, Arc::new(settle));
        let mut tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = Vec::new();
        if store.has_hop() {
            store.call_many(self.prepaid(client, ask), |(dest, items, due), resp| {
                let (store, settle) = (Arc::clone(store), Arc::clone(&settle));
                tasks.push(Box::new(move || {
                    settle(dest, items, due.settle(&store, me, resp, answers));
                }));
            });
        } else {
            for (dest, items, req) in self.requests(ask) {
                let (store, settle) = (Arc::clone(store), Arc::clone(&settle));
                tasks.push(Box::new(move || {
                    let (due, req) = Due::prepay(&store, me, items.len(), req);
                    let resp = req.map(|req| store.send(req));
                    settle(dest, items, due.settle(&store, me, resp, answers));
                }));
            }
        }
        store.fabric.par_join(tasks);
    }

    /// Ask every destination for its request, in ascending order; a
    /// step whose requests address two server roles panics here.
    fn requests(
        self,
        mut ask: impl FnMut(D, &mut Vec<T>) -> Option<Req>,
    ) -> Vec<(D, Vec<T>, Option<Req>)> {
        let mut route = None;
        self.groups
            .into_iter()
            .map(|(dest, mut items)| {
                let req = ask(dest, &mut items);
                if let Some(req) = &req {
                    service::one_role(&mut route, req);
                }
                (dest, items, req)
            })
            .collect()
    }

    /// Ask every destination, then pay the before-send charges in
    /// ascending order; nothing is sent yet.
    fn prepaid(
        self,
        client: &Client,
        ask: impl FnMut(D, &mut Vec<T>) -> Option<Req>,
    ) -> impl Iterator<Item = ((D, Vec<T>, Due), Option<Req>)> {
        let (store, me) = (&*client.store, client.node);
        let requests = self.requests(ask).into_iter();
        let paid: Vec<_> = requests
            .map(|(dest, items, req)| {
                let (due, req) = Due::prepay(store, me, items.len(), req);
                ((dest, items, due), req)
            })
            .collect();
        paid.into_iter()
    }
}

impl Due {
    /// Pay the before-send charge of a group of `n` items' request as a
    /// client on `me`: where the group stands, and the request when it
    /// may go out.
    fn prepay(store: &BlobStore, me: NodeId, n: usize, req: Option<Req>) -> (Self, Option<Req>) {
        let Some(req) = req else {
            return (Due::Skipped, None);
        };
        match cost::prepay(store, me, &req) {
            Ok(reply) => (Due::Sent(n, reply), Some(req)),
            Err(e) => (Due::Refused(e.into()), None),
        }
    }

    /// The destination's [`Reply`], given what came back for it, once a
    /// client on `me` has paid the reply's charge.
    fn settle<X>(
        self,
        store: &BlobStore,
        me: NodeId,
        resp: Option<BlobResult<Resp>>,
        answers: Answers<X>,
    ) -> Reply<X> {
        let (n, reply) = match self {
            Due::Skipped => return None,
            Due::Refused(e) => return Some(Err(e)),
            Due::Sent(n, reply) => (n, reply),
        };
        Some(resp?.and_then(|resp| {
            reply.pay(store, me, &resp)?;
            let got = answers(resp, n)?;
            if got.len() == n {
                Ok(got)
            } else {
                Err(unexpected_resp())
            }
        }))
    }
}

/// A provider's chunks, one per requested id.
pub(super) fn fetched(resp: Resp, _: usize) -> BlobResult<Fetched> {
    match resp {
        Resp::Provider(ProviderResp::Fetched(r)) => Ok(r),
        _ => Err(unexpected_resp()),
    }
}

/// A provider's acknowledgement of a `Put`, which covers every chunk of
/// the batch.
pub(super) fn stored(resp: Resp, n: usize) -> BlobResult<Vec<()>> {
    match resp {
        Resp::Provider(ProviderResp::Put(_)) => Ok(vec![(); n]),
        _ => Err(unexpected_resp()),
    }
}

/// A provider's verdict per `Retain` entry.
pub(super) fn retained(resp: Resp, _: usize) -> BlobResult<Vec<RetainOutcome>> {
    match resp {
        Resp::Provider(ProviderResp::Retained(r)) => Ok(r),
        _ => Err(unexpected_resp()),
    }
}

/// A provider's `(bytes_freed, removed, dropped)` per released id.
pub(super) fn released(resp: Resp, _: usize) -> BlobResult<Vec<(u64, bool, bool)>> {
    match resp {
        Resp::Provider(ProviderResp::ReleaseCounted(r)) => Ok(r),
        _ => Err(unexpected_resp()),
    }
}

/// A metadata shard's nodes, one per requested key.
pub(super) fn nodes(resp: Resp, _: usize) -> BlobResult<Vec<crate::api::TreeNode>> {
    match resp {
        Resp::Meta(MetaResp::Nodes(r)) => r,
        _ => Err(unexpected_resp()),
    }
}

/// A metadata shard's acknowledgement, which covers every node of the
/// batch.
pub(super) fn written(resp: Resp, n: usize) -> BlobResult<Vec<()>> {
    match resp {
        Resp::Meta(MetaResp::Written) => Ok(vec![(); n]),
        _ => Err(unexpected_resp()),
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

    /// What `fabric` was charged since the last call — network bytes,
    /// rpcs, transfers, disk bytes read, disk bytes written — and reset.
    fn charged(fabric: &LocalFabric) -> (u64, u64, u64, u64, u64) {
        let s = fabric.stats();
        let disk = (0..s.node_count() as u32).map(|n| s.node(NodeId(n)));
        let (read, written) = disk.fold((0, 0), |(r, w), n| (r + n.disk_read, w + n.disk_written));
        let seen = (
            s.total_network_bytes(),
            s.rpc_count(),
            s.transfer_count(),
            read,
            written,
        );
        s.reset();
        seen
    }

    /// A joined step — the push's and the fetch's shape — that addresses
    /// two server roles panics under every transport before it charges,
    /// sends or stores anything, as a plain step does.
    #[test]
    fn a_joined_step_spanning_two_roles_panics_before_it_charges() {
        use super::{stored, Step};
        use crate::api::TransportMode;
        use bff_wire::msg::{MetaReq, ProviderReq, Req};
        for transport in TransportMode::ALL {
            let cfg = BlobConfig {
                chunk_size: 128,
                transport,
                ..Default::default()
            };
            let (fabric, store) = deploy(2, cfg);
            let client = Client::new(Arc::clone(&store), NodeId(0));
            let mut step = Step::new();
            step.add(0u8, ());
            step.add(1u8, ());
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                step.run_joined(
                    &client,
                    |dest, _| {
                        Some(match dest {
                            0 => Req::Provider {
                                node: NodeId(1),
                                req: ProviderReq::Put(vec![(ChunkId(1), Payload::zeros(128))]),
                            },
                            _ => Req::Meta {
                                shard: 0,
                                req: MetaReq::ReadNodes(Vec::new()),
                            },
                        })
                    },
                    stored,
                    |_, _, _| {},
                )
            }))
            .expect_err("a two-role step must not run");
            let message = panicked
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(
                message, "a protocol step addresses one server role, not provider and meta",
                "under {transport:?}"
            );
            assert_eq!(charged(&fabric), (0, 0, 0, 0, 0), "under {transport:?}");
            assert_eq!(store.provider_loads(), [0, 0], "under {transport:?}");
            assert_eq!(store.wire_stats().calls, 0, "under {transport:?}");
        }
    }

    /// The scatter-gather request path moves waits, never modelled cost:
    /// a cold 64-chunk boot (sixteen 4-chunk reads) and a snapshot delete
    /// charge the fabric exactly what the per-destination calls charged —
    /// the pinned values were recorded on the commit before the batch
    /// steps landed — and the same under every transport. The write
    /// path's legs — a fresh commit (allocate, put, node writes,
    /// publish), a commit that dedups against another node's content
    /// (cluster probe, retain, record) and a board publish — were pinned
    /// before the cost book moved to the request seam. Each tuple is
    /// network bytes, rpcs, transfers, disk bytes read, disk bytes
    /// written.
    #[test]
    fn batched_steps_charge_the_fabric_what_per_destination_calls_did() {
        use crate::api::TransportMode::*;
        for transport in [Direct, Codec, Socket] {
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: false,
                cluster_dedup: false,
                prefetch: false,
                transport,
                ..Default::default()
            };
            let (fabric, store) = deploy(4, cfg);
            let writer = Client::new(Arc::clone(&store), NodeId(0));
            let (blob, v1) = writer.upload(Payload::synth(7, 0, 64 * 128)).unwrap();
            let v2 = writer
                .write(blob, v1, 5 * 128, Payload::synth(8, 0, 4 * 128))
                .unwrap();
            charged(&fabric);
            // Another node: empty descriptor, node and chunk caches.
            let reader = Client::new(Arc::clone(&store), NodeId(1));
            for read in 0..16u64 {
                let range = read * 512..(read + 1) * 512;
                reader.read(blob, v2, range).unwrap();
            }
            let boot = charged(&fabric);
            assert_eq!(boot, (20992, 75, 46, 0, 0), "cold boot under {transport:?}");
            // A third node: the collector's descent starts cold too.
            let collector = Client::new(Arc::clone(&store), NodeId(2));
            let report = collector.delete_snapshot(blob, v2).unwrap();
            assert_eq!(report.freed_chunks, 4);
            let delete = charged(&fabric);
            assert_eq!(delete, (3928, 18, 3, 0, 0), "delete under {transport:?}");
            // A fresh commit into a new blob: the version lookup, one
            // allocation, a put per provider, the node writes and the
            // publish.
            let fresh = writer.create_blob(8 * 128).unwrap();
            charged(&fabric);
            let update = |seed, idx: &[u64]| -> Vec<(u64, Payload)> {
                idx.iter()
                    .map(|&i| (i, Payload::synth(seed + i, 0, 128)))
                    .collect()
            };
            writer
                .write_chunks(fresh, Version(0), update(20, &[0, 3, 6]))
                .unwrap();
            let commit = charged(&fabric);
            assert_eq!(
                commit,
                (1608, 7, 2, 0, 384),
                "fresh commit under {transport:?}"
            );

            // Providers whose page caches were dropped read from disk.
            store.drop_provider_caches();
            let cold = Client::new(Arc::clone(&store), NodeId(3));
            cold.read(blob, v1, 0..8 * 128).unwrap();
            let disk = charged(&fabric);
            assert_eq!(
                disk,
                (2992, 11, 3, 1024, 0),
                "cold-disk read under {transport:?}"
            );

            // Dedup, the cluster index and the board on.
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: true,
                cluster_dedup: true,
                prefetch: true,
                prefetch_min_publishers: 1,
                transport,
                ..Default::default()
            };
            let (fabric, store) = deploy(4, cfg);
            let (a, b) = (
                Client::new(Arc::clone(&store), NodeId(0)),
                Client::new(Arc::clone(&store), NodeId(1)),
            );
            let (blob_a, blob_b) = (
                a.create_blob(8 * 128).unwrap(),
                b.create_blob(8 * 128).unwrap(),
            );
            charged(&fabric);
            // Fresh content: a cluster probe that misses, the push, and
            // the record that files two new keys and publishes them.
            let va = a
                .write_chunks(blob_a, Version(0), update(40, &[0, 1]))
                .unwrap();
            let filed = charged(&fabric);
            assert_eq!(
                filed,
                (1968, 8, 4, 0, 256),
                "filing commit under {transport:?}"
            );
            // The same bytes from another node: a cluster hit the
            // provider retains, nothing pushed, nothing new filed.
            b.write_chunks(blob_b, Version(0), update(40, &[0, 1]))
                .unwrap();
            let reused = charged(&fabric);
            assert_eq!(
                reused,
                (1088, 7, 0, 0, 0),
                "dedup commit under {transport:?}"
            );
            // A board publish: a third node opens the version and hints
            // eight first touches that moved their chunks.
            let c = Client::new(Arc::clone(&store), NodeId(2));
            c.snapshot_size(blob_a, va).unwrap();
            c.hint_touches(blob_a, va, (0..8).map(|idx| (idx, true)), true);
            let published = charged(&fabric);
            assert_eq!(
                published,
                (704, 2, 3, 0, 0),
                "board publish under {transport:?}"
            );
        }
    }
}
