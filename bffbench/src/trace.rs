//! The traced run: spans recorded from the benchmark's own files, around
//! its calls into the program and around the two seams the program
//! exposes — the `Arc<dyn Transport>` handed to `BlobStore::remote` and
//! the `FrameHandler` handed to `FrameServer::start`.
//!
//! Span tree of one operation:
//!
//! ```text
//! op.boot | op.snapshot | op.gc            (root, client thread)
//!   cloud.add_instance | cloud.read | ...  (the benchmark's call)
//!     net.call.<role>                      (TracedTransport, client thread)
//!       server.handle.<role>               (handler wrapper, connection thread)
//! ```
//!
//! The client side nests through a thread-local "current span" (under
//! `LocalFabric` detached prefetch runs inline, so it nests too). The
//! handler runs on another thread and finds its parent by the request
//! frame: both wrappers see the identical bytes, so the call registers a
//! fingerprint of them and the handler claims it. Spans stay in
//! per-thread vectors until the workload ends.

use bff_net::transport::{FrameHandler, Role, RouteKey, Transport, WireError, WireStats};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub id: u64,
    /// The span that caused this one; 0 for a root (or an unmatched
    /// handler span).
    pub parent: u64,
    /// The root span of the operation; shared by all its spans.
    pub op: u64,
    /// Request plus reply frame bytes (`net.call.*` spans only).
    pub bytes: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

pub fn call_name(role: Role) -> &'static str {
    match role {
        Role::Vm => "net.call.vm",
        Role::Pm => "net.call.pm",
        Role::Board => "net.call.board",
        Role::Cluster => "net.call.cluster",
        Role::Meta => "net.call.meta",
        Role::Provider => "net.call.provider",
    }
}

pub fn handle_name(role: Role) -> &'static str {
    match role {
        Role::Vm => "server.handle.vm",
        Role::Pm => "server.handle.pm",
        Role::Board => "server.handle.board",
        Role::Cluster => "server.handle.cluster",
        Role::Meta => "server.handle.meta",
        Role::Provider => "server.handle.provider",
    }
}

type Buf = Arc<Mutex<Vec<Span>>>;

thread_local! {
    /// This thread's span vector, with the uid of the tracer it is
    /// registered with.
    static BUF: RefCell<Option<(u64, Buf)>> = const { RefCell::new(None) };
    /// `(current span, its operation)` on this thread.
    static CUR: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

static TRACER_UID: AtomicU64 = AtomicU64::new(1);

/// Collects the spans of one traced run.
pub struct Tracer {
    uid: u64,
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    bufs: Mutex<Vec<Buf>>,
    /// Calls in flight, by request-frame fingerprint: `(call span, op)`.
    pending: Mutex<HashMap<u64, Vec<(u64, u64)>>>,
    unmatched: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            uid: TRACER_UID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            bufs: Mutex::new(Vec::new()),
            pending: Mutex::new(HashMap::new()),
            unmatched: AtomicU64::new(0),
        })
    }

    /// Record only between `enable(true)` and `enable(false)`: set-up and
    /// verification run through the same wrappers but are not the
    /// measured window. `SeqCst` so that no span straddles the switch
    /// unseen by a wrapper on another thread.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, span: Span) {
        BUF.with(|slot| {
            let mut slot = slot.borrow_mut();
            if !matches!(&*slot, Some((uid, _)) if *uid == self.uid) {
                let buf: Buf = Arc::default();
                self.bufs
                    .lock()
                    .expect("span registry poisoned")
                    .push(Arc::clone(&buf));
                *slot = Some((self.uid, buf));
            }
            let (_, buf) = slot.as_ref().expect("buffer just installed");
            buf.lock().expect("span buffer poisoned").push(span);
        });
    }

    /// Time `f` as a span named `name` under the thread's current span; a
    /// `root` span starts a new operation.
    pub fn scope<R>(&self, name: &'static str, root: bool, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let id = self.new_id();
        let outer = CUR.get();
        let (parent, op) = if root { (0, id) } else { outer };
        CUR.set((id, op));
        let start = self.now();
        let out = f();
        let end = self.now();
        CUR.set(outer);
        self.record(Span {
            name,
            start,
            end,
            id,
            parent,
            op,
            bytes: 0,
        });
        out
    }

    /// Handler spans that found no call waiting for their frame.
    pub fn unmatched_handler_spans(&self) -> u64 {
        self.unmatched.load(Ordering::Relaxed)
    }

    /// Every span recorded so far, ordered by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for buf in self.bufs.lock().expect("span registry poisoned").iter() {
            all.append(&mut buf.lock().expect("span buffer poisoned"));
        }
        all.sort_by_key(|s| (s.start, s.id));
        all
    }

    fn claim(&self, fp: u64) -> Option<(u64, u64)> {
        let mut pending = self.pending.lock().expect("pending map poisoned");
        let waiting = pending.get_mut(&fp)?;
        let got = waiting.pop();
        if waiting.is_empty() {
            pending.remove(&fp);
        }
        got
    }

    fn register(&self, fp: u64, call: u64, op: u64) {
        self.pending
            .lock()
            .expect("pending map poisoned")
            .entry(fp)
            .or_default()
            .push((call, op));
    }

    /// Withdraw a registration no handler claimed (the call failed
    /// before reaching one).
    fn withdraw(&self, fp: u64, call: u64) {
        let mut pending = self.pending.lock().expect("pending map poisoned");
        if let Some(waiting) = pending.get_mut(&fp) {
            waiting.retain(|(c, _)| *c != call);
            if waiting.is_empty() {
                pending.remove(&fp);
            }
        }
    }
}

/// Fingerprint of a frame: its length and its first and last 64 bytes.
/// Request frames lead with their tags and identifiers (blob, version,
/// node keys, chunk ids), so two different requests in flight at once
/// differ here; two *identical* ones are interchangeable, and each
/// handler claims one registration. Hashing whole chunk-sized frames
/// would cost more than the socket round trip being measured.
fn fingerprint(frame: &[u8]) -> u64 {
    const EDGE: usize = 64;
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ frame.len() as u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    if frame.len() <= 2 * EDGE {
        mix(frame);
    } else {
        mix(&frame[..EDGE]);
        mix(&frame[frame.len() - EDGE..]);
    }
    h
}

/// The client-side seam: times every `Transport::call` as a
/// `net.call.<role>` span under the calling thread's current span.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Transport for TracedTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let t = &self.tracer;
        if !t.enabled() {
            return self.inner.call(route, frame);
        }
        let id = t.new_id();
        let (parent, op) = CUR.get();
        let fp = fingerprint(frame);
        t.register(fp, id, op);
        let start = t.now();
        let reply = self.inner.call(route, frame);
        let end = t.now();
        if reply.is_err() {
            t.withdraw(fp, id);
        }
        t.record(Span {
            name: call_name(route.role()),
            start,
            end,
            id,
            parent,
            op,
            bytes: (frame.len() + reply.as_ref().map_or(0, Vec::len)) as u64,
        });
        reply
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }
}

/// The server-side seam: times `inner` (the `ServerState::handle_frame`
/// closure) as a `server.handle.<role>` span whose parent is the call
/// that sent the frame.
pub fn traced_handler(inner: FrameHandler, tracer: Arc<Tracer>) -> FrameHandler {
    Arc::new(move |route, frame| {
        if !tracer.enabled() {
            return inner(route, frame);
        }
        let claimed = tracer.claim(fingerprint(frame));
        let start = tracer.now();
        let reply = inner(route, frame);
        let end = tracer.now();
        let (parent, op) = claimed.unwrap_or_else(|| {
            tracer.unmatched.fetch_add(1, Ordering::Relaxed);
            (0, 0)
        });
        tracer.record(Span {
            name: handle_name(route.role()),
            start,
            end,
            id: tracer.new_id(),
            parent,
            op,
            bytes: 0,
        });
        reply
    })
}

/// Time in `span` not covered by any of `children`: its duration minus
/// the union of the child intervals, each clipped to the span.
pub fn self_time<'a>(span: &Span, children: impl IntoIterator<Item = &'a Span>) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .into_iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur() - covered
}

/// Spans as JSON lines (`trace-<workload>.jsonl`).
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{},\"bytes\":{}}}",
            s.name, s.start, s.end, s.id, s.parent, s.op, s.bytes
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "t",
            start,
            end,
            id: 0,
            parent: 0,
            op: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_nested_adjacent_overlapping() {
        let parent = span(100, 200);
        assert_eq!(self_time(&parent, []), 100);
        // Nested: one child strictly inside.
        assert_eq!(self_time(&parent, [&span(120, 150)]), 70);
        // Adjacent: children that touch leave no gap between them.
        assert_eq!(self_time(&parent, [&span(100, 150), &span(150, 200)]), 0);
        // Overlapping: the shared part is covered once, not twice.
        assert_eq!(self_time(&parent, [&span(110, 160), &span(140, 180)]), 30);
        // A child wholly inside another adds nothing.
        assert_eq!(self_time(&parent, [&span(110, 180), &span(120, 130)]), 30);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time(&parent, [&span(50, 120), &span(190, 400)]), 70);
        // Order of children does not matter.
        assert_eq!(self_time(&parent, [&span(140, 180), &span(110, 160)]), 30);
    }

    #[test]
    fn scopes_nest_through_the_thread_local() {
        let t = Tracer::new();
        t.enable(true);
        t.scope("op.boot", true, || {
            t.scope("cloud.read", false, || {});
            t.scope("cloud.read", false, || {});
        });
        t.scope("op.gc", true, || {});
        let spans = t.drain();
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 2);
        let boot = roots.iter().find(|s| s.name == "op.boot").unwrap();
        let reads: Vec<&Span> = spans.iter().filter(|s| s.name == "cloud.read").collect();
        assert_eq!(reads.len(), 2);
        for r in reads {
            assert_eq!((r.parent, r.op), (boot.id, boot.id));
            assert!(boot.start <= r.start && r.end <= boot.end);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.scope("op.boot", true, || 7), 7);
        assert!(t.drain().is_empty());
    }

    /// A transport that hands the frame to a handler on *another* thread,
    /// as a socket does, so the thread-local cannot carry the parent.
    struct CrossThread(FrameHandler);

    impl Transport for CrossThread {
        fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
            std::thread::scope(|s| s.spawn(|| (self.0)(route, frame)).join().unwrap())
        }
    }

    #[test]
    fn identical_concurrent_frames_each_match_one_call() {
        const CLIENTS: usize = 4;
        let tracer = Tracer::new();
        tracer.enable(true);
        // Every handler waits until all calls are registered and in
        // flight: the worst case for matching by frame bytes.
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let inner: FrameHandler = {
            let barrier = Arc::clone(&barrier);
            Arc::new(move |_, frame| {
                barrier.wait();
                Ok(frame.to_vec())
            })
        };
        let transport = TracedTransport::new(
            Arc::new(CrossThread(traced_handler(inner, Arc::clone(&tracer)))),
            Arc::clone(&tracer),
        );
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| {
                    tracer.scope("op.boot", true, || {
                        let reply = transport.call(RouteKey::Meta(0), b"same frame").unwrap();
                        assert_eq!(reply, b"same frame");
                    })
                });
            }
        });
        assert_eq!(tracer.unmatched_handler_spans(), 0);
        let spans = tracer.drain();
        let calls: Vec<&Span> = spans.iter().filter(|s| s.name == "net.call.meta").collect();
        let handles: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "server.handle.meta")
            .collect();
        assert_eq!((calls.len(), handles.len()), (CLIENTS, CLIENTS));
        // Each call is the parent of exactly one handler span, and the
        // handler inherits that call's operation.
        for c in &calls {
            let mine: Vec<&&Span> = handles.iter().filter(|h| h.parent == c.id).collect();
            assert_eq!(
                mine.len(),
                1,
                "call {} matched {} handlers",
                c.id,
                mine.len()
            );
            assert_eq!(mine[0].op, c.op);
            assert_eq!(c.bytes, 20);
        }
        assert!(tracer.pending.lock().unwrap().is_empty());
    }

    #[test]
    fn handler_without_a_call_is_counted_unmatched() {
        let tracer = Tracer::new();
        tracer.enable(true);
        let inner: FrameHandler = Arc::new(|_, frame| Ok(frame.to_vec()));
        let handler = traced_handler(inner, Arc::clone(&tracer));
        handler(RouteKey::Vm, b"stray").unwrap();
        assert_eq!(tracer.unmatched_handler_spans(), 1);
        assert_eq!(tracer.drain()[0].parent, 0);
    }

    #[test]
    fn fingerprint_sees_length_and_both_edges() {
        let a = vec![1u8; 1000];
        let mut head = a.clone();
        head[3] = 2;
        let mut tail = a.clone();
        tail[997] = 2;
        let fp = fingerprint(&a);
        assert_ne!(fp, fingerprint(&head));
        assert_ne!(fp, fingerprint(&tail));
        assert_ne!(fp, fingerprint(&a[..999]));
    }
}
