//! Message transports: the optional hop that carries an *encoded*
//! request to the server role that owns the state it targets.
//!
//! The protocol logic upstack (clients in `bff-blobseer`) charges every
//! *modelled* cost — RPC rounds, bulk transfers, disk time — to a
//! [`crate::Fabric`] before touching server state, so the mechanism that
//! actually carries the message is orthogonal to the modelled economics.
//! A deployment whose server state lives in the client's process needs
//! no hop at all (the typed request is handed straight to the server's
//! dispatcher; nothing in this module runs). Every other deployment puts
//! a [`Transport`] in front of that same dispatcher:
//!
//! * [`CodecTransport`] — in-process, but every message round-trips
//!   through the full binary codec (encode → decode → handle → encode →
//!   decode). Anything that cannot cross a process boundary — a stowaway
//!   pointer, a non-serializable field — fails loudly here, and the
//!   encode/decode cost is measurable against the hop-free deployment.
//! * [`SocketTransport`] — real TCP over loopback (or any address):
//!   length-prefixed frames, blocking I/O, one pooled connection set per
//!   server address. With [`FrameServer`] listeners on the other side
//!   the cluster runs as genuinely separate processes. A batch of frames
//!   ([`Transport::call_many`]) is pipelined: everything bound for one
//!   address goes out on one connection and the replies come back in
//!   request order, so a protocol step that addresses several
//!   destinations waits once, not once per destination.
//!
//! Frames are `u32` little-endian length followed by that many bytes of
//! codec payload. The codec itself lives in `bff-wire`; this layer only
//! moves opaque frames and counts the bytes it moves.

use crate::NodeId;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hard cap on a single frame. Generous (a frame carries at most a few
/// chunk payloads in structural rope encoding), but bounded so a corrupt
/// length prefix cannot ask for an absurd allocation.
pub const MAX_FRAME: u32 = 256 << 20;

/// Serialization / framed-transport failures. Deliberately small and
/// `Copy`: these map onto the existing per-chunk failover paths exactly
/// like a [`crate::NetError::NodeDown`], so they must be cheap to clone
/// through result plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A frame or value ended before its declared content.
    Truncated,
    /// An enum discriminant (or segment kind) byte was not recognized.
    BadTag(&'static str, u8),
    /// A declared length was implausible (longer than [`MAX_FRAME`], or
    /// inconsistent with the value it describes).
    BadFrame,
    /// The peer closed the connection mid-exchange.
    Closed,
    /// An OS-level socket failure.
    Io(std::io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadTag(what, tag) => write!(f, "bad {what} tag {tag:#x}"),
            WireError::BadFrame => write!(f, "implausible frame length"),
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Io(kind) => write!(f, "socket error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Closed,
            kind => WireError::Io(kind),
        }
    }
}

/// Which server role a request targets. The frame payload itself carries
/// the full request (including shard / provider-node addressing); the
/// route only selects *which listener* gets the frame, so a socket
/// transport maps each role to one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteKey {
    /// The version manager.
    Vm,
    /// The provider manager.
    Pm,
    /// The pattern board (and the purge entry point).
    Board,
    /// The cluster-wide dedup index.
    Cluster,
    /// A metadata shard (all shards share one listener).
    Meta(u32),
    /// A chunk provider (all providers share one listener).
    Provider(NodeId),
}

/// The six role classes a [`RouteKey`] collapses to for addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Version manager.
    Vm,
    /// Provider manager.
    Pm,
    /// Pattern board.
    Board,
    /// Cluster dedup index.
    Cluster,
    /// Metadata shards.
    Meta,
    /// Chunk providers.
    Provider,
}

impl Role {
    /// All roles, in the order servers bind them.
    pub const ALL: [Role; 6] = [
        Role::Vm,
        Role::Pm,
        Role::Board,
        Role::Cluster,
        Role::Meta,
        Role::Provider,
    ];

    /// Stable textual name (CLI role lists, READY handshake lines).
    pub fn name(self) -> &'static str {
        match self {
            Role::Vm => "vm",
            Role::Pm => "pm",
            Role::Board => "board",
            Role::Cluster => "cluster",
            Role::Meta => "meta",
            Role::Provider => "provider",
        }
    }

    /// Parse [`Role::name`] back.
    pub fn parse(s: &str) -> Option<Role> {
        Role::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl RouteKey {
    /// The role class this route addresses.
    pub fn role(self) -> Role {
        match self {
            RouteKey::Vm => Role::Vm,
            RouteKey::Pm => Role::Pm,
            RouteKey::Board => Role::Board,
            RouteKey::Cluster => Role::Cluster,
            RouteKey::Meta(_) => Role::Meta,
            RouteKey::Provider(_) => Role::Provider,
        }
    }
}

/// Wire-level traffic counters of a transport (real serialized bytes,
/// *not* the fabric's modelled bytes — synthetic payload segments cost a
/// handful of structural bytes here however many logical bytes they
/// represent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Request frames issued.
    pub calls: u64,
    /// Encoded request bytes (frame payloads, excluding length prefixes).
    pub bytes_sent: u64,
    /// Encoded response bytes.
    pub bytes_received: u64,
    /// Exchanges the caller waited for: one per [`Transport::call`] and
    /// one per non-empty [`Transport::call_many`], however many frames
    /// it carried, so `calls ÷ round_trips` is the mean batch width.
    pub round_trips: u64,
}

#[derive(Default)]
struct WireCounters {
    calls: AtomicU64,
    sent: AtomicU64,
    received: AtomicU64,
    round_trips: AtomicU64,
}

impl WireCounters {
    fn note(&self, sent: usize, received: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.sent.fetch_add(sent as u64, Ordering::Relaxed);
        self.received.fetch_add(received as u64, Ordering::Relaxed);
    }

    fn note_round_trip(&self) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireStats {
        WireStats {
            calls: self.calls.load(Ordering::Relaxed),
            bytes_sent: self.sent.load(Ordering::Relaxed),
            bytes_received: self.received.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
        }
    }
}

/// A frame-level request handler: the server-side dispatch entry point.
/// `bff-blobseer` registers one that decodes the frame, runs the typed
/// dispatcher against the passive state machines, and encodes the reply.
pub type FrameHandler = Arc<dyn Fn(RouteKey, &[u8]) -> Result<Vec<u8>, WireError> + Send + Sync>;

/// The connection registry of a [`FrameServer`]: each live connection's
/// shutdown handle paired with its serving thread.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, std::thread::JoinHandle<()>)>>>;

/// How encoded request frames reach the server roles. See the module
/// docs for the implementations.
pub trait Transport: Send + Sync {
    /// Carry one encoded request frame to the role behind `route` and
    /// return the encoded response frame.
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError>;

    /// Carry a batch of independent request frames and return one result
    /// per frame, in request order — in content exactly what mapping
    /// [`Transport::call`] over the batch returns (which is the default).
    /// A transport with a real wait per exchange overrides this to put
    /// the whole batch in flight before waiting for the first reply.
    fn call_many(&self, calls: &[(RouteKey, &[u8])]) -> Vec<Result<Vec<u8>, WireError>> {
        calls
            .iter()
            .map(|&(route, frame)| self.call(route, frame))
            .collect()
    }

    /// Real serialized bytes moved so far.
    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }
}

/// In-process transport that still round-trips every message through the
/// binary codec: `call` hands the encoded frame straight to the
/// registered server-side [`FrameHandler`]. Catches anything that cannot
/// cross a process boundary and prices the serialization itself.
pub struct CodecTransport {
    handler: FrameHandler,
    counters: WireCounters,
}

impl CodecTransport {
    /// Wrap the server-side dispatch entry point.
    pub fn new(handler: FrameHandler) -> Self {
        Self {
            handler,
            counters: WireCounters::default(),
        }
    }
}

impl CodecTransport {
    fn serve(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let reply = (self.handler)(route, frame)?;
        self.counters.note(frame.len(), reply.len());
        Ok(reply)
    }
}

impl Transport for CodecTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        self.counters.note_round_trip();
        self.serve(route, frame)
    }

    /// Nothing to overlap in-process; overridden only so that a batch
    /// counts as the one round trip it is on a socket, keeping
    /// [`WireStats`] identical across the framed transports.
    fn call_many(&self, calls: &[(RouteKey, &[u8])]) -> Vec<Result<Vec<u8>, WireError>> {
        if !calls.is_empty() {
            self.counters.note_round_trip();
        }
        calls.iter().map(|&(r, f)| self.serve(r, f)).collect()
    }

    fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
    }
}

/// Addresses of the six server roles (one listener per role; metadata
/// shards and providers are multiplexed onto their role's listener by
/// the request payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTable {
    /// Version manager listener.
    pub vm: SocketAddr,
    /// Provider manager listener.
    pub pm: SocketAddr,
    /// Pattern-board listener.
    pub board: SocketAddr,
    /// Cluster-index listener.
    pub cluster: SocketAddr,
    /// Metadata listener (all shards).
    pub meta: SocketAddr,
    /// Provider listener (all provider nodes).
    pub provider: SocketAddr,
}

impl RouteTable {
    /// Build a table from per-role addresses; every role must be present.
    pub fn from_roles(addrs: &HashMap<Role, SocketAddr>) -> Option<Self> {
        Some(Self {
            vm: *addrs.get(&Role::Vm)?,
            pm: *addrs.get(&Role::Pm)?,
            board: *addrs.get(&Role::Board)?,
            cluster: *addrs.get(&Role::Cluster)?,
            meta: *addrs.get(&Role::Meta)?,
            provider: *addrs.get(&Role::Provider)?,
        })
    }

    fn addr_of(&self, route: RouteKey) -> SocketAddr {
        match route.role() {
            Role::Vm => self.vm,
            Role::Pm => self.pm,
            Role::Board => self.board,
            Role::Cluster => self.cluster,
            Role::Meta => self.meta,
            Role::Provider => self.provider,
        }
    }
}

/// Unanswered *request* bytes (length prefixes included) a connection may
/// carry before the rest of its batch waits for replies.
///
/// The server answers a connection's frames strictly in order and stops
/// reading while it writes a reply, and the client reads no reply until
/// its writes are done — so a write that had to wait for the server to
/// read would wait forever once the server waits for the client to read.
/// Request bytes the server has not consumed sit in kernel socket
/// buffers; 16 KiB is the smallest default send buffer among the
/// platforms this runs on (Linux `tcp_wmem`; receive buffers, where the
/// bytes actually land, default to 64 KiB and more), so a window within
/// it is absorbed without the server's help. A frame larger than the
/// window travels alone: with nothing else unanswered the server is
/// reading, which is the single exchange this transport always did.
/// A constant, not a setting: it bounds a deadlock, it does not tune.
const PIPELINE_WINDOW: usize = 16 << 10;

/// One address's share of a batch: its frames leave on one connection in
/// request order and the replies return in that order.
struct Lane<'a> {
    addr: SocketAddr,
    /// `(slot in the batch, frame)`, in request order.
    frames: Vec<(usize, &'a [u8])>,
    conn: Option<TcpStream>,
    /// Frames written / replies read so far (prefixes of `frames`);
    /// `frames[answered..sent]` are the unanswered ones.
    sent: usize,
    answered: usize,
}

impl Lane<'_> {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            frames: Vec::new(),
            conn: None,
            sent: 0,
            answered: 0,
        }
    }

    /// Write the next frames the window admits, as one vectored write.
    fn send_window(&mut self) -> Result<(), WireError> {
        let mut end = self.sent;
        let mut unanswered: usize = self.frames[self.answered..end]
            .iter()
            .map(|(_, frame)| 4 + frame.len())
            .sum();
        while let Some((_, frame)) = self.frames.get(end) {
            let bytes = 4 + frame.len();
            if unanswered > 0 && unanswered + bytes > PIPELINE_WINDOW {
                break;
            }
            unanswered += bytes;
            end += 1;
        }
        if end > self.sent {
            let conn = self.conn.as_mut().expect("a lane sends on its connection");
            write_frames(conn, self.frames[self.sent..end].iter().map(|&(_, f)| f))?;
            self.sent = end;
        }
        Ok(())
    }

    /// Read the next reply in request order; returns the batch slot it
    /// answers.
    fn receive(&mut self) -> Result<(usize, Vec<u8>), WireError> {
        let conn = self
            .conn
            .as_mut()
            .expect("a lane receives on its connection");
        let reply = read_frame(conn)?;
        let (slot, _) = self.frames[self.answered];
        self.answered += 1;
        Ok((slot, reply))
    }
}

/// Real framed TCP: blocking I/O, per-address connection pool, frames
/// bound for one address pipelined on one connection.
///
/// Every connection — pool miss, post-[`SocketTransport::set_routes`]
/// reconnect, and the dead-connection retry — goes through
/// one private `connect`, which sets `TCP_NODELAY`; no path
/// hands out a Nagle-enabled stream.
pub struct SocketTransport {
    routes: RwLock<RouteTable>,
    pool: Mutex<HashMap<SocketAddr, Vec<TcpStream>>>,
    counters: WireCounters,
}

impl SocketTransport {
    /// Connect lazily to the listeners in `routes`.
    pub fn new(routes: RouteTable) -> Self {
        Self {
            routes: RwLock::new(routes),
            pool: Mutex::new(HashMap::new()),
            counters: WireCounters::default(),
        }
    }

    /// Swap the route table (a restarted server process announces new
    /// ephemeral addresses). The connection pool is cleared: every
    /// pooled stream targets an address that may no longer answer.
    pub fn set_routes(&self, routes: RouteTable) {
        *self.routes.write() = routes;
        self.pool.lock().clear();
    }

    fn checkout(&self, addr: SocketAddr) -> Result<TcpStream, WireError> {
        if let Some(conn) = self.pool.lock().get_mut(&addr).and_then(Vec::pop) {
            return Ok(conn);
        }
        Self::connect(addr)
    }

    fn connect(addr: SocketAddr) -> Result<TcpStream, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn checkin(&self, addr: SocketAddr, conn: TcpStream) {
        self.pool.lock().entry(addr).or_default().push(conn);
    }

    /// The one exchange routine ([`Transport::call`] is its batch of
    /// one). Scatter: each address gets a pooled connection and the
    /// first window of its frames. Gather: the replies are read in
    /// request order, each freeing window for the frames still waiting.
    ///
    /// A connection is returned to the pool only when every frame
    /// written on it has been answered — replies match requests by
    /// position alone, so a connection with anything outstanding would
    /// hand the next caller somebody else's reply.
    fn exchange(&self, calls: &[(RouteKey, &[u8])]) -> Vec<Result<Vec<u8>, WireError>> {
        // Until its reply lands a slot reads as a lost connection.
        let mut replies: Vec<Result<Vec<u8>, WireError>> =
            calls.iter().map(|_| Err(WireError::Closed)).collect();
        let mut lanes: Vec<Lane<'_>> = Vec::new();
        {
            let routes = self.routes.read();
            for (slot, &(route, frame)) in calls.iter().enumerate() {
                if frame.len() > MAX_FRAME as usize {
                    replies[slot] = Err(WireError::BadFrame);
                    continue;
                }
                let addr = routes.addr_of(route);
                let at = lanes
                    .iter()
                    .position(|l| l.addr == addr)
                    .unwrap_or_else(|| {
                        lanes.push(Lane::new(addr));
                        lanes.len() - 1
                    });
                lanes[at].frames.push((slot, frame));
            }
        }
        if !calls.is_empty() {
            self.counters.note_round_trip();
        }
        for lane in &mut lanes {
            match self.checkout(lane.addr) {
                Ok(conn) => {
                    lane.conn = Some(conn);
                    if let Err(e) = lane.send_window() {
                        self.settle_broken(lane, e, &mut replies);
                    }
                }
                // Nobody is listening: there is nothing to retry against.
                Err(e) => lane
                    .frames
                    .drain(..)
                    .for_each(|(slot, _)| replies[slot] = Err(e)),
            }
        }
        for lane in &mut lanes {
            while lane.answered < lane.frames.len() {
                let step = lane.receive().and_then(|(slot, reply)| {
                    self.counters.note(calls[slot].1.len(), reply.len());
                    replies[slot] = Ok(reply);
                    lane.send_window()
                });
                if let Err(e) = step {
                    self.settle_broken(lane, e, &mut replies);
                }
            }
            if let Some(conn) = lane.conn.take() {
                self.checkin(lane.addr, conn);
            }
        }
        replies
    }

    /// A lane's connection failed with `e`: the replies already read
    /// stand, the connection is dropped with whatever it still owed, and
    /// every unanswered frame is settled here.
    ///
    /// A dead connection — typically one pooled across a server restart
    /// — is indistinguishable from a dead server until a fresh connect
    /// is tried: everything pooled for the address is evicted and each
    /// unanswered frame gets one more exchange, alone on a new
    /// connection (a frame that kills its connection must not take the
    /// rest of the batch with it). Codec-level errors
    /// (Truncated/BadTag/BadFrame) are NOT retried: the bytes arrived
    /// fine and the reply was garbage, so resending cannot help.
    fn settle_broken(
        &self,
        lane: &mut Lane<'_>,
        e: WireError,
        replies: &mut [Result<Vec<u8>, WireError>],
    ) {
        lane.conn = None;
        let rest = lane.frames.split_off(lane.answered);
        lane.sent = lane.answered;
        if !matches!(e, WireError::Closed | WireError::Io(_)) {
            for (slot, _) in rest {
                replies[slot] = Err(e);
            }
            return;
        }
        self.pool.lock().remove(&lane.addr);
        for (slot, frame) in rest {
            replies[slot] = Self::connect(lane.addr).and_then(|mut conn| {
                write_frame(&mut conn, frame)?;
                let reply = read_frame(&mut conn)?;
                self.counters.note(frame.len(), reply.len());
                lane.conn = Some(conn);
                Ok(reply)
            });
        }
    }
}

impl Transport for SocketTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        self.exchange(&[(route, frame)])
            .pop()
            .expect("one reply per frame")
    }

    fn call_many(&self, calls: &[(RouteKey, &[u8])]) -> Vec<Result<Vec<u8>, WireError>> {
        self.exchange(calls)
    }

    fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
    }
}

/// Write one `u32`-LE length-prefixed frame.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    write_frames(w, std::iter::once(frame))
}

/// Write `u32`-LE length-prefixed frames back to back as **one** vectored
/// write: each prefix and payload is its own `IoSlice`, so nothing is
/// staged or copied, and on an unbuffered `TcpStream` the whole run
/// leaves in one syscall (prefix-then-payload `write_all`s would be two
/// per frame, and with Nagle off every 4-byte prefix its own packet). A
/// partial write resumes where the kernel stopped.
fn write_frames<'a>(
    w: &mut impl Write,
    frames: impl Iterator<Item = &'a [u8]>,
) -> Result<(), WireError> {
    let frames: Vec<([u8; 4], &[u8])> = frames
        .map(|f| {
            let len = u32::try_from(f.len()).ok().filter(|&len| len <= MAX_FRAME);
            Ok((len.ok_or(WireError::BadFrame)?.to_le_bytes(), f))
        })
        .collect::<Result<_, WireError>>()?;
    let mut slices: Vec<IoSlice<'_>> = frames
        .iter()
        .flat_map(|(prefix, f)| [IoSlice::new(prefix), IoSlice::new(f)])
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(WireError::Io(std::io::ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one `u32`-LE length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut frame = Vec::new();
    read_frame_into(r, &mut frame)?;
    Ok(frame)
}

/// Read one `u32`-LE length-prefixed frame into `buf`, reusing its
/// capacity. `buf` ends up holding exactly the frame; connection loops
/// that process many requests keep one buffer across frames instead of
/// allocating per frame. The payload is read into spare capacity — no
/// zero-fill that the read would overwrite at once.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(WireError::BadFrame);
    }
    buf.clear();
    buf.reserve(len as usize);
    if r.take(u64::from(len)).read_to_end(buf)? < len as usize {
        return Err(WireError::Closed);
    }
    Ok(())
}

/// One listening server role: an accept loop that feeds every incoming
/// frame to a [`FrameHandler`] and writes the reply back. Connections are
/// served on their own threads until the peer closes them. Dropping the
/// server stops the accept loop (a wake-up connection unblocks it),
/// shuts every live connection down, and **joins** every connection
/// thread — no handler can still be running against server state after
/// the drop returns.
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    /// Live connection threads with a shutdown handle to each stream.
    /// Finished entries are reaped by the accept loop as it admits new
    /// connections, so the registry tracks concurrency, not history.
    conns: ConnRegistry,
}

impl FrameServer {
    /// Bind `127.0.0.1:0` for `route` and serve frames with `handler`.
    pub fn start(route: RouteKey, handler: FrameHandler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
        let conns2 = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name(format!("bff-{}-listener", route.role().name()))
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    conn.set_nodelay(true).ok();
                    let handler = Arc::clone(&handler);
                    // A try_clone failure leaves no shutdown handle for
                    // Drop; refuse the connection rather than leak an
                    // unstoppable thread.
                    let Ok(shutdown_handle) = conn.try_clone() else {
                        continue;
                    };
                    let thread = std::thread::spawn(move || serve_connection(conn, route, handler));
                    let mut live = conns2.lock();
                    live.retain(|(_, t)| !t.is_finished());
                    live.push((shutdown_handle, thread));
                }
            })?;
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop so it observes the stop flag. (The
        // wake-up connection is never registered: the loop re-checks
        // the flag before spawning a connection thread.)
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread is gone, so the registry is final: shut
        // every live stream down (unblocking its read) and join the
        // thread, so no handler outlives the server.
        let drained = std::mem::take(&mut *self.conns.lock());
        for (stream, thread) in drained {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = thread.join();
        }
    }
}

fn serve_connection(mut conn: TcpStream, route: RouteKey, handler: FrameHandler) {
    // The request buffer is reused across frames; each reply goes out
    // as one vectored write. Frames are served strictly in order, which
    // is what lets a client pipeline them: the k-th reply on a
    // connection answers its k-th request.
    let mut frame = Vec::new();
    // Stop at the first failure: peer closed or corrupt stream, an
    // undecodable request, or a reply that cannot be written.
    while read_frame_into(&mut conn, &mut frame).is_ok() {
        let Ok(reply) = handler(route, &frame) else {
            break;
        };
        if write_frame(&mut conn, &reply).is_err() {
            break;
        }
    }
    // The registry's shutdown handle keeps the descriptor open until the
    // entry is reaped, so dropping `conn` alone would leave a peer that
    // still waits for replies waiting forever: say the stream is over.
    let _ = conn.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
    }

    /// Counts write calls of either kind and accepts at most `cap` bytes
    /// per call, like a socket with a full send buffer.
    struct CountingSink {
        cap: usize,
        plain_writes: usize,
        vectored_writes: usize,
        bytes: Vec<u8>,
    }

    impl CountingSink {
        fn new(cap: usize) -> Self {
            Self {
                cap,
                plain_writes: 0,
                vectored_writes: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.plain_writes += 1;
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_writes += 1;
            let mut room = self.cap;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn prefix_and_payload_leave_in_one_vectored_write() {
        let mut sink = CountingSink::new(usize::MAX);
        write_frame(&mut sink, b"hello").unwrap();
        assert_eq!(
            (sink.vectored_writes, sink.plain_writes),
            (1, 0),
            "prefix and payload must go out together"
        );
        // A run of frames (one of them empty) is still one syscall.
        let run: [&[u8]; 3] = [b"worlds!", b"", b"x"];
        write_frames(&mut sink, run.into_iter()).unwrap();
        assert_eq!((sink.vectored_writes, sink.plain_writes), (2, 0));
        // All frames decode back, reusing one read buffer.
        let mut r = &sink.bytes[..];
        let mut buf = Vec::new();
        for want in [&b"hello"[..], b"worlds!", b"", b"x"] {
            read_frame_into(&mut r, &mut buf).unwrap();
            assert_eq!(buf, want);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn partial_vectored_writes_resume_where_the_kernel_stopped() {
        // 3 bytes per call splits every prefix and every payload.
        let mut sink = CountingSink::new(3);
        let run: [&[u8]; 3] = [b"hello", b"", b"pipelined"];
        write_frames(&mut sink, run.into_iter()).unwrap();
        assert_eq!(sink.plain_writes, 0);
        let mut r = &sink.bytes[..];
        for want in run {
            assert_eq!(read_frame(&mut r).unwrap(), want);
        }
        assert!(r.is_empty());
        // A sink that accepts nothing is an error, not a spin.
        let mut stuck = CountingSink::new(0);
        assert_eq!(
            write_frame(&mut stuck, b"x").unwrap_err(),
            WireError::Io(std::io::ErrorKind::WriteZero)
        );
    }

    #[test]
    fn read_frame_into_fills_spare_capacity_exactly() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[7u8; 5000]).unwrap();
        write_frame(&mut wire, b"tail").unwrap();
        let mut r = &wire[..];
        // Stale content and a too-small buffer: both are replaced.
        let mut buf = vec![1u8; 10];
        read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 5000]);
        // The next frame is untouched by the first read.
        read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!(buf, b"tail");
        assert!(buf.capacity() >= 5000, "capacity is reused, not dropped");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap_err(), WireError::BadFrame);
    }

    #[test]
    fn truncated_frame_is_closed_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn socket_echo_end_to_end() {
        let handler: FrameHandler = Arc::new(|route, frame| {
            assert_eq!(route, RouteKey::Vm);
            let mut out = frame.to_vec();
            out.reverse();
            Ok(out)
        });
        let server = FrameServer::start(RouteKey::Vm, handler).unwrap();
        let table = RouteTable {
            vm: server.addr(),
            pm: server.addr(),
            board: server.addr(),
            cluster: server.addr(),
            meta: server.addr(),
            provider: server.addr(),
        };
        let t = SocketTransport::new(table);
        let reply = t.call(RouteKey::Vm, b"abc").unwrap();
        assert_eq!(reply, b"cba");
        // The pooled connection serves a second call.
        let reply = t.call(RouteKey::Vm, b"xy").unwrap();
        assert_eq!(reply, b"yx");
        let stats = t.wire_stats();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.bytes_sent, 5);
        assert_eq!(stats.bytes_received, 5);
    }

    #[test]
    fn codec_transport_counts_bytes() {
        let handler: FrameHandler = Arc::new(|_route, frame| Ok(frame.to_vec()));
        let t = CodecTransport::new(handler);
        t.call(RouteKey::Pm, &[1, 2, 3]).unwrap();
        assert_eq!(
            t.wire_stats(),
            WireStats {
                calls: 1,
                bytes_sent: 3,
                bytes_received: 3,
                round_trips: 1
            }
        );
    }

    /// A table sending the manager roles to `a` and the data roles to `b`.
    fn split_table(a: &FrameServer, b: &FrameServer) -> RouteTable {
        RouteTable {
            vm: a.addr(),
            pm: a.addr(),
            board: a.addr(),
            cluster: a.addr(),
            meta: b.addr(),
            provider: b.addr(),
        }
    }

    /// Replies carry the serving route and the request, so a reply that
    /// reached the wrong request is visible.
    fn tagging_server(route: RouteKey) -> FrameServer {
        let handler: FrameHandler = Arc::new(|route, frame| {
            if frame == b"poison" {
                return Err(WireError::BadFrame); // the server drops the connection
            }
            let mut out = format!("{:?}:", route.role()).into_bytes();
            out.extend_from_slice(frame);
            Ok(out)
        });
        FrameServer::start(route, handler).unwrap()
    }

    /// Run `f` on its own thread and fail (instead of hanging the suite)
    /// if it has not finished within a minute.
    fn finishes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the exchange deadlocked")
    }

    #[test]
    fn batches_larger_than_the_socket_buffers_cannot_deadlock() {
        let echo: FrameHandler = Arc::new(|_route, frame| Ok(frame.to_vec()));
        let server = FrameServer::start(RouteKey::Provider(NodeId(0)), echo).unwrap();
        let t = SocketTransport::new(split_table(&server, &server));
        finishes(move || {
            // Frames over the window travel alone: 16 MiB each way.
            let big: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 1 << 20]).collect();
            let calls: Vec<(RouteKey, &[u8])> = big
                .iter()
                .map(|f| (RouteKey::Provider(NodeId(0)), f.as_slice()))
                .collect();
            for (reply, frame) in t.call_many(&calls).into_iter().zip(&big) {
                assert!(reply.unwrap() == *frame);
            }
            // Small requests with large replies: the server blocks on its
            // reply writes long before the client has sent everything,
            // so requests beyond the window must wait their turn.
            let echo_big: FrameHandler = Arc::new(|_route, frame| Ok(frame.repeat(600)));
            let server = FrameServer::start(RouteKey::Vm, echo_big).unwrap();
            let t = SocketTransport::new(split_table(&server, &server));
            let small: Vec<Vec<u8>> = (0..2000u32).map(|i| i.to_le_bytes().repeat(25)).collect();
            let calls: Vec<(RouteKey, &[u8])> =
                small.iter().map(|f| (RouteKey::Vm, f.as_slice())).collect();
            for (reply, frame) in t.call_many(&calls).into_iter().zip(&small) {
                assert!(reply.unwrap() == frame.repeat(600));
            }
            assert_eq!(t.wire_stats().calls, 2000);
            assert_eq!(t.wire_stats().round_trips, 1);
        });
    }

    #[test]
    fn peer_closing_mid_batch_loses_no_reply_and_pools_no_dirty_connection() {
        let server = tagging_server(RouteKey::Meta(0));
        let t = SocketTransport::new(split_table(&server, &server));
        let route = RouteKey::Meta(0);
        let frames: [&[u8]; 5] = [b"a", b"b", b"poison", b"c", b"d"];
        let calls: Vec<(RouteKey, &[u8])> = frames.iter().map(|&f| (route, f)).collect();
        let replies = finishes({
            let calls: Vec<(RouteKey, Vec<u8>)> =
                calls.iter().map(|&(r, f)| (r, f.to_vec())).collect();
            move || {
                let borrowed: Vec<(RouteKey, &[u8])> =
                    calls.iter().map(|(r, f)| (*r, f.as_slice())).collect();
                let replies = t.call_many(&borrowed);
                // The next caller on the address gets a connection with
                // nothing owed on it: its own reply, not a leftover.
                let next = t.call(route, b"next");
                (replies, next, t.wire_stats())
            }
        });
        let (replies, next, stats) = replies;
        // The two replies read before the close are kept; the frame that
        // kills its connection fails alone (its retry dies the same
        // way); the frames behind it are retried one by one.
        assert_eq!(replies[0].as_deref(), Ok(&b"Meta:a"[..]));
        assert_eq!(replies[1].as_deref(), Ok(&b"Meta:b"[..]));
        assert_eq!(replies[2], Err(WireError::Closed));
        assert_eq!(replies[3].as_deref(), Ok(&b"Meta:c"[..]));
        assert_eq!(replies[4].as_deref(), Ok(&b"Meta:d"[..]));
        assert_eq!(next.as_deref(), Ok(&b"Meta:next"[..]));
        assert_eq!(stats.calls, 5, "failed frames are not counted");
        assert_eq!(stats.round_trips, 2);
        drop(calls);
    }

    #[test]
    fn call_many_equals_mapped_call_in_content_order_and_counters() {
        let a = tagging_server(RouteKey::Vm);
        let b = tagging_server(RouteKey::Provider(NodeId(0)));
        let batched = SocketTransport::new(split_table(&a, &b));
        let single = SocketTransport::new(split_table(&a, &b));
        let routes = [
            RouteKey::Vm,
            RouteKey::Pm,
            RouteKey::Board,
            RouteKey::Cluster,
            RouteKey::Meta(3),
            RouteKey::Provider(NodeId(2)),
        ];
        // xorshift: the batches repeat exactly from run to run.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let mut batches = 0;
        // Sizes 0 and 1 first, then random ones.
        for round in 0..40 {
            let n = if round < 2 { round } else { next(12) };
            let frames: Vec<(RouteKey, Vec<u8>)> = (0..n)
                .map(|_| {
                    // Mostly small; some past the pipelining window.
                    let len = if next(8) == 0 {
                        next(40 << 10)
                    } else {
                        next(64)
                    };
                    let frame = (0..len).map(|_| next(256) as u8).collect();
                    (routes[next(6) as usize], frame)
                })
                .collect();
            let calls: Vec<(RouteKey, &[u8])> =
                frames.iter().map(|(r, f)| (*r, f.as_slice())).collect();
            let many = batched.call_many(&calls);
            let mapped: Vec<_> = calls.iter().map(|&(r, f)| single.call(r, f)).collect();
            assert_eq!(many, mapped, "round {round}");
            assert!(many.iter().all(Result::is_ok));
            batches += u64::from(n > 0);
        }
        let (many, mapped) = (batched.wire_stats(), single.wire_stats());
        assert_eq!(many.calls, mapped.calls);
        assert_eq!(many.bytes_sent, mapped.bytes_sent);
        assert_eq!(many.bytes_received, mapped.bytes_received);
        assert_eq!(mapped.round_trips, mapped.calls, "one wait per call");
        assert_eq!(many.round_trips, batches, "one wait per non-empty batch");
    }

    #[test]
    fn default_call_many_is_the_mapped_call() {
        /// Implements `call` only, like a wrapper written before
        /// `call_many` existed.
        struct CallOnly;
        impl Transport for CallOnly {
            fn call(&self, _route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
                if frame.is_empty() {
                    Err(WireError::Truncated)
                } else {
                    Ok(frame.to_vec())
                }
            }
        }
        let calls: [(RouteKey, &[u8]); 3] = [
            (RouteKey::Vm, b"one"),
            (RouteKey::Pm, b""),
            (RouteKey::Board, b"three"),
        ];
        let replies = CallOnly.call_many(&calls);
        assert_eq!(replies[0].as_deref(), Ok(&b"one"[..]));
        assert_eq!(replies[1], Err(WireError::Truncated));
        assert_eq!(replies[2].as_deref(), Ok(&b"three"[..]));
        assert!(CallOnly.call_many(&[]).is_empty());
    }
}
