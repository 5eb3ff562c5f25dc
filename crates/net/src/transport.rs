//! Message transports: the optional hop that carries an *encoded*
//! request to the server role that owns the state it targets.
//!
//! The protocol logic upstack (`bff-blobseer`) prices every request's
//! *modelled* cost — RPC rounds, bulk transfers, disk time — in one
//! cost book and pays it to a [`crate::Fabric`] where the request is
//! sent: before it goes out, or from its reply. The mechanism that
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
//!   the cluster runs as genuinely separate processes. A call is one
//!   exchange — one frame out, its reply back — on a connection that
//!   carries nothing else meanwhile. A protocol step sends its requests
//!   for one server role as one frame, so the step waits once, not once
//!   per destination.
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
    /// Request frames answered. A frame whose exchange failed is not
    /// counted, and neither are its bytes.
    pub calls: u64,
    /// Encoded request bytes (frame payloads, excluding length prefixes).
    pub bytes_sent: u64,
    /// Encoded response bytes.
    pub bytes_received: u64,
}

#[derive(Default)]
struct WireCounters {
    calls: AtomicU64,
    sent: AtomicU64,
    received: AtomicU64,
}

impl WireCounters {
    fn note(&self, sent: usize, received: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.sent.fetch_add(sent as u64, Ordering::Relaxed);
        self.received.fetch_add(received as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireStats {
        WireStats {
            calls: self.calls.load(Ordering::Relaxed),
            bytes_sent: self.sent.load(Ordering::Relaxed),
            bytes_received: self.received.load(Ordering::Relaxed),
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

impl Transport for CodecTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let reply = (self.handler)(route, frame)?;
        self.counters.note(frame.len(), reply.len());
        Ok(reply)
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

/// Real framed TCP: blocking I/O, per-address connection pool, one
/// frame in flight per connection.
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

    /// One frame out on `conn`, its reply back.
    fn exchange(conn: &mut TcpStream, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        write_frame(conn, frame)?;
        read_frame(conn)
    }
}

impl Transport for SocketTransport {
    /// Check a connection out of the pool, exchange `frame` on it, and
    /// check it back in with nothing owed on it; a failed exchange drops
    /// its connection.
    ///
    /// A dead connection — typically one pooled across a server restart
    /// — is indistinguishable from a dead server until a fresh connect
    /// is tried: after a `Closed` or `Io` failure everything pooled for
    /// the address is evicted and the frame gets one more exchange, on a
    /// new connection. Codec-level errors (Truncated/BadTag/BadFrame)
    /// are NOT retried: the bytes arrived fine and the reply was
    /// garbage, so resending cannot help.
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let addr = self.routes.read().addr_of(route);
        let first = self.checkout(addr).and_then(|mut conn| {
            let reply = Self::exchange(&mut conn, frame)?;
            Ok((conn, reply))
        });
        let (conn, reply) = match first {
            Err(WireError::Closed | WireError::Io(_)) => {
                self.pool.lock().remove(&addr);
                let mut conn = Self::connect(addr)?;
                let reply = Self::exchange(&mut conn, frame)?;
                (conn, reply)
            }
            done => done?,
        };
        self.checkin(addr, conn);
        self.counters.note(frame.len(), reply.len());
        Ok(reply)
    }

    fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
    }
}

/// Write one `u32`-LE length-prefixed frame as **one** vectored write:
/// the prefix and the payload are two `IoSlice`s, so nothing is staged or
/// copied, and on an unbuffered `TcpStream` the frame leaves in one
/// syscall (prefix-then-payload `write_all`s would be two, and with Nagle
/// off the 4-byte prefix its own packet). A partial write resumes where
/// the kernel stopped.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(frame.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or(WireError::BadFrame)?;
    let prefix = len.to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(frame)];
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
    // as one vectored write. Frames are served strictly in order: the
    // k-th reply on a connection answers its k-th request.
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
        for (k, frame) in [&b"hello"[..], b"", b"x"].into_iter().enumerate() {
            write_frame(&mut sink, frame).unwrap();
            assert_eq!(
                (sink.vectored_writes, sink.plain_writes),
                (k + 1, 0),
                "prefix and payload must go out together"
            );
        }
        // The frames decode back, reusing one read buffer.
        let mut r = &sink.bytes[..];
        let mut buf = Vec::new();
        for want in [&b"hello"[..], b"", b"x"] {
            read_frame_into(&mut r, &mut buf).unwrap();
            assert_eq!(buf, want);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn partial_vectored_writes_resume_where_the_kernel_stopped() {
        // 3 bytes per call splits every prefix and every payload.
        let mut sink = CountingSink::new(3);
        let run: [&[u8]; 3] = [b"hello", b"", b"resumed"];
        for frame in run {
            write_frame(&mut sink, frame).unwrap();
        }
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

    /// A table sending every role to `server`.
    fn table(server: &FrameServer) -> RouteTable {
        let addr = server.addr();
        RouteTable {
            vm: addr,
            pm: addr,
            board: addr,
            cluster: addr,
            meta: addr,
            provider: addr,
        }
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
        let t = SocketTransport::new(table(&server));
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
            }
        );
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
    fn frames_larger_than_the_socket_buffers_cannot_deadlock() {
        // The reply is the request, repeated as often as its first byte
        // says.
        let echo: FrameHandler = Arc::new(|_route, frame| Ok(frame.repeat(usize::from(frame[0]))));
        let server = FrameServer::start(RouteKey::Provider(NodeId(0)), echo).unwrap();
        let t = SocketTransport::new(table(&server));
        finishes(move || {
            // 16 MiB each way.
            let big = vec![1u8; 16 << 20];
            assert!(t.call(RouteKey::Provider(NodeId(0)), &big).unwrap() == big);
            // A small request with a large reply: 64 KiB out, 16 MiB back.
            let small = vec![255u8; 64 << 10];
            let reply = t.call(RouteKey::Vm, &small).unwrap();
            assert!(reply.len() == 255 * small.len() && reply.iter().all(|&b| b == 255));
            let stats = t.wire_stats();
            assert_eq!(stats.calls, 2);
            assert_eq!(stats.bytes_received, (16 << 20) + 255 * (64 << 10));
        });
    }

    #[test]
    fn a_peer_closing_mid_exchange_fails_that_call_alone_and_pools_no_dirty_connection() {
        // Replies carry the serving route and the request, so a reply
        // that reached the wrong request is visible.
        let tagging: FrameHandler = Arc::new(|route, frame| {
            if frame == b"poison" {
                return Err(WireError::BadFrame); // the server drops the connection
            }
            let mut out = format!("{:?}:", route.role()).into_bytes();
            out.extend_from_slice(frame);
            Ok(out)
        });
        let server = FrameServer::start(RouteKey::Meta(0), tagging).unwrap();
        let t = SocketTransport::new(table(&server));
        let (replies, stats) = finishes(move || {
            let frames: [&[u8]; 5] = [b"a", b"b", b"poison", b"c", b"d"];
            let replies: Vec<_> = frames
                .iter()
                .map(|f| t.call(RouteKey::Meta(0), f))
                .collect();
            (replies, t.wire_stats())
        });
        // The frame that kills its connection fails alone (its retry
        // dies the same way); every call around it gets its own reply on
        // a connection with nothing owed on it.
        assert_eq!(replies[0].as_deref(), Ok(&b"Meta:a"[..]));
        assert_eq!(replies[1].as_deref(), Ok(&b"Meta:b"[..]));
        assert_eq!(replies[2], Err(WireError::Closed));
        assert_eq!(replies[3].as_deref(), Ok(&b"Meta:c"[..]));
        assert_eq!(replies[4].as_deref(), Ok(&b"Meta:d"[..]));
        assert_eq!(stats.calls, 4, "a failed frame is not counted");
    }
}
