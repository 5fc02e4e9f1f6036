//! The live transport seam: how [`Envelope`]s physically travel.
//!
//! [`crate::runtime::NodeRuntime`] is sans-io — `poll` hands frames out,
//! `handle` takes bytes in — so *everything* about delivery is the
//! transport's business: addressing, buffering, loss, timing. The
//! discrete-event engines ([`crate::loopback::AsyncNet`], the sharded
//! engine) are one family of carriers (simulated time, modeled links);
//! this module is the other: **live** carriers moving real frames between
//! endpoints on real wall-clock time, behind one [`Transport`] trait, so
//! the protocol code and the service loop are identical no matter what
//! moves the bytes.
//!
//! A deployment is a **mesh** of numbered endpoints (one per worker
//! thread / core), plus a shared node-id → endpoint route table:
//!
//! * [`ChannelMesh`] — in-process delivery over `std::sync::mpsc`
//!   channels. Frames move as typed values, zero copies, no framing to
//!   get wrong. This is the carrier the 10 000-node service runs on.
//! * [`UdpMesh`] — one `std::net::UdpSocket` per endpoint on the
//!   loopback interface. Frames travel as datagrams carrying an 8-byte
//!   preamble ([`DGRAM_PREAMBLE_BYTES`]: sender id ++ destination id,
//!   little-endian `u32`s) followed by the ordinary
//!   [`crate::runtime::FrameHeader`] `++` codec payload. Datagram bytes
//!   are untrusted: the ingest path diagnoses malformed preambles and
//!   out-of-universe ids into counters and never panics (fuzzed in
//!   `tests/udp_ingest_fuzz.rs`).
//!
//! Both impls pass the identical behavioral battery in
//! `tests/transport_conformance.rs` — delivery, rebinding, shutdown
//! draining, drop accounting — which is what lets the service treat the
//! carrier as a plug-in.

use crate::runtime::Envelope;
use dynagg_core::protocol::NodeId;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Bytes of the datagram preamble: sender id ++ destination id, both
/// little-endian `u32`. The [`crate::runtime::FrameHeader`] follows.
pub const DGRAM_PREAMBLE_BYTES: usize = 8;

/// The largest datagram a [`UdpMesh`] endpoint will send or accept —
/// the classic UDP/IPv4 payload ceiling. Every protocol frame in this
/// workspace is orders of magnitude smaller; an oversized send is a bug
/// and is counted, not transmitted.
pub const MAX_DATAGRAM_BYTES: usize = 65_507;

/// Route-table value for "no endpoint currently owns this node".
const UNBOUND: usize = usize::MAX;

/// A frame handed out of a transport endpoint: who sent it, which node it
/// is for, and the `FrameHeader ++ codec` payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvFrame {
    /// Claimed sender (authenticated by nothing — gossip frames are
    /// untrusted input and the runtime treats them so).
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// [`crate::runtime::FrameHeader`] `++` wire-encoded message.
    pub payload: Vec<u8>,
}

/// Delivery/drop accounting an endpoint keeps. All counters are local to
/// the endpoint (sum over the mesh for totals).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames accepted for delivery by [`Transport::send`].
    pub sent: u64,
    /// Frames handed out of [`Transport::recv`] / [`Transport::recv_wait`].
    pub delivered: u64,
    /// Frames dropped at send time because the destination had no route
    /// (stopped node, not-yet-bound node). The live analogue of sending
    /// to a dark host.
    pub unroutable: u64,
    /// Ingest rejects: datagrams too short for the preamble, or larger
    /// than [`MAX_DATAGRAM_BYTES`] at send time.
    pub malformed: u64,
    /// Ingest rejects: preamble decoded but the sender id lies outside
    /// the mesh's node universe. Counted and dropped, per the untrusted
    ///-input contract.
    pub unknown_sender: u64,
    /// Ingest rejects: destination id outside the node universe.
    pub unknown_dest: u64,
}

impl TransportStats {
    /// Sum of every ingest-reject counter (anything dropped after
    /// arriving, as opposed to `unroutable`, dropped before leaving).
    pub fn rejected(&self) -> u64 {
        self.malformed + self.unknown_sender + self.unknown_dest
    }

    /// Merge another endpoint's counters into this one (mesh totals).
    pub fn absorb(&mut self, other: &TransportStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.unroutable += other.unroutable;
        self.malformed += other.malformed;
        self.unknown_sender += other.unknown_sender;
        self.unknown_dest += other.unknown_dest;
    }
}

/// The shared node-id → endpoint table of one mesh. Reads are lock-free
/// (one relaxed atomic load per send); writes are the rare control-plane
/// operations (bind at startup, unbind on node stop, rebind on restart
/// or migration).
#[derive(Debug)]
struct RouteTable {
    routes: Vec<AtomicUsize>,
}

impl RouteTable {
    fn new(universe: usize) -> Self {
        Self { routes: (0..universe).map(|_| AtomicUsize::new(UNBOUND)).collect() }
    }

    fn lookup(&self, node: NodeId) -> Option<usize> {
        let ep = self.routes.get(node as usize)?.load(Ordering::Relaxed);
        (ep != UNBOUND).then_some(ep)
    }

    fn bind(&self, node: NodeId, endpoint: usize) {
        if let Some(slot) = self.routes.get(node as usize) {
            slot.store(endpoint, Ordering::Relaxed);
        }
    }

    fn unbind(&self, node: NodeId) {
        if let Some(slot) = self.routes.get(node as usize) {
            slot.store(UNBOUND, Ordering::Relaxed);
        }
    }
}

/// One endpoint of a live frame carrier. A mesh constructor hands out
/// `W` endpoints sharing a route table; each worker thread owns one and
/// uses it for every node it hosts.
///
/// ## Contract (pinned by `tests/transport_conformance.rs`)
///
/// * [`Transport::send`] ships toward the endpoint the route table names
///   *at send time*; unrouted destinations are counted (`unroutable`)
///   and dropped, never delivered late to a stale owner.
/// * [`Transport::recv`] never blocks; [`Transport::recv_wait`] blocks at
///   most `wait` for the *first* frame and then drains without blocking.
/// * [`Transport::bind`]/[`Transport::unbind`] edits are visible to every
///   endpoint of the mesh (the table is shared), so a restart on worker
///   A immediately redirects worker B's sends.
/// * After the last send, repeatedly draining until quiescent yields
///   every in-flight frame: shutdown loses nothing that was routable.
pub trait Transport: Send {
    /// This endpoint's index within its mesh.
    fn endpoint(&self) -> usize;

    /// Number of endpoints in the mesh.
    fn endpoints(&self) -> usize;

    /// Number of node ids the mesh routes (the universe size).
    fn universe(&self) -> usize;

    /// Route frames addressed to `node` toward endpoint `ep` (visible
    /// mesh-wide). Out-of-universe nodes and endpoints are ignored.
    fn bind(&self, node: NodeId, ep: usize);

    /// Remove `node`'s route: subsequent sends to it are counted
    /// `unroutable` and dropped (the node stopped).
    fn unbind(&self, node: NodeId);

    /// Ship one envelope toward the endpoint currently owning `env.to`.
    /// Returns the payload buffer when the transport is done with it
    /// immediately (serializing carriers, and any drop path), so the
    /// caller can recycle it; `None` means the buffer itself traveled.
    fn send(&mut self, env: Envelope) -> Option<Vec<u8>>;

    /// Drain every frame that has already arrived, appending to `out`
    /// without blocking. Returns the number appended.
    fn recv(&mut self, out: &mut Vec<RecvFrame>) -> usize;

    /// Block up to `wait` for at least one frame, then drain like
    /// [`Transport::recv`]. Returns the number appended.
    fn recv_wait(&mut self, wait: Duration, out: &mut Vec<RecvFrame>) -> usize;

    /// This endpoint's delivery/drop accounting.
    fn stats(&self) -> TransportStats;
}

// ---------------------------------------------------------------------
// In-process channel mesh
// ---------------------------------------------------------------------

/// Constructor for the in-process channel transport: `W` endpoints wired
/// all-to-all over `std::sync::mpsc` channels.
pub struct ChannelMesh;

impl ChannelMesh {
    /// Build a mesh of `endpoints` endpoints routing `universe` node ids.
    /// All routes start unbound.
    // A mesh constructor returns its endpoints, not a `ChannelMesh`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(endpoints: usize, universe: usize) -> Vec<ChannelTransport> {
        assert!(endpoints >= 1, "a mesh needs at least one endpoint");
        let table = Arc::new(RouteTable::new(universe));
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..endpoints).map(|_| mpsc::channel::<RecvFrame>()).unzip();
        receivers
            .into_iter()
            .enumerate()
            .map(|(index, rx)| ChannelTransport {
                index,
                table: Arc::clone(&table),
                peers: senders.clone(),
                rx,
                stats: TransportStats::default(),
            })
            .collect()
    }
}

/// An endpoint of a [`ChannelMesh`]: typed in-process delivery, one
/// unbounded mpsc channel per endpoint.
pub struct ChannelTransport {
    index: usize,
    table: Arc<RouteTable>,
    peers: Vec<Sender<RecvFrame>>,
    rx: Receiver<RecvFrame>,
    stats: TransportStats,
}

impl Transport for ChannelTransport {
    fn endpoint(&self) -> usize {
        self.index
    }

    fn endpoints(&self) -> usize {
        self.peers.len()
    }

    fn universe(&self) -> usize {
        self.table.routes.len()
    }

    fn bind(&self, node: NodeId, ep: usize) {
        if ep < self.peers.len() {
            self.table.bind(node, ep);
        }
    }

    fn unbind(&self, node: NodeId) {
        self.table.unbind(node);
    }

    fn send(&mut self, env: Envelope) -> Option<Vec<u8>> {
        let Some(ep) = self.table.lookup(env.to) else {
            self.stats.unroutable += 1;
            return Some(env.payload);
        };
        let frame = RecvFrame { from: env.from, to: env.to, payload: env.payload };
        match self.peers[ep].send(frame) {
            Ok(()) => {
                self.stats.sent += 1;
                None
            }
            // The peer endpoint was dropped (its worker exited): the
            // frame dies like any other unroutable one.
            Err(mpsc::SendError(frame)) => {
                self.stats.unroutable += 1;
                Some(frame.payload)
            }
        }
    }

    fn recv(&mut self, out: &mut Vec<RecvFrame>) -> usize {
        let mut n = 0;
        while let Ok(frame) = self.rx.try_recv() {
            out.push(frame);
            n += 1;
        }
        self.stats.delivered += n as u64;
        n
    }

    fn recv_wait(&mut self, wait: Duration, out: &mut Vec<RecvFrame>) -> usize {
        match self.rx.recv_timeout(wait) {
            Ok(frame) => {
                out.push(frame);
                let n = 1 + self.recv(out);
                self.stats.delivered += 1; // recv() counted the drained rest
                n
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => 0,
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// UDP loopback mesh
// ---------------------------------------------------------------------

/// Encode `env` as a datagram into `buf` (cleared first): 8-byte
/// preamble, then the frame payload.
pub fn encode_datagram(env: &Envelope, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&env.from.to_le_bytes());
    buf.extend_from_slice(&env.to.to_le_bytes());
    buf.extend_from_slice(&env.payload);
}

/// What one received datagram turned out to be. Decoding is total: any
/// byte string maps to exactly one variant, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramCheck<'a> {
    /// Well-formed preamble with in-universe ids; the frame payload
    /// follows (possibly empty — the runtime's own header check handles
    /// truncated frames).
    Frame {
        /// Claimed sender.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// `FrameHeader ++ codec` bytes.
        payload: &'a [u8],
    },
    /// Shorter than the preamble.
    Truncated,
    /// Sender id outside `0..universe`.
    UnknownSender,
    /// Destination id outside `0..universe`.
    UnknownDest,
}

/// Classify one datagram against a node universe of size `universe`.
pub fn decode_datagram(bytes: &[u8], universe: usize) -> DatagramCheck<'_> {
    if bytes.len() < DGRAM_PREAMBLE_BYTES {
        return DatagramCheck::Truncated;
    }
    let from = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let to = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if from as usize >= universe {
        return DatagramCheck::UnknownSender;
    }
    if to as usize >= universe {
        return DatagramCheck::UnknownDest;
    }
    DatagramCheck::Frame { from, to, payload: &bytes[DGRAM_PREAMBLE_BYTES..] }
}

/// Constructor for the UDP loopback transport: one socket per endpoint,
/// node-id → endpoint routes resolved to socket addresses at send time.
pub struct UdpMesh;

impl UdpMesh {
    /// Bind `endpoints` sockets on `127.0.0.1` (OS-assigned ports) and
    /// wire them into a mesh routing `universe` node ids.
    // A mesh constructor returns its endpoints, not a `UdpMesh`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(endpoints: usize, universe: usize) -> std::io::Result<Vec<UdpTransport>> {
        assert!(endpoints >= 1, "a mesh needs at least one endpoint");
        let table = Arc::new(RouteTable::new(universe));
        let sockets: Vec<UdpSocket> = (0..endpoints)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr()).collect::<std::io::Result<_>>()?;
        sockets
            .into_iter()
            .enumerate()
            .map(|(index, socket)| {
                socket.set_nonblocking(true)?;
                Ok(UdpTransport {
                    index,
                    table: Arc::clone(&table),
                    peer_addrs: addrs.clone(),
                    socket,
                    dgram_buf: Vec::with_capacity(1024),
                    recv_buf: vec![0u8; MAX_DATAGRAM_BYTES],
                    stats: TransportStats::default(),
                })
            })
            .collect()
    }
}

/// An endpoint of a [`UdpMesh`]: one non-blocking loopback socket whose
/// ingest loop treats every datagram as untrusted bytes.
pub struct UdpTransport {
    index: usize,
    table: Arc<RouteTable>,
    peer_addrs: Vec<SocketAddr>,
    socket: UdpSocket,
    dgram_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    stats: TransportStats,
}

impl UdpTransport {
    /// The socket address this endpoint receives on (test support: lets
    /// a fuzzer aim raw datagrams at the ingest path).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Classify + enqueue one received datagram of `len` bytes.
    fn ingest(&mut self, len: usize, out: &mut Vec<RecvFrame>) -> bool {
        match decode_datagram(&self.recv_buf[..len], self.table.routes.len()) {
            DatagramCheck::Frame { from, to, payload } => {
                out.push(RecvFrame { from, to, payload: payload.to_vec() });
                self.stats.delivered += 1;
                true
            }
            DatagramCheck::Truncated => {
                self.stats.malformed += 1;
                false
            }
            DatagramCheck::UnknownSender => {
                self.stats.unknown_sender += 1;
                false
            }
            DatagramCheck::UnknownDest => {
                self.stats.unknown_dest += 1;
                false
            }
        }
    }

    /// Drain the socket without blocking; returns frames appended.
    fn drain_socket(&mut self, out: &mut Vec<RecvFrame>) -> usize {
        let mut n = 0;
        loop {
            // The buffer is a field, so borrow it around the call.
            let mut buf = std::mem::take(&mut self.recv_buf);
            let res = self.socket.recv_from(&mut buf);
            self.recv_buf = buf;
            match res {
                Ok((len, _addr)) => {
                    if self.ingest(len, out) {
                        n += 1;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return n;
                }
                // Transient ICMP-driven errors on connected sockets
                // don't apply to unconnected recv_from; treat anything
                // else as "no more frames now" rather than dying.
                Err(_) => return n,
            }
        }
    }
}

impl Transport for UdpTransport {
    fn endpoint(&self) -> usize {
        self.index
    }

    fn endpoints(&self) -> usize {
        self.peer_addrs.len()
    }

    fn universe(&self) -> usize {
        self.table.routes.len()
    }

    fn bind(&self, node: NodeId, ep: usize) {
        if ep < self.peer_addrs.len() {
            self.table.bind(node, ep);
        }
    }

    fn unbind(&self, node: NodeId) {
        self.table.unbind(node);
    }

    fn send(&mut self, env: Envelope) -> Option<Vec<u8>> {
        let Some(ep) = self.table.lookup(env.to) else {
            self.stats.unroutable += 1;
            return Some(env.payload);
        };
        if env.payload.len() + DGRAM_PREAMBLE_BYTES > MAX_DATAGRAM_BYTES {
            self.stats.malformed += 1;
            return Some(env.payload);
        }
        let mut dgram = std::mem::take(&mut self.dgram_buf);
        encode_datagram(&env, &mut dgram);
        let sent = self.socket.send_to(&dgram, self.peer_addrs[ep]);
        self.dgram_buf = dgram;
        match sent {
            Ok(_) => self.stats.sent += 1,
            // A full socket buffer behaves like frame loss on a real
            // link; gossip is built to survive exactly this.
            Err(_) => self.stats.unroutable += 1,
        }
        Some(env.payload)
    }

    fn recv(&mut self, out: &mut Vec<RecvFrame>) -> usize {
        let _ = self.socket.set_nonblocking(true);
        self.drain_socket(out)
    }

    fn recv_wait(&mut self, wait: Duration, out: &mut Vec<RecvFrame>) -> usize {
        if wait.is_zero() {
            return self.recv(out);
        }
        let _ = self.socket.set_nonblocking(false);
        // A zero timeout would mean "block forever"; clamp up.
        let _ = self.socket.set_read_timeout(Some(wait.max(Duration::from_millis(1))));
        let mut n = 0;
        let mut buf = std::mem::take(&mut self.recv_buf);
        let res = self.socket.recv_from(&mut buf);
        self.recv_buf = buf;
        if let Ok((len, _)) = res {
            if self.ingest(len, out) {
                n += 1;
            }
        }
        let _ = self.socket.set_nonblocking(true);
        n + self.drain_socket(out)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: NodeId, to: NodeId, bytes: &[u8]) -> Envelope {
        Envelope { from, to, payload: bytes.to_vec(), raw_bytes: bytes.len() }
    }

    #[test]
    fn channel_mesh_routes_by_table() {
        let mut mesh = ChannelMesh::new(2, 8);
        mesh[0].bind(5, 1);
        let buf = mesh[0].send(env(1, 5, b"abc"));
        assert!(buf.is_none(), "channel carrier moves the buffer itself");
        let mut out = Vec::new();
        assert_eq!(mesh[1].recv(&mut out), 1);
        assert_eq!(out[0], RecvFrame { from: 1, to: 5, payload: b"abc".to_vec() });
    }

    #[test]
    fn unbound_destination_is_counted_and_dropped() {
        let mut mesh = ChannelMesh::new(2, 4);
        let buf = mesh[0].send(env(0, 3, b"xy"));
        assert_eq!(buf, Some(b"xy".to_vec()), "dropped frames hand the buffer back");
        assert_eq!(mesh[0].stats().unroutable, 1);
        let mut out = Vec::new();
        assert_eq!(mesh[1].recv(&mut out), 0);
    }

    #[test]
    fn datagram_roundtrip_and_rejects() {
        let e = env(3, 4, &[1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        encode_datagram(&e, &mut buf);
        assert_eq!(buf.len(), DGRAM_PREAMBLE_BYTES + 5);
        match decode_datagram(&buf, 8) {
            DatagramCheck::Frame { from, to, payload } => {
                assert_eq!((from, to), (3, 4));
                assert_eq!(payload, &[1, 2, 3, 4, 5]);
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        assert_eq!(decode_datagram(&buf[..7], 8), DatagramCheck::Truncated);
        assert_eq!(decode_datagram(&buf, 3), DatagramCheck::UnknownSender);
        assert_eq!(decode_datagram(&buf, 4), DatagramCheck::UnknownDest);
        let e_bad_dest = env(0, 9, &[]);
        let mut buf2 = Vec::new();
        encode_datagram(&e_bad_dest, &mut buf2);
        assert_eq!(decode_datagram(&buf2, 4), DatagramCheck::UnknownDest);
    }

    #[test]
    fn udp_mesh_delivers_over_loopback() {
        let mut mesh = UdpMesh::new(2, 4).expect("bind loopback sockets");
        mesh[0].bind(2, 1);
        let buf = mesh[0].send(env(0, 2, b"frame"));
        assert_eq!(buf, Some(b"frame".to_vec()), "udp serializes; buffer comes back");
        let mut out = Vec::new();
        let got = mesh[1].recv_wait(Duration::from_millis(500), &mut out);
        assert_eq!(got, 1);
        assert_eq!(out[0], RecvFrame { from: 0, to: 2, payload: b"frame".to_vec() });
        assert_eq!(mesh[0].stats().sent, 1);
        assert_eq!(mesh[1].stats().delivered, 1);
    }

    #[test]
    fn rebind_redirects_between_sends() {
        let mut mesh = ChannelMesh::new(3, 4);
        mesh[0].bind(1, 1);
        assert!(mesh[0].send(env(0, 1, b"a")).is_none());
        mesh[2].bind(1, 2); // any endpoint may edit the shared table
        assert!(mesh[0].send(env(0, 1, b"b")).is_none());
        let mut out = Vec::new();
        mesh[1].recv(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, b"a");
        out.clear();
        mesh[2].recv(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, b"b");
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let a = TransportStats { sent: 1, delivered: 2, unroutable: 3, ..Default::default() };
        let mut b = TransportStats {
            malformed: 4,
            unknown_sender: 5,
            unknown_dest: 6,
            sent: 1,
            ..Default::default()
        };
        b.absorb(&a);
        assert_eq!(b.sent, 2);
        assert_eq!(b.delivered, 2);
        assert_eq!(b.unroutable, 3);
        assert_eq!(b.rejected(), 15);
    }
}
