//! Pluggable IO boundary for the threaded runtime: the replica loop and
//! the client handles speak to a [`Transport`], never to a queue or a
//! socket directly, so the *same* engine loop runs behind shared memory
//! ([`MemTransport`], qc-channel SPSC queues) or real sockets
//! ([`TcpTransport`], loopback TCP with the `onepaxos::wire` framed
//! binary codec).
//!
//! # Addressing
//!
//! A destination is a [`Peer`] — `(NodeId, topic)`. The topic is the
//! shard-group channel: the shared-memory transport maps each topic to
//! its own SPSC queue pair (preserving the one-queue-per-group layout of
//! §6.1), while TCP multiplexes all topics over one connection per
//! process pair and carries the topic inside each frame.
//!
//! # TCP frame layout
//!
//! Every TCP message is one `onepaxos::wire` frame (magic `0xC51D`,
//! version, length — see [`onepaxos::wire::write_frame`]) whose payload
//! is the destination topic (`u16` LE) followed by the
//! [`Codec`]-encoded [`Wire`] message. The first frame on every
//! connection is a *hello* whose payload is the dialing process's
//! [`NodeId`], which is how the accepting side learns who is talking.

use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use onepaxos::wire::{self, Codec, DecodeError, Reader, RecvBuf, SendQueue};
use onepaxos::NodeId;
use qc_channel::{Mailbox, Receiver, Sender};

use crate::wire::Wire;

/// A peer address on the wire: who, on which shard-group topic.
pub type Peer = (NodeId, u16);

/// Counters a transport keeps about its own connection lifecycle and
/// the frames it drops, surfaced so deployments can observe failure
/// handling (the replica loop republishes them into
/// [`crate::NodeMetrics`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections re-established after a failure: successful redials
    /// on the dialer side, replacement accepts on the listener side.
    pub reconnects: u64,
    /// Connections torn down for any reason — EOF, IO error, corrupt
    /// frame, or injected kill.
    pub conn_kills: u64,
    /// The subset of `conn_kills` caused by an undecodable frame or
    /// payload (a framed stream cannot be resynchronised by guessing,
    /// so the connection is cut and redialed from scratch).
    pub corrupt_frames: u64,
    /// Listener `accept(2)` calls made by the maintenance pass. The
    /// sweep runs at most once per accept interval and makes one call
    /// per pending connection plus the one that finds the backlog
    /// empty, so on an idle endpoint this grows with wall time, never
    /// with event-loop passes.
    pub accept_polls: u64,
    /// Frames dropped at send because the destination's backlog was
    /// full (the in-process transport caps each `(peer, topic)` backlog;
    /// see [`MemTransport`]). A lagging receiver recovers through the
    /// protocols' retransmissions and snapshot catch-up.
    pub shed: u64,
}

/// The IO boundary the replica loop and client handles are written
/// against.
///
/// # Delivery contract
///
/// The engines assume exactly what the paper's in-machine channels give
/// them, no more:
///
/// * **Per-peer FIFO order** — messages from one process to another on
///   one topic arrive in send order. Order across topics or across
///   senders is unspecified.
/// * **At-most-once delivery** — a transport never duplicates a
///   message. It may *drop* messages (a full backlog that sheds new
///   frames, a full queue whose sender exits, a closed socket), and
///   counts the drops it makes itself in [`TransportStats`]: every
///   protocol in the tree already tolerates loss through retransmission
///   timers (a replica that falls too far behind catches up by snapshot
///   install), but none tolerates duplication of its client requests
///   without the engines' dedup records.
/// * **Non-blocking** — [`send`](Transport::send) buffers instead of
///   blocking when the link is busy ([`flush`](Transport::flush)
///   retries), and [`recv`](Transport::recv) returns `None` instead of
///   waiting, so one slow peer can never wedge a replica's event loop.
/// * **Failures are transient** — a broken link (EOF, IO error, corrupt
///   frame) is a *blip*, never a permanent partition: the transport
///   repairs it in the background (redial with capped exponential
///   backoff on the dialer side, replacement accepts on the listener
///   side) while the frames in flight across the gap are simply lost —
///   which the may-drop/at-most-once contract above already allows, so
///   reconnection is invisible to the protocols beyond a retransmission
///   timeout. This mirrors the paper's failure model: "crash" models
///   *slow* cores and suspicion is never permanent (§1 fn. 3, the
///   `onepaxos::failure::FailureDetector` contract).
pub trait Transport<M>: Send {
    /// Queues `msg` for `(to, topic)`. Never blocks: if the link is
    /// full the message is buffered and retried by [`flush`]
    /// (Transport::flush). Messages to unknown peers are dropped.
    fn send(&mut self, to: NodeId, topic: u16, msg: Wire<M>);

    /// Retries buffered sends. Returns `true` while anything remains
    /// buffered.
    fn flush(&mut self) -> bool;

    /// Non-blocking receive: the next inbound message and its sender,
    /// or `None` if nothing is waiting.
    fn recv(&mut self) -> Option<(Peer, Wire<M>)>;

    /// Sweeps ready inbound traffic into the transport's local inbox in
    /// one pass, for transports whose `recv` otherwise pays IO per call.
    /// An event loop calls this once per iteration and then drains with
    /// [`recv_ready`](Transport::recv_ready) — on TCP that is one
    /// `read(2)` sweep per iteration instead of one per message miss.
    /// Default: no-op (queue transports have nothing to sweep).
    fn pump(&mut self) {}

    /// Pops a message already swept in by [`pump`](Transport::pump)
    /// without doing IO. Default: plain [`recv`](Transport::recv), which
    /// is correct for transports where receiving never syscalls.
    fn recv_ready(&mut self) -> Option<(Peer, Wire<M>)> {
        self.recv()
    }

    /// Blocking receive with a deadline: flushes and polls until a
    /// message arrives or `deadline` passes.
    ///
    /// The default implementation spins briefly (a message in flight on
    /// loopback arrives within microseconds) and then backs off into
    /// escalating sleeps, so a caller parked on a long deadline
    /// deschedules instead of burning its core polling — on a machine
    /// with fewer cores than threads, a spinning waiter would steal the
    /// very cycles the replica needs to produce the awaited reply.
    fn recv_deadline(&mut self, deadline: Instant) -> Option<(Peer, Wire<M>)> {
        let mut spins = 0u32;
        let mut nap = IDLE_NAP_FLOOR;
        loop {
            self.flush();
            if let Some(m) = self.recv() {
                return Some(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if spins < IDLE_SPINS {
                spins += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(nap.min(deadline - now));
                nap = (nap * 2).min(IDLE_NAP_CEIL);
            }
        }
    }

    /// [`recv_deadline`](Transport::recv_deadline) with a sender hint:
    /// the caller has just issued a request to `from` and expects the
    /// answer from there (a synchronous client awaiting its reply). A
    /// socket transport parks in a blocking read on that peer's
    /// connection — the kernel wakes it the moment the reply's bytes
    /// arrive, with zero empty polls — instead of spinning. Messages
    /// from other peers are still delivered (the hint is an
    /// optimisation, not a filter). Default: ignore the hint.
    fn recv_from_deadline(&mut self, _from: NodeId, deadline: Instant) -> Option<(Peer, Wire<M>)> {
        self.recv_deadline(deadline)
    }

    /// The transport's connection-lifecycle and shed counters. The
    /// default is all-zero, for transports with nothing to count.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Fault injection: violently severs the link to `peer` as if the
    /// connection died, exercising the transport's own repair path
    /// (redial with backoff, or a replacement accept from the peer).
    /// Frames in flight are lost — exactly what the delivery contract
    /// already permits. Default: no-op (queue links cannot break).
    fn kill_peer_link(&mut self, _peer: NodeId) {}
}

/// SplitMix64 step — the deterministic PRNG behind reconnect/retry
/// jitter and the seeded fault schedules (same generator as the shard
/// router's key hash).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Polls before the first sleep in [`Transport::recv_deadline`]. Covers
/// the common case — a reply already crossing loopback — without ever
/// descheduling.
pub const IDLE_SPINS: u32 = 64;

/// Narrows this thread's kernel timer slack to 1 µs, best-effort.
///
/// Linux pads every `nanosleep` by the thread's timer slack — 50 µs by
/// default — to coalesce wakeups. The idle backoffs here sleep in the
/// 5–250 µs range, and a 50 µs pad on a 5 µs nap turns the backoff into
/// a latency cliff (most visible when replicas and clients timeshare a
/// core and wake each other constantly). Threads inherit the value from
/// their spawner, so the cluster builders call this once on the spawning
/// thread before starting replica threads. Failure (procfs unavailable,
/// old kernel) is ignored: the backoff still works, just coarser.
pub(crate) fn tighten_timer_slack() {
    if std::fs::write("/proc/thread-self/timerslack_ns", "1000").is_err() {
        let _ = std::fs::write("/proc/self/timerslack_ns", "1000");
    }
}

/// First sleep once the spin budget is exhausted.
pub const IDLE_NAP_FLOOR: Duration = Duration::from_micros(5);

/// Ceiling on the escalating idle sleep: long enough to drop idle CPU to
/// noise, short enough that no protocol timer (hundreds of µs and up)
/// misses its beat by more than this.
pub const IDLE_NAP_CEIL: Duration = Duration::from_micros(250);

// ---------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------

/// The qc-channel transport: one lock-free SPSC queue per direction per
/// `(peer, topic)` link — exactly the runtime's original IO layer, now
/// behind the trait. Overflow on a full 7-slot queue is buffered at the
/// sender so the event loop never blocks.
///
/// The buffer is bounded: once a link's backlog holds [`MEM_BACKLOG_CAP`]
/// frames, further sends to that link are shed (dropped and counted in
/// [`TransportStats::shed`]) until the receiver drains. Without the cap a
/// receiver slower than its sender — a passive learner on an
/// oversubscribed machine — grows the sender's memory without bound;
/// with it the receiver simply falls behind and rejoins through the
/// gap → snapshot-request → install path.
pub struct MemTransport<M> {
    senders: BTreeMap<Peer, Sender<Wire<M>>>,
    backlog: BTreeMap<Peer, VecDeque<Wire<M>>>,
    mailbox: Mailbox<Peer, Wire<M>>,
    stats: TransportStats,
}

/// Frames a [`MemTransport`] buffers per `(peer, topic)` link behind a
/// full queue before it sheds new sends.
const MEM_BACKLOG_CAP: usize = 1024;

impl<M> MemTransport<M> {
    /// A connected pair of single-peer shared-memory transports with
    /// `topics` queue pairs per direction — the deterministic harness
    /// the seeded fault-injection tests drive without standing up a
    /// cluster (the queue analogue of [`TcpTransport::pair`]).
    pub fn pair(a: NodeId, b: NodeId, topics: u16) -> (Self, Self) {
        let mut a_send = BTreeMap::new();
        let mut b_send = BTreeMap::new();
        let mut a_recv = Vec::new();
        let mut b_recv = Vec::new();
        for t in 0..topics {
            let (tx, rx) = qc_channel::spsc::channel(qc_channel::DEFAULT_SLOTS);
            a_send.insert((b, t), tx);
            b_recv.push(((a, t), rx));
            let (tx, rx) = qc_channel::spsc::channel(qc_channel::DEFAULT_SLOTS);
            b_send.insert((a, t), tx);
            a_recv.push(((b, t), rx));
        }
        (Self::new(a_send, a_recv), Self::new(b_send, b_recv))
    }

    /// Builds the transport from one process's half of the mesh.
    pub(crate) fn new(
        senders: BTreeMap<Peer, Sender<Wire<M>>>,
        receivers: Vec<(Peer, Receiver<Wire<M>>)>,
    ) -> Self {
        let mut mailbox = Mailbox::new();
        for (peer, rx) in receivers {
            mailbox.add_peer(peer, rx);
        }
        MemTransport {
            senders,
            backlog: BTreeMap::new(),
            mailbox,
            stats: TransportStats::default(),
        }
    }
}

impl<M> std::fmt::Debug for MemTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTransport")
            .field("peers", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl<M: Send> Transport<M> for MemTransport<M> {
    fn send(&mut self, to: NodeId, topic: u16, msg: Wire<M>) {
        let Some(tx) = self.senders.get(&(to, topic)) else {
            return; // unknown peer: drop (e.g. client already gone)
        };
        let back = self.backlog.entry((to, topic)).or_default();
        if back.is_empty() {
            if let Err(qc_channel::Full(m)) = tx.try_send(msg) {
                back.push_back(m);
            }
        } else if back.len() < MEM_BACKLOG_CAP {
            back.push_back(msg);
        } else {
            self.stats.shed += 1;
        }
    }

    fn flush(&mut self) -> bool {
        let mut pending = false;
        for (addr, q) in self.backlog.iter_mut() {
            let Some(tx) = self.senders.get(addr) else {
                q.clear();
                continue;
            };
            while let Some(m) = q.pop_front() {
                if let Err(qc_channel::Full(m)) = tx.try_send(m) {
                    q.push_front(m);
                    pending = true;
                    break;
                }
            }
        }
        pending
    }

    fn recv(&mut self) -> Option<(Peer, Wire<M>)> {
        self.mailbox.poll()
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Most [`IoSlice`]s handed to one `write_vectored` call. Linux caps a
/// vectored write at `IOV_MAX` (1024); 64 covers every realistic flush
/// window (segments are 32 KiB soft-capped, so 64 slices is ~2 MiB) from
/// a stack array.
const MAX_IOV: usize = 64;

/// Unsent-byte threshold above which `send` sheds to the socket inline
/// instead of waiting for the next `flush` — backpressure for a peer
/// that has stopped reading.
const SEND_HIGH_WATER: usize = 256 * 1024;

/// Longest single blocking park in
/// [`Transport::recv_from_deadline`]: bounds how stale the nonblocking
/// sweep of the *other* connections can get while parked on the hinted
/// one.
const PARK_SLICE: Duration = Duration::from_millis(1);

/// Write timeout armed on every connection at creation. Nonblocking
/// sockets ignore it; it only bites for writes made while a connection
/// is parked in blocking mode, turning a peer that has stopped reading
/// into a retryable timeout instead of a hang.
const WRITE_STALL: Duration = Duration::from_secs(1);

/// Empty read sweeps before a connection counts as cold. Cold
/// connections are probed only every [`COLD_EVERY`]th sweep: an idle
/// replica's spin loop stops paying an empty `read(2)` per connection
/// per iteration, and an acceptor stops sweeping client connections
/// that never talk to it.
const COLD_AFTER: u32 = 2;

/// Sweep period for cold connections. Bounds the discovery delay for a
/// peer that starts talking again to [`COLD_EVERY`] event-loop
/// iterations — yields or naps, so microseconds when traffic resumes.
const COLD_EVERY: u32 = 4;

/// First redial delay after a connection dies. Loopback connects are
/// microseconds, so the first attempt is nearly immediate; the delay
/// exists to stop a hard-down peer from turning the event loop into a
/// connect-storm.
const RECONNECT_BASE: Duration = Duration::from_micros(500);

/// Ceiling on the exponential redial backoff: a peer that stays down
/// costs one refused `connect(2)` per this interval, and a peer coming
/// back is discovered within it.
const RECONNECT_CAP: Duration = Duration::from_millis(64);

/// Messages buffered per reconnecting peer while its link is being
/// repaired; they ride the fresh connection the moment the redial
/// lands. Overflow drops the oldest — a legal drop under the delivery
/// contract, and the newest traffic (retransmissions, shutdown fan-out)
/// is what matters after a gap.
const RECONNECT_PENDING_CAP: usize = 64;

/// Patience for the hello frame on a runtime-accepted connection. The
/// dialer writes its hello before the connect is even observable here,
/// so on loopback this never waits; the bound protects the event loop
/// from a rogue dialer that connects and says nothing.
const HELLO_TIMEOUT: Duration = Duration::from_millis(250);

/// Interval between listener sweeps on a running transport. The sweep
/// almost always finds the backlog empty, and at several µs per
/// syscall an empty `accept(2)` on every flush and pump would cost more
/// than the rest of the pass; on this timer it is one syscall per
/// interval instead. A peer's
/// runtime (re)connection waits at most one interval to be adopted —
/// small next to the [`RECONNECT_BASE`]–[`RECONNECT_CAP`] redial
/// backoff that precedes it.
const ACCEPT_EVERY: Duration = Duration::from_millis(1);

/// One nonblocking loopback connection to a peer process.
///
/// Receive side: the socket reads **directly into** the [`RecvBuf`]'s
/// segment tail and complete frames slice out as `Chunk`s — a frame's
/// bytes are touched once between the kernel and the codec (the old
/// scratch-buffer copy and `rbuf.drain(..rpos)` compaction are gone).
/// Send side: frames encode into the [`SendQueue`]'s pooled segments
/// and drain through vectored writes, so one syscall carries a whole
/// flush window. Both sides recycle their buffers: steady-state IO
/// allocates nothing.
struct TcpConn {
    peer: NodeId,
    stream: TcpStream,
    recv: RecvBuf,
    send: SendQueue,
    /// Socket is in blocking mode with a [`PARK_SLICE`] read timeout —
    /// the client-side wait state. Cached so steady-state parking costs
    /// zero `setsockopt` calls; any generic sweep restores nonblocking
    /// mode lazily through [`TcpConn::unpark`].
    parked: bool,
    /// Consecutive read sweeps that produced no frames; at
    /// [`COLD_AFTER`] the connection drops out of the per-iteration
    /// sweep and is probed every [`COLD_EVERY`]th pass instead.
    cold: u32,
    /// Set on EOF, IO error, or a corrupt frame. A dead connection is
    /// *terminal for the socket, not for the peer pair*: the next
    /// [`TcpTransport::maintain`] pass reaps the slot and either
    /// schedules a redial (dialer side) or waits for the peer to redial
    /// through the listener (acceptor side).
    dead: bool,
    /// The death was an undecodable frame rather than an IO failure —
    /// counted separately in [`TransportStats::corrupt_frames`].
    corrupt: bool,
}

impl TcpConn {
    fn new(peer: NodeId, stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        // Inert while nonblocking; bounds writes made while parked, so a
        // stalled peer surfaces as a timed-out write instead of a hang.
        stream.set_write_timeout(Some(WRITE_STALL))?;
        Ok(TcpConn {
            peer,
            stream,
            recv: RecvBuf::new(),
            send: SendQueue::new(),
            parked: false,
            cold: 0,
            dead: false,
            corrupt: false,
        })
    }

    /// Tries to push queued outbound bytes with vectored writes; returns
    /// whether any remain.
    fn try_write(&mut self) -> bool {
        while !self.send.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let n = self.send.slices(&mut iov);
            match self.stream.write_vectored(&iov[..n]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(written) => self.send.consume(written),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.dead {
            self.send.clear();
        }
        !self.send.is_empty()
    }

    /// Decodes every complete buffered frame into `inbox`. The chunk a
    /// frame slices out as aliases the receive segment — the codec reads
    /// the socket's bytes in place, and the chunk drops as soon as the
    /// typed message is built, freeing the segment for the next fill. A
    /// corrupt frame or payload kills the connection (a framed stream
    /// cannot be resynchronised by guessing); the reconnect lifecycle
    /// then re-establishes the peer pair from a clean stream, so one
    /// garbled frame costs a retransmission window, not the peer.
    fn drain_frames<M: Codec>(&mut self, inbox: &mut VecDeque<(Peer, Wire<M>)>) {
        loop {
            match self.recv.next_frame() {
                Ok(Some(frame)) => {
                    let mut r = Reader::new(&frame);
                    match decode_payload::<M>(&mut r) {
                        Ok((topic, msg)) => inbox.push_back(((self.peer, topic), msg)),
                        Err(_) => {
                            self.dead = true;
                            self.corrupt = true;
                            return;
                        }
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.dead = true;
                    self.corrupt = true;
                    return;
                }
            }
        }
    }

    /// Parks in a blocking read for up to [`PARK_SLICE`], delivering any
    /// bytes into the receive buffer. Returns whether any arrived. The
    /// thread leaves the run queue entirely — on a shared core this is
    /// what hands the CPU to the peer that must produce the awaited
    /// bytes — and the kernel wakes it the instant data lands. The
    /// blocking-with-timeout mode *sticks* between calls (steady-state
    /// parking makes no `setsockopt` calls at all); the next generic
    /// sweep restores nonblocking mode through [`TcpConn::unpark`].
    fn park_fill(&mut self) -> bool {
        if !self.parked {
            if self.stream.set_read_timeout(Some(PARK_SLICE)).is_err()
                || self.stream.set_nonblocking(false).is_err()
            {
                return false;
            }
            self.parked = true;
        }
        let tail = self.recv.writable();
        match self.stream.read(tail) {
            Ok(0) => {
                self.dead = true;
                false
            }
            Ok(n) => {
                self.recv.commit(n);
                true
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                false
            }
            Err(_) => {
                self.dead = true;
                false
            }
        }
    }

    /// Restores nonblocking mode if a previous [`TcpConn::park_fill`]
    /// left the socket blocking. Cached: the common case is a no-op.
    fn unpark(&mut self) {
        if self.parked {
            if self.stream.set_nonblocking(true).is_err() {
                self.dead = true;
            }
            self.parked = false;
        }
    }

    /// Reads available bytes straight into the receive buffer's segment
    /// tail — no intermediate scratch copy.
    fn fill(&mut self) {
        self.unpark();
        loop {
            let tail = self.recv.writable();
            let cap = tail.len();
            match self.stream.read(tail) {
                Ok(0) => {
                    self.dead = true; // peer closed
                    return;
                }
                Ok(n) => {
                    self.recv.commit(n);
                    if n < cap {
                        // Short read: the socket buffer is drained;
                        // skip the WouldBlock confirmation syscall.
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// Dialer-side reconnect state for one peer whose connection died:
/// capped exponential backoff between redial attempts, plus a bounded
/// buffer of frames sent across the gap that will ride the fresh
/// connection (anything beyond the cap is dropped, as the delivery
/// contract allows).
struct Redial<M> {
    peer: NodeId,
    addr: SocketAddr,
    next_attempt: Instant,
    attempt: u32,
    pending: VecDeque<(u16, Wire<M>)>,
}

/// The socket transport: one loopback TCP connection per peer process,
/// all shard-group topics multiplexed over it, every message a
/// length-prefixed `onepaxos::wire` frame. `send` coalesces frames into
/// per-connection segment queues drained by vectored writes; the receive
/// path decodes frames in place from `Arc`-backed segments.
///
/// # Connection lifecycle
///
/// A connection is **live** until EOF, an IO error, a corrupt frame, or
/// an injected [`Transport::kill_peer_link`] marks it dead; the next
/// maintenance pass (every [`Transport::flush`]/[`Transport::pump`])
/// reaps the slot — the conn table never accumulates a graveyard. The
/// same pass fires due redials; the listener, though, is swept only
/// once per [`ACCEPT_EVERY`], so an inbound (re)connection is adopted
/// within one interval of landing in the backlog. What
/// happens next depends on which side of the original handshake this
/// endpoint was:
///
/// * **Dialer** (this endpoint connected): the peer moves to a
///   **backoff** state and is redialed with capped exponential backoff
///   plus jitter ([`RECONNECT_BASE`] → [`RECONNECT_CAP`]), re-running
///   the hello-frame handshake. Frames sent meanwhile are buffered (up
///   to [`RECONNECT_PENDING_CAP`]) and ride the fresh connection.
/// * **Acceptor** (the peer connected): the slot is simply purged; the
///   peer redials through this endpoint's listener, and the next timed
///   accept sweep installs the replacement — superseding any stale
///   slot for that peer. A pending connection that fails its hello
///   (hung up, silent past [`HELLO_TIMEOUT`], bad frame) is dropped and
///   the sweep moves on, so it never delays the good one behind it.
///
/// Frames lost across the gap are covered by the trait's may-drop
/// contract; the protocols' retransmission timers absorb the blip.
pub struct TcpTransport<M> {
    /// This endpoint's identity, sent in the hello frame on every
    /// (re)dial.
    me: NodeId,
    conns: Vec<TcpConn>,
    inbox: VecDeque<(Peer, Wire<M>)>,
    next_read: usize,
    /// Read-sweep sequence number; cold connections are probed on every
    /// [`COLD_EVERY`]th tick of this counter.
    sweep_seq: u32,
    /// Peers this endpoint dialed and therefore owns reconnection for.
    dial_addrs: BTreeMap<NodeId, SocketAddr>,
    /// Peers currently between connections, waiting on a redial.
    backoff: Vec<Redial<M>>,
    /// Accept side of the reconnect lifecycle: present on replica
    /// transports, swept nonblockingly by the maintenance pass so a
    /// peer (or a restarted replica's clients) can re-establish at any
    /// time — not just during setup.
    listener: Option<TcpListener>,
    /// Earliest instant of the next listener sweep; passes before it
    /// skip `accept(2)` entirely.
    next_accept: Instant,
    stats: TransportStats,
    /// Jitter state for redial backoff (seeded from `me`, so the
    /// schedule is deterministic per node).
    rng: u64,
}

impl<M> std::fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("peers", &self.conns.len())
            .field("backoff", &self.backoff.len())
            .field("inbox", &self.inbox.len())
            .finish_non_exhaustive()
    }
}

impl<M: Codec> TcpTransport<M> {
    fn new(
        me: NodeId,
        conns: Vec<TcpConn>,
        dial_addrs: BTreeMap<NodeId, SocketAddr>,
        listener: Option<TcpListener>,
    ) -> Self {
        if let Some(l) = &listener {
            // The blocking setup phase is over; from here on the accept
            // sweep must never stall the event loop.
            let _ = l.set_nonblocking(true);
        }
        let now = Instant::now();
        let mut t = TcpTransport {
            me,
            conns,
            inbox: VecDeque::new(),
            next_read: 0,
            sweep_seq: 0,
            dial_addrs,
            backoff: Vec::new(),
            listener,
            next_accept: now,
            stats: TransportStats::default(),
            rng: 0x5EED ^ ((me.0 as u64) << 17),
        };
        // Dial-owned peers without a live connection start in backoff,
        // due immediately — how a restarted replica rejoins its mesh.
        let missing: Vec<(NodeId, SocketAddr)> = t
            .dial_addrs
            .iter()
            .filter(|(p, _)| !t.conns.iter().any(|c| c.peer == **p))
            .map(|(&p, &a)| (p, a))
            .collect();
        for (peer, addr) in missing {
            t.backoff.push(Redial {
                peer,
                addr,
                next_attempt: now,
                attempt: 0,
                pending: VecDeque::new(),
            });
        }
        t
    }

    /// A connected pair of single-peer transports over loopback — the
    /// harness the allocation, reconnect and fault tests drive the real
    /// socket path through without standing up a cluster. The first
    /// transport is the dialer (it owns redial for the pair), the
    /// second the acceptor (it keeps the listener, so the pair heals
    /// after either side's connection dies).
    pub fn pair(a: NodeId, b: NodeId) -> std::io::Result<(Self, Self)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let dialed = Self::dial(a, b, addr)?;
        let accepted = Self::accept(&listener)?;
        let mut dial_addrs = BTreeMap::new();
        dial_addrs.insert(b, addr);
        Ok((
            Self::new(a, vec![dialed], dial_addrs, None),
            Self::new(b, vec![accepted], BTreeMap::new(), Some(listener)),
        ))
    }

    /// Dials `addr` and sends the hello frame identifying `me`.
    fn dial(me: NodeId, peer: NodeId, addr: SocketAddr) -> std::io::Result<TcpConn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut hello = Vec::with_capacity(wire::FRAME_HEADER + 2);
        wire::write_frame_with(&mut hello, |buf| me.encode(buf));
        stream.write_all(&hello)?;
        TcpConn::new(peer, stream)
    }

    /// Accepts one connection from `listener` (blocking during setup)
    /// and completes its [`handshake`](Self::handshake).
    fn accept(listener: &TcpListener) -> std::io::Result<TcpConn> {
        let (stream, _) = listener.accept()?;
        Self::handshake(stream)
    }

    /// Reads an accepted connection's hello frame to learn the dialer's
    /// identity. Blocks for at most [`HELLO_TIMEOUT`] — during setup the
    /// dialer's hello is already in flight, and at runtime (a
    /// reconnecting peer) it was written before the connect was
    /// observable here.
    fn handshake(mut stream: TcpStream) -> std::io::Result<TcpConn> {
        stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
        let mut header = [0u8; wire::FRAME_HEADER + 2];
        stream.read_exact(&mut header)?;
        let peer = match wire::read_frame(&header) {
            Ok(Some((payload, _))) => {
                let mut r = Reader::new(payload);
                NodeId::decode(&mut r)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            }
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "bad hello frame",
                ))
            }
        };
        TcpConn::new(peer, stream)
    }

    /// One read pass over the connections, decoding complete frames into
    /// the inbox. Starts at the connection that last produced traffic
    /// (for a client awaiting one reply, that makes the common poll a
    /// single `read(2)`); with `stop_on_frame`, the sweep ends at the
    /// first connection that yields frames instead of reading the rest.
    /// [`pump`](Transport::pump) always sweeps every connection, so no
    /// peer starves as long as the event loop keeps iterating.
    fn read_pass(&mut self, stop_on_frame: bool) {
        self.sweep_seq = self.sweep_seq.wrapping_add(1);
        let probe_cold = self.sweep_seq.is_multiple_of(COLD_EVERY);
        let n = self.conns.len();
        for step in 0..n {
            let i = (self.next_read + step) % n;
            let conn = &mut self.conns[i];
            if conn.dead || (conn.cold >= COLD_AFTER && !probe_cold) {
                continue;
            }
            let before = self.inbox.len();
            conn.fill();
            conn.drain_frames(&mut self.inbox);
            if self.inbox.len() > before {
                conn.cold = 0;
                // Bias the next sweep toward the talkative connection.
                self.next_read = i;
                if stop_on_frame {
                    return;
                }
            } else {
                conn.cold = conn.cold.saturating_add(1);
            }
        }
    }

    /// The connection-lifecycle maintenance pass, run from every
    /// [`flush`](Transport::flush) and [`pump`](Transport::pump):
    /// reaps dead connection slots, fires due redials, and — at most
    /// once per [`ACCEPT_EVERY`] — sweeps the listener for inbound
    /// (re)connections. With nothing broken this is a scan of the
    /// (tiny) conn table, plus a clock read on listener-owning
    /// transports and one nonblocking `accept(2)` per interval — no
    /// allocation, and no IO syscall on the passes in between.
    fn maintain(&mut self) {
        // Reap: a dead slot either moves its peer to backoff (we dialed
        // it) or is simply dropped (the peer will redial our listener).
        if self.conns.iter().any(|c| c.dead) {
            let now = Instant::now();
            let mut i = 0;
            while i < self.conns.len() {
                if !self.conns[i].dead {
                    i += 1;
                    continue;
                }
                let conn = self.conns.swap_remove(i);
                self.stats.conn_kills += 1;
                if conn.corrupt {
                    self.stats.corrupt_frames += 1;
                }
                if let Some(&addr) = self.dial_addrs.get(&conn.peer) {
                    if !self.backoff.iter().any(|r| r.peer == conn.peer) {
                        self.backoff.push(Redial {
                            peer: conn.peer,
                            addr,
                            next_attempt: now,
                            attempt: 0,
                            pending: VecDeque::new(),
                        });
                    }
                }
            }
            self.next_read = 0;
        }
        // Redial: each due entry gets one connect attempt per pass.
        if !self.backoff.is_empty() {
            let now = Instant::now();
            let me = self.me;
            let mut i = 0;
            while i < self.backoff.len() {
                if self.backoff[i].next_attempt > now {
                    i += 1;
                    continue;
                }
                let (peer, addr) = (self.backoff[i].peer, self.backoff[i].addr);
                match Self::dial(me, peer, addr) {
                    Ok(mut conn) => {
                        let mut r = self.backoff.swap_remove(i);
                        for (topic, msg) in r.pending.drain(..) {
                            conn.send.push_frame(|buf| {
                                topic.encode(buf);
                                msg.encode(buf);
                            });
                        }
                        self.conns.push(conn);
                        self.stats.reconnects += 1;
                    }
                    Err(_) => {
                        let attempt = self.backoff[i].attempt.saturating_add(1);
                        let delay = self.redial_delay(attempt);
                        let r = &mut self.backoff[i];
                        r.attempt = attempt;
                        r.next_attempt = now + delay;
                        i += 1;
                    }
                }
            }
        }
        // Accept: on the sweep timer, install inbound (re)connections,
        // superseding any stale slot for the same peer.
        let Some(listener) = &self.listener else {
            return;
        };
        let now = Instant::now();
        if now < self.next_accept {
            return;
        }
        self.next_accept = now + ACCEPT_EVERY;
        loop {
            self.stats.accept_polls += 1;
            // An empty backlog (`WouldBlock`) or a listener error such
            // as `EMFILE` ends the sweep; retrying now would only spin.
            let Ok((stream, _)) = listener.accept() else {
                break;
            };
            // A dialer that connected and hung up, or spoke a bad
            // hello: drop it and move on to the next pending connection.
            let Ok(conn) = Self::handshake(stream) else {
                continue;
            };
            if let Some(stale) = self.conns.iter().position(|c| c.peer == conn.peer) {
                self.conns.swap_remove(stale);
                self.next_read = 0;
            }
            // A redialing peer supersedes our own backoff entry for it
            // too (both sides may dial in a symmetric pair harness).
            self.backoff.retain(|r| r.peer != conn.peer);
            self.conns.push(conn);
            self.stats.reconnects += 1;
        }
    }

    /// Capped exponential backoff with deterministic jitter: attempt
    /// `n` waits `BASE << n` (capped), plus up to 25% more so a mesh of
    /// dialers does not thunder back in lockstep.
    fn redial_delay(&mut self, attempt: u32) -> Duration {
        let exp = RECONNECT_BASE.saturating_mul(1u32 << attempt.min(8).saturating_sub(1));
        let capped = exp.min(RECONNECT_CAP);
        let jitter = capped.mul_f64((splitmix64(&mut self.rng) % 256) as f64 / 1024.0);
        capped + jitter
    }

    /// Live connection count — the reconnect lifecycle's invariant is
    /// that this stays bounded by the peer count no matter how many
    /// times links die (no graveyard of terminal slots).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Peers currently between connections, waiting on a redial.
    pub fn backoff_count(&self) -> usize {
        self.backoff.len()
    }

    /// The address this endpoint's listener is bound to, if it keeps
    /// one (replica transports and the acceptor side of
    /// [`pair`](Self::pair)) — where a peer redials after a link dies.
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Test hook: queues a syntactically valid frame whose payload does
    /// not decode, so the receiving end exercises its corrupt-frame
    /// kill-and-reconnect path.
    #[doc(hidden)]
    pub fn inject_corrupt_frame(&mut self, to: NodeId) {
        if let Some(conn) = self.conns.iter_mut().find(|c| c.peer == to && !c.dead) {
            conn.send.push_frame(|buf| buf.push(0xFF));
        }
    }
}

/// Decodes one frame payload: destination topic, then the message.
fn decode_payload<M: Codec>(r: &mut Reader<'_>) -> Result<(u16, Wire<M>), DecodeError> {
    let topic = u16::decode(r)?;
    let msg = Wire::<M>::decode(r)?;
    if !r.is_empty() {
        return Err(DecodeError::Trailing(r.remaining()));
    }
    Ok((topic, msg))
}

impl<M: Codec + Send> Transport<M> for TcpTransport<M> {
    fn send(&mut self, to: NodeId, topic: u16, msg: Wire<M>) {
        let Some(conn) = self.conns.iter_mut().find(|c| c.peer == to && !c.dead) else {
            // Between connections: buffer a bounded window of traffic to
            // ride the redial. Anything else (unknown peer, acceptor
            // side waiting on the peer to redial) is dropped, as the
            // delivery contract allows.
            if let Some(r) = self.backoff.iter_mut().find(|r| r.peer == to) {
                r.pending.push_back((topic, msg));
                if r.pending.len() > RECONNECT_PENDING_CAP {
                    r.pending.pop_front();
                }
            }
            return;
        };
        conn.send.push_frame(|buf| {
            topic.encode(buf);
            msg.encode(buf);
        });
        // Coalesce: the bytes ride the next `flush` (every event loop
        // iterates send → flush), so back-to-back sends share one
        // vectored syscall. Only shed inline when a peer has stopped
        // reading and the queue is growing without bound.
        if conn.send.queued_bytes() >= SEND_HIGH_WATER {
            conn.try_write();
        }
    }

    fn flush(&mut self) -> bool {
        self.maintain();
        let mut pending = false;
        for conn in &mut self.conns {
            if !conn.dead && conn.try_write() {
                pending = true;
            }
        }
        // Messages parked behind a redial still count as unflushed work,
        // so bounded drain loops (shutdown fan-out) keep driving the
        // reconnect instead of declaring the queue empty.
        pending || self.backoff.iter().any(|r| !r.pending.is_empty())
    }

    fn recv(&mut self) -> Option<(Peer, Wire<M>)> {
        if self.inbox.is_empty() {
            self.read_pass(true);
        }
        self.inbox.pop_front()
    }

    fn pump(&mut self) {
        self.maintain();
        self.read_pass(false);
    }

    fn recv_ready(&mut self) -> Option<(Peer, Wire<M>)> {
        self.inbox.pop_front()
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Severs the connection to `peer` at the socket (both directions,
    /// so the peer sees EOF immediately too) and lets the maintenance
    /// pass drive the repair — redial from whichever side dialed.
    fn kill_peer_link(&mut self, peer: NodeId) {
        if let Some(conn) = self.conns.iter_mut().find(|c| c.peer == peer && !c.dead) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            conn.dead = true;
        }
        self.maintain();
    }

    /// Socket-aware wait: same spin-then-sleep shape as the default, but
    /// each empty poll here costs a `read(2)` per connection, so the
    /// spin phase yields the core several times between polls. On a
    /// machine where replicas and clients timeshare cores, those yields
    /// are what let the replica produce the awaited reply at all —
    /// polling back-to-back would spend the shared core on empty
    /// syscalls instead.
    fn recv_deadline(&mut self, deadline: Instant) -> Option<(Peer, Wire<M>)> {
        const YIELDS_PER_POLL: u32 = 1;
        let mut spins = 0u32;
        let mut nap = IDLE_NAP_FLOOR;
        loop {
            self.flush();
            if let Some(m) = self.recv() {
                return Some(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if spins < IDLE_SPINS {
                spins += 1;
                for _ in 0..YIELDS_PER_POLL {
                    std::thread::yield_now();
                }
            } else {
                std::thread::sleep(nap.min(deadline - now));
                nap = (nap * 2).min(IDLE_NAP_CEIL);
            }
        }
    }

    /// Parks in a blocking read on `from`'s connection: zero polls, and
    /// the kernel delivers the wakeup the moment the reply's bytes land.
    /// The blocking mode persists across calls (the steady-state request
    /// → reply cycle makes exactly one write and one read syscall on the
    /// transport), and each park is a bounded [`PARK_SLICE`]; on an
    /// empty slice the other connections get a nonblocking sweep, so a
    /// message arriving from an unexpected peer is still delivered. May
    /// overshoot `deadline` by up to one slice.
    ///
    /// If the hinted connection dies mid-park (EOF wakes the blocking
    /// read immediately), the park degrades to bounded polling slices —
    /// each of which drives the maintenance pass, so the redial happens
    /// *under* this wait — and re-parks the moment the fresh connection
    /// is up. The caller never sees the gap except as latency.
    fn recv_from_deadline(&mut self, from: NodeId, deadline: Instant) -> Option<(Peer, Wire<M>)> {
        loop {
            self.flush();
            if let Some(m) = self.inbox.pop_front() {
                return Some(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let Some(i) = self.conns.iter().position(|c| c.peer == from && !c.dead) else {
                // Hinted peer between connections: wait one bounded
                // slice with the polling strategy (whose flush calls
                // drive the redial), then re-check for the repaired
                // connection and re-park on it.
                let slice = (deadline - now).min(PARK_SLICE);
                if let Some(m) = self.recv_deadline(now + slice) {
                    return Some(m);
                }
                continue;
            };
            if self.conns[i].park_fill() {
                self.conns[i].drain_frames(&mut self.inbox);
                self.next_read = i;
            } else {
                // Empty slice: sweep the other connections so traffic
                // from unexpected peers is not starved while parked.
                for j in 0..self.conns.len() {
                    if j != i && !self.conns[j].dead {
                        self.conns[j].fill();
                        self.conns[j].drain_frames(&mut self.inbox);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// TCP cluster wiring
// ---------------------------------------------------------------------

/// Binds one loopback listener per replica; returns listeners and their
/// addresses.
pub(crate) fn bind_replicas(r: usize) -> std::io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::with_capacity(r);
    let mut addrs = Vec::with_capacity(r);
    for _ in 0..r {
        let l = TcpListener::bind(("127.0.0.1", 0))?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok((listeners, addrs))
}

/// Builds replica `i`'s transport: dial every lower-numbered replica
/// (deterministic initiator rule — exactly one connection per pair),
/// then accept the expected number of inbound connections (higher
/// replicas, clients, and the control endpoint). The listener stays
/// with the transport afterwards, nonblocking, so peers can reconnect
/// at runtime.
pub(crate) fn replica_transport<M: Codec>(
    me: NodeId,
    listener: TcpListener,
    lower: &[(NodeId, SocketAddr)],
    expect_accepts: usize,
) -> std::io::Result<TcpTransport<M>> {
    let mut conns = Vec::with_capacity(lower.len() + expect_accepts);
    for &(peer, addr) in lower {
        conns.push(TcpTransport::<M>::dial(me, peer, addr)?);
    }
    for _ in 0..expect_accepts {
        conns.push(TcpTransport::<M>::accept(&listener)?);
    }
    let dial_addrs: BTreeMap<NodeId, SocketAddr> = lower.iter().copied().collect();
    Ok(TcpTransport::new(me, conns, dial_addrs, Some(listener)))
}

/// Builds the transport of a replica *rejoining* a running cluster
/// (restart after a crash): rebind the replica's original address, and
/// connect nothing up front — lower-numbered peers start in backoff
/// (redialed by the maintenance pass), higher-numbered peers and
/// clients redial this listener when their own dead-link backoff fires.
/// The bind itself is retried briefly: the dying instance's listener
/// may take a moment to release the port.
pub(crate) fn rejoin_replica_transport<M: Codec>(
    me: NodeId,
    addr: SocketAddr,
    lower: &[(NodeId, SocketAddr)],
) -> std::io::Result<TcpTransport<M>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let listener = loop {
        match TcpListener::bind(addr) {
            Ok(l) => break l,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let dial_addrs: BTreeMap<NodeId, SocketAddr> = lower.iter().copied().collect();
    Ok(TcpTransport::new(
        me,
        Vec::new(),
        dial_addrs,
        Some(listener),
    ))
}

/// Builds a client-side transport (clients and the control endpoint):
/// dial every replica. Clients own redial for all their links.
pub(crate) fn client_transport<M: Codec>(
    me: NodeId,
    replicas: &[(NodeId, SocketAddr)],
) -> std::io::Result<TcpTransport<M>> {
    let mut conns = Vec::with_capacity(replicas.len());
    for &(peer, addr) in replicas {
        conns.push(TcpTransport::<M>::dial(me, peer, addr)?);
    }
    let dial_addrs: BTreeMap<NodeId, SocketAddr> = replicas.iter().copied().collect();
    Ok(TcpTransport::new(me, conns, dial_addrs, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the hot-path regression class: an idle acceptor's event
    /// loop may spin as fast as the machine allows, but its listener is
    /// swept once per [`ACCEPT_EVERY`], so `accept(2)` calls track wall
    /// time, never the number of flush/pump passes.
    #[test]
    fn idle_acceptor_sweeps_listener_per_interval_not_per_pass() {
        let start = Instant::now();
        let (_dialer, mut acceptor) =
            TcpTransport::<u64>::pair(NodeId(0), NodeId(1)).expect("loopback pair");
        for _ in 0..10_000 {
            acceptor.flush();
            acceptor.pump();
        }
        let elapsed = start.elapsed();
        let polls = acceptor.stats().accept_polls;
        let bound = (elapsed.as_nanos() / ACCEPT_EVERY.as_nanos()) as u64 + 2;
        assert!(polls >= 1, "the first pass never swept the listener");
        assert!(
            polls <= bound,
            "{polls} accept polls in {elapsed:?} over 10k passes (bound {bound})"
        );
    }

    /// A receiver that stops draining costs its sender at most
    /// [`MEM_BACKLOG_CAP`] buffered frames: later sends are shed and
    /// counted, the frames that got through arrive in FIFO order, and the
    /// link carries traffic again once the receiver catches up.
    #[test]
    fn mem_backlog_sheds_past_the_cap_and_counts_the_drops() {
        let (mut tx, mut rx) = MemTransport::<u64>::pair(NodeId(0), NodeId(1), 1);
        let sent = 3 * MEM_BACKLOG_CAP as u64;
        for i in 0..sent {
            tx.send(NodeId(1), 0, Wire::Peer(i));
        }
        let shed = tx.stats().shed;
        assert!(shed > 0, "nothing shed past the cap");
        let mut got = Vec::new();
        loop {
            let pending = tx.flush();
            while let Some((from, wire)) = rx.recv() {
                assert_eq!(from, (NodeId(0), 0));
                match wire {
                    Wire::Peer(i) => got.push(i),
                    _ => panic!("unexpected frame kind"),
                }
            }
            if !pending {
                break;
            }
        }
        assert!(got.len() >= MEM_BACKLOG_CAP, "only {} delivered", got.len());
        assert_eq!(
            got,
            (0..got.len() as u64).collect::<Vec<_>>(),
            "FIFO prefix"
        );
        assert_eq!(shed, sent - got.len() as u64, "every drop counted");
        // Drained: the link accepts and delivers again, shedding nothing.
        tx.send(NodeId(1), 0, Wire::Peer(sent));
        tx.flush();
        assert!(matches!(rx.recv(), Some((_, Wire::Peer(i))) if i == sent));
        assert_eq!(tx.stats().shed, shed);
    }
}
