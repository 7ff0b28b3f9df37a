//! The layer replay: the workload's seeded op stream driven on one
//! thread through three `ShardedEngine<OnePaxosNode, KvStore>`s built as
//! the runtime's replica loop builds them, with every message through
//! the `Wire` codec and chunk framing and every peer message over the
//! workload's transport. Spans around each call into a layer give its
//! self time per call.

use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Write as _};
use std::time::{Duration, Instant};

use onepaxos::engine::{EngineEffect, ReplicaEngine, ReplyMode};
use onepaxos::kv::KvStore;
use onepaxos::onepaxos::{Msg, OnePaxosNode};
use onepaxos::rsm::{Applier, ApplierSnapshot};
use onepaxos::shard::{ShardId, ShardedEffects, ShardedEngine};
use onepaxos::txn::{Fragment, TxnCoordinator, TxnStep};
use onepaxos::wire::{decode_exact, encode_to_vec, Codec, RecvBuf, SendQueue};
use onepaxos::{Command, EngineEvent, Instance, Nanos, NodeId, Op, ShardRouter, TxnOutcome};
use onepaxos_runtime::{MemTransport, TcpTransport, Transport, Wire};

use crate::stats::{ratio, Tally};
use crate::workload::{client_keys, KeyBook, OpStream, Step, Workload};

type Engine = ShardedEngine<OnePaxosNode, KvStore>;
type Effects = ShardedEffects<Msg, Option<u64>>;

/// Virtual time between two client operations.
const OP_STEP: Nanos = 10_000;
/// Snapshot capture/encode/install repetitions.
const SNAPSHOT_REPS: usize = 20;
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// In-memory span recorder; a disabled tracer records nothing and
/// reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("span end without begin");
        self.spans[i as usize].end_ns = end;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Per span name: calls and mean self time in ns (duration minus
    /// the time covered by child spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut total: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = total.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(*c);
        }
        total
            .into_iter()
            .map(|(k, (n, ns))| (k, (n, ratio(ns as f64, n as f64))))
            .collect()
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "name\tstart_ns\tend_ns\tparent\top")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        f.flush()
    }
}

/// What one replay measured.
#[derive(Debug)]
pub struct ReplayOut {
    pub ops: u64,
    pub wall_s: f64,
    pub wire_bytes: u64,
    pub tally: Tally,
    pub tracer: Tracer,
    pub snapshot_bytes: f64,
}

/// A replica-to-replica link end: the transport replica `i` uses to
/// reach replica `j`.
type Link = Box<dyn Transport<Msg>>;

fn links(w: Workload) -> Vec<Vec<Option<Link>>> {
    let mut l: Vec<Vec<Option<Link>>> = (0..3).map(|_| (0..3).map(|_| None).collect()).collect();
    for i in 0..3u16 {
        for j in i + 1..3 {
            let (a, b): (Link, Link) = if w.tcp() {
                let (a, b) =
                    TcpTransport::<Msg>::pair(NodeId(i), NodeId(j)).expect("loopback TCP pair");
                (Box::new(a), Box::new(b))
            } else {
                let (a, b) = MemTransport::<Msg>::pair(NodeId(i), NodeId(j), w.shards());
                (Box::new(a), Box::new(b))
            };
            l[i as usize][j as usize] = Some(a);
            l[j as usize][i as usize] = Some(b);
        }
    }
    l
}

/// Builds replica `me`'s engines as the runtime replica loop does.
fn engine(w: Workload, me: u16) -> Engine {
    let members: Vec<NodeId> = (0..3).map(NodeId).collect();
    let mut factory = w.factory();
    let mut e = ShardedEngine::new(w.shards(), |shard| {
        ReplicaEngine::with_reply_mode(
            factory(&members, NodeId(me)),
            KvStore::new(),
            ReplyMode::AfterApply,
        )
        .with_history(false)
        .with_shard(shard)
    });
    e.set_batching(w.batching());
    e
}

/// The codec and framing path one frame takes, reusing its buffers.
struct Codecs {
    encoded: Vec<u8>,
    send: SendQueue,
    recv: RecvBuf,
    bytes: u64,
}

impl Codecs {
    /// Encodes, frames, unframes and decodes `wire`, returning the
    /// decoded copy.
    fn pass(&mut self, tr: &mut Tracer, wire: &Wire<Msg>) -> Wire<Msg> {
        self.encoded.clear();
        tr.span("wire.encode", || wire.encode(&mut self.encoded));
        self.bytes += self.encoded.len() as u64;
        let encoded = &self.encoded;
        let send = &mut self.send;
        tr.span("chunk.push_frame", || {
            send.push_frame(|buf| buf.extend_from_slice(encoded))
        });
        // The kernel's part: move the queued bytes to the receive side.
        let mut iov = [IoSlice::new(&[]); 4];
        let n = self.send.slices(&mut iov);
        let mut moved = 0;
        for s in &iov[..n] {
            let mut off = 0;
            while off < s.len() {
                let dst = self.recv.writable();
                let k = dst.len().min(s.len() - off);
                dst[..k].copy_from_slice(&s[off..off + k]);
                self.recv.commit(k);
                off += k;
            }
            moved += s.len();
        }
        self.send.consume(moved);
        let recv = &mut self.recv;
        let frame = tr
            .span("chunk.next_frame", || recv.next_frame())
            .expect("well-formed frame")
            .expect("complete frame");
        tr.span("wire.decode", || decode_exact::<Wire<Msg>>(&frame))
            .expect("decodable frame")
    }
}

/// A client of the replay: its op stream, its checks, and (for
/// transactions) its long-lived coordinator.
struct Client {
    id: NodeId,
    ops: OpStream,
    book: KeyBook,
    pairs: Vec<(u64, u64)>,
    coord: TxnCoordinator,
    next_req: u64,
}

/// What the client is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Await {
    Nothing,
    Reply { client: usize, req_id: u64 },
    Txn { client: usize },
}

struct Replay {
    w: Workload,
    tr: Tracer,
    engines: Vec<Engine>,
    links: Vec<Vec<Option<Link>>>,
    codecs: Codecs,
    clients: Vec<Client>,
    now: Nanos,
    /// Effects still to dispatch, tagged with the replica that emitted
    /// them.
    queue: VecDeque<(usize, ShardId, EngineEffect<Msg, Option<u64>>)>,
    scratch: Effects,
    awaiting: Await,
    answer: Option<Option<u64>>,
    txn_outcome: Option<TxnOutcome>,
    /// Replica 0's decided stream, per shard, for the apply replay.
    committed: Vec<Vec<(Instance, Command)>>,
    tally: Tally,
}

impl Replay {
    fn new(w: Workload, seed: u64, trace: bool) -> Self {
        let router = ShardRouter::new(w.shards());
        let clients = (0..w.workers())
            .map(|c| {
                let id = NodeId(3 + c as u16);
                let (book, pairs) = client_keys(w, c);
                Client {
                    id,
                    ops: OpStream::new(w, seed, c),
                    book,
                    pairs,
                    coord: TxnCoordinator::new(id, router),
                    next_req: 1,
                }
            })
            .collect();
        let mut r = Replay {
            w,
            tr: Tracer::new(trace),
            engines: (0..3).map(|i| engine(w, i)).collect(),
            links: links(w),
            codecs: Codecs {
                encoded: Vec::new(),
                send: SendQueue::new(),
                recv: RecvBuf::new(),
                bytes: 0,
            },
            clients,
            now: 0,
            queue: VecDeque::new(),
            scratch: Vec::new(),
            awaiting: Await::Nothing,
            answer: None,
            txn_outcome: None,
            committed: vec![Vec::new(); w.shards() as usize],
            tally: Tally::default(),
        };
        for i in 0..3 {
            let mut fx = std::mem::take(&mut r.scratch);
            r.engines[i].start(0, &mut fx);
            r.enqueue(i, &mut fx);
            r.scratch = fx;
        }
        r.drain();
        r
    }

    fn enqueue(&mut self, from: usize, fx: &mut Effects) {
        self.queue
            .extend(fx.drain(..).map(|(shard, e)| (from, shard, e)));
    }

    /// Sends a client request to replica 0 (every shard's leader).
    fn submit(&mut self, client: NodeId, req_id: u64, op: Op) {
        let wire = self
            .codecs
            .pass(&mut self.tr, &Wire::Request { client, req_id, op });
        let Wire::Request { client, req_id, op } = wire else {
            unreachable!("a request decodes as a request")
        };
        let mut fx = std::mem::take(&mut self.scratch);
        let (engines, now) = (&mut self.engines, self.now);
        self.tr.span("engine.submit", || {
            engines[0].submit(client, req_id, op, now, &mut fx)
        });
        self.enqueue(0, &mut fx);
        self.scratch = fx;
    }

    /// Moves one peer message from replica `from` to replica `to` over
    /// the link between them.
    fn hop(&mut self, from: usize, to: usize, shard: ShardId, wire: Wire<Msg>) -> Wire<Msg> {
        let name = if self.w.tcp() {
            "transport.hop.tcp"
        } else {
            "transport.hop.mem"
        };
        let links = &mut self.links;
        self.tr.span(name, || {
            let tx = links[from][to].as_mut().expect("link");
            tx.send(NodeId(to as u16), shard.0, wire);
            while tx.flush() {}
            let rx = links[to][from].as_mut().expect("link");
            let give_up = Instant::now() + Duration::from_secs(5);
            loop {
                rx.pump();
                if let Some((_, got)) = rx.recv_ready() {
                    return got;
                }
                assert!(Instant::now() < give_up, "message lost on a replay link");
            }
        })
    }

    /// Dispatches queued effects until none are left.
    fn drain(&mut self) {
        while let Some((from, shard, effect)) = self.queue.pop_front() {
            match effect {
                EngineEffect::SendTo { to, msg } => {
                    let to = to.0 as usize;
                    let wire = self.codecs.pass(&mut self.tr, &Wire::Peer(msg));
                    let Wire::Peer(msg) = self.hop(from, to, shard, wire) else {
                        unreachable!("a peer message arrives as one")
                    };
                    let mut fx = std::mem::take(&mut self.scratch);
                    let (engines, now) = (&mut self.engines, self.now);
                    self.tr.span("engine.handle", || {
                        engines[to].handle(
                            shard,
                            EngineEvent::Message {
                                from: NodeId(from as u16),
                                msg,
                            },
                            now,
                            &mut fx,
                        )
                    });
                    self.enqueue(to, &mut fx);
                    self.scratch = fx;
                }
                EngineEffect::ReplyTo {
                    client,
                    req_id,
                    instance,
                    value,
                } => {
                    let reply = Wire::Reply {
                        req_id,
                        instance,
                        value: value.flatten(),
                    };
                    if let Wire::Reply { req_id, value, .. } =
                        self.codecs.pass(&mut self.tr, &reply)
                    {
                        self.on_reply(client, req_id, value);
                    }
                }
                EngineEffect::Committed { instance, cmd } => {
                    if from == 0 {
                        self.committed[shard.index()].push((instance, cmd));
                    }
                }
            }
        }
    }

    fn on_reply(&mut self, client: NodeId, req_id: u64, value: Option<u64>) {
        let c = (client.0 - 3) as usize;
        match self.awaiting {
            Await::Reply {
                client: w,
                req_id: r,
            } if w == c && r == req_id => {
                self.answer = Some(value);
            }
            Await::Txn { client: w } if w == c => {
                let coord = &mut self.clients[c].coord;
                let step = self.tr.span("txn.coord", || coord.on_reply(req_id, value));
                let send = match step {
                    TxnStep::Pending => self.clients[c].coord.take_deferred(),
                    TxnStep::Submit(next) => next,
                    TxnStep::Decided { outcome, submit } => {
                        self.txn_outcome = Some(outcome);
                        submit
                    }
                    TxnStep::Done(outcome) => {
                        self.txn_outcome = Some(outcome);
                        Vec::new()
                    }
                };
                self.send_fragments(client, send);
            }
            // Outcome acknowledgements of an earlier transaction.
            _ if !self.clients[c].pairs.is_empty() => {
                let coord = &mut self.clients[c].coord;
                self.tr.span("txn.coord", || coord.on_reply(req_id, value));
            }
            _ => {}
        }
    }

    fn send_fragments(&mut self, client: NodeId, frags: Vec<Fragment>) {
        for f in frags {
            self.submit(client, f.req_id, f.op);
        }
    }

    /// Runs timers until the awaited answer arrives.
    fn settle(&mut self, done: impl Fn(&Self) -> bool) {
        self.drain();
        let mut rounds = 0;
        while !done(self) {
            rounds += 1;
            assert!(rounds < 100_000, "replay operation never completed");
            let next = self
                .engines
                .iter()
                .filter_map(|e| e.next_deadline())
                .min()
                .unwrap_or(self.now + OP_STEP);
            self.now = next.max(self.now + 1);
            self.fire_timers();
            self.drain();
        }
    }

    fn fire_timers(&mut self) {
        for i in 0..3 {
            let mut fx = std::mem::take(&mut self.scratch);
            let (engines, now) = (&mut self.engines, self.now);
            self.tr
                .span("engine.fire_due", || engines[i].fire_due(now, &mut fx));
            self.enqueue(i, &mut fx);
            self.scratch = fx;
        }
    }

    /// A plain request from client `c`, answered by the replica it went
    /// to.
    fn request(&mut self, c: usize, op: Op) -> Option<u64> {
        let req_id = self.clients[c].next_req;
        self.clients[c].next_req += 1;
        self.awaiting = Await::Reply { client: c, req_id };
        self.answer = None;
        let id = self.clients[c].id;
        self.submit(id, req_id, op);
        self.settle(|r| r.answer.is_some());
        self.awaiting = Await::Nothing;
        self.answer.take().expect("settled")
    }

    /// Runs client `c`'s next operation to completion and checks it.
    fn op(&mut self, c: usize) {
        self.tally.attempted += 1;
        let step = self.clients[c].ops.next_step();
        let ok = match step {
            Step::Put { slot } => {
                let key = self.clients[c].book.key(slot);
                let value = self.clients[c].book.begin_write(slot);
                let prev = self.request(c, Op::Put { key, value });
                let book = &mut self.clients[c].book;
                let ok = book.check_prev(slot, prev);
                book.ack(slot);
                ok
            }
            Step::Get { slot } => {
                let key = self.clients[c].book.key(slot);
                let got = self.request(c, Op::Get { key });
                self.clients[c].book.check_read(slot, got)
            }
            Step::GetRelaxed { slot, replica } => {
                let key = self.clients[c].book.key(slot);
                let id = self.clients[c].id;
                let ask = Wire::<Msg>::ReadRelaxed {
                    client: id,
                    req_id: self.clients[c].next_req,
                    key,
                };
                self.codecs.pass(&mut self.tr, &ask);
                let got = match self.engines[replica as usize].local_read(key) {
                    Some(value) => {
                        let answer = Wire::<Msg>::ReadValue { req_id: 0, value };
                        self.codecs.pass(&mut self.tr, &answer);
                        value
                    }
                    None => self.request(c, Op::Get { key }),
                };
                self.clients[c].book.check_relaxed(slot, got)
            }
            Step::Txn { slot } => {
                let (a, b) = self.clients[c].pairs[slot];
                let value = self.clients[c].book.begin_write(slot);
                let coord = &mut self.clients[c].coord;
                let frags = self
                    .tr
                    .span("txn.coord", || coord.begin(&[(a, value), (b, value)]));
                self.awaiting = Await::Txn { client: c };
                self.txn_outcome = None;
                let id = self.clients[c].id;
                self.send_fragments(id, frags);
                self.settle(|r| r.txn_outcome.is_some());
                self.awaiting = Await::Nothing;
                // Outcome legs were sent by the drain; let them land.
                self.drain();
                let book = &mut self.clients[c].book;
                if self.txn_outcome == Some(TxnOutcome::Committed) {
                    book.ack(slot);
                } else {
                    book.abort(slot);
                    self.tally.aborts += 1;
                }
                true
            }
        };
        if !ok {
            self.tally.mismatches += 1;
        }
    }
}

/// Replays `ops` operations of workload `w`, interleaving its clients.
pub fn replay(w: Workload, seed: u64, ops: u64, trace: bool) -> ReplayOut {
    let mut r = Replay::new(w, seed, trace);
    let t0 = Instant::now();
    for i in 0..ops {
        r.tr.op = i as u32;
        r.tr.begin("op");
        r.op(i as usize % w.workers());
        r.now += OP_STEP;
        r.fire_timers();
        r.drain();
        r.tr.end();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    r.tr.op = ops as u32;
    apply_stream(&mut r.tr, &r.committed);
    let snapshot_bytes = snapshots(&mut r.tr, w, &r.engines[0]);
    ReplayOut {
        ops,
        wall_s,
        wire_bytes: r.codecs.bytes,
        tally: r.tally,
        tracer: r.tr,
        snapshot_bytes,
    }
}

/// Re-applies replica 0's decided stream into fresh appliers, timing
/// each `Applier::on_decided`.
fn apply_stream(tr: &mut Tracer, committed: &[Vec<(Instance, Command)>]) {
    for stream in committed {
        let mut applier = Applier::new(KvStore::new());
        for (instance, cmd) in stream.iter().cloned() {
            tr.span("rsm.apply", || applier.on_decided(instance, cmd));
        }
    }
}

/// Captures, encodes, decodes and installs shard 0's snapshot of
/// `donor` into fresh engines; returns the encoded size in bytes.
fn snapshots(tr: &mut Tracer, w: Workload, donor: &Engine) -> f64 {
    let mut bytes = 0;
    for _ in 0..SNAPSHOT_REPS {
        let snap = tr.span("snapshot.capture", || donor.snapshot_shard(ShardId(0)));
        let encoded = tr.span("snapshot.encode", || encode_to_vec(&snap));
        bytes = encoded.len();
        let mut fresh = engine(w, 2);
        let installed = tr.span("snapshot.install", || {
            let snap =
                decode_exact::<ApplierSnapshot<KvStore>>(&encoded).expect("snapshot decodes");
            fresh.install_shard_snapshot(ShardId(0), snap)
        });
        assert!(installed, "a fresh engine refused a newer snapshot");
    }
    bytes as f64
}
