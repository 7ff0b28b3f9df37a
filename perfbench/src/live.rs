//! The live run: a threaded 3-replica 1Paxos cluster driven through the
//! public `ClusterBuilder`/`ClientHandle` API by closed-loop clients,
//! timed from outside.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onepaxos::onepaxos::Msg;
use onepaxos::{NodeId, TxnOutcome};
use onepaxos_runtime::{
    ClientHandle, Cluster, ClusterBuilder, NodeMetrics, RetryPolicy, Transport,
};

use crate::machine;
use crate::stats::{late_over_early, quantile, ratio, Histogram, Tally};
use crate::workload::{
    client_keys, splitmix64, OpStream, Step, Workload, FAULT_DOWN_MS, TRUNCATE_EVERY,
};

/// The most rounds a run is split into.
const MAX_ROUNDS: usize = 12;
/// Cluster set-ups per run, spread over its rounds (at least one per
/// round; the last of a round is measured); `setup_s` is their median.
const SETUPS: usize = 24;
/// Key the set-up probe writes (below every client's range).
const PROBE_KEY: u64 = 1;
/// Keys re-read after each failover.
const FAILOVER_CHECKS: usize = 64;
/// Marks "no fault in progress".
const NO_FAULT: u64 = u64::MAX;
const MAX_FAULTS: usize = 64;

/// Counters summed (or, for `committed`, maxed) over the replicas'
/// `NodeMetrics`, plus the process's syscall counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub sent: u64,
    pub agreements: u64,
    pub batch_flushes: u64,
    pub batched_commands: u64,
    pub reconnects: u64,
    pub conn_kills: u64,
    pub truncations: u64,
    pub snapshots_installed: u64,
    pub syscw: u64,
    pub syscr: u64,
}

impl Counters {
    fn read(cluster: &Cluster) -> Self {
        let m = cluster.metrics();
        let sum = |f: fn(&NodeMetrics) -> &AtomicU64| -> u64 {
            m.iter().map(|n| f(n).load(Relaxed)).sum()
        };
        let (syscw, syscr) = machine::syscalls();
        Counters {
            sent: sum(|n| &n.sent),
            agreements: m
                .iter()
                .map(|n| n.committed.load(Relaxed))
                .max()
                .unwrap_or(0),
            batch_flushes: sum(|n| &n.batch_flushes),
            batched_commands: sum(|n| &n.batched_commands),
            reconnects: sum(|n| &n.reconnects),
            conn_kills: sum(|n| &n.conn_kills),
            truncations: sum(|n| &n.truncations),
            snapshots_installed: sum(|n| &n.snapshots_installed),
            syscw,
            syscr,
        }
    }

    /// `self - start`, saturating: a restarted replica republishes its
    /// transport counters from zero.
    fn since(self, start: Counters) -> Counters {
        Counters {
            sent: self.sent.saturating_sub(start.sent),
            agreements: self.agreements.saturating_sub(start.agreements),
            batch_flushes: self.batch_flushes.saturating_sub(start.batch_flushes),
            batched_commands: self.batched_commands.saturating_sub(start.batched_commands),
            reconnects: self.reconnects.saturating_sub(start.reconnects),
            conn_kills: self.conn_kills.saturating_sub(start.conn_kills),
            truncations: self.truncations.saturating_sub(start.truncations),
            snapshots_installed: self
                .snapshots_installed
                .saturating_sub(start.snapshots_installed),
            syscw: self.syscw.saturating_sub(start.syscw),
            syscr: self.syscr.saturating_sub(start.syscr),
        }
    }
}

/// Retained-state gauges, maxed over replicas and samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    pub applied_log_len: u64,
    pub outputs_len: u64,
    pub finished_len: u64,
}

impl Gauges {
    fn sample(&mut self, cluster: &Cluster) {
        for m in cluster.metrics() {
            self.applied_log_len = self.applied_log_len.max(m.applied_log_len.load(Relaxed));
            self.outputs_len = self.outputs_len.max(m.outputs_len.load(Relaxed));
            self.finished_len = self.finished_len.max(m.finished_len.load(Relaxed));
        }
    }
}

/// Everything one round measured: one cluster, set up, loaded for its
/// share of the run, and shut down.
#[derive(Debug)]
pub struct Round {
    pub tally: Tally,
    pub latency: Histogram,
    /// Client operations that completed in the measured window.
    pub ops: u64,
    pub elapsed_s: f64,
    pub setup_s: Vec<f64>,
    /// Completions per one-second window, and how many windows were whole.
    pub per_second: Vec<u64>,
    pub full_seconds: usize,
    /// Time without service per acceptor fault: on failover-tcp the
    /// longest commit gap while the acceptor was down, per fault; on the
    /// other workloads the stall after the round's closing acceptor stop.
    pub stall_ms: Vec<f64>,
    pub counters: Counters,
    pub gauges: Gauges,
    /// Restart to the restarted replica's first snapshot install, per
    /// fault.
    pub rejoin_ms: Vec<f64>,
    pub txns: u64,
}

impl Round {
    pub fn throughput(&self) -> f64 {
        ratio(self.ops as f64, self.elapsed_s)
    }

    pub fn late_over_early(&self) -> f64 {
        late_over_early(&self.per_second, self.full_seconds)
    }
}

/// A live run: several rounds, each on a fresh cluster.
#[derive(Debug)]
pub struct LiveRun {
    pub rounds: Vec<Round>,
    pub peak_rss_mb: f64,
}

impl LiveRun {
    /// The `q` quantile over rounds of a per-round figure.
    pub fn quantile_of(&self, q: f64, f: impl Fn(&Round) -> f64) -> f64 {
        quantile(&self.rounds.iter().map(f).collect::<Vec<_>>(), q)
    }

    /// A per-round sample list pooled over rounds.
    pub fn pooled(&self, f: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect()
    }

    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.rounds {
            t.absorb(r.tally);
        }
        t
    }
}

/// State the workers and the main thread share during the window.
struct Shared {
    start: Instant,
    deadline: Instant,
    last_commit_ns: AtomicU64,
    per_second: Vec<AtomicU64>,
    /// The fault whose stall is being measured, or [`NO_FAULT`]. It opens
    /// when the acceptor stops and closes at the first commit after the
    /// restart, so the gap spanning the whole outage is counted even when
    /// nothing commits while the acceptor is down.
    fault: AtomicU64,
    /// Nanoseconds since `start` of the open fault's restart (`u64::MAX`
    /// while the acceptor is still down).
    restarted_ns: AtomicU64,
    fault_gap: Vec<AtomicU64>,
    /// Bumped after each restart: workers re-read pre-fault keys.
    verify_epoch: AtomicU64,
}

impl Shared {
    fn new(seconds: f64) -> Self {
        let windows = seconds.ceil() as usize + 2;
        let start = Instant::now();
        Shared {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            last_commit_ns: AtomicU64::new(0),
            per_second: (0..windows).map(|_| AtomicU64::new(0)).collect(),
            fault: AtomicU64::new(NO_FAULT),
            restarted_ns: AtomicU64::new(u64::MAX),
            fault_gap: (0..MAX_FAULTS).map(|_| AtomicU64::new(0)).collect(),
            verify_epoch: AtomicU64::new(0),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_nanos() as u64
    }

    /// Records one completed operation at `at`.
    fn commit(&self, at: Instant) {
        let t = self.ns(at);
        let gap = t.saturating_sub(self.last_commit_ns.fetch_max(t, Relaxed));
        let w = ((t / 1_000_000_000) as usize).min(self.per_second.len() - 1);
        self.per_second[w].fetch_add(1, Relaxed);
        let f = self.fault.load(Relaxed);
        if f != NO_FAULT {
            self.fault_gap[f as usize].fetch_max(gap, Relaxed);
            if t >= self.restarted_ns.load(Relaxed) {
                let _ = self.fault.compare_exchange(f, NO_FAULT, Relaxed, Relaxed);
            }
        }
    }

    /// Opens fault `f`: its acceptor is being stopped now.
    fn stop(&self, f: u64) {
        self.close(Instant::now());
        self.restarted_ns.store(u64::MAX, Relaxed);
        self.fault.store(f, Relaxed);
    }

    /// The open fault's acceptor was restarted at `at`; the next commit
    /// after it closes the fault.
    fn restarted(&self, at: Instant) {
        self.restarted_ns.store(self.ns(at), Relaxed);
    }

    /// Closes a fault that no commit closed: its stall lasts at least
    /// from the last commit to `at`.
    fn close(&self, at: Instant) {
        let f = self.fault.swap(NO_FAULT, Relaxed);
        if f != NO_FAULT {
            let gap = self
                .ns(at)
                .saturating_sub(self.last_commit_ns.load(Relaxed));
            self.fault_gap[f as usize].fetch_max(gap, Relaxed);
        }
    }
}

/// What one worker client saw.
#[derive(Default)]
struct WorkerOut {
    tally: Tally,
    latency: Histogram,
    ops: u64,
    txns: u64,
}

/// Runs workload `w` for `seconds` and returns its measurements. With
/// `split`, the time is divided into rounds of about
/// [`Workload::round_s`], each on a fresh cluster; otherwise one cluster
/// serves the whole run.
pub fn run(w: Workload, seed: u64, seconds: f64, split: bool) -> LiveRun {
    let rounds = if split {
        ((seconds / w.round_s()).floor() as usize).clamp(1, MAX_ROUNDS)
    } else {
        1
    };
    let round_s = seconds / rounds as f64;
    let setups = SETUPS.div_ceil(rounds);
    let rounds = (0..rounds as u64)
        .map(|r| {
            round(
                w,
                seed.wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                round_s,
                setups,
            )
        })
        .collect();
    LiveRun {
        rounds,
        peak_rss_mb: machine::peak_rss_mb(),
    }
}

fn round(w: Workload, seed: u64, seconds: f64, setups: usize) -> Round {
    let builder = || {
        let mut b = ClusterBuilder::new(3, w.factory())
            .clients(w.workers() + usize::from(w == Workload::FailoverTcp))
            .shards(w.shards());
        if let Some(cfg) = w.batching() {
            b = b.batching(cfg);
        }
        b.truncate_every(TRUNCATE_EVERY)
    };
    if w.tcp() {
        drive(w, seed, seconds, setups, || {
            builder().spawn_tcp().expect("loopback TCP cluster set-up")
        })
    } else {
        drive(w, seed, seconds, setups, || builder().spawn())
    }
}

fn drive<T, S>(w: Workload, seed: u64, seconds: f64, setups: usize, mut spawn: S) -> Round
where
    T: Transport<Msg> + 'static,
    S: FnMut() -> (Cluster, Vec<ClientHandle<Msg, T>>),
{
    // Set-up: spawn to first committed operation, several times; the
    // last cluster stays up for the measured window.
    let mut setup_s = Vec::new();
    let mut tally = Tally::default();
    let (mut cluster, mut clients) = loop {
        let t0 = Instant::now();
        let (cluster, mut clients) = spawn();
        clients[0].set_timeout(Duration::from_secs(5));
        tally.attempted += 1;
        if clients[0].put(PROBE_KEY, setup_s.len() as u64).is_err() {
            tally.timeouts += 1;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == setups {
            break (cluster, clients);
        }
        drop(clients);
        cluster.shutdown();
    };
    let nemesis = (w == Workload::FailoverTcp).then(|| clients.pop().expect("nemesis handle"));

    let start_counters = Counters::read(&cluster);
    let shared = Arc::new(Shared::new(seconds));
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("client-{i}"))
                .spawn(move || worker(w, seed, i, c, &shared))
                .expect("spawn client thread")
        })
        .collect();

    let mut gauges = Gauges::default();
    let mut rejoin_ms = Vec::new();
    let mut faults = 0;
    match nemesis {
        Some(n) => {
            let failed_stops;
            (faults, failed_stops) =
                nemesis_loop(seed, &mut cluster, n, &shared, &mut gauges, &mut rejoin_ms);
            tally.attempted += faults;
            tally.timeouts += failed_stops;
        }
        None => wait_sampling(shared.deadline, &cluster, &mut gauges, || {}),
    }

    let mut latency = Histogram::new();
    let (mut ops, mut txns) = (0, 0);
    let mut handles = Vec::new();
    for h in workers {
        let (out, handle) = h.join().expect("client thread panicked");
        handles.push(handle);
        tally.absorb(out.tally);
        latency.merge(&out.latency);
        ops += out.ops;
        txns += out.txns;
    }
    let elapsed_s = shared.last_commit_ns.load(Relaxed) as f64 / 1e9;
    gauges.sample(&cluster);
    let counters = Counters::read(&cluster).since(start_counters);
    let mut stall_ms: Vec<f64> = shared.fault_gap[..faults as usize]
        .iter()
        .map(|a| a.load(Relaxed) as f64 / 1e6)
        .collect();
    if w != Workload::FailoverTcp {
        let probe = handles.last_mut().expect("a worker handle");
        tally.attempted += 1;
        match acceptor_stall(probe) {
            Some(ms) => stall_ms.push(ms),
            None => tally.timeouts += 1,
        }
    }
    cluster.shutdown();

    let full_seconds = (elapsed_s.floor() as usize).min(shared.per_second.len());
    let per_second: Vec<u64> = shared.per_second.iter().map(|a| a.load(Relaxed)).collect();
    Round {
        tally,
        latency,
        ops,
        elapsed_s,
        setup_s,
        per_second,
        full_seconds,
        stall_ms,
        counters,
        gauges,
        rejoin_ms,
        txns,
    }
}

/// Sleeps until `until` in short steps, sampling the gauges and running
/// `each` between steps.
fn wait_sampling(until: Instant, cluster: &Cluster, gauges: &mut Gauges, mut each: impl FnMut()) {
    loop {
        gauges.sample(cluster);
        each();
        let now = Instant::now();
        if now >= until {
            return;
        }
        std::thread::sleep((until - now).min(Duration::from_millis(20)));
    }
}

/// A restarted replica whose snapshot rejoin is being timed.
struct Rejoin {
    metrics: Arc<NodeMetrics>,
    installs_before: u64,
    restarted_at: Instant,
}

impl Rejoin {
    /// Milliseconds from restart to the first snapshot install, once it
    /// happened; a rejoin slower than `patience` reads as `patience`.
    fn poll(&self, patience: Duration) -> Option<f64> {
        let waited = self.restarted_at.elapsed();
        if self.metrics.snapshots_installed.load(Relaxed) > self.installs_before {
            Some(waited.as_secs_f64() * 1e3)
        } else if waited >= patience {
            Some(patience.as_secs_f64() * 1e3)
        } else {
            None
        }
    }
}

/// The failover schedule: after a seeded 400–800 ms up-time, stop the
/// active acceptor (replica 1 first, then 2, alternating), keep it down
/// for [`FAULT_DOWN_MS`], restart it, and time its snapshot rejoin.
/// Returns the faults run and the stops that never took effect.
fn nemesis_loop<T: Transport<Msg>>(
    seed: u64,
    cluster: &mut Cluster,
    mut nemesis: ClientHandle<Msg, T>,
    shared: &Shared,
    gauges: &mut Gauges,
    rejoin_ms: &mut Vec<f64>,
) -> (u64, u64) {
    let mut rng = seed ^ 0x4E45_4D45_5349_5321;
    let down = Duration::from_millis(FAULT_DOWN_MS);
    let mut victim = 1usize;
    let (mut faults, mut failed_stops) = (0u64, 0u64);
    let mut rejoin: Option<Rejoin> = None;
    let poll = |rejoin: &mut Option<Rejoin>, rejoin_ms: &mut Vec<f64>| {
        if let Some(ms) = rejoin.as_ref().and_then(|r| r.poll(down)) {
            rejoin_ms.push(ms);
            *rejoin = None;
        }
    };
    loop {
        let up = Duration::from_millis(400 + splitmix64(&mut rng) % 400);
        // Leave room for the post-fault checks before the deadline.
        if Instant::now() + up + down + Duration::from_millis(300) > shared.deadline
            || faults as usize == MAX_FAULTS
        {
            break;
        }
        wait_sampling(Instant::now() + up, cluster, gauges, || {
            poll(&mut rejoin, rejoin_ms)
        });
        shared.stop(faults);
        let stopped_at = Instant::now();
        while !cluster.replica_finished(victim) && stopped_at.elapsed() < down * 10 {
            nemesis.stop_replica(NodeId(victim as u16));
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_sampling(stopped_at + down, cluster, gauges, || {
            poll(&mut rejoin, rejoin_ms)
        });
        if !cluster.replica_finished(victim) {
            // Restarting needs the old thread gone: end the schedule.
            shared.close(Instant::now());
            failed_stops += 1;
            break;
        }
        let metrics = Arc::clone(&cluster.metrics()[victim]);
        let installs_before = metrics.snapshots_installed.load(Relaxed);
        let restarted_at = Instant::now();
        cluster.restart_replica(victim);
        shared.restarted(restarted_at);
        faults += 1;
        rejoin = Some(Rejoin {
            metrics,
            installs_before,
            restarted_at,
        });
        shared.verify_epoch.fetch_add(1, Relaxed);
        victim = 3 - victim;
    }
    wait_sampling(shared.deadline, cluster, gauges, || {
        poll(&mut rejoin, rejoin_ms)
    });
    shared.close(shared.deadline);
    (faults, failed_stops)
}

/// Time without service after the active acceptor (replica 1) stops,
/// measured after a fault-free round's window: from the last commit
/// before the stop to the first commit after it. `None` if no put
/// commits within the client's patience.
fn acceptor_stall<T: Transport<Msg>>(c: &mut ClientHandle<Msg, T>) -> Option<f64> {
    c.set_timeout(Duration::from_secs(5));
    c.put(PROBE_KEY, 0).ok()?;
    let last = Instant::now();
    c.stop_replica(NodeId(1));
    c.put(PROBE_KEY, 1).ok()?;
    Some(last.elapsed().as_secs_f64() * 1e3)
}

/// One closed-loop client: issues its seeded op stream until the
/// deadline, timing and checking every answer.
fn worker<T: Transport<Msg>>(
    w: Workload,
    seed: u64,
    client: usize,
    mut c: ClientHandle<Msg, T>,
    shared: &Shared,
) -> (WorkerOut, ClientHandle<Msg, T>) {
    if w == Workload::FailoverTcp {
        // Patient: wait out the acceptor switch on the leader instead of
        // re-targeting a stopped replica.
        c.set_retry_policy(RetryPolicy {
            base: Duration::from_secs(1),
            cap: Duration::from_secs(2),
            jitter_permille: 0,
            max_attempts: 6,
        });
    } else {
        c.set_timeout(Duration::from_secs(5));
    }
    let mut out = WorkerOut::default();
    let mut ops = OpStream::new(w, seed, client);
    let mut check_rng = seed ^ 0xC4EC_0000 ^ client as u64;
    let (mut book, pairs) = client_keys(w, client);
    let mut epoch = 0;
    loop {
        let now = Instant::now();
        if now >= shared.deadline {
            break;
        }
        let seen = shared.verify_epoch.load(Relaxed);
        if seen != epoch {
            epoch = seen;
            // Keys written before the fault read back their latest
            // acknowledged value.
            let written: Vec<usize> = book.written().collect();
            for _ in 0..FAILOVER_CHECKS.min(written.len()) {
                let slot = written[(splitmix64(&mut check_rng) % written.len() as u64) as usize];
                timed(&mut out, shared, |out| {
                    let got = c.get(book.key(slot));
                    record(out, got.map(|v| book.check_read(slot, v)))
                });
            }
            continue;
        }
        let step = ops.next_step();
        timed(&mut out, shared, |out| match step {
            Step::Put { slot } => {
                let value = book.begin_write(slot);
                let got = c.put(book.key(slot), value);
                let ok = got.map(|prev| book.check_prev(slot, prev));
                if ok.is_ok() {
                    book.ack(slot);
                }
                record(out, ok)
            }
            Step::Get { slot } => {
                let got = c.get(book.key(slot));
                record(out, got.map(|v| book.check_read(slot, v)))
            }
            Step::GetRelaxed { slot, replica } => {
                let got = c.get_relaxed(NodeId(replica), book.key(slot));
                record(out, got.map(|v| book.check_relaxed(slot, v)))
            }
            Step::Txn { slot } => {
                let (a, b) = pairs[slot];
                let value = book.begin_write(slot);
                out.txns += 1;
                match c.txn_put(&[(a, value), (b, value)]) {
                    Ok(TxnOutcome::Committed) => {
                        book.ack(slot);
                        true
                    }
                    Ok(TxnOutcome::Aborted) => {
                        book.abort(slot);
                        out.tally.aborts += 1;
                        false
                    }
                    Err(_) => {
                        out.tally.timeouts += 1;
                        false
                    }
                }
            }
        });
    }
    // Outside the window: both keys of every pair hold the same
    // transaction's value, and it is the latest acknowledged one.
    for (slot, &(a, b)) in pairs.iter().enumerate() {
        if !book.was_attempted(slot) {
            continue;
        }
        out.tally.attempted += 1;
        match (c.get(a), c.get(b)) {
            (Ok(va), Ok(vb)) => {
                if va != vb || !book.check_read(slot, va) {
                    out.tally.mismatches += 1;
                }
            }
            _ => out.tally.timeouts += 1,
        }
    }
    (out, c)
}

/// Runs one operation, recording its latency and completion when it
/// succeeds; `op` returns whether it succeeded.
fn timed(out: &mut WorkerOut, shared: &Shared, op: impl FnOnce(&mut WorkerOut) -> bool) {
    let t0 = Instant::now();
    out.tally.attempted += 1;
    if op(out) {
        let t1 = Instant::now();
        out.latency.record(t1.duration_since(t0).as_nanos() as u64);
        out.ops += 1;
        shared.commit(t1);
    }
}

/// Tallies one answer: a timeout, a mismatch, or a pass.
fn record<E>(out: &mut WorkerOut, checked: Result<bool, E>) -> bool {
    match checked {
        Ok(true) => true,
        Ok(false) => {
            out.tally.mismatches += 1;
            false
        }
        Err(_) => {
            out.tally.timeouts += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap_ms(s: &Shared, f: usize) -> f64 {
        s.fault_gap[f].load(Relaxed) as f64 / 1e6
    }

    #[test]
    fn stall_spans_an_outage_with_no_commit_until_the_restart() {
        let s = Shared::new(10.0);
        let at = |ms| s.start + Duration::from_millis(ms);
        s.commit(at(100));
        s.stop(0);
        // Nothing commits while the acceptor is down (1 s) ...
        s.restarted(at(1_100));
        // ... nor for a while after the restart.
        s.commit(at(1_150));
        assert!(gap_ms(&s, 0) >= 1_000.0, "{} ms", gap_ms(&s, 0));
        assert_eq!(s.fault.load(Relaxed), NO_FAULT, "first commit closes it");
        s.commit(at(3_000));
        assert_eq!(gap_ms(&s, 0), 1_050.0, "later gaps are not the fault's");
    }

    #[test]
    fn stall_is_the_longest_commit_gap_during_the_outage() {
        let s = Shared::new(10.0);
        let at = |ms| s.start + Duration::from_millis(ms);
        s.commit(at(100));
        s.stop(0);
        for ms in [210, 220, 330, 340] {
            s.commit(at(ms));
        }
        s.restarted(at(1_100));
        s.commit(at(1_110));
        assert_eq!(gap_ms(&s, 0), 770.0);
    }

    #[test]
    fn a_fault_no_commit_closes_lasts_until_it_is_closed() {
        let s = Shared::new(10.0);
        let at = |ms| s.start + Duration::from_millis(ms);
        s.commit(at(100));
        s.stop(0);
        s.restarted(at(1_100));
        s.close(at(2_100));
        assert_eq!(gap_ms(&s, 0), 2_000.0);
        assert_eq!(s.fault.load(Relaxed), NO_FAULT);
    }
}
