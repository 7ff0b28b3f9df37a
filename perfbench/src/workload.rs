//! The four workloads: deployment shape, seeded op streams, and the
//! per-key bookkeeping that checks every answer.

use std::collections::HashSet;

use onepaxos::engine::{AdaptiveBatch, BatchConfig};
use onepaxos::onepaxos::{OnePaxosNode, Timing};
use onepaxos::{ClusterConfig, NodeId, ShardRouter};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100% puts over loopback TCP, one shard, no batching.
    PutTcp,
    /// 50% put / 30% linearized get / 20% relaxed get over shared
    /// memory, two shards.
    RwMem,
    /// Fan-out-2 cross-shard transactions over shared memory, two
    /// shards, adaptive batching.
    TxnMem,
    /// Puts over loopback TCP while a nemesis stops and restarts the
    /// active acceptor.
    FailoverTcp,
}

/// Agreed truncation interval of every workload: it keeps replica memory
/// bounded, so peak RSS does not just track the op count.
pub const TRUNCATE_EVERY: u64 = 256;

/// How long the nemesis keeps a stopped acceptor down.
pub const FAULT_DOWN_MS: u64 = 1_000;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PutTcp,
        Workload::RwMem,
        Workload::TxnMem,
        Workload::FailoverTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PutTcp => "put-tcp",
            Workload::RwMem => "rw-mem",
            Workload::TxnMem => "txn-mem",
            Workload::FailoverTcp => "failover-tcp",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn tcp(self) -> bool {
        matches!(self, Workload::PutTcp | Workload::FailoverTcp)
    }

    pub fn shards(self) -> u16 {
        match self {
            Workload::PutTcp | Workload::FailoverTcp => 1,
            Workload::RwMem | Workload::TxnMem => 2,
        }
    }

    pub fn batching(self) -> Option<BatchConfig> {
        (self == Workload::TxnMem).then(|| BatchConfig::adaptive(AdaptiveBatch::default()))
    }

    /// Closed-loop worker clients (the failover nemesis holds one more
    /// handle that sends no load).
    pub fn workers(self) -> usize {
        match self {
            Workload::FailoverTcp => 1,
            _ => 2,
        }
    }

    /// Target length of one measured round on a fresh cluster: short,
    /// so a run's median rides out bursts of interference from other
    /// tenants of the machine; long enough on failover-tcp for about two
    /// faults per round. txn-mem keeps one cluster for the whole run:
    /// its throughput falls over a cluster's life, and fresh clusters
    /// would hide that.
    pub fn round_s(self) -> f64 {
        match self {
            Workload::FailoverTcp => 4.0,
            Workload::TxnMem => 5.0,
            _ => 2.0,
        }
    }

    pub fn keys_per_client(self) -> u64 {
        match self {
            Workload::RwMem => 65_536,
            Workload::TxnMem => 1_024,
            _ => 4_096,
        }
    }

    /// Protocol timers: relaxed everywhere (three spinning replicas
    /// share few cores), tight on the failover workload so the acceptor
    /// switch is what the stall measures.
    pub fn timing(self) -> Timing {
        match self {
            Workload::FailoverTcp => Timing {
                tick: 2_000_000,
                io_timeout: 100_000_000,
                suspect_after: 200_000_000,
            },
            _ => Timing {
                tick: 2_000_000,
                io_timeout: 400_000_000,
                suspect_after: 800_000_000,
            },
        }
    }

    /// The replica factory every deployment of this workload uses.
    pub fn factory(self) -> impl FnMut(&[NodeId], NodeId) -> OnePaxosNode + Send + 'static {
        let timing = self.timing();
        let relaxed = self == Workload::RwMem;
        move |members: &[NodeId], me| {
            let node = OnePaxosNode::with_timing(ClusterConfig::new(members.to_vec(), me), timing);
            if relaxed {
                node.with_relaxed_reads()
            } else {
                node
            }
        }
    }
}

/// SplitMix64: the benchmark's seeded generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first key client `c` owns; client key ranges are disjoint and
/// leave keys below 2^32 to the benchmark's own set-up probes.
pub fn key_base(client: usize) -> u64 {
    (client as u64 + 1) << 32
}

/// One client operation, by slot in the client's key book.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Put {
        slot: usize,
    },
    Get {
        slot: usize,
    },
    GetRelaxed {
        slot: usize,
        replica: u16,
    },
    /// Write both keys of pair `slot` in one transaction.
    Txn {
        slot: usize,
    },
}

/// A client's seeded op stream: the same `(seed, client)` always yields
/// the same sequence.
#[derive(Clone, Debug)]
pub struct OpStream {
    w: Workload,
    rng: u64,
    slots: u64,
    relaxed_rr: u16,
}

impl OpStream {
    pub fn new(w: Workload, seed: u64, client: usize) -> Self {
        let mut rng = seed ^ (0xC0FF_EE00 + client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut rng);
        let slots = match w {
            Workload::TxnMem => w.keys_per_client() / 2,
            _ => w.keys_per_client(),
        };
        OpStream {
            w,
            rng,
            slots,
            relaxed_rr: client as u16,
        }
    }

    /// A slot drawn uniformly from the client's keys.
    fn slot(&mut self) -> usize {
        (splitmix64(&mut self.rng) % self.slots) as usize
    }

    pub fn next_step(&mut self) -> Step {
        let slot = self.slot();
        match self.w {
            Workload::PutTcp | Workload::FailoverTcp => Step::Put { slot },
            Workload::TxnMem => Step::Txn { slot },
            Workload::RwMem => match splitmix64(&mut self.rng) % 100 {
                0..=49 => Step::Put { slot },
                50..=79 => Step::Get { slot },
                _ => {
                    self.relaxed_rr = (self.relaxed_rr + 1) % 3;
                    Step::GetRelaxed {
                        slot,
                        replica: self.relaxed_rr,
                    }
                }
            },
        }
    }
}

/// The key pairs a transaction client writes: pair `i` joins the `i`-th
/// key of the client's range that routes to shard 0 with the `i`-th that
/// routes to shard 1, so every transaction spans both groups.
pub fn txn_pairs(client: usize, pairs: u64, shards: u16) -> Vec<(u64, u64)> {
    let router = ShardRouter::new(shards);
    let mut by_shard: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut key = key_base(client);
    while by_shard.iter().any(|v| (v.len() as u64) < pairs) {
        let s = router.route_key(key).index().min(1);
        if (by_shard[s].len() as u64) < pairs {
            by_shard[s].push(key);
        }
        key += 1;
    }
    by_shard[0]
        .iter()
        .copied()
        .zip(by_shard[1].iter().copied())
        .collect()
}

/// Client `client`'s key book and, on txn-mem, its key pairs. On
/// txn-mem a slot is a pair, and its writes are value-encoded by the
/// slot's id in the client's range rather than by either key.
pub fn client_keys(w: Workload, client: usize) -> (KeyBook, Vec<(u64, u64)>) {
    if w == Workload::TxnMem {
        let pairs = txn_pairs(client, w.keys_per_client() / 2, w.shards());
        (KeyBook::new(key_base(client), pairs.len()), pairs)
    } else {
        let book = KeyBook::new(key_base(client), w.keys_per_client() as usize);
        (book, Vec::new())
    }
}

/// Low bits of a written value that carry the write's sequence number.
const SEQ_BITS: u32 = 24;

/// The value of the `seq`-th write to `key`: the key in the high bits, so
/// a value read back from the wrong key never passes a check.
pub fn encode_value(key: u64, seq: u32) -> u64 {
    debug_assert!(seq < 1 << SEQ_BITS);
    (key << SEQ_BITS) | u64::from(seq)
}

/// What one client wrote to each of its keys (or key pairs), and the
/// checks every answer about them must pass. Each key has one writer,
/// so a write acknowledged to it is the latest; a write that timed out
/// stays possible ("open"), so reads may also return any attempt after
/// the last acknowledged one. An aborted transaction's value must never
/// be read.
#[derive(Clone, Debug)]
pub struct KeyBook {
    base: u64,
    acked: Vec<u32>,
    attempted: Vec<u32>,
    /// `(slot, seq)` of every aborted write.
    aborted: HashSet<(usize, u32)>,
}

impl KeyBook {
    pub fn new(base: u64, slots: usize) -> Self {
        KeyBook {
            base,
            acked: vec![0; slots],
            attempted: vec![0; slots],
            aborted: HashSet::new(),
        }
    }

    pub fn key(&self, slot: usize) -> u64 {
        self.base + slot as u64
    }

    /// Starts the next write to `slot` and returns its value.
    pub fn begin_write(&mut self, slot: usize) -> u64 {
        self.attempted[slot] += 1;
        encode_value(self.key(slot), self.attempted[slot])
    }

    /// Records that the write just begun on `slot` was acknowledged.
    pub fn ack(&mut self, slot: usize) {
        self.acked[slot] = self.attempted[slot];
    }

    /// Records that the write just begun on `slot` was aborted: its
    /// value never becomes visible.
    pub fn abort(&mut self, slot: usize) {
        self.aborted.insert((slot, self.attempted[slot]));
    }

    /// Whether `seq` is the latest acknowledged write of `slot` or an
    /// open write after it; `ceiling` caps how recent it may be.
    fn allowed(&self, slot: usize, got: Option<u64>, ceiling: u32, floor: u32) -> bool {
        match got {
            None => floor == 0,
            Some(v) => {
                let seq = (v & ((1 << SEQ_BITS) - 1)) as u32;
                v >> SEQ_BITS == self.key(slot)
                    && seq >= floor.max(1)
                    && seq <= ceiling
                    && !self.aborted.contains(&(slot, seq))
            }
        }
    }

    /// A linearized read: the last acknowledged write or a later open
    /// one (`None` only if nothing was ever acknowledged).
    pub fn check_read(&self, slot: usize, got: Option<u64>) -> bool {
        self.allowed(slot, got, self.attempted[slot], self.acked[slot])
    }

    /// The previous value a put returned, checked before `begin_write`
    /// bumped the attempt count: the state any read would have seen.
    pub fn check_prev(&self, slot: usize, got: Option<u64>) -> bool {
        self.allowed(slot, got, self.attempted[slot] - 1, self.acked[slot])
    }

    /// A relaxed read: `None`, or any value this client wrote to the key
    /// so far.
    pub fn check_relaxed(&self, slot: usize, got: Option<u64>) -> bool {
        got.is_none() || self.allowed(slot, got, self.attempted[slot], 1)
    }

    /// Slots with at least one acknowledged write.
    pub fn written(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.acked.len()).filter(|&s| self.acked[s] > 0)
    }

    pub fn was_attempted(&self, slot: usize) -> bool {
        self.attempted[slot] > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_streams_repeat_per_seed_and_differ_across_seeds() {
        let take = |seed, client| {
            let mut s = OpStream::new(Workload::RwMem, seed, client);
            (0..64).map(|_| s.next_step()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
    }

    #[test]
    fn rw_mix_is_roughly_half_puts_and_a_fifth_relaxed() {
        let mut s = OpStream::new(Workload::RwMem, 1, 0);
        let (mut puts, mut gets, mut relaxed) = (0, 0, 0);
        for _ in 0..10_000 {
            match s.next_step() {
                Step::Put { .. } => puts += 1,
                Step::Get { .. } => gets += 1,
                Step::GetRelaxed { replica, .. } => {
                    assert!(replica < 3);
                    relaxed += 1
                }
                Step::Txn { .. } => unreachable!(),
            }
        }
        assert!((4_700..5_300).contains(&puts), "{puts}");
        assert!((2_700..3_300).contains(&gets), "{gets}");
        assert!((1_700..2_300).contains(&relaxed), "{relaxed}");
    }

    #[test]
    fn txn_pairs_span_both_shards_and_stay_in_the_client_range() {
        let router = ShardRouter::new(2);
        let pairs = txn_pairs(1, 100, 2);
        assert_eq!(pairs.len(), 100);
        for &(a, b) in &pairs {
            assert_ne!(router.route_key(a), router.route_key(b));
            assert!(a >= key_base(1) && a < key_base(2) && b >= key_base(1) && b < key_base(2));
        }
    }

    #[test]
    fn key_book_accepts_latest_or_open_writes_only() {
        let mut b = KeyBook::new(key_base(0), 4);
        assert!(b.check_read(0, None));
        let v1 = b.begin_write(0);
        assert!(b.check_prev(0, None));
        b.ack(0);
        assert!(b.check_read(0, Some(v1)));
        assert!(!b.check_read(0, None), "an acknowledged write was lost");
        // Another key's value never passes.
        assert!(!b.check_read(0, Some(encode_value(b.key(1), 1))));
        // A timed-out second write stays open: either value may be read.
        let v2 = b.begin_write(0);
        assert!(b.check_read(0, Some(v1)) && b.check_read(0, Some(v2)));
        // A value from the future never passes.
        assert!(!b.check_read(0, Some(encode_value(b.key(0), 3))));
        // Once the third write is acknowledged, older values are stale.
        let v3 = b.begin_write(0);
        assert!(b.check_prev(0, Some(v2)));
        b.ack(0);
        assert!(!b.check_read(0, Some(v1)));
        assert!(b.check_read(0, Some(v3)));
        // Relaxed reads may lag but not invent.
        assert!(b.check_relaxed(0, None) && b.check_relaxed(0, Some(v1)));
        assert!(!b.check_relaxed(0, Some(encode_value(b.key(0), 4))));
        assert_eq!(b.written().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn key_book_never_accepts_an_aborted_value() {
        let mut b = KeyBook::new(key_base(0), 2);
        let v1 = b.begin_write(0);
        b.ack(0);
        let v2 = b.begin_write(0);
        b.abort(0);
        assert!(b.check_read(0, Some(v1)));
        assert!(!b.check_read(0, Some(v2)) && !b.check_relaxed(0, Some(v2)));
        // Still rejected once a later write is open.
        let v3 = b.begin_write(0);
        assert!(!b.check_read(0, Some(v2)) && b.check_read(0, Some(v3)));
        // Aborted before anything was acknowledged: only `None` is valid.
        let w1 = b.begin_write(1);
        b.abort(1);
        assert!(b.check_read(1, None) && !b.check_read(1, Some(w1)));
        assert!(b.was_attempted(1) && !b.written().any(|s| s == 1));
    }
}
