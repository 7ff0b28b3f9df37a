//! Wire-transport experiment: the same threaded 1Paxos cluster, closed
//! loop and client count, deployed twice — once over shared-memory
//! qc-channel queues (`.spawn()`), once over loopback TCP sockets
//! (`.spawn_tcp()`), where every message crosses the kernel as a
//! length-prefixed `onepaxos::wire` frame.
//!
//! The gap between the two rows is the price of the codec plus the
//! socket path (syscalls, copies, TCP_NODELAY-sized writes); the §6.1
//! shared-memory design exists precisely to avoid paying it inside one
//! machine. A third `sim` row runs the same deployment shape through
//! the simulator under [`Profile::loopback_tcp`], whose socket-cost
//! constants are derived from this experiment's measured deltas — the
//! sim-vs-measured sanity check of the ROADMAP's network story.
//!
//! Records throughput and the client-observed latency distribution
//! (p50/p99) per transport in `BENCH_wire.json`. Gates: progress on
//! both transports, a tcp/mem throughput-ratio floor (default 0.2, a
//! regression backstop under the band measured on a 2-vCPU VM: ~0.22
//! full, ~0.16–0.29 smoke; override with `WIRE_MIN_RATIO`), and — on
//! full runs — the sim prediction landing within a small factor of the
//! measured tcp row.
//!
//! Usage: `exp_wire [--smoke] [--out PATH]`

use std::time::{Duration, Instant};

use consensus_bench::report::{render_json, BenchCli};
use consensus_bench::table::{ops, us, Table};
use manycore_sim::metrics::LatencyStats;
use manycore_sim::{Profile, SimBuilder, Workload};
use onepaxos::onepaxos::{Msg, OnePaxosNode, Timing};
use onepaxos::{ClusterConfig, NodeId};
use onepaxos_runtime::{ClientHandle, ClusterBuilder, Transport};

/// Replicas in every deployment (the paper's f=1 triple).
const REPLICAS: usize = 3;

/// Relaxed protocol timers: CI machines oversubscribe their cores, and
/// the TCP rows add scheduler + syscall latency on top.
fn timing() -> Timing {
    Timing {
        tick: 2_000_000,
        io_timeout: 400_000_000,
        suspect_after: 800_000_000,
    }
}

fn builder(
    clients: usize,
) -> ClusterBuilder<OnePaxosNode, impl FnMut(&[NodeId], NodeId) -> OnePaxosNode> {
    let t = timing();
    ClusterBuilder::new(REPLICAS, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), t)
    })
    .clients(clients)
}

/// One measured deployment: every client runs the closed loop of puts
/// until the deadline, recording per-op wall latency.
struct Point {
    transport: &'static str,
    committed: u64,
    throughput: f64,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn drive<T>(clients: Vec<ClientHandle<Msg, T>>, duration: Duration) -> (u64, f64, LatencyStats)
where
    T: Transport<Msg> + 'static,
{
    let started = Instant::now();
    let deadline = started + duration;
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(w, mut c)| {
            std::thread::spawn(move || {
                c.set_timeout(Duration::from_secs(5));
                let mut samples = Vec::new();
                let mut i = 0u64;
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    c.put(w as u64 * 1_000 + (i % 128), i).expect("commit");
                    samples.push(t0.elapsed().as_nanos() as u64);
                    i += 1;
                }
                samples
            })
        })
        .collect();
    let mut stats = LatencyStats::new();
    let mut committed = 0u64;
    for w in workers {
        let samples = w.join().expect("client thread");
        committed += samples.len() as u64;
        for s in samples {
            stats.record(s);
        }
    }
    let wall = started.elapsed().as_secs_f64();
    (committed, committed as f64 / wall, stats)
}

fn point(
    transport: &'static str,
    (committed, throughput, mut stats): (u64, f64, LatencyStats),
) -> Point {
    Point {
        transport,
        committed,
        throughput,
        mean_us: stats.mean() as f64 / 1_000.0,
        p50_us: stats.p50() as f64 / 1_000.0,
        p99_us: stats.p99() as f64 / 1_000.0,
    }
}

/// The same deployment shape — 3 replicas, `clients` closed-loop put
/// clients, everything timesharing one core — run through the simulator
/// under the [`Profile::loopback_tcp`] cost model, whose constants are
/// derived from this experiment's own measured deltas. The returned row
/// is the sim's prediction of the `tcp` row; agreement within a small
/// factor is the sanity check that the profile's socket costs explain
/// the measured gap (ROADMAP network story, step 2).
fn sim_point(clients: usize, duration: Duration) -> Point {
    let mut report = SimBuilder::new(Profile::loopback_tcp(), |m: &[NodeId], me| {
        OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
    })
    .replicas(REPLICAS)
    .clients(clients)
    .placement(vec![0; REPLICAS + clients])
    .workload(Workload::ReadMix {
        read_pct: 0,
        keys: 128,
        hot_pct: 0,
    })
    .duration(duration.as_nanos() as u64)
    .warmup(duration.as_nanos() as u64 / 10)
    .run();
    Point {
        transport: "sim",
        committed: report.completed,
        throughput: report.throughput,
        mean_us: report.mean_latency_us(),
        p50_us: report.p50_latency_us(),
        p99_us: report.p99_latency_us(),
    }
}

fn main() {
    let cli = BenchCli::parse();
    let out_path = cli.out_path("BENCH_wire.json");
    let (clients, duration) = if cli.smoke {
        (2usize, Duration::from_millis(500))
    } else {
        (4usize, Duration::from_secs(3))
    };

    println!(
        "Wire transport — 1Paxos replicas={REPLICAS} clients={clients} \
         duration={}ms{}\n",
        duration.as_millis(),
        if cli.smoke { " (smoke)" } else { "" }
    );

    let (cluster, mem_clients) = builder(clients).spawn();
    let mem = point("mem", drive(mem_clients, duration));
    cluster.shutdown();

    let (cluster, tcp_clients) = builder(clients).spawn_tcp().expect("tcp cluster setup");
    let tcp = point("tcp", drive(tcp_clients, duration));
    cluster.shutdown();

    let sim = sim_point(clients, duration);

    let points = [mem, tcp, sim];
    let mut t = Table::new(&[
        "transport",
        "committed",
        "op/s",
        "mean µs",
        "p50 µs",
        "p99 µs",
    ]);
    for p in &points {
        t.row(&[
            p.transport.to_string(),
            p.committed.to_string(),
            ops(p.throughput),
            us(p.mean_us),
            us(p.p50_us),
            us(p.p99_us),
        ]);
    }
    print!("{}", t.render());
    let ratio = points[1].throughput / points[0].throughput;
    let p50x = points[1].p50_us / points[0].p50_us;
    let sim_vs_tcp = points[2].throughput / points[1].throughput;
    println!(
        "\ntcp/mem throughput ratio {ratio:.2}x, tcp p50 {p50x:.2}x mem; \
         sim predicts {:.2}x of measured tcp.\n\
         shared-memory queues vs loopback sockets: the gap is the codec plus the\n\
         kernel round trips the paper's in-machine deployment (§6.1) avoids.",
        sim_vs_tcp
    );

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"transport\": \"{}\", \"clients\": {clients}, \"committed\": {}, \
                 \"throughput_ops\": {:.1}, \"mean_latency_us\": {:.2}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
                p.transport, p.committed, p.throughput, p.mean_us, p.p50_us, p.p99_us,
            )
        })
        .collect();
    let json = render_json(
        "wire_transport",
        "1Paxos",
        &[
            ("replicas", REPLICAS.to_string()),
            ("clients", clients.to_string()),
            ("duration_ms", duration.as_millis().to_string()),
        ],
        cli.smoke,
        &rows,
    );
    std::fs::write(out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");

    // Gate 1: everything must actually replicate.
    for p in &points {
        assert!(
            p.committed > 0 && p.p99_us > 0.0,
            "{} transport made no progress",
            p.transport
        );
    }

    // Gate 2: the tcp/mem throughput ratio must not regress. The default
    // floor is a backstop under the measured band: on a 2-vCPU Xeon VM
    // (~5 µs per syscall, three replicas and the clients timesharing
    // both cores) full runs measure ~0.22 and smoke runs 0.16–0.29,
    // median ~0.23, so a noisy-neighbour run can still dip under the
    // floor there. CI can tighten it via WIRE_MIN_RATIO on hardware
    // with spare cores.
    let min_ratio: f64 = std::env::var("WIRE_MIN_RATIO")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);
    assert!(
        ratio >= min_ratio,
        "tcp throughput fell to {ratio:.2}x of mem (floor {min_ratio})"
    );

    // Gate 3 (full runs only — smoke windows are too short to trust):
    // the simulator under the measurement-derived profile must land
    // within a small factor of the measured tcp row, or the profile's
    // cost model has drifted from reality.
    if !cli.smoke {
        assert!(
            (0.3..=3.0).contains(&sim_vs_tcp),
            "sim predicted {:.0} op/s vs measured {:.0} ({sim_vs_tcp:.2}x): \
             loopback_tcp profile no longer matches measurement",
            points[2].throughput,
            points[1].throughput
        );
    }
}
