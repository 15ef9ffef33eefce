//! `loadgen` — replay a seeded mixed query/update stream against `flowd`
//! and print serving latency/throughput as JSON lines on stdout (a summary
//! goes to stderr).
//!
//! ```text
//! cargo run --release -p service --example loadgen -- \
//!     [--addr HOST:PORT] [--events N] [--threads T] [--seed S]
//! ```
//!
//! Without `--addr` an in-process daemon is started on an ephemeral port
//! (the recorded numbers then include no network beyond loopback TCP, same
//! as the CI smoke job). The stream is deterministic in `--seed`: each of
//! the `T` client threads replays `N/T` events drawn from its own
//! `splitmix64` stream — ~69% max-flow queries, ~30% demand routings, ~1%
//! capacity updates, all against one small path graph. Even on that graph
//! each answer is a full gradient descent costing hundreds of microseconds,
//! so the recorded latency is mostly engine time, with the serving layer
//! (framing, dispatch, coalescing) on top of it — not serving overhead
//! alone.
//!
//! Every reply is checked: an `"ok": false` reply or a wire failure counts
//! as a protocol error, and loadgen exits 1 unless there are none.

use std::time::Instant;

use service::client::Client;
use service::json::Value;
use service::server::{start, ServerOptions};

const NODES: u32 = 12;
const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--events N] [--threads T] [--seed S]";

/// splitmix64: tiny, seedable, and good enough to shuffle terminals.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn edges() -> Vec<(u32, u32, f64)> {
    (0..NODES - 1).map(|i| (i, i + 1, 4.0)).collect()
}

fn fast_config_value() -> Value {
    let config = maxflow::MaxFlowConfig {
        epsilon: 0.5,
        racke: capprox::RackeConfig {
            num_trees: Some(3),
            ..Default::default()
        },
        phases: Some(2),
        ..Default::default()
    };
    config.to_value().expect("default-ish config serializes")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    MaxFlow,
    Route,
    Update,
}

/// One client thread's share of the stream; returns per-event `(kind,
/// latency_ns)` plus its protocol-error count.
fn run_client(
    addr: std::net::SocketAddr,
    fingerprint: String,
    events: usize,
    seed: u64,
) -> (Vec<(Kind, u64)>, u64) {
    let mut rng = Rng(seed);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return (Vec::new(), events as u64),
    };
    let mut out = Vec::with_capacity(events);
    let mut errors = 0u64;
    for _ in 0..events {
        let roll = rng.below(100);
        let kind = if roll < 1 {
            Kind::Update
        } else if roll < 31 {
            Kind::Route
        } else {
            Kind::MaxFlow
        };
        let started = Instant::now();
        let reply = match kind {
            Kind::MaxFlow => {
                let s = rng.below(u64::from(NODES)) as u32;
                let t = (s + 1 + rng.below(u64::from(NODES) - 1) as u32) % NODES;
                client.max_flow(&fingerprint, s, t)
            }
            Kind::Route => {
                let s = rng.below(u64::from(NODES)) as usize;
                let t = (s + 1 + rng.below(u64::from(NODES) - 1) as usize) % NODES as usize;
                let mut demand = vec![0.0; NODES as usize];
                demand[s] = -1.0;
                demand[t] = 1.0;
                client.route(&fingerprint, &demand)
            }
            Kind::Update => {
                let edge = rng.below(u64::from(NODES) - 1) as u32;
                let cap = 1.0 + rng.below(8) as f64;
                client.update(&fingerprint, &[(edge, cap)])
            }
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        match reply {
            Ok(r) if r.get("ok").and_then(Value::as_bool) == Some(true) => {
                out.push((kind, elapsed))
            }
            _ => errors += 1,
        }
    }
    (out, errors)
}

struct Summary {
    min_ns: u64,
    mean_ns: u64,
    max_ns: u64,
    samples: usize,
    p50_ns: f64,
    p99_ns: f64,
}

fn summarize(latencies: &mut [u64]) -> Option<Summary> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    let n = latencies.len();
    let pct = |p: f64| latencies[(((n - 1) as f64) * p).round() as usize] as f64;
    Some(Summary {
        min_ns: latencies[0],
        mean_ns: (latencies.iter().map(|&x| u128::from(x)).sum::<u128>() / n as u128) as u64,
        max_ns: latencies[n - 1],
        samples: n,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    })
}

fn record(group: &str, id: &str, s: &Summary, wall_s: f64, threads: usize, cpus: usize) -> Value {
    let eps = if wall_s > 0.0 {
        s.samples as f64 / wall_s
    } else {
        0.0
    };
    Value::obj(vec![
        ("group", Value::Str(group.into())),
        ("id", Value::Str(id.into())),
        ("min_ns", Value::index(s.min_ns)),
        ("mean_ns", Value::index(s.mean_ns)),
        ("max_ns", Value::index(s.max_ns)),
        ("samples", Value::index(s.samples as u64)),
        ("throughput_elements", Value::index(s.samples as u64)),
        ("elements_per_sec", Value::Num(eps)),
        ("p50_ns", Value::Num(s.p50_ns)),
        ("p99_ns", Value::Num(s.p99_ns)),
        ("threads", Value::index(threads as u64)),
        ("host_cpus", Value::index(cpus as u64)),
    ])
}

fn main() {
    let mut addr: Option<String> = None;
    let mut events: usize = 100_000;
    let mut threads: usize = 4;
    let mut seed: u64 = 42;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("{USAGE}");
                std::process::exit(2)
            })
        };
        match flag.as_str() {
            "--addr" => addr = Some(value()),
            "--events" => events = value().parse().expect("--events N"),
            "--threads" => threads = value().parse().expect("--threads T"),
            "--seed" => seed = value().parse().expect("--seed S"),
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let threads = threads.max(1);

    // Either target a running daemon or host one in-process.
    let mut local = None;
    let target = match &addr {
        Some(a) => a.parse().expect("--addr HOST:PORT"),
        None => {
            let server = start("127.0.0.1:0", ServerOptions::default()).expect("bind loopback");
            let a = server.local_addr();
            local = Some(server);
            a
        }
    };

    let mut setup = Client::connect(target).expect("connect");
    let loaded = setup
        .load_graph(u64::from(NODES), &edges(), Some(fast_config_value()))
        .expect("load_graph");
    assert_eq!(
        loaded.get("ok").and_then(Value::as_bool),
        Some(true),
        "load_graph failed: {loaded:?}"
    );
    let fingerprint = loaded
        .get("graph")
        .and_then(Value::as_str)
        .expect("fingerprint")
        .to_string();

    let started = Instant::now();
    let mut handles = Vec::new();
    for k in 0..threads {
        let share = events / threads + usize::from(k < events % threads);
        let fp = fingerprint.clone();
        handles.push(std::thread::spawn(move || {
            run_client(
                target,
                fp,
                share,
                seed ^ (0x5851_f42d_4c95_7f2d * (k as u64 + 1)),
            )
        }));
    }
    let mut all: Vec<(Kind, u64)> = Vec::with_capacity(events);
    let mut protocol_errors = 0u64;
    for h in handles {
        let (latencies, errors) = h.join().expect("client thread");
        all.extend(latencies);
        protocol_errors += errors;
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Server-side counters.
    let stats = setup.stats().expect("stats");
    let entry = stats
        .get("entries")
        .and_then(Value::as_arr)
        .and_then(|e| e.first())
        .expect("one cached graph");
    let updates = entry.get("updates").and_then(Value::as_index).unwrap_or(0);

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lines = Vec::new();
    let mut mixed: Vec<u64> = all.iter().map(|&(_, ns)| ns).collect();
    let mixed_summary = summarize(&mut mixed).expect("at least one served event");
    lines.push(record(
        "flowd_serving",
        "mixed/path12",
        &mixed_summary,
        wall_s,
        threads,
        cpus,
    ));
    for (kind, id) in [
        (Kind::MaxFlow, "max_flow/path12"),
        (Kind::Route, "route/path12"),
        (Kind::Update, "update/path12"),
    ] {
        let mut subset: Vec<u64> = all
            .iter()
            .filter(|&&(k, _)| k == kind)
            .map(|&(_, ns)| ns)
            .collect();
        if let Some(s) = summarize(&mut subset) {
            lines.push(record("flowd_serving", id, &s, wall_s, threads, cpus));
        }
    }
    lines.push(Value::obj(vec![
        ("group", Value::Str("flowd_serving_counters".into())),
        ("id", Value::Str("mixed/path12".into())),
        ("min_ns", Value::index(0)),
        ("mean_ns", Value::index(0)),
        ("max_ns", Value::index(0)),
        ("samples", Value::index(1)),
        ("events", Value::index(events as u64)),
        ("served", Value::index(all.len() as u64)),
        ("protocol_errors", Value::index(protocol_errors)),
        ("updates", Value::index(updates)),
        ("threads", Value::index(threads as u64)),
        ("host_cpus", Value::index(cpus as u64)),
    ]));

    if local.is_some() {
        let _ = setup.shutdown();
    }
    if let Some(mut server) = local {
        server.shutdown();
    }

    for line in &lines {
        println!("{}", line.to_json().expect("every number is finite"));
    }
    eprintln!(
        "loadgen: {} events served in {wall_s:.2}s ({:.0}/s), {protocol_errors} protocol errors, \
         {updates} updates",
        all.len(),
        all.len() as f64 / wall_s
    );
    if protocol_errors > 0 {
        std::process::exit(1);
    }
}
