//! Million-node preparation benchmark for the recursive j-tree hierarchy
//! (the PR-7 acceptance numbers in `BENCH_pr7.json`).
//!
//! The serving posture is the one the hierarchy exists for: one huge
//! network, prepared once through `MaxFlowConfig::with_hierarchy`, then many
//! `(s, t)` queries against the prepared session. The benchmark records
//!
//! * `prepare/<instance>` — `PreparedMaxFlow::prepare` with the recursive
//!   hierarchy (cut sparsifier → j-tree → recurse, Theorem 8.10);
//! * `queries64_warm/<instance>` — 64 mixed s–t queries through the warm
//!   session, one `max_flow` call per query (the serving baseline; before
//!   the blocked engine this is exactly what `max_flow_batch` executed);
//! * `queries64_batched/<instance>` — the same 64 queries through
//!   `max_flow_batch`, i.e. the blocked multi-RHS gradient engine that
//!   advances several lanes per operator sweep — 4 on the 10k instances,
//!   2 at a million nodes where the lane-major working set outgrows the
//!   cache (the PR-9 acceptance numbers in `BENCH_pr9.json`);
//!
//! plus one hand-written `hierarchy_scale_mem` record per instance carrying
//! the peak RSS (`VmHWM` from `/proc/self/status`) and the measured
//! bytes/edge of the compact-ID SoA graph core — the two budgets the CI gate
//! enforces for the million-node instance.
//!
//! The default instances are 10k-node so the CI bench smoke-run stays fast;
//! setting `HIERARCHY_SCALE=full` adds the gated million-node fat-tree
//! (`BENCH_pr7.json` is recorded that way).

use capprox::{HierarchyConfig, RackeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flowgraph::{gen, Graph, NodeId};
use maxflow::json::Value;
use maxflow::{MaxFlowConfig, PreparedMaxFlow};
use rand::Rng;
use std::io::Write as _;
use testkit::families::streaming;

/// Queries per warm measurement, as in the PR acceptance criterion.
const QUERIES: usize = 64;

/// The serving configuration: a shallow recursion budget per level (one
/// guide tree), two chains of two lifted trees, and the same tight per-query
/// gradient budget as the `gradient_core` serving posture.
fn serving_config() -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(0.3)
        .with_racke(RackeConfig::default().with_seed(1))
        .with_phases(Some(1))
        .with_max_iterations_per_phase(6)
        .with_hierarchy(Some(
            HierarchyConfig::default()
                .with_direct_threshold(4_096)
                .with_chains(2)
                .with_trees_per_chain(Some(2))
                .with_seed(1),
        ))
}

fn instances() -> Vec<(&'static str, Graph)> {
    let mut out = vec![
        (
            "fat_tree_10k",
            streaming::fat_tree(64, 16, 155, 10.0, 40.0).expect("10k fat-tree fits u32 ids"),
        ),
        (
            "grid_10k",
            streaming::grid(100, 100, 1.0).expect("10k grid fits u32 ids"),
        ),
    ];
    if std::env::var_os("HIERARCHY_SCALE").is_some_and(|v| v == "full") {
        out.push((
            "fat_tree_1m",
            streaming::fat_tree(1_000, 8, 1_000, 10.0, 40.0).expect("1m fat-tree fits u32 ids"),
        ));
    }
    out
}

/// 64 deterministic mixed terminal pairs (distinct endpoints) per instance.
fn query_mix(g: &Graph, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as u32;
    let mut rng = gen::rng(seed);
    let mut pairs = Vec::with_capacity(QUERIES);
    while pairs.len() < QUERIES {
        let s = NodeId(rng.gen_range(0..n));
        let t = NodeId(rng.gen_range(0..n));
        if s != t {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Appends one memory-budget record per instance to the `BENCH_JSON` file in
/// the same line format as mini-criterion (the timing fields are zero; the
/// payload is the `peak_rss_bytes` / `bytes_per_edge` extension fields the
/// PR-7 CI gate reads).
fn emit_memory_record(name: &str, g: &Graph) {
    let mem = g.memory_bytes();
    let rss = peak_rss_bytes();
    println!(
        "bench hierarchy_scale_mem/footprint/{name}  peak_rss {rss} bytes  \
         graph {graph} bytes  {bpe:.1} bytes/edge",
        graph = mem.total(),
        bpe = mem.bytes_per_edge(g.num_edges()),
    );
    let Some(path) = std::env::var_os("BENCH_JSON") else {
        return;
    };
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let record = Value::obj(vec![
            ("group", Value::Str("hierarchy_scale_mem".into())),
            ("id", Value::Str(format!("footprint/{name}"))),
            ("min_ns", Value::index(0)),
            ("mean_ns", Value::index(0)),
            ("max_ns", Value::index(0)),
            ("samples", Value::index(1)),
            ("peak_rss_bytes", Value::index(rss)),
            ("graph_bytes", Value::index(mem.total() as u64)),
            (
                "bytes_per_edge",
                Value::Num(mem.bytes_per_edge(g.num_edges())),
            ),
            ("num_nodes", Value::index(g.num_nodes() as u64)),
            ("num_edges", Value::index(g.num_edges() as u64)),
        ]);
        let _ = writeln!(f, "{}", record.to_json().expect("every number is finite"));
    }
}

fn bench_hierarchy_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy_scale");
    group.sample_size(3);
    let config = serving_config();
    for (name, g) in instances() {
        let pairs = query_mix(&g, 0xfee1);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("prepare", name), &g, |b, g| {
            b.iter(|| {
                PreparedMaxFlow::prepare(g, &config)
                    .expect("instance is connected")
                    .approximator()
                    .num_rows()
            })
        });
        let mut session = PreparedMaxFlow::prepare(&g, &config).expect("instance is connected");
        group.throughput(Throughput::Elements(QUERIES as u64));
        // Baseline: one full gradient descent per query. Warm starts are off
        // in the serving config, so the session is history-free and the two
        // query arms below answer byte-identically — only the engine differs.
        group.bench_with_input(BenchmarkId::new("queries64_warm", name), &g, |b, _| {
            b.iter(|| {
                pairs
                    .iter()
                    .map(|&(s, t)| session.max_flow(s, t).expect("valid terminals").value)
                    .sum::<f64>()
            })
        });
        // Blocked engine: the same 64 queries, several lanes per sweep.
        group.bench_with_input(BenchmarkId::new("queries64_batched", name), &g, |b, _| {
            b.iter(|| {
                let results = session.max_flow_batch(&pairs).expect("valid terminals");
                results.iter().map(|r| r.value).sum::<f64>()
            })
        });
        drop(session);
        emit_memory_record(name, &g);
    }
    group.finish();
}

criterion_group!(benches, bench_hierarchy_scale);
criterion_main!(benches);
