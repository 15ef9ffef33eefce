//! Million-node preparation benchmark for the recursive j-tree hierarchy.
//!
//! The posture is the one the hierarchy exists for: one huge network,
//! prepared once through `MaxFlowConfig::with_hierarchy`. The benchmark times
//!
//! * `prepare/<instance>` — `PreparedMaxFlow::prepare` with the recursive
//!   hierarchy (cut sparsifier → j-tree → recurse, Theorem 8.10);
//!
//! and prints one `hierarchy_scale_mem` line per instance carrying the peak
//! RSS (`VmHWM` from `/proc/self/status`) and the measured bytes/edge of the
//! compact-ID SoA graph core.
//!
//! The default instances are 10k-node so the CI bench smoke-run stays fast;
//! setting `HIERARCHY_SCALE=full` adds the million-node fat-tree. Queries
//! are timed, certified, by the certified-answer benchmark (`certbench/`).

use capprox::{HierarchyConfig, RackeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowgraph::Graph;
use maxflow::{MaxFlowConfig, PreparedMaxFlow};
use testkit::families::streaming;

/// The hierarchy configuration: a shallow recursion budget per level (one
/// guide tree) and two chains of two lifted trees. Preparation reads only
/// the Räcke and hierarchy fields, so the query fields keep their defaults.
fn prepare_config() -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_racke(RackeConfig::default().with_seed(1))
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

/// Prints the peak RSS so far and the graph's measured footprint.
fn print_footprint(name: &str, g: &Graph) {
    let mem = g.memory_bytes();
    println!(
        "bench hierarchy_scale_mem/footprint/{name}  peak_rss {rss} bytes  \
         graph {graph} bytes  {bpe:.1} bytes/edge",
        rss = peak_rss_bytes(),
        graph = mem.total(),
        bpe = mem.bytes_per_edge(g.num_edges()),
    );
}

fn bench_hierarchy_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy_scale");
    group.sample_size(3);
    let config = prepare_config();
    for (name, g) in instances() {
        group.bench_with_input(BenchmarkId::new("prepare", name), &g, |b, g| {
            b.iter(|| {
                PreparedMaxFlow::prepare(g, &config)
                    .expect("instance is connected")
                    .approximator()
                    .num_rows()
            })
        });
        print_footprint(name, &g);
    }
    group.finish();
}

criterion_group!(benches, bench_hierarchy_scale);
criterion_main!(benches);
