//! Criterion benchmarks for the max-flow pipeline (experiments E1/E2/E5):
//! wall-clock cost of the approximate solver vs. the exact baselines, of
//! single AlmostRoute calls at different ε, and of the fused soft-max kernel
//! every gradient evaluation runs.

use capprox::{CongestionApproximator, RackeConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use flowgraph::{gen, Demand};
use maxflow::almost_route::smax_and_weights_into;
use maxflow::{AlmostRouteConfig, MaxFlowConfig};
use rand::Rng;

fn solver_config(eps: f64) -> MaxFlowConfig {
    MaxFlowConfig {
        epsilon: eps,
        racke: RackeConfig::default().with_num_trees(6).with_seed(1),
        alpha: None,
        max_iterations_per_phase: 2_000,
        phases: Some(2),
        ..Default::default()
    }
}

fn bench_approx_vs_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow_approx_vs_exact");
    group.sample_size(10);
    for &n in &[36usize, 100] {
        let side = (n as f64).sqrt() as usize;
        let g = gen::grid(side, side, 1.0);
        let (s, t) = gen::default_terminals(&g);
        group.bench_with_input(BenchmarkId::new("sherman_approx", n), &n, |b, _| {
            b.iter(|| {
                maxflow::approx_max_flow(&g, s, t, &solver_config(0.3))
                    .unwrap()
                    .value
            })
        });
        group.bench_with_input(BenchmarkId::new("dinic_exact", n), &n, |b, _| {
            b.iter(|| baselines::dinic::max_flow(&g, s, t).unwrap().value)
        });
        group.bench_with_input(BenchmarkId::new("push_relabel_exact", n), &n, |b, _| {
            b.iter(|| baselines::push_relabel::max_flow(&g, s, t).unwrap().value)
        });
    }
    group.finish();
}

fn bench_almost_route_epsilon(c: &mut Criterion) {
    let mut group = c.benchmark_group("almost_route_epsilon");
    group.sample_size(10);
    let g = gen::grid(7, 7, 1.0);
    let (s, t) = gen::default_terminals(&g);
    let r =
        CongestionApproximator::build(&g, &RackeConfig::default().with_num_trees(6).with_seed(2))
            .unwrap();
    let b = Demand::st(&g, s, t, 1.0);
    for &eps in &[0.5f64, 0.25, 0.1] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |bench, &eps| {
            bench.iter(|| {
                maxflow::almost_route(
                    &g,
                    &r,
                    &b,
                    &AlmostRouteConfig {
                        epsilon: eps,
                        alpha: None,
                        max_iterations: 50_000,
                        ..Default::default()
                    },
                )
                .iterations
            })
        });
    }
    group.finish();
}

fn bench_distributed_round_accounting(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_round_accounting");
    group.sample_size(10);
    for &n in &[64usize, 144] {
        let g = gen::Family::Expander.generate(n, 3);
        let (s, t) = gen::default_terminals(&g);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                maxflow::distributed_approx_max_flow(&g, s, t, &solver_config(0.3))
                    .unwrap()
                    .rounds
                    .total
                    .rounds
            })
        });
    }
    group.finish();
}

/// `smax_and_weights_into` on three seeded 21,000-entry vectors, the size
/// of the 1k fat-tree's row vector (21 trees × 1,000 nodes). Divide a time
/// by 21,000 for the cost per entry.
/// - `live_peak_221`: uniform in ±221, the peaks of ε = 0.5. Every
///   exponential is live.
/// - `band_peak_650`: uniform in ±650. No group is dead, and the arguments
///   `−|y| − 650` of the entries with `|y|` in (58, 96) lie in (−746, −708),
///   where e^x is subnormal.
/// - `start_peak_1100`: a start-of-descent vector at the default ε = 0.1:
///   nine entries in ten are 0 and the rest spread over ±1,100, so most
///   groups are dead.
fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax");
    group.sample_size(200);
    const LEN: usize = 21_000;
    let mut rng = gen::rng(5);
    let mut spread = |peak: f64, live: f64| -> Vec<f64> {
        let mut y: Vec<f64> = (0..LEN)
            .map(|_| {
                if rng.gen_bool(live) {
                    rng.gen_range(-peak..peak)
                } else {
                    0.0
                }
            })
            .collect();
        y[LEN / 2] = peak;
        y
    };
    let vectors = [
        ("live_peak_221", spread(221.0, 1.0)),
        ("band_peak_650", spread(650.0, 1.0)),
        ("start_peak_1100", spread(1100.0, 0.1)),
    ];
    let mut weights = vec![0.0; LEN];
    for (name, y) in &vectors {
        group.bench_function(*name, |bench| {
            bench.iter(|| smax_and_weights_into(black_box(y), &mut weights))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_approx_vs_exact,
    bench_almost_route_epsilon,
    bench_distributed_round_accounting,
    bench_softmax
);
criterion_main!(benches);
