//! Criterion benchmarks for the congestion-approximator substrates
//! (experiments E3/E4/E6/E7): low-stretch trees, sparsifiers, tree ensembles
//! and j-tree extraction, plus the per-tree fan-out of the blocked operators
//! `R·b` and `Rᵀ·y` that every gradient iteration evaluates.

use capprox::{
    build_jtree_top_loaded, build_tree_ensemble, sparsify, CongestionApproximator, OperatorScratch,
    RackeConfig, SparsifyConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowgraph::{gen, Demand, Graph, NodeId};
use lowstretch::{low_stretch_spanning_tree, LowStretchConfig};
use maxflow::Parallelism;
use testkit::families::streaming;

fn bench_low_stretch_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("low_stretch_tree");
    group.sample_size(10);
    for &n in &[100usize, 400] {
        let g = gen::Family::Random.generate(n, 5);
        let lengths: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::default())
                    .unwrap()
                    .stats
                    .iterations
            })
        });
    }
    group.finish();
}

fn bench_sparsifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparsifier");
    group.sample_size(10);
    for &n in &[100usize, 200] {
        let g = gen::complete(n, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| sparsify(&g, &SparsifyConfig::default()).graph.num_edges())
        });
    }
    group.finish();
}

fn bench_tree_ensemble_and_jtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble_and_jtree");
    group.sample_size(10);
    let g = gen::Family::Random.generate(150, 9);
    group.bench_function("tree_ensemble_8", |b| {
        b.iter(|| {
            build_tree_ensemble(&g, &RackeConfig::default().with_num_trees(8))
                .unwrap()
                .trees
                .len()
        })
    });
    let ensemble = build_tree_ensemble(&g, &RackeConfig::default().with_num_trees(1)).unwrap();
    group.bench_function("jtree_extraction", |b| {
        b.iter(|| build_jtree_top_loaded(&g, &ensemble.trees[0], 12).num_portals())
    });
    group.finish();
}

/// `apply_block_into_par` (`R`) and `apply_transpose_block_into_par` (`Rᵀ`)
/// at 1 and 2 threads, with one lane and with four, over the default
/// ensemble (2·⌈log₂ n⌉ + 1 trees, Lemma 3.3) of a 16×16 grid and of a
/// 10⁴-node fat-tree. Ids read `<op>/<instance>/lanes<k>/threads<T>`; the
/// threads-1 arm is the sequential path, and every parallel call spawns its
/// scoped workers afresh, which is the cost the fan-out has to earn back.
fn bench_operator_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("operator_fanout");
    group.sample_size(20);
    let instances: [(&str, Graph); 2] = [
        ("grid_16x16", gen::grid(16, 16, 1.0)),
        (
            "fat_tree_10k",
            streaming::fat_tree(64, 16, 155, 10.0, 40.0).expect("10k fat-tree fits u32 ids"),
        ),
    ];
    for (name, g) in &instances {
        let r = CongestionApproximator::build(g, &RackeConfig::default().with_seed(1))
            .expect("instance is connected");
        let (n, rows) = (g.num_nodes(), r.num_rows());
        let unit = Demand::st(g, NodeId(0), NodeId(n as u32 - 1), 1.0);
        for lanes in [1usize, 4] {
            // `lanes` copies of the unit demand, lane-major.
            let b: Vec<f64> = unit
                .values()
                .iter()
                .flat_map(|&x| std::iter::repeat_n(x, lanes))
                .collect();
            let mut y = vec![0.0; rows * lanes];
            let mut potentials = vec![0.0; n * lanes];
            let mut op = OperatorScratch::for_nodes(n * lanes);
            r.apply_block_into(&b, lanes, &mut y, &mut op)
                .expect("demand matches the approximator");
            for threads in [1usize, 2] {
                let par = Parallelism::with_threads(threads);
                let id = format!("{name}/lanes{lanes}/threads{threads}");
                group.bench_function(format!("R/{id}"), |bench| {
                    bench.iter(|| r.apply_block_into_par(&b, lanes, &mut y, &mut op, &par))
                });
                group.bench_function(format!("Rt/{id}"), |bench| {
                    bench.iter(|| {
                        r.apply_transpose_block_into_par(&y, lanes, &mut potentials, &mut op, &par)
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_low_stretch_tree,
    bench_sparsifier,
    bench_tree_ensemble_and_jtree,
    bench_operator_fanout
);
criterion_main!(benches);
