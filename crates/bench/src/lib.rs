//! Experiment harness regenerating the paper's quantitative claims.
//!
//! The paper is an extended abstract without measured tables, so each
//! "table" here regenerates one of its *claims* (the README section
//! "Experiments and benches" shows how to run them):
//!
//! | id | claim |
//! |----|-------|
//! | E1 | Theorem 1.1 — round complexity vs. the Ω(n²) / O(m) baselines |
//! | E2 | (1+ε)-approximation quality vs. exact max flow |
//! | E3 | Theorem 3.1 — low average-stretch spanning trees |
//! | E4 | Lemma 3.3 / Thm 8.10 — congestion-approximator quality |
//! | E5 | AlmostRoute iteration growth in ε |
//! | E6 | Lemma 6.1 — cut sparsifier |
//! | E7 | Figure 1 / §8.3 — j-tree structure |
//! | E8 | Lemma 5.1 / Lemma 9.1 — cluster simulation & tree aggregation |
//! | E9 | rounds relative to the Ω̃(D + √n) lower bound |
//!
//! Every function returns a Markdown table; the `experiments` binary prints
//! them, and the same functions back the Criterion benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use baselines::{dinic, push_relabel, trivial};
use capprox::{
    build_hierarchical_ensemble, build_jtree_top_loaded, build_tree_ensemble, sparsify,
    CongestionApproximator, HierarchyConfig, RackeConfig, SparsifyConfig,
};
use congest::primitives::build_bfs_tree;
use congest::treeops::TreeDecomposition;
use congest::Network;
use flowgraph::{gen, spanning, Demand, NodeId};
use lowstretch::{low_stretch_spanning_tree, LowStretchConfig};
use maxflow::{distributed_approx_max_flow, MaxFlowConfig};

/// A rendered experiment: a title and a Markdown table.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment identifier (e.g. "E1").
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The Markdown table body.
    pub table: String,
}

impl std::fmt::Display for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "## {} — {}\n", self.id, self.title)?;
        writeln!(f, "{}", self.table)
    }
}

fn solver_config(eps: f64, seed: u64) -> MaxFlowConfig {
    MaxFlowConfig {
        epsilon: eps,
        // Lemma 3.3 default: 2·⌈log2 n⌉ + 1 sampled trees.
        racke: RackeConfig::default().with_seed(seed),
        alpha: None,
        max_iterations_per_phase: 3_000,
        phases: Some(3),
        ..Default::default()
    }
}

/// E1: CONGEST rounds of the paper's algorithm vs. distributed push-relabel
/// and the trivial collect-everything algorithm, across graph families and
/// sizes.
pub fn table1_rounds(sizes: &[usize]) -> Experiment {
    let mut out = String::from(
        "| family | n | m | D | D+√n | this work (rounds) | push-relabel (rounds) | collect O(m) (rounds) |\n|---|---|---|---|---|---|---|---|\n",
    );
    for fam in [
        gen::Family::Grid,
        gen::Family::Expander,
        gen::Family::Random,
    ] {
        for &n in sizes {
            let g = fam.generate(n, 42);
            let (s, t) = gen::default_terminals(&g);
            let dist = distributed_approx_max_flow(&g, s, t, &solver_config(0.2, 7))
                .expect("connected instance");
            let pr =
                push_relabel::distributed_max_flow(&g, s, t, 50_000_000).expect("valid instance");
            let collect = trivial::collect_and_solve(&g, s, t).expect("valid instance");
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.0} | {} | {} | {} |\n",
                fam,
                g.num_nodes(),
                g.num_edges(),
                dist.bfs_depth,
                dist.d_plus_sqrt_n(),
                dist.rounds.total.rounds,
                pr.rounds,
                collect.rounds.rounds,
            ));
        }
    }
    Experiment {
        id: "E1",
        title: "Theorem 1.1: round complexity vs. baselines",
        table: out,
    }
}

/// E2: approximation quality against the exact (Dinic) optimum.
pub fn table2_quality(n: usize, epsilons: &[f64]) -> Experiment {
    let mut out = String::from(
        "| family | ε | exact value | approx value | ratio | certified upper bound | iterations |\n|---|---|---|---|---|---|---|\n",
    );
    for fam in gen::Family::ALL {
        let g = fam.generate(n, 13);
        let (s, t) = gen::default_terminals(&g);
        let exact = dinic::max_flow(&g, s, t).expect("valid instance");
        for &eps in epsilons {
            let r = maxflow::approx_max_flow(&g, s, t, &solver_config(eps, 3))
                .expect("connected instance");
            out.push_str(&format!(
                "| {} | {:.2} | {:.3} | {:.3} | {:.3} | {:.3} | {} |\n",
                fam,
                eps,
                exact.value,
                r.value,
                r.value / exact.value.max(f64::MIN_POSITIVE),
                r.upper_bound,
                r.iterations,
            ));
        }
    }
    Experiment {
        id: "E2",
        title: "(1+ε)-approximation quality vs. exact max flow",
        table: out,
    }
}

/// E3: average stretch of low-stretch spanning trees vs. BFS / MST / random
/// trees (Theorem 3.1).
pub fn table3_stretch(sizes: &[usize]) -> Experiment {
    let mut out = String::from(
        "| family | n | AKPW stretch | BFS stretch | max-weight ST stretch | random ST stretch |\n|---|---|---|---|---|---|\n",
    );
    for fam in [
        gen::Family::Grid,
        gen::Family::Random,
        gen::Family::Expander,
    ] {
        for &n in sizes {
            let g = fam.generate(n, 5);
            let lengths: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
            let length = |e: flowgraph::EdgeId| lengths[e.index()];
            let akpw = low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::default())
                .expect("connected instance");
            let bfs = spanning::bfs_tree(&g, NodeId(0)).expect("connected");
            let mst = spanning::max_weight_spanning_tree(&g, NodeId(0)).expect("connected");
            let mut rng = gen::rng(99);
            let rnd = spanning::random_spanning_tree(&g, NodeId(0), &mut rng).expect("connected");
            out.push_str(&format!(
                "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
                fam,
                g.num_nodes(),
                akpw.tree.average_stretch(&g, length),
                bfs.average_stretch(&g, length),
                mst.average_stretch(&g, length),
                rnd.average_stretch(&g, length),
            ));
        }
    }
    Experiment {
        id: "E3",
        title: "Theorem 3.1: low average-stretch spanning trees",
        table: out,
    }
}

/// E4: congestion-approximator quality (Lemma 3.3): sandwich bounds for s-t
/// and random demands.
pub fn table4_capprox(n: usize, num_trees: &[usize]) -> Experiment {
    let mut out = String::from(
        "| family | #trees | measured α (s-t) | measured α (random demands, mean) | provable α |\n|---|---|---|---|---|\n",
    );
    for fam in [gen::Family::Grid, gen::Family::Random, gen::Family::Barbell] {
        let g = fam.generate(n, 21);
        let (s, t) = gen::default_terminals(&g);
        for &k in num_trees {
            let r = CongestionApproximator::build(
                &g,
                &RackeConfig::default().with_num_trees(k).with_seed(4),
            )
            .expect("connected instance");
            let st = Demand::st(&g, s, t, 1.0);
            let alpha_st = r.measured_alpha(&g, &st);
            let mut rng = gen::rng(17);
            let mut total = 0.0;
            let trials = 10;
            for _ in 0..trials {
                let mut b = Demand::zeros(g.num_nodes());
                for v in g.nodes() {
                    b.set(v, rand::Rng::gen_range(&mut rng, -1.0..1.0));
                }
                let shift = b.total() / g.num_nodes() as f64;
                for v in g.nodes() {
                    b.set(v, b.get(v) - shift);
                }
                total += r.measured_alpha(&g, &b);
            }
            out.push_str(&format!(
                "| {} | {} | {:.2} | {:.2} | {:.1} |\n",
                fam,
                k,
                alpha_st,
                total / trials as f64,
                r.provable_alpha(),
            ));
        }
    }
    Experiment {
        id: "E4",
        title: "Lemma 3.3 / Theorem 8.10: congestion-approximator quality",
        table: out,
    }
}

/// E5: AlmostRoute iteration growth as ε shrinks.
pub fn table5_iterations(n: usize, epsilons: &[f64]) -> Experiment {
    let g = gen::grid((n as f64).sqrt() as usize, (n as f64).sqrt() as usize, 1.0);
    let (s, t) = gen::default_terminals(&g);
    let r =
        CongestionApproximator::build(&g, &RackeConfig::default().with_num_trees(8).with_seed(2))
            .expect("connected instance");
    let b = Demand::st(&g, s, t, 1.0);
    let mut out =
        String::from("| ε | iterations | scaling steps | ε⁻³ (reference) |\n|---|---|---|---|\n");
    for &eps in epsilons {
        let result = maxflow::almost_route(
            &g,
            &r,
            &b,
            &maxflow::AlmostRouteConfig {
                epsilon: eps,
                alpha: None,
                max_iterations: 200_000,
                ..Default::default()
            },
        );
        out.push_str(&format!(
            "| {:.2} | {} | {} | {:.0} |\n",
            eps,
            result.iterations,
            result.scaling_steps,
            eps.powi(-3),
        ));
    }
    Experiment {
        id: "E5",
        title: "AlmostRoute iterations vs. ε (O(ε⁻³) regime)",
        table: out,
    }
}

/// E6: cut sparsifier quality and size (Lemma 6.1).
pub fn table6_sparsifier(sizes: &[usize]) -> Experiment {
    let mut out = String::from(
        "| n | m before | m after | reduction | ε target | worst cut error (10-node samples) |\n|---|---|---|---|---|---|\n",
    );
    for &n in sizes {
        let g = gen::complete(n, 1.0);
        let cfg = SparsifyConfig {
            epsilon: 0.5,
            oversampling: 1.0,
            seed: 3,
        };
        let s = sparsify(&g, &cfg);
        // Cut error measured exhaustively on a small companion instance.
        let small = gen::complete(10, 1.0);
        let s_small = sparsify(&small, &cfg);
        let (hi, lo) = capprox::sparsify::exhaustive_cut_error(&small, &s_small.graph);
        out.push_str(&format!(
            "| {} | {} | {} | {:.2}x | {:.2} | [{:.2}, {:.2}] |\n",
            n,
            g.num_edges(),
            s.graph.num_edges(),
            g.num_edges() as f64 / s.graph.num_edges().max(1) as f64,
            cfg.epsilon,
            lo,
            hi,
        ));
    }
    Experiment {
        id: "E6",
        title: "Lemma 6.1: cut sparsifier",
        table: out,
    }
}

/// E7: j-tree structure (Figure 1 / §8.3) and the recursive hierarchy
/// (Theorem 8.10). Both extract j-trees with the rule the hierarchy runs,
/// [`build_jtree_top_loaded`].
pub fn table7_jtrees(n: usize, js: &[usize]) -> Experiment {
    let g = gen::random_gnp(n, 8.0 / n as f64, (1.0, 5.0), 11);
    let ensemble = build_tree_ensemble(&g, &RackeConfig::default().with_num_trees(1).with_seed(5))
        .expect("connected instance");
    let mut out = String::from(
        "| j (target) | portals | bound j + 1 | bound 4j + 1 | core edges | forest components |\n|---|---|---|---|---|---|\n",
    );
    for &j in js {
        let jt = build_jtree_top_loaded(&g, &ensemble.trees[0], j);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            j,
            jt.num_portals(),
            j + 1,
            4 * j + 1,
            jt.core.num_edges(),
            jt.num_components(),
        ));
    }
    // The recursion the approximator runs (Theorem 8.10), with one chain and
    // one bottom tree: its levels extract top-loaded j-trees, so β must
    // exceed 4 for the 4j + 1 portal bound to shrink every level.
    let hier = HierarchyConfig::default()
        .with_direct_threshold(8)
        .with_chains(1)
        .with_trees_per_chain(Some(1))
        .with_seed(1);
    let (_, stats) = build_hierarchical_ensemble(&g, &hier, &RackeConfig::default())
        .expect("connected instance");
    out.push_str(&format!(
        "\nRecursive hierarchy (β = {}, one chain of build_hierarchical_ensemble):\n\n| level | nodes | edges | sparsified edges | j | portals | core edges |\n|---|---|---|---|---|---|---|\n",
        hier.beta
    ));
    for (i, level) in stats.chains[0].levels.iter().enumerate() {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            i,
            level.num_nodes,
            level.num_edges,
            level.num_sparsified_edges,
            level.j,
            level.num_portals,
            level.num_core_edges,
        ));
    }
    Experiment {
        id: "E7",
        title: "Figure 1 / §8.3: j-trees and the recursive hierarchy",
        table: out,
    }
}

/// E8: distributed primitives — pipelined aggregation (D + k) and the
/// decomposed tree aggregation (Lemma 9.1) vs. the naive depth-bound
/// approach.
pub fn table8_primitives(sizes: &[usize]) -> Experiment {
    let mut out = String::from(
        "| n (path) | tree depth | naive convergecast rounds | decomposed rounds | components | max comp. depth |\n|---|---|---|---|---|---|\n",
    );
    for &n in sizes {
        let g = gen::path(n, 1.0);
        let tree = spanning::bfs_tree(&g, NodeId(0)).expect("connected");
        let network = Network::new(g);
        let bfs = build_bfs_tree(&network, NodeId(0)).tree;
        let values = vec![1.0; n];
        let mut rng = gen::rng(3);
        let p = TreeDecomposition::recommended_probability(n);
        let dec = TreeDecomposition::sample(&tree, p, &mut rng);
        let trivial_dec = TreeDecomposition::trivial(&tree);
        let smart =
            congest::treeops::distributed_subtree_sums(&network, &tree, &dec, &bfs, &values);
        let naive = congest::treeops::distributed_subtree_sums(
            &network,
            &tree,
            &trivial_dec,
            &bfs,
            &values,
        );
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            n,
            tree.max_depth(),
            naive.cost.rounds,
            smart.cost.rounds,
            dec.num_components,
            dec.max_component_depth,
        ));
    }
    Experiment {
        id: "E8",
        title: "Lemma 5.1 / Lemma 9.1: tree aggregations in Õ(√n + D) rounds",
        table: out,
    }
}

/// E9: total rounds relative to the Ω̃(D + √n) lower bound of Das Sarma et
/// al. (the `n^{o(1)}·ε^{-3}` overhead factor).
pub fn table9_lower_bound(sizes: &[usize]) -> Experiment {
    let mut out = String::from(
        "| family | n | D+√n | total rounds | overhead factor | construction share | descent share |\n|---|---|---|---|---|---|---|\n",
    );
    for fam in [gen::Family::Grid, gen::Family::Expander] {
        for &n in sizes {
            let g = fam.generate(n, 23);
            let (s, t) = gen::default_terminals(&g);
            let dist = distributed_approx_max_flow(&g, s, t, &solver_config(0.25, 9))
                .expect("connected instance");
            let total = dist.rounds.total.rounds.max(1) as f64;
            out.push_str(&format!(
                "| {} | {} | {:.0} | {} | {:.1} | {:.0}% | {:.0}% |\n",
                fam,
                g.num_nodes(),
                dist.d_plus_sqrt_n(),
                dist.rounds.total.rounds,
                dist.overhead_factor(),
                100.0 * dist.rounds.approximator_construction.rounds as f64 / total,
                100.0 * dist.rounds.gradient_descent.rounds as f64 / total,
            ));
        }
    }
    Experiment {
        id: "E9",
        title: "Rounds relative to the Ω̃(D + √n) lower bound",
        table: out,
    }
}

/// A1 ablation: number of sampled trees vs. approximator quality and
/// per-iteration evaluation cost.
pub fn ablation_trees(n: usize, tree_counts: &[usize]) -> Experiment {
    let g = gen::grid((n as f64).sqrt() as usize, (n as f64).sqrt() as usize, 1.0);
    let (s, t) = gen::default_terminals(&g);
    let mut out = String::from(
        "| #trees | measured α (s-t) | rows of R | approx value | exact value |\n|---|---|---|---|---|\n",
    );
    let exact = dinic::max_flow(&g, s, t).expect("valid instance");
    for &k in tree_counts {
        let config = MaxFlowConfig {
            racke: RackeConfig::default().with_num_trees(k).with_seed(8),
            ..solver_config(0.2, 8)
        };
        let r = CongestionApproximator::build(&g, &config.racke).expect("connected");
        let st = Demand::st(&g, s, t, 1.0);
        let result = maxflow::approx_max_flow(&g, s, t, &config).expect("connected");
        out.push_str(&format!(
            "| {} | {:.2} | {} | {:.3} | {:.3} |\n",
            k,
            r.measured_alpha(&g, &st),
            r.num_rows(),
            result.value,
            exact.value,
        ));
    }
    Experiment {
        id: "A1",
        title: "Ablation: number of sampled trees in the congestion approximator",
        table: out,
    }
}

/// A2 ablation: the tree family used by the approximator (low-stretch vs.
/// BFS vs. maximum-weight spanning trees).
pub fn ablation_tree_kind(n: usize) -> Experiment {
    use capprox::{CapacitatedTree, TreeEnsemble};
    let g = gen::random_gnp(n, 8.0 / n as f64, (1.0, 5.0), 31);
    let (s, t) = gen::default_terminals(&g);
    let st = Demand::st(&g, s, t, 1.0);
    let mut out = String::from("| tree family | measured α (s-t) | provable α |\n|---|---|---|\n");

    let mk = |trees: Vec<CapacitatedTree>| -> CongestionApproximator {
        CongestionApproximator::from_ensemble(TreeEnsemble {
            stats: capprox::EnsembleStats {
                num_trees: trees.len(),
                max_rloads: trees.iter().map(|t| t.max_rload()).collect(),
                decomposition_rounds: 0,
                average_stretches: vec![],
            },
            trees,
        })
        .expect("ablation ensembles are non-empty")
    };

    let racke =
        CongestionApproximator::build(&g, &RackeConfig::default().with_num_trees(8).with_seed(2))
            .expect("connected");
    out.push_str(&format!(
        "| low-stretch (MWU ensemble) | {:.2} | {:.1} |\n",
        racke.measured_alpha(&g, &st),
        racke.provable_alpha()
    ));

    let bfs = mk(vec![CapacitatedTree::new(
        &g,
        spanning::bfs_tree(&g, s).expect("connected"),
    )]);
    out.push_str(&format!(
        "| single BFS tree | {:.2} | {:.1} |\n",
        bfs.measured_alpha(&g, &st),
        bfs.provable_alpha()
    ));

    let mst = mk(vec![CapacitatedTree::new(
        &g,
        spanning::max_weight_spanning_tree(&g, s).expect("connected"),
    )]);
    out.push_str(&format!(
        "| single max-weight spanning tree | {:.2} | {:.1} |\n",
        mst.measured_alpha(&g, &st),
        mst.provable_alpha()
    ));

    Experiment {
        id: "A2",
        title: "Ablation: tree family backing the congestion approximator",
        table: out,
    }
}

/// A3 ablation: the tree-decomposition cut probability (Lemma 8.2) vs. the
/// per-aggregation round cost.
pub fn ablation_decompose(n: usize) -> Experiment {
    let g = gen::path(n, 1.0);
    let tree = spanning::bfs_tree(&g, NodeId(0)).expect("connected");
    let network = Network::new(g);
    let bfs = build_bfs_tree(&network, NodeId(0)).tree;
    let values = vec![1.0; n];
    let mut out = String::from(
        "| cut probability | components | max component depth | aggregation rounds |\n|---|---|---|---|\n",
    );
    for &p in &[0.0, 0.01, 1.0 / (n as f64).sqrt(), 0.1, 0.3] {
        let mut rng = gen::rng(7);
        let dec = if p == 0.0 {
            TreeDecomposition::trivial(&tree)
        } else {
            TreeDecomposition::sample(&tree, p, &mut rng)
        };
        let run = congest::treeops::distributed_subtree_sums(&network, &tree, &dec, &bfs, &values);
        out.push_str(&format!(
            "| {:.3} | {} | {} | {} |\n",
            p, dec.num_components, dec.max_component_depth, run.cost.rounds
        ));
    }
    Experiment {
        id: "A3",
        title: "Ablation: tree-decomposition cut probability (Lemma 8.2)",
        table: out,
    }
}

/// Runs every experiment with the default (laptop-scale) parameters.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        table1_rounds(&[64, 144, 256]),
        table2_quality(36, &[0.5, 0.2, 0.1]),
        table3_stretch(&[100, 256]),
        table4_capprox(49, &[1, 4, 12]),
        table5_iterations(49, &[0.8, 0.4, 0.2, 0.1]),
        table6_sparsifier(&[100, 200, 300]),
        table7_jtrees(120, &[4, 8, 16, 32]),
        table8_primitives(&[100, 400, 900]),
        table9_lower_bound(&[64, 144, 256]),
        ablation_trees(36, &[1, 2, 4, 8, 16]),
        ablation_tree_kind(80),
        ablation_decompose(400),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_experiments_render_tables() {
        // Smoke-test the harness on tiny instances so `cargo test` stays fast.
        let e2 = table2_quality(16, &[0.5]);
        assert!(e2.table.contains("| path |"));
        let e3 = table3_stretch(&[36]);
        assert!(e3.table.lines().count() > 3);
        let e6 = table6_sparsifier(&[40]);
        assert!(e6.table.contains("| 40 |"));
        let j = 4;
        let e7 = table7_jtrees(40, &[j]);
        assert!(e7.table.contains("| 0 | 40 |"), "{}", e7.table);
        let portals: usize = e7
            .table
            .lines()
            .find(|line| line.starts_with(&format!("| {j} |")))
            .and_then(|row| row.split('|').nth(2))
            .and_then(|cell| cell.trim().parse().ok())
            .expect("a portal count for j = 4");
        assert!(
            (j + 1..=4 * j + 1).contains(&portals),
            "{portals} portals for j = {j}"
        );
        let e8 = table8_primitives(&[50]);
        assert!(e8.table.contains("| 50 |"));
        let a3 = ablation_decompose(80);
        assert!(a3.table.lines().count() >= 7);
    }

    #[test]
    fn experiment_display_includes_header() {
        let e = table6_sparsifier(&[30]);
        let s = e.to_string();
        assert!(s.starts_with("## E6"));
    }
}
