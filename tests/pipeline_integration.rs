//! Cross-crate integration tests: the full pipeline (generators → sparsifier
//! → low-stretch trees → congestion approximator → AlmostRoute → max flow)
//! against the exact baselines.

use baselines::{dinic, push_relabel, trivial};
use capprox::RackeConfig;
use flowgraph::{gen, NodeId};
use maxflow::{approx_max_flow, distributed_approx_max_flow, MaxFlowConfig, PreparedMaxFlow};

fn config(eps: f64, seed: u64) -> MaxFlowConfig {
    MaxFlowConfig {
        epsilon: eps,
        // `num_trees: None` selects the Lemma 3.3 default of 2·⌈log2 n⌉ + 1
        // sampled trees, which is what the quality of the solver relies on.
        racke: RackeConfig::default().with_seed(seed),
        alpha: None,
        max_iterations_per_phase: 4_000,
        phases: Some(3),
        ..Default::default()
    }
}

#[test]
fn approximation_close_to_exact_on_every_family() {
    for fam in gen::Family::ALL {
        let g = fam.generate(40, 7);
        let (s, t) = gen::default_terminals(&g);
        let exact = dinic::max_flow(&g, s, t).unwrap();
        let approx = approx_max_flow(&g, s, t, &config(0.1, 2)).unwrap();
        // Feasibility is unconditional.
        approx.flow.validate_st_flow(&g, s, t, 1e-6).unwrap();
        assert!(
            approx.value <= exact.value + 1e-6,
            "family {fam}: approximate value {} exceeds the exact optimum {}",
            approx.value,
            exact.value
        );
        // Quality floor that every family must clear with this small
        // iteration budget; the experiment harness (E2) reports the measured
        // ratios, which are far higher for most families (the layered family
        // with many parallel paths is the hardest for the tree-based
        // approximator at this budget).
        assert!(
            approx.value >= 0.3 * exact.value,
            "family {fam}: value {} is below 0.3x the optimum {}",
            approx.value,
            exact.value
        );
        // The certificate brackets the optimum.
        assert!(exact.value <= approx.upper_bound + 1e-6, "family {fam}");
    }
}

#[test]
fn exact_baselines_agree_with_each_other() {
    for seed in 0..5 {
        let g = gen::random_gnp(20, 0.3, (1.0, 6.0), seed);
        let (s, t) = gen::default_terminals(&g);
        let d = dinic::max_flow(&g, s, t).unwrap();
        let pr = push_relabel::max_flow(&g, s, t).unwrap();
        let dpr = push_relabel::distributed_max_flow(&g, s, t, 10_000_000).unwrap();
        assert!((d.value - pr.value).abs() < 1e-6, "seed {seed}");
        assert!((d.value - dpr.value).abs() < 1e-6, "seed {seed}");
        let collect = trivial::collect_and_solve(&g, s, t).unwrap();
        assert!((collect.value - d.value).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn single_tree_baseline_never_beats_the_solver_by_much() {
    // The solver contains the single-tree routing as a fallback, so it can
    // never be worse than it.
    for fam in [gen::Family::Grid, gen::Family::Random, gen::Family::Layered] {
        let g = fam.generate(36, 9);
        let (s, t) = gen::default_terminals(&g);
        let tree = trivial::single_tree_flow(&g, s, t).unwrap();
        let approx = approx_max_flow(&g, s, t, &config(0.2, 4)).unwrap();
        assert!(
            approx.value + 1e-9 >= tree.value,
            "family {fam}: solver {} below the single-tree baseline {}",
            approx.value,
            tree.value
        );
    }
}

#[test]
fn distributed_and_centralized_agree_on_the_flow_value() {
    let g = gen::Family::Grid.generate(49, 3);
    let (s, t) = gen::default_terminals(&g);
    let cfg = config(0.25, 6);
    let central = approx_max_flow(&g, s, t, &cfg).unwrap();
    let distributed = distributed_approx_max_flow(&g, s, t, &cfg).unwrap();
    assert!((central.value - distributed.result.value).abs() < 1e-9);
    assert_eq!(central.iterations, distributed.result.iterations);
    assert!(distributed.rounds.total.rounds > 0);
}

#[test]
fn reusing_the_approximator_across_terminal_pairs() {
    let g = gen::Family::Random.generate(36, 15);
    let cfg = config(0.2, 1).with_racke(RackeConfig::default().with_num_trees(6).with_seed(1));
    let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
    for (s, t) in [(0u32, 35u32), (3, 30), (10, 20)] {
        let (s, t) = (NodeId(s), NodeId(t));
        let exact = dinic::max_flow(&g, s, t).unwrap();
        let approx = session.max_flow(s, t).unwrap();
        approx.flow.validate_st_flow(&g, s, t, 1e-6).unwrap();
        assert!(approx.value <= exact.value + 1e-6);
        assert!(approx.value >= 0.5 * exact.value, "pair ({s}, {t})");
    }
}
