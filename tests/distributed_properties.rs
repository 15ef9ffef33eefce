//! Integration tests for the distributed layer: the CONGEST primitives
//! compose correctly across crates, the tree aggregations match their
//! centralized references on arbitrary trees, and the round accounting of the
//! full pipeline behaves like Õ(D + √n) per iteration rather than Õ(n).

use capprox::RackeConfig;
use congest::primitives::{broadcast_over_tree, build_bfs_tree, convergecast_sum};
use congest::treeops::{distributed_prefix_sums, distributed_subtree_sums, TreeDecomposition};
use congest::Network;
use flowgraph::{gen, spanning, NodeId};
use maxflow::MaxFlowConfig;
use proptest::prelude::*;
use testkit::CongestBudget;

#[test]
fn bfs_broadcast_convergecast_roundtrip_on_all_families() {
    for fam in gen::Family::ALL {
        let g = fam.generate(30, 3);
        let n = g.num_nodes();
        let network = Network::new(g);
        let bfs = build_bfs_tree(&network, NodeId(0));
        let b = broadcast_over_tree(&network, &bfs.tree, 3.25);
        assert!(
            b.values.iter().all(|&v| (v - 3.25).abs() < 1e-12),
            "family {fam}"
        );
        let values: Vec<f64> = (0..n).map(|v| v as f64).collect();
        let c = convergecast_sum(&network, &bfs.tree, &values);
        let expected: f64 = values.iter().sum();
        assert!((c.root_value - expected).abs() < 1e-9, "family {fam}");
        // Round costs are bounded by the tree depth plus slack.
        assert!(
            b.cost.rounds as usize <= bfs.tree.max_depth() + 2,
            "family {fam}"
        );
        assert!(
            c.cost.rounds as usize <= bfs.tree.max_depth() + 2,
            "family {fam}"
        );
    }
}

#[test]
fn per_iteration_rounds_scale_with_sqrt_n_on_expanders() {
    // On expanders D = O(log n), so the per-iteration cost should grow far
    // slower than linearly in n.
    let mut per_iter = Vec::new();
    for &n in &[64usize, 256] {
        let g = gen::Family::Expander.generate(n, 5);
        let (s, t) = gen::default_terminals(&g);
        let cfg = MaxFlowConfig {
            epsilon: 0.4,
            racke: RackeConfig::default().with_num_trees(3).with_seed(2),
            alpha: None,
            max_iterations_per_phase: 5,
            phases: Some(1),
            ..Default::default()
        };
        let dist = maxflow::distributed_approx_max_flow(&g, s, t, &cfg).unwrap();
        per_iter.push(dist.rounds.per_iteration.rounds as f64);
    }
    let growth = per_iter[1] / per_iter[0];
    // n grew by 4x; Õ(√n) growth is ~2x (plus log factors), far below 4x.
    assert!(
        growth < 3.5,
        "per-iteration rounds grew by {growth:.2}x when n grew 4x: {per_iter:?}"
    );
}

/// Regression pin for PR 3's documented behaviour change: the one-shot
/// `distributed_approx_max_flow` wrapper roots its measured BFS tree at the
/// canonical aggregation root `NodeId(0)` *regardless of the query's `s`*.
/// Two facts follow and must not silently drift again:
///
/// 1. every query-independent component of the round bill (BFS
///    construction, approximator construction, per-iteration, repair) is
///    identical across terminal pairs — including pairs whose `s` has a very
///    different eccentricity than node 0 — and `bfs_depth` always reports
///    node 0's eccentricity;
/// 2. the flows still match the session's byte for byte (the root move
///    changed accounting only, never answers).
#[test]
fn one_shot_round_bill_is_rooted_at_node_zero_not_s() {
    use congest::primitives::build_bfs_tree;
    use congest::Network;
    use maxflow::PreparedMaxFlow;

    let g = gen::grid(5, 5, 1.0);
    let cfg = MaxFlowConfig {
        epsilon: 0.3,
        racke: RackeConfig::default().with_num_trees(3).with_seed(11),
        max_iterations_per_phase: 30,
        phases: Some(1),
        ..Default::default()
    };
    // Node 0 is the grid corner (eccentricity 8); node 12 is the center
    // (eccentricity 4). If the BFS tree were rooted at s, these two queries
    // would report different bfs_depth values.
    let corner_ecc = build_bfs_tree(&Network::new(g.clone()), NodeId(0))
        .tree
        .max_depth();
    let center_ecc = build_bfs_tree(&Network::new(g.clone()), NodeId(12))
        .tree
        .max_depth();
    assert_ne!(corner_ecc, center_ecc, "the pin needs distinct roots");

    let from_corner =
        maxflow::distributed_approx_max_flow(&g, NodeId(0), NodeId(24), &cfg).unwrap();
    let from_center =
        maxflow::distributed_approx_max_flow(&g, NodeId(12), NodeId(3), &cfg).unwrap();

    // Fact 1: the bill's query-independent components do not depend on s.
    assert_eq!(from_corner.bfs_depth, corner_ecc);
    assert_eq!(
        from_center.bfs_depth, corner_ecc,
        "bfs_depth must report node 0's eccentricity even for s = 12"
    );
    assert_eq!(
        from_corner.rounds.bfs_construction,
        from_center.rounds.bfs_construction
    );
    assert_eq!(
        from_corner.rounds.approximator_construction,
        from_center.rounds.approximator_construction
    );
    assert_eq!(
        from_corner.rounds.per_iteration,
        from_center.rounds.per_iteration
    );
    assert_eq!(from_corner.rounds.repair, from_center.rounds.repair);

    // Fact 2: flows match the session byte for byte, for both queries.
    let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
    for (wrapper, (s, t)) in [
        (&from_corner, (NodeId(0), NodeId(24))),
        (&from_center, (NodeId(12), NodeId(3))),
    ] {
        let ses = session.distributed_max_flow(s, t).unwrap();
        assert_eq!(
            wrapper.result.value.to_bits(),
            ses.result.value.to_bits(),
            "s={s}"
        );
        let wrapper_bits: Vec<u64> = wrapper
            .result
            .flow
            .values()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let ses_bits: Vec<u64> = ses
            .result
            .flow
            .values()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(wrapper_bits, ses_bits, "s={s}");
        assert_eq!(wrapper.rounds, ses.rounds, "s={s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn decomposed_aggregations_match_centralized(seed in 0u64..5000, n in 20usize..80) {
        let g = gen::random_gnp(n, 0.15, (1.0, 3.0), seed);
        let tree = spanning::max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let network = Network::new(g);
        let bfs = build_bfs_tree(&network, NodeId(0)).tree;
        let mut rng = gen::rng(seed);
        let dec = TreeDecomposition::sample(&tree, 0.25, &mut rng);
        // Integer values: f64 sums are exact in any order, so the protocols
        // must reproduce the centralized sums bit for bit.
        let values: Vec<f64> = (0..n).map(|v| ((v * 31 + seed as usize) % 11) as f64 - 5.0).collect();
        let up = distributed_subtree_sums(&network, &tree, &dec, &bfs, &values);
        let down = distributed_prefix_sums(&network, &tree, &dec, &bfs, &values);
        let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
        prop_assert_eq!(bits(&up.values), bits(&tree.subtree_sums(&values)));
        prop_assert_eq!(bits(&down.values), bits(&tree.prefix_sums_from_root(&values)));
        // Every message carries O(log n) bits.
        let max_words = CongestBudget::default().max_message_words;
        prop_assert!(up.cost.max_message_words <= max_words);
        prop_assert!(down.cost.max_message_words <= max_words);
    }

    #[test]
    fn decomposition_components_partition_the_tree(seed in 0u64..5000, n in 20usize..120) {
        let g = gen::path(n, 1.0);
        let tree = spanning::bfs_tree(&g, NodeId(0)).unwrap();
        let mut rng = gen::rng(seed);
        let dec = TreeDecomposition::sample(&tree, TreeDecomposition::recommended_probability(n), &mut rng);
        // Labels are dense and component roots are consistent.
        prop_assert_eq!(dec.component.len(), n);
        let max_label = dec.component.iter().copied().max().unwrap();
        prop_assert_eq!(max_label + 1, dec.num_components);
        for (c, &root) in dec.component_roots.iter().enumerate() {
            prop_assert_eq!(dec.component[root.index()], c);
        }
    }
}
