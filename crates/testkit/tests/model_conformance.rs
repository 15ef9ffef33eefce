//! The differential conformance suite: one protocol (and one max-flow
//! query), replayed across both engines, every communication model and
//! adversary (and, for the flow query, every thread count), must agree —
//! byte-identically on reliable fabrics, modulo the adversary's drop log on
//! lossy ones.
//!
//! The CI `conformance` job runs this suite with a fixed seed set;
//! `CONFORMANCE_THREADS` (default `1,4`) sets the thread counts of the flow
//! query's thread check, the only part of the suite with a thread
//! dimension. The scheduled stress job multiplies the proptest case counts
//! via `PROPTEST_CASES_MULTIPLIER`.

use capprox::RackeConfig;
use congest::model::{Adversary, CommModel, FaultEvent};
use congest::primitives::{BfsProtocol, MinIdFlood};
use congest::treeops::TreeDecomposition;
use congest::{Network, Simulator};
use flowgraph::{gen, spanning, NodeId};
use maxflow::MaxFlowConfig;
use proptest::prelude::*;
use testkit::conformance::{
    check_flow_conformance, check_protocol_matrix, check_tree_aggregation_matrix, ConformanceMatrix,
};

fn matrix() -> ConformanceMatrix {
    ConformanceMatrix::default()
}

#[test]
fn min_id_flood_conforms_on_every_family() {
    for fam in gen::Family::ALL {
        let network = Network::new(fam.generate(30, 3));
        let report = check_protocol_matrix(&network, &MinIdFlood, &matrix())
            .unwrap_or_else(|e| panic!("family {fam}: {e}"));
        // 1 reference + 1 untraced + 2 models + 2 seeds x 3 drop rates, less
        // the clique replay on multigraphs.
        assert!(
            report.replays >= 9,
            "family {fam}: {} replays",
            report.replays
        );
        assert!(report.dropped > 0, "family {fam}: adversary never fired");
        assert!(report.retransmissions > 0, "family {fam}");
    }
}

#[test]
fn bfs_conforms_with_timing_dependent_outputs() {
    // BFS parent choices legitimately depend on message timing, so lossy
    // replays check accounting and termination, not output bytes.
    let mut m = matrix();
    m.lossy_outputs_equal = false;
    for fam in gen::Family::ALL {
        let network = Network::new(fam.generate(24, 5));
        check_protocol_matrix(&network, &BfsProtocol::new(NodeId(0)), &m)
            .unwrap_or_else(|e| panic!("family {fam}: {e}"));
    }
}

#[test]
fn flow_query_is_byte_identical_across_the_matrix() {
    let g = gen::grid(5, 5, 1.0);
    let config = MaxFlowConfig::default()
        .with_epsilon(0.3)
        .with_racke(RackeConfig::default().with_num_trees(3).with_seed(7))
        .with_phases(Some(1))
        .with_max_iterations_per_phase(20);
    let report = check_flow_conformance(&g, &config, NodeId(0), NodeId(24), &matrix())
        .expect("flows agree across the model matrix");
    assert!(report.replays >= 8, "{} replays", report.replays);
    assert!(report.retransmissions > 0);
    assert!(report.max_lossy_rounds > report.classic_rounds);
}

#[test]
fn scripted_adversaries_are_replayed_exactly() {
    // A fully scripted adversary (no randomness at all) must produce the
    // identical fault log twice, and the crash must be visible in it.
    let network = Network::new(gen::grid(4, 4, 1.0));
    let adv = Adversary::benign(0)
        .with_crash(2, NodeId(9))
        .with_edge_drop(1, flowgraph::EdgeId(0));
    let model = CommModel::Lossy(adv);
    let (a, af) = Simulator::new()
        .run_model(&network, &model, &MinIdFlood)
        .unwrap();
    let (b, bf) = Simulator::new()
        .run_model(&network, &model, &MinIdFlood)
        .unwrap();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.cost, b.cost);
    assert_eq!(af.events, bf.events);
    assert!(af.events.iter().any(|e| matches!(
        e,
        FaultEvent::Crashed {
            round: 2,
            node: NodeId(9)
        }
    )));
    assert!(af.dropped() >= 1, "the scripted edge drop must be logged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn protocol_matrix_holds_on_random_graphs(seed in 0u64..10_000, n in 12usize..40) {
        let g = gen::random_gnp(n, 0.2, (1.0, 4.0), seed);
        if !g.is_connected() {
            return Ok(());
        }
        let network = Network::new(g);
        let report = check_protocol_matrix(&network, &MinIdFlood, &matrix());
        prop_assert!(report.is_ok(), "seed {}: {}", seed, report.unwrap_err());
    }

    #[test]
    fn tree_aggregations_conform_on_random_trees(seed in 0u64..10_000, n in 12usize..48) {
        let g = gen::random_gnp(n, 0.2, (1.0, 4.0), seed);
        if !g.is_connected() {
            return Ok(());
        }
        let tree = spanning::max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let mut rng = gen::rng(seed);
        let dec = TreeDecomposition::sample(
            &tree,
            TreeDecomposition::recommended_probability(n),
            &mut rng,
        );
        // Integer values: f64 sums are exact in any delivery order, so every
        // model must reproduce the oracle bytes.
        let values: Vec<f64> = (0..n).map(|v| ((v * 13 + seed as usize) % 9) as f64 - 4.0).collect();
        // The aggregation protocols route over tree edges of the original
        // graph, so the replay network is the graph itself.
        let network = Network::new(g);
        let report = check_tree_aggregation_matrix(&network, &tree, &dec, &values, &matrix());
        prop_assert!(report.is_ok(), "seed {}: {}", seed, report.unwrap_err());
    }
}
