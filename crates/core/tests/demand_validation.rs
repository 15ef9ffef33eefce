//! Every routing entry point rejects a demand no flow can meet with a typed
//! error, before any gradient work: an unbalanced demand (entries not
//! summing to zero) and a demand with a NaN or infinite entry. Balanced
//! demands, including ones balanced only up to rounding, still route with
//! `Bf = b`.

use capprox::RackeConfig;
use flowgraph::{gen, Demand, Graph, GraphError, NodeId};
use maxflow::{route_demand, MaxFlowConfig, PreparedMaxFlow, DEMAND_BALANCE_TOLERANCE};

fn config() -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_racke(RackeConfig::default().with_num_trees(4).with_seed(5))
        .with_phases(Some(2))
        .with_max_iterations_per_phase(300)
}

/// The demand through all three routing entry points: the one-shot
/// `route_demand`, a session's `route`, and a session's `route_many` with a
/// valid demand ahead of it.
fn route_everywhere(g: &Graph, b: &Demand) -> [Result<(), GraphError>; 3] {
    let cfg = config();
    let mut session = PreparedMaxFlow::prepare(g, &cfg).unwrap();
    let valid = Demand::st(g, NodeId(1), NodeId(2), 1.0);
    [
        route_demand(g, session.approximator(), b, &cfg).map(|_| ()),
        session.route(b).map(|_| ()),
        session.route_many(&[valid, b.clone()]).map(|_| ()),
    ]
}

#[test]
fn unbalanced_demand_is_rejected() {
    // One unit leaves node 0 but two are asked for at node 24: every flow's
    // excess sums to zero, so no flow meets this demand.
    let g = gen::grid(5, 5, 1.0);
    let mut b = Demand::zeros(25);
    b.set(NodeId(0), -1.0);
    b.set(NodeId(24), 2.0);
    for result in route_everywhere(&g, &b) {
        assert_eq!(
            result,
            Err(GraphError::UnbalancedDemand {
                imbalance: 1.0,
                magnitude: 3.0,
            })
        );
    }
}

#[test]
fn nan_demand_is_rejected() {
    let g = gen::grid(5, 5, 1.0);
    let mut b = Demand::st(&g, NodeId(0), NodeId(24), 1.0);
    b.set(NodeId(7), f64::NAN);
    for result in route_everywhere(&g, &b) {
        match result {
            Err(GraphError::NonFiniteDemand { node: 7, value }) => assert!(value.is_nan()),
            other => panic!("expected NonFiniteDemand at node 7, got {other:?}"),
        }
    }
}

#[test]
fn infinite_demand_is_rejected() {
    let g = gen::grid(5, 5, 1.0);
    for value in [f64::INFINITY, f64::NEG_INFINITY] {
        let mut b = Demand::zeros(25);
        b.set(NodeId(0), -value);
        b.set(NodeId(24), value);
        for result in route_everywhere(&g, &b) {
            assert_eq!(
                result,
                Err(GraphError::NonFiniteDemand {
                    node: 0,
                    value: -value
                })
            );
        }
    }
}

#[test]
fn demands_balanced_up_to_rounding_still_route() {
    let g = gen::grid(5, 5, 1.0);
    let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
    let mut rng = gen::rng(9);
    let mut b = Demand::zeros(25);
    for v in 0..24 {
        b.set(NodeId(v), rand::Rng::gen_range(&mut rng, -2.0..2.0));
    }
    // Balanced in exact arithmetic; the sum of the entries is only a
    // rounding error away from zero.
    b.set(NodeId(24), -b.total());
    // An imbalance just inside the tolerance is accepted too.
    let magnitude: f64 = b.values().iter().map(|x| x.abs()).sum();
    let mut nudged = b.clone();
    nudged.set(
        NodeId(3),
        b.get(NodeId(3)) + 0.5 * DEMAND_BALANCE_TOLERANCE * magnitude,
    );
    for demand in [&b, &nudged] {
        let routed = session.route(demand).unwrap();
        let excess = routed.flow.excess(&g);
        for v in g.nodes() {
            assert!(
                (excess[v.index()] - demand.get(v)).abs() < 1e-6,
                "excess mismatch at {v}"
            );
        }
    }
    // The zero demand is balanced and routes to the zero flow.
    let zero = session.route(&Demand::zeros(25)).unwrap();
    assert!(zero.flow.values().iter().all(|&x| x == 0.0));
}
