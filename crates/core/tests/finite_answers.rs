//! Every `Ok` answer is finite. The solvers work on capacities and demands
//! as given, in plain `f64`; when a sum or a ratio of them overflows, a
//! query used to answer `Ok` with NaN flow entries and a congestion of 0
//! (`FlowVec::max_congestion` folded with `f64::max`, which drops NaN). Each
//! case below gets a typed [`GraphError::NonFinite`] instead, from every
//! entry point that answers it.

use flowgraph::{gen, Demand, Graph, GraphError, NodeId};
use maxflow::{approx_max_flow, route_demand, MaxFlowConfig, PreparedMaxFlow};

/// The demand through the one-shot `route_demand`, a session's `route` and a
/// session's `route_many`, all with the default config.
fn route_everywhere(g: &Graph, b: &Demand) -> [Result<(), GraphError>; 3] {
    let cfg = MaxFlowConfig::default();
    let mut session = PreparedMaxFlow::prepare(g, &cfg).unwrap();
    [
        route_demand(g, session.approximator(), b, &cfg).map(|_| ()),
        session.route(b).map(|_| ()),
        session.route_many(std::slice::from_ref(b)).map(|_| ()),
    ]
}

#[test]
fn a_demand_whose_total_magnitude_overflows_is_rejected() {
    // Σ|b| = 2e308 overflows to ∞; the routing's flow came back NaN.
    let g = gen::path(3, 1.0);
    let b = Demand::from_values(vec![1e308, 0.0, -1e308]);
    for result in route_everywhere(&g, &b) {
        assert_eq!(
            result,
            Err(GraphError::NonFinite {
                quantity: "the demand's total magnitude"
            })
        );
    }
}

#[test]
fn an_unbalanced_demand_cannot_hide_behind_an_infinite_magnitude() {
    // The imbalance is 1e308, but against Σ|b| = ∞ the relative balance
    // test `|Σ b| ≤ tol · Σ|b|` could never fail.
    let g = gen::path(3, 1.0);
    let b = Demand::from_values(vec![1e308, 1e308, -1e308]);
    for result in route_everywhere(&g, &b) {
        assert_eq!(
            result,
            Err(GraphError::NonFinite {
                quantity: "the demand's total magnitude"
            })
        );
    }
}

#[test]
fn a_routing_that_overflows_on_huge_capacities_is_an_error() {
    // A unit demand on capacities 1e307: the descent overflows, and the
    // answer was a NaN flow with congestion 0 after 5,000 iterations.
    let g = gen::path(3, 1e307);
    let b = Demand::from_values(vec![1.0, 0.0, -1.0]);
    for result in route_everywhere(&g, &b) {
        assert!(
            matches!(result, Err(GraphError::NonFinite { .. })),
            "{result:?}"
        );
    }
}

#[test]
fn a_max_flow_that_overflows_on_huge_capacities_is_an_error() {
    // Every one of the 12 flow entries used to come back non-finite.
    let g = gen::grid(3, 3, 1e307);
    let cfg = MaxFlowConfig::default();
    let (s, t) = (NodeId(0), NodeId(8));
    let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
    let results = [
        approx_max_flow(&g, s, t, &cfg).map(|_| ()),
        session.max_flow(s, t).map(|_| ()),
        session.max_flow_batch(&[(s, t)]).map(|_| ()),
    ];
    for result in results {
        assert!(
            matches!(result, Err(GraphError::NonFinite { .. })),
            "{result:?}"
        );
    }
}
