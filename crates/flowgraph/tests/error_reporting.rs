//! `GraphError` as a first-class `std::error::Error`: every variant's
//! `Display` message names the offending field or dimension, the type
//! composes with `?` behind `Box<dyn Error>` (the `anyhow`-style pattern
//! downstream binaries use), and the `congest` simulation errors join the
//! same ecosystem.

use std::error::Error;

use flowgraph::{gen, Graph, GraphError, NodeId};

/// Every variant with the substrings its message must carry: the offending
/// value AND the dimension/field it violated, so an operator can act on the
/// message without reading source code.
fn display_cases() -> Vec<(GraphError, Vec<&'static str>)> {
    vec![
        (
            GraphError::NodeOutOfRange {
                node: 17,
                num_nodes: 5,
            },
            vec!["17", "5", "node"],
        ),
        (
            GraphError::EdgeOutOfRange {
                edge: 99,
                num_edges: 12,
            },
            vec!["99", "12", "edge"],
        ),
        (
            GraphError::InvalidWeight { value: -2.5 },
            vec!["-2.5", "positive"],
        ),
        (GraphError::NotConnected, vec!["connected"]),
        (GraphError::SelfLoop { node: 3 }, vec!["3", "self-loop"]),
        (GraphError::Empty, vec!["empty"]),
        (
            GraphError::DemandMismatch {
                expected: 25,
                actual: 9,
            },
            vec!["25", "9"],
        ),
        (
            GraphError::ParentEdgesMismatch {
                nodes: 3,
                parent_edges: 0,
            },
            vec!["parent-edge", "0", "3"],
        ),
        (
            GraphError::UnbalancedDemand {
                imbalance: 1.5,
                magnitude: 3.5,
            },
            vec!["unbalanced", "1.5", "3.5"],
        ),
        (
            GraphError::NonFiniteDemand {
                node: 4,
                value: f64::NAN,
            },
            vec!["NaN", "4", "finite"],
        ),
        (
            GraphError::NonFinite {
                quantity: "the routed flow",
            },
            vec!["the routed flow", "finite", "f64"],
        ),
        (
            GraphError::InvalidConfig {
                parameter: "epsilon",
                reason: "must be a finite number > 0",
            },
            vec!["epsilon", "finite"],
        ),
        (
            GraphError::Internal {
                invariant: "batch left a query unanswered",
            },
            vec!["internal", "batch left a query unanswered", "report"],
        ),
    ]
}

#[test]
fn every_variant_names_the_offending_field() {
    for (err, must_contain) in display_cases() {
        let msg = err.to_string();
        for needle in must_contain {
            assert!(
                msg.contains(needle),
                "{err:?}: message {msg:?} lacks {needle:?}"
            );
        }
    }
}

#[test]
fn graph_error_is_a_std_error_without_a_synthetic_source() {
    // GraphError variants are leaf diagnoses — they wrap no underlying
    // error, so source() must be None (a fabricated chain would mislead
    // error-report walkers).
    for (err, _) in display_cases() {
        let as_error: &dyn Error = &err;
        assert!(as_error.source().is_none(), "{err:?}");
        // Display and Debug both carry content.
        assert!(!as_error.to_string().is_empty());
        assert!(!format!("{err:?}").is_empty());
    }
}

/// The `?`-composition pattern downstream binaries use: any `GraphError`
/// hops into `Box<dyn Error>` without glue code.
fn boxed_pipeline(g: &Graph) -> Result<f64, Box<dyn Error>> {
    let tree = flowgraph::spanning::bfs_tree(g, NodeId(0))?;
    let demand = flowgraph::Demand::st(g, NodeId(0), NodeId((g.num_nodes() - 1) as u32), 1.0);
    let flow = tree.route_demand_on_graph(g, &demand)?;
    Ok(flow.values().iter().map(|x| x.abs()).sum())
}

#[test]
fn question_mark_composes_through_box_dyn_error() {
    let ok = boxed_pipeline(&gen::path(5, 1.0)).expect("connected path routes");
    assert!(ok > 0.0);

    // A disconnected graph surfaces the typed error through the box, with
    // the message intact for the operator.
    let mut disconnected = Graph::with_nodes(4);
    disconnected.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    let err = boxed_pipeline(&disconnected).expect_err("disconnected graph cannot route");
    assert!(err.to_string().contains("connected"));
    assert!(err.downcast_ref::<GraphError>().is_some());
    assert!(matches!(
        err.downcast_ref::<GraphError>(),
        Some(GraphError::NotConnected)
    ));
}

#[test]
fn construction_errors_round_trip_through_results() {
    let mut g = Graph::with_nodes(3);
    // Self loops are rejected with the node named.
    let err = g.add_edge(NodeId(1), NodeId(1), 1.0).unwrap_err();
    assert!(matches!(err, GraphError::SelfLoop { node: 1 }));
    assert!(err.to_string().contains('1'));
    // Invalid weights are rejected with the value named.
    let err = g.add_edge(NodeId(0), NodeId(1), f64::NAN).unwrap_err();
    assert!(matches!(err, GraphError::InvalidWeight { .. }));
    // Out-of-range endpoints name both the index and the bound.
    let err = g.add_edge(NodeId(0), NodeId(7), 1.0).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('7') && msg.contains('3'), "{msg}");
}
