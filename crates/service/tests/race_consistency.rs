//! The never-torn serving contract, under real concurrency: while clients
//! hammer a graph with queries and an update lands mid-stream, every answer
//! must be **bitwise** either the pre-update answer or the post-update
//! answer — keyed by the `version` field the server reports — and never a
//! mix of old and new capacities.
//!
//! The oracle is exact because the whole pipeline is deterministic: the
//! pre-update reference is a session prepared offline on the old graph with
//! the same config, and the post-update reference one prepared on the
//! updated graph. Queries are stateless under every config and batched
//! answers are pinned byte-identical to sequential ones, so any
//! interleaving the server picks must reproduce one of the two references
//! bit for bit. One case changes one edge, the other seventeen.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use flowgraph::{gen, Demand, EdgeId, Graph, NodeId};
use maxflow::{MaxFlowConfig, PreparedMaxFlow};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use service::client::Client;
use service::json::Value;
use service::server::{start, ServerOptions};

struct References {
    old_value: u64,
    old_upper: u64,
    new_value: u64,
    new_upper: u64,
    old_congestion: u64,
    new_congestion: u64,
}

/// Answers offline on the old graph and on the updated graph, each through
/// its own freshly prepared session.
fn compute_references(
    graph: &Graph,
    config: &MaxFlowConfig,
    s: NodeId,
    t: NodeId,
    demand: &Demand,
    changes: &[(u32, f64)],
) -> References {
    let mut session = PreparedMaxFlow::prepare(graph, config).unwrap();
    let old = session.max_flow(s, t).unwrap();
    let old_route = session.route(demand).unwrap();

    let mut updated = graph.clone();
    for &(e, c) in changes {
        updated.set_capacity(EdgeId(e), c).unwrap();
    }
    let mut session = PreparedMaxFlow::prepare(&updated, config).unwrap();
    let new = session.max_flow(s, t).unwrap();
    let new_route = session.route(demand).unwrap();

    References {
        old_value: old.value.to_bits(),
        old_upper: old.upper_bound.to_bits(),
        new_value: new.value.to_bits(),
        new_upper: new.upper_bound.to_bits(),
        old_congestion: old_route.congestion.to_bits(),
        new_congestion: new_route.congestion.to_bits(),
    }
}

#[derive(Debug)]
enum Observation {
    MaxFlow {
        version: u64,
        value: u64,
        upper: u64,
    },
    Route {
        version: u64,
        congestion: u64,
    },
}

fn fast_config() -> MaxFlowConfig {
    MaxFlowConfig {
        epsilon: 0.5,
        racke: capprox::RackeConfig {
            num_trees: Some(3),
            ..Default::default()
        },
        phases: Some(2),
        ..Default::default()
    }
}

/// Three client threads stream queries on an `n`-node path while the main
/// thread fires one capacity update; every served answer must carry a
/// version and be bitwise equal to that version's offline reference.
fn race(n: u32, changes: &[(u32, f64)]) -> Result<(), TestCaseError> {
    let graph = gen::path(n as usize, 4.0);
    let config = fast_config();
    let s = NodeId(0);
    let t = NodeId(n - 1);
    let mut demand = Demand::zeros(n as usize);
    demand.set(s, -2.0);
    demand.set(t, 2.0);
    let refs = compute_references(&graph, &config, s, t, &demand, changes);

    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let config_value = config.to_value().unwrap();
    let edges: Vec<(u32, u32, f64)> = graph
        .edge_ids()
        .map(|e| {
            let edge = graph.edge(e);
            (edge.tail.0, edge.head.0, edge.capacity)
        })
        .collect();
    let loaded = client
        .load_graph(u64::from(n), &edges, Some(config_value))
        .unwrap();
    prop_assert_eq!(loaded.get("ok").and_then(Value::as_bool), Some(true));
    let fp = Arc::new(
        loaded
            .get("graph")
            .and_then(Value::as_str)
            .unwrap()
            .to_string(),
    );

    let demand_values: Arc<Vec<f64>> = Arc::new(demand.values().to_vec());
    let mut workers = Vec::new();
    for worker in 0..3u32 {
        let fp = Arc::clone(&fp);
        let demand_values = Arc::clone(&demand_values);
        workers.push(thread::spawn(
            move || -> Result<Vec<Observation>, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut seen = Vec::new();
                for i in 0..12 {
                    let reply = if (worker + i) % 3 == 0 {
                        let reply = client
                            .route(&fp, &demand_values)
                            .map_err(|e| e.to_string())?;
                        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
                            return Err(format!("route failed: {reply:?}"));
                        }
                        Observation::Route {
                            version: reply.get("version").and_then(Value::as_index).unwrap(),
                            congestion: reply
                                .get("congestion")
                                .and_then(Value::as_f64)
                                .unwrap()
                                .to_bits(),
                        }
                    } else {
                        let reply = client.max_flow(&fp, 0, n - 1).map_err(|e| e.to_string())?;
                        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
                            return Err(format!("max_flow failed: {reply:?}"));
                        }
                        Observation::MaxFlow {
                            version: reply.get("version").and_then(Value::as_index).unwrap(),
                            value: reply
                                .get("value")
                                .and_then(Value::as_f64)
                                .unwrap()
                                .to_bits(),
                            upper: reply
                                .get("upper_bound")
                                .and_then(Value::as_f64)
                                .unwrap()
                                .to_bits(),
                        }
                    };
                    seen.push(reply);
                }
                Ok(seen)
            },
        ));
    }

    // Land the update in the middle of the query storm.
    thread::sleep(Duration::from_millis(5));
    let updated = client.update(&fp, changes).unwrap();
    prop_assert_eq!(
        updated.get("ok").and_then(Value::as_bool),
        Some(true),
        "{:?}",
        &updated
    );
    prop_assert_eq!(updated.get("version").and_then(Value::as_index), Some(1));

    let mut observations = Vec::new();
    for w in workers {
        let seen = w.join().expect("query thread panicked");
        match seen {
            Ok(seen) => observations.extend(seen),
            Err(e) => return Err(TestCaseError::fail(format!("query thread: {e}"))),
        }
    }
    prop_assert_eq!(observations.len(), 36);

    // Every answer is bitwise the reference of the version it names.
    for obs in &observations {
        match *obs {
            Observation::MaxFlow {
                version,
                value,
                upper,
            } => match version {
                0 => {
                    prop_assert_eq!(value, refs.old_value, "torn old max_flow: {:?}", obs);
                    prop_assert_eq!(upper, refs.old_upper);
                }
                1 => {
                    prop_assert_eq!(value, refs.new_value, "torn new max_flow: {:?}", obs);
                    prop_assert_eq!(upper, refs.new_upper);
                }
                v => return Err(TestCaseError::fail(format!("impossible version {v}"))),
            },
            Observation::Route {
                version,
                congestion,
            } => match version {
                0 => prop_assert_eq!(congestion, refs.old_congestion, "torn old route: {:?}", obs),
                1 => prop_assert_eq!(congestion, refs.new_congestion, "torn new route: {:?}", obs),
                v => return Err(TestCaseError::fail(format!("impossible version {v}"))),
            },
        }
    }
    // The two references genuinely differ (the update moved the
    // bottleneck), so the check above is not vacuous.
    prop_assert_ne!(refs.old_value, refs.new_value);

    // After the dust settles every new answer is the new reference.
    let reply = client.max_flow(&fp, 0, n - 1).unwrap();
    prop_assert_eq!(reply.get("version").and_then(Value::as_index), Some(1));
    prop_assert_eq!(
        reply
            .get("value")
            .and_then(Value::as_f64)
            .unwrap()
            .to_bits(),
        refs.new_value
    );
    server.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One mid-path capacity drop certifiably changes the bottleneck.
    #[test]
    fn concurrent_queries_see_old_or_new_answers_never_torn(seed in 0u64..1000) {
        let n = 8 + (seed % 5) as u32;
        race(n, &[(n / 2, 1.0 + (seed % 3) as f64 * 0.5)])?;
    }

    /// Seventeen changed edges on a path of 18 to 22 nodes.
    #[test]
    fn a_rebuild_mid_stream_is_never_torn(seed in 0u64..1000) {
        let n = 18 + (seed % 5) as u32;
        let changes: Vec<(u32, f64)> = (0..17)
            .map(|e| (e, 1.0 + (seed % 3) as f64 * 0.5))
            .collect();
        race(n, &changes)?;
    }
}
