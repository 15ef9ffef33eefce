//! End-to-end tests of the `flowd` daemon over real sockets: protocol
//! behavior, session-cache eviction, and capacity updates.

use flowgraph::NodeId;
use maxflow::{MaxFlowConfig, PreparedMaxFlow};
use service::client::{is_error, Client};
use service::json::{parse, Value};
use service::protocol::ErrorCode;
use service::server::{start, ServerOptions};

/// A cheap solver config so every query costs microseconds, as a `Value`
/// for the wire and a `MaxFlowConfig` for in-process references.
fn fast_config() -> (Value, MaxFlowConfig) {
    let config = MaxFlowConfig {
        epsilon: 0.5,
        racke: capprox::RackeConfig {
            num_trees: Some(3),
            ..Default::default()
        },
        phases: Some(2),
        ..Default::default()
    };
    let value = config.to_value().unwrap();
    (value, config)
}

fn path_edges(n: u32, cap: f64) -> Vec<(u32, u32, f64)> {
    (0..n - 1).map(|i| (i, i + 1, cap)).collect()
}

fn f(reply: &Value, key: &str) -> f64 {
    reply
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} missing in {reply:?}"))
}

fn load(client: &mut Client, nodes: u64, edges: &[(u32, u32, f64)], config: &Value) -> String {
    let reply = client
        .load_graph(nodes, edges, Some(config.clone()))
        .unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    reply
        .get("graph")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

/// The flow-carrying `max_flow` reply from `s` to `t`, every field but
/// `version`.
fn answer_without_version(
    client: &mut Client,
    graph: &str,
    s: u64,
    t: u64,
) -> Vec<(String, Value)> {
    let reply = client
        .call(&Value::obj(vec![
            ("op", Value::Str("max_flow".into())),
            ("graph", Value::Str(graph.into())),
            ("s", Value::index(s)),
            ("t", Value::index(t)),
            ("include_flow", Value::Bool(true)),
        ]))
        .unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    let Value::Obj(fields) = reply else {
        panic!("a reply is an object: {reply:?}")
    };
    fields
        .into_iter()
        .filter(|(key, _)| key != "version")
        .collect()
}

/// Asserts that `graph`, updated to the capacities of `edges`, answers a
/// `max_flow` from `s` to `t` like a fresh `load_graph` of `edges` does.
fn assert_answers_like_a_fresh_load(
    client: &mut Client,
    graph: &str,
    nodes: u64,
    edges: &[(u32, u32, f64)],
    config: &Value,
    (s, t): (u64, u64),
) {
    let fresh = load(client, nodes, edges, config);
    assert_ne!(
        fresh, graph,
        "the updated capacities load as a second graph"
    );
    assert_eq!(
        answer_without_version(client, graph, s, t),
        answer_without_version(client, &fresh, s, t)
    );
}

/// The `stats` entry of `graph`.
fn stats_entry(client: &mut Client, graph: &str) -> Value {
    let stats = client.stats().unwrap();
    let entries = stats.get("entries").and_then(Value::as_arr).unwrap();
    entries
        .iter()
        .find(|e| e.get("graph").and_then(Value::as_str) == Some(graph))
        .unwrap()
        .clone()
}

#[test]
fn ping_stats_and_malformed_frames() {
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let pong = client.ping().unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

    // Malformed JSON and non-object requests get typed errors over a raw
    // socket; the connection and the server both survive each of them.
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        for bad in [r#"{"op""#, r#"[1,2,3]"#, "null", r#"{"s":1}"#] {
            service::wire::write_frame(&mut raw, bad).unwrap();
            let reply = service::wire::read_frame(&mut raw).unwrap().unwrap();
            let reply = parse(&reply).unwrap();
            assert!(
                is_error(&reply, ErrorCode::InvalidRequest),
                "{bad}: {reply:?}"
            );
        }
    }
    let reply = client
        .call(&Value::obj(vec![("op", Value::Str("warp".into()))]))
        .unwrap();
    assert!(is_error(&reply, ErrorCode::InvalidRequest), "{reply:?}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("graphs").and_then(Value::as_index), Some(0));
    assert!(f(&stats, "invalid_requests") >= 5.0);
    server.shutdown();
}

#[test]
fn load_query_update_round_trip_with_certified_brackets() {
    let (config_value, config) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 6-node path, bottleneck 2.0 at edge 2.
    let mut edges = path_edges(6, 4.0);
    edges[2].2 = 2.0;
    let graph = load(&mut client, 6, &edges, &config_value);

    // Reloading the same graph hits the cache.
    let again = client
        .load_graph(6, &edges, Some(config_value.clone()))
        .unwrap();
    assert_eq!(again.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(again.get("graph").and_then(Value::as_str).unwrap(), graph);

    // The served answer is bitwise the in-process session's answer.
    let g = {
        let mut g = flowgraph::Graph::with_nodes(6);
        for &(u, v, c) in &edges {
            g.add_edge(NodeId(u), NodeId(v), c).unwrap();
        }
        g
    };
    let mut reference = PreparedMaxFlow::prepare(&g, &config).unwrap();
    let expected = reference.max_flow(NodeId(0), NodeId(5)).unwrap();
    let reply = client.max_flow(&graph, 0, 5).unwrap();
    assert_eq!(f(&reply, "value").to_bits(), expected.value.to_bits());
    assert_eq!(
        f(&reply, "upper_bound").to_bits(),
        expected.upper_bound.to_bits()
    );
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(0));
    // The bracket certifies the 2.0 bottleneck.
    assert!(f(&reply, "value") <= 2.0 + 1e-9);
    assert!(f(&reply, "upper_bound") >= 2.0 - 1e-9);

    // Routing one unit end-to-end congests the bottleneck by ~1/2.
    let mut demand = vec![0.0; 6];
    demand[0] = -1.0;
    demand[5] = 1.0;
    let routed = client.route(&graph, &demand).unwrap();
    assert_eq!(
        routed.get("ok").and_then(Value::as_bool),
        Some(true),
        "{routed:?}"
    );
    assert!(f(&routed, "congestion") >= 0.5 - 1e-6, "{routed:?}");

    // An update bumps the version, and the updated graph answers like a
    // fresh load of its updated edges.
    let updated = client.update(&graph, &[(2, 8.0)]).unwrap();
    assert_eq!(
        updated.get("ok").and_then(Value::as_bool),
        Some(true),
        "{updated:?}"
    );
    assert_eq!(updated.get("version").and_then(Value::as_index), Some(1));
    assert_eq!(updated.get("changes").and_then(Value::as_index), Some(1));
    edges[2].2 = 8.0;
    assert_answers_like_a_fresh_load(&mut client, &graph, 6, &edges, &config_value, (0, 5));

    // The new bottleneck is 4.0 and answers carry the new version.
    let reply = client.max_flow(&graph, 0, 5).unwrap();
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(1));
    assert!(f(&reply, "value") <= 4.0 + 1e-9);
    assert!(f(&reply, "upper_bound") >= 4.0 - 1e-9);

    // include_flow returns one value per edge.
    let reply = client
        .call(&Value::obj(vec![
            ("op", Value::Str("max_flow".into())),
            ("graph", Value::Str(graph.clone())),
            ("s", Value::index(0)),
            ("t", Value::index(5)),
            ("include_flow", Value::Bool(true)),
        ]))
        .unwrap();
    let flow = reply.get("flow").and_then(Value::as_arr).unwrap();
    assert_eq!(flow.len(), edges.len());

    // Bad terminals are per-query typed errors, not connection killers.
    let reply = client.max_flow(&graph, 3, 3).unwrap();
    assert!(is_error(&reply, ErrorCode::GraphError), "{reply:?}");
    let reply = client.max_flow(&graph, 0, 99).unwrap();
    assert!(is_error(&reply, ErrorCode::GraphError), "{reply:?}");
    // ... and the session still answers afterwards.
    let reply = client.max_flow(&graph, 0, 5).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    // Per-entry counters made it into stats.
    let entry = stats_entry(&mut client, &graph);
    assert!(f(&entry, "queries") >= 4.0);
    assert_eq!(entry.get("updates").and_then(Value::as_index), Some(1));
    assert_eq!(entry.get("version").and_then(Value::as_index), Some(1));
    server.shutdown();
}

#[test]
fn unbalanced_route_demands_get_a_graph_error() {
    let (config_value, _) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let graph = load(&mut client, 6, &path_edges(6, 4.0), &config_value);

    // One unit leaves node 0 but two are asked for at node 5: no flow meets
    // that demand, and the reply says why instead of answering `ok`.
    let reply = client
        .route(&graph, &[-1.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        .unwrap();
    assert!(is_error(&reply, ErrorCode::GraphError), "{reply:?}");
    let message = reply.get("error").and_then(Value::as_str).unwrap();
    assert!(message.contains("unbalanced"), "{message}");

    // The connection survives, and a balanced demand still routes.
    let reply = client
        .route(&graph, &[-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        .unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    server.shutdown();
}

#[test]
fn config_seeds_past_exact_integers_are_invalid_requests() {
    // The document integer 2^53 + 1 parses to the f64 2^53. A server that
    // read it as 2^53 would prepare with a seed the client never sent and
    // report success; it must refuse the config instead.
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let frame = r#"{"op":"load_graph","nodes":2,"edges":[[0,1,1.0]],
            "config":{"epsilon":0.5,"racke":{"seed":9007199254740993}}}"#;
        service::wire::write_frame(&mut raw, frame).unwrap();
        let reply = service::wire::read_frame(&mut raw).unwrap().unwrap();
        let reply = parse(&reply).unwrap();
        assert!(is_error(&reply, ErrorCode::InvalidRequest), "{reply:?}");
        let message = reply.get("error").and_then(Value::as_str).unwrap();
        assert!(message.contains("racke.seed"), "{message}");
    }
    server.shutdown();
}

#[test]
fn a_huge_node_count_with_one_edge_is_a_graph_error() {
    // 4,294,967,295 nodes and one edge: a search over the nodes would ask
    // for 34 GB before finding the graph disconnected and abort the daemon.
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let frame = r#"{"op":"load_graph","nodes":4294967295,"edges":[[0,1,1.0]]}"#;
        service::wire::write_frame(&mut raw, frame).unwrap();
        let reply = service::wire::read_frame(&mut raw).unwrap().unwrap();
        let reply = parse(&reply).unwrap();
        assert!(is_error(&reply, ErrorCode::GraphError), "{reply:?}");
    }
    let mut client = Client::connect(server.local_addr()).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn extreme_capacities_and_class_growth_load_and_answer() {
    // Capacities 1e-300 and 1e300 in one graph overflow the ratio of the
    // longest to the shortest tree length, and `lowstretch_z: 1e300` makes
    // every decomposition's round count close to 2^64. Each used to end the
    // connection thread in debug builds and wrap in release builds.
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut call = |frame: &str| {
            service::wire::write_frame(&mut raw, frame).unwrap();
            let reply = service::wire::read_frame(&mut raw).unwrap().unwrap();
            parse(&reply).unwrap()
        };
        for frame in [
            r#"{"op":"load_graph","nodes":3,"edges":[[0,1,1e-300],[1,2,1e300],[2,0,1.0]]}"#,
            r#"{"op":"load_graph","nodes":3,"edges":[[0,1,1.0],[1,2,1.0],[2,0,1.0]],
                "config":{"racke":{"lowstretch_z":1e300}}}"#,
        ] {
            let loaded = call(frame);
            assert_eq!(
                loaded.get("ok").and_then(Value::as_bool),
                Some(true),
                "{loaded:?}"
            );
            let graph = loaded.get("graph").and_then(Value::as_str).unwrap();
            let query = format!(r#"{{"op":"max_flow","graph":"{graph}","s":0,"t":2}}"#);
            let reply = call(&query);
            assert!(
                reply.get("ok").and_then(Value::as_bool) == Some(true)
                    || is_error(&reply, ErrorCode::GraphError),
                "{reply:?}"
            );
        }
    }
    let mut client = Client::connect(server.local_addr()).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn an_overflowing_route_is_a_graph_error_and_the_connection_survives() {
    // Capacities 1e-300 under a demand of 1e10 make the congestion 1e310,
    // which overflows to infinity. JSON has no spelling for it: the reply
    // could not be written, the connection thread panicked, and the client
    // read "server closed the connection mid-request".
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let loaded = client
        .load_graph(3, &[(0, 1, 1e-300), (1, 2, 1e-300)], None)
        .unwrap();
    assert_eq!(
        loaded.get("ok").and_then(Value::as_bool),
        Some(true),
        "{loaded:?}"
    );
    let graph = loaded.get("graph").and_then(Value::as_str).unwrap();
    let reply = client.route(graph, &[1e10, 0.0, -1e10]).unwrap();
    assert!(is_error(&reply, ErrorCode::GraphError), "{reply:?}");
    let message = reply.get("error").and_then(Value::as_str).unwrap();
    assert!(message.contains("not a finite number"), "{message}");
    let pong = client.ping().unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn bulk_updates_fall_back_to_a_full_rebuild() {
    let (config_value, _) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Twenty of a 40-node path's 39 edges in one update, then one more
    // edge: after each, the graph answers like a fresh load of its edges.
    let mut edges = path_edges(40, 4.0);
    let graph = load(&mut client, 40, &edges, &config_value);
    let changes: Vec<(u32, f64)> = (0..20).map(|i| (i, 3.0)).collect();
    let updated = client.update(&graph, &changes).unwrap();
    assert_eq!(
        updated.get("ok").and_then(Value::as_bool),
        Some(true),
        "{updated:?}"
    );
    assert_eq!(updated.get("version").and_then(Value::as_index), Some(1));
    for edge in &mut edges[..20] {
        edge.2 = 3.0;
    }
    assert_answers_like_a_fresh_load(&mut client, &graph, 40, &edges, &config_value, (0, 39));

    // Queries keep certifying the right bottleneck.
    let updated = client.update(&graph, &[(5, 0.5)]).unwrap();
    assert_eq!(updated.get("version").and_then(Value::as_index), Some(2));
    edges[5].2 = 0.5;
    assert_answers_like_a_fresh_load(&mut client, &graph, 40, &edges, &config_value, (0, 39));
    let reply = client.max_flow(&graph, 0, 39).unwrap();
    assert!(f(&reply, "value") <= 0.5 + 1e-9);
    assert!(f(&reply, "upper_bound") >= 0.5 - 1e-9);
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(2));

    let entry = stats_entry(&mut client, &graph);
    assert_eq!(entry.get("updates").and_then(Value::as_index), Some(2));
    server.shutdown();
}

#[test]
fn a_refused_update_leaves_the_graph_serving_its_version() {
    // At capacities spanning 1e-300 to 1e307 this 7-cycle's rebuild fails:
    // a tree load cancels below zero and the next tree length reads -inf.
    // The refusal must not stop the graph's worker: later queries answer
    // `ok` (not `unknown_graph`), and a re-sent `load_graph` returns the
    // live session. Should a later engine rebuild at these capacities, the
    // update applies and the test follows version 1.
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let config = parse(r#"{"epsilon":0.5,"racke":{"num_trees":2,"seed":2},"phases":2}"#).unwrap();
    let edges: Vec<(u32, u32, f64)> = (0..7).map(|i| (i, (i + 1) % 7, 1.0)).collect();
    let graph = load(&mut client, 7, &edges, &config);
    let query = Value::obj(vec![
        ("op", Value::Str("max_flow".into())),
        ("graph", Value::Str(graph.clone())),
        ("s", Value::index(0)),
        ("t", Value::index(3)),
        ("include_flow", Value::Bool(true)),
    ]);
    let ok_at = |reply: &Value, version: u64| {
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{reply:?}"
        );
        assert_eq!(
            reply.get("version").and_then(Value::as_index),
            Some(version)
        );
    };
    let before = client.call(&query).unwrap();
    ok_at(&before, 0);

    let extremes: Vec<(u32, f64)> = [1e-300, 1e-10, 1e10, 1e-300, 1e307, 1e10, 1e300]
        .into_iter()
        .enumerate()
        .map(|(e, cap)| (e as u32, cap))
        .collect();
    let updated = client.update(&graph, &extremes).unwrap();
    let version = if is_error(&updated, ErrorCode::GraphError) {
        // The graph keeps serving version 0, bit for bit, and a re-sent
        // load_graph returns that same live session.
        for _ in 0..2 {
            let reply = client.call(&query).unwrap();
            assert_eq!(reply.to_json().unwrap(), before.to_json().unwrap());
        }
        let again = client.load_graph(7, &edges, Some(config.clone())).unwrap();
        assert_eq!(again.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(again.get("graph").and_then(Value::as_str), Some(&*graph));
        ok_at(&client.call(&query).unwrap(), 0);
        // A refused update bumps no counter.
        let stats = client.stats().unwrap();
        let entries = stats.get("entries").and_then(Value::as_arr).unwrap();
        for key in ["updates", "version"] {
            assert_eq!(
                entries[0].get(key).and_then(Value::as_index),
                Some(0),
                "{key}"
            );
        }
        0
    } else {
        ok_at(&updated, 1);
        ok_at(&client.call(&query).unwrap(), 1);
        1
    };

    // A later one-edge update still applies.
    let updated = client.update(&graph, &[(2, 3.0)]).unwrap();
    ok_at(&updated, version + 1);
    ok_at(&client.call(&query).unwrap(), version + 1);
    server.shutdown();
}

#[test]
fn lru_eviction_forgets_graphs_and_reload_revives_them() {
    let (config_value, _) = fast_config();
    let options = ServerOptions {
        cache_capacity: 2,
        ..ServerOptions::default()
    };
    let mut server = start("127.0.0.1:0", options).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Three distinct graphs through a capacity-2 cache.
    let a = load(&mut client, 5, &path_edges(5, 1.0), &config_value);
    let b = load(&mut client, 6, &path_edges(6, 1.0), &config_value);
    let c = load(&mut client, 7, &path_edges(7, 1.0), &config_value);
    assert_ne!(a, b);
    assert_ne!(b, c);

    // A was least recently used and is gone; B and C still answer.
    let reply = client.max_flow(&a, 0, 4).unwrap();
    assert!(is_error(&reply, ErrorCode::UnknownGraph), "{reply:?}");
    assert_eq!(
        client
            .max_flow(&b, 0, 5)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        client
            .max_flow(&c, 0, 6)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("graphs").and_then(Value::as_index), Some(2));
    assert_eq!(stats.get("evictions").and_then(Value::as_index), Some(1));

    // Touching B then loading a fourth graph evicts C, not B.
    client.max_flow(&b, 0, 5).unwrap();
    let d = load(&mut client, 8, &path_edges(8, 1.0), &config_value);
    let reply = client.max_flow(&c, 0, 6).unwrap();
    assert!(is_error(&reply, ErrorCode::UnknownGraph), "{reply:?}");
    assert_eq!(
        client
            .max_flow(&b, 0, 5)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        client
            .max_flow(&d, 0, 7)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );

    // Reloading the evicted graph revives it under the same fingerprint,
    // with fresh (version 0) state.
    let a_again = load(&mut client, 5, &path_edges(5, 1.0), &config_value);
    assert_eq!(a, a_again);
    let reply = client.max_flow(&a, 0, 4).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(0));

    // A fingerprint that was never loaded is unknown, not a crash.
    let reply = client.max_flow("deadbeefdeadbeef", 0, 1).unwrap();
    assert!(is_error(&reply, ErrorCode::UnknownGraph));
    server.shutdown();
}

#[test]
fn wire_shutdown_op_stops_the_daemon() {
    let (config_value, _) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let graph = load(&mut client, 5, &path_edges(5, 1.0), &config_value);
    client.max_flow(&graph, 0, 4).unwrap();

    let reply = client.shutdown().unwrap();
    assert_eq!(reply.get("stopping").and_then(Value::as_bool), Some(true));
    // The accept loop exits on its own — join, don't re-signal.
    server.join();

    // New connections are refused or go unanswered once the listener died.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server answered after shutdown"),
    }
}
