//! Numeric extremes over the wire: one live server, small paths and cycles
//! whose capacities span 1e-300 to 1e307, and `route` demands as large as
//! 1e308. Whatever the numbers, every frame gets a reply on the same
//! connection: an `ok` reply carries only finite numbers (a positive
//! congestion for a nonzero demand, finite flow entries under
//! `include_flow`), anything else is a typed `graph_error`, and `ping`
//! still answers after each case.

use std::net::SocketAddr;
use std::sync::OnceLock;

use maxflow::MaxFlowConfig;
use proptest::prelude::*;
use service::client::{is_error, Client, ClientError};
use service::json::Value;
use service::protocol::ErrorCode;
use service::server::{start, ServerOptions};

const CAPACITIES: [f64; 6] = [1e-300, 1e-10, 1.0, 1e10, 1e300, 1e307];
const MAGNITUDES: [f64; 4] = [1.0, 1e10, 1e300, 1e308];

/// The one server every case talks to, started on first use. Dropping the
/// handle leaves it running until the test process exits.
fn server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        start("127.0.0.1:0", ServerOptions::default())
            .unwrap()
            .local_addr()
    })
}

/// A cheap solver config so every query costs microseconds.
fn fast_config() -> Value {
    MaxFlowConfig {
        epsilon: 0.5,
        racke: capprox::RackeConfig {
            num_trees: Some(3),
            ..Default::default()
        },
        phases: Some(2),
        ..Default::default()
    }
    .to_value()
    .unwrap()
}

/// Every number anywhere in `reply` is finite.
fn all_finite(reply: &Value) -> bool {
    match reply {
        Value::Num(x) => x.is_finite(),
        Value::Arr(items) => items.iter().all(all_finite),
        Value::Obj(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

fn is_ok(reply: &Value) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(true)
}

fn number(reply: &Value, key: &str) -> f64 {
    reply.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_frame_gets_a_finite_answer_or_a_typed_error(
        n in 3u32..9,
        cycle in 0u8..2,
        capacity_picks in proptest::collection::vec(0usize..CAPACITIES.len(), 8..9),
        (s_pick, t_pick) in (0u32..1000, 0u32..1000),
        magnitude_pick in 0usize..MAGNITUDES.len(),
    ) {
        let mut client = Client::connect(server()).unwrap();
        let edge_count = if cycle == 1 { n } else { n - 1 };
        let edges: Vec<(u32, u32, f64)> = (0..edge_count)
            .map(|i| (i, (i + 1) % n, CAPACITIES[capacity_picks[i as usize]]))
            .collect();
        let s = s_pick % n;
        let t = (s + 1 + t_pick % (n - 1)) % n;
        let magnitude = MAGNITUDES[magnitude_pick];
        let case = format!("edges {edges:?}, s {s}, t {t}, magnitude {magnitude:e}");
        let answered = |reply: Result<Value, ClientError>, op: &str| {
            reply.unwrap_or_else(|e| panic!("{case}: {op} got no reply: {e}"))
        };

        let loaded = answered(
            client.load_graph(u64::from(n), &edges, Some(fast_config())),
            "load_graph",
        );
        if is_ok(&loaded) {
            let graph = loaded.get("graph").and_then(Value::as_str).unwrap();
            let mut demand = vec![0.0; n as usize];
            demand[s as usize] = magnitude;
            demand[t as usize] = -magnitude;
            let routed = answered(client.route(graph, &demand), "route");
            if is_ok(&routed) {
                prop_assert!(all_finite(&routed), "{}: {:?}", case, routed);
                prop_assert!(number(&routed, "congestion") > 0.0, "{}: {:?}", case, routed);
            } else {
                prop_assert!(is_error(&routed, ErrorCode::GraphError), "{}: {:?}", case, routed);
            }

            let request = Value::obj(vec![
                ("op", Value::Str("max_flow".into())),
                ("graph", Value::Str(graph.into())),
                ("s", Value::index(u64::from(s))),
                ("t", Value::index(u64::from(t))),
                ("include_flow", Value::Bool(true)),
            ]);
            let flowed = answered(client.call(&request), "max_flow");
            if is_ok(&flowed) {
                prop_assert!(all_finite(&flowed), "{}: {:?}", case, flowed);
                let flow = flowed.get("flow").and_then(Value::as_arr).unwrap();
                prop_assert_eq!(flow.len(), edges.len(), "{}", case);
                prop_assert!(number(&flowed, "value") >= 0.0, "{}: {:?}", case, flowed);
            } else {
                prop_assert!(is_error(&flowed, ErrorCode::GraphError), "{}: {:?}", case, flowed);
            }
        } else {
            prop_assert!(is_error(&loaded, ErrorCode::GraphError), "{}: {:?}", case, loaded);
        }

        let pong = answered(client.ping(), "ping");
        prop_assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true), "{}", case);
    }
}
