//! `flowd_mixed`: an in-process `flowd` on loopback holding the 1,000-node
//! fat-tree, driven by two closed-loop connections replaying loadgen's
//! seeded mix (69% `max_flow` with the flow, 30% `route`, 1% updates).
//! Every reply is checked after the run against the capacities of the
//! graph version it reports.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Instant;

use capprox::RackeConfig;
use flowgraph::{Demand, EdgeId, FlowVec, Graph, NodeId};
use maxflow::{MaxFlowConfig, PreparedMaxFlow};
use service::client::Client;
use service::json::{parse, Value};
use service::protocol::parse_request;
use service::server::{start, ServerOptions};
use service::wire::{read_frame, write_frame};
use testkit::families::streaming;

use crate::{
    check_st_answer, exact_max_flow, layers, mean, percentile, time_us, timed, Args, Report, Rng,
};

/// Closed-loop client connections (one per CPU of the 2-CPU reference host).
const CLIENTS: u64 = 2;

/// `load_graph` round trips per run; the median is `setup_s`. Each loads
/// the graph under another tree seed, so each prepares a new session.
const SETUP_LOADS: u64 = 41;

/// loadgen's client config: ε = 0.5, three trees, two phases.
fn client_config(seed: u64) -> MaxFlowConfig {
    MaxFlowConfig {
        epsilon: 0.5,
        racke: RackeConfig {
            num_trees: Some(3),
            seed,
            ..Default::default()
        },
        phases: Some(2),
        ..Default::default()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    MaxFlow,
    Route,
    Update,
}

/// One request of the replay and what came back.
struct Op {
    kind: Kind,
    pair: (NodeId, NodeId),
    change: (u32, f64),
    latency: f64,
    reply: Result<Value, String>,
    request_bytes: usize,
}

fn request(kind: Kind, fingerprint: &str, n: usize, op: &Op) -> Value {
    let graph = ("graph", Value::Str(fingerprint.into()));
    let (s, t) = op.pair;
    match kind {
        Kind::MaxFlow => Value::obj(vec![
            ("op", Value::Str("max_flow".into())),
            graph,
            ("s", Value::index(s.index() as u64)),
            ("t", Value::index(t.index() as u64)),
            ("include_flow", Value::Bool(true)),
        ]),
        Kind::Route => Value::obj(vec![
            ("op", Value::Str("route".into())),
            graph,
            (
                "demand",
                Value::Arr(
                    route_demand(n, op.pair)
                        .into_iter()
                        .map(Value::Num)
                        .collect(),
                ),
            ),
        ]),
        Kind::Update => Value::obj(vec![
            ("op", Value::Str("update".into())),
            graph,
            (
                "changes",
                Value::Arr(vec![Value::Arr(vec![
                    Value::index(u64::from(op.change.0)),
                    Value::Num(op.change.1),
                ])]),
            ),
        ]),
    }
}

/// A full n-entry unit demand from `s` to `t`.
fn route_demand(n: usize, (s, t): (NodeId, NodeId)) -> Vec<f64> {
    let mut demand = vec![0.0; n];
    demand[s.index()] = -1.0;
    demand[t.index()] = 1.0;
    demand
}

/// One connection's closed loop until the deadline.
fn client_loop(
    addr: SocketAddr,
    fingerprint: &str,
    g: &Graph,
    hosts: u32,
    seed: u64,
    started: Instant,
    args: &Args,
) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut client = Client::connect(addr).expect("connect to the in-process daemon");
    let mut ops = Vec::new();
    while started.elapsed() < args.budget() {
        let roll = rng.below(100);
        let kind = match roll {
            0 => Kind::Update,
            1..=30 => Kind::Route,
            _ => Kind::MaxFlow,
        };
        let mut op = Op {
            kind,
            pair: rng.distinct_pair(hosts),
            change: (
                rng.below(g.num_edges() as u64) as u32,
                1.0 + rng.below(8) as f64,
            ),
            latency: 0.0,
            reply: Err(String::new()),
            request_bytes: 0,
        };
        let doc = request(kind, fingerprint, g.num_nodes(), &op);
        let (reply, dt) = timed(|| client.call(&doc));
        op.latency = dt;
        op.reply = reply.map_err(|e| e.to_string());
        if args.trace {
            op.request_bytes = doc.to_json().map_or(0, |s| s.len());
        }
        ops.push(op);
    }
    ops
}

fn field(reply: &Value, key: &str) -> Option<f64> {
    reply.get(key).and_then(Value::as_f64)
}

/// Checks every reply against the graph version it reports; returns the
/// number of validated answers.
fn validate(g: &Graph, ops: &[Op], epsilon: f64, report: &mut Report) -> u64 {
    // Capacity changes by the version they created. An update that changes
    // nothing reports the current version and creates none.
    let mut changes: BTreeMap<u64, (u32, f64)> = BTreeMap::new();
    for op in ops.iter().filter(|op| op.kind == Kind::Update) {
        if let Ok(reply) = &op.reply {
            if field(reply, "changes").is_some_and(|c| c > 0.0) {
                if let Some(v) = reply.get("version").and_then(Value::as_index) {
                    changes.insert(v, op.change);
                }
            }
        }
    }
    let mut versions: HashMap<u64, Graph> = HashMap::new();
    let mut graph_at = |v: u64| -> Graph {
        versions
            .entry(v)
            .or_insert_with(|| {
                let mut gv = g.clone();
                for (_, &(e, cap)) in changes.range(..=v) {
                    gv.set_capacity(EdgeId(e), cap)
                        .expect("updates were accepted by the daemon");
                }
                gv
            })
            .clone()
    };
    let mut exact: HashMap<(u64, NodeId, NodeId), f64> = HashMap::new();
    let mut certified = 0;
    for op in ops {
        let outcome = match &op.reply {
            Err(e) => Err(format!("wire: {e}")),
            Ok(reply) if reply.get("ok").and_then(Value::as_bool) != Some(true) => Err(format!(
                "error reply {}",
                reply.to_json().unwrap_or_default()
            )),
            Ok(reply) => {
                let version = reply.get("version").and_then(Value::as_index).unwrap_or(0);
                let gv = graph_at(version);
                let (s, t) = op.pair;
                let best = *exact
                    .entry((version, s, t))
                    .or_insert_with(|| exact_max_flow(&gv, op.pair));
                match op.kind {
                    Kind::MaxFlow => {
                        let flow: Vec<f64> = reply
                            .get("flow")
                            .and_then(Value::as_arr)
                            .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
                            .unwrap_or_default();
                        if flow.len() != gv.num_edges() {
                            Err(format!(
                                "{} flow entries for {} edges",
                                flow.len(),
                                gv.num_edges()
                            ))
                        } else {
                            check_st_answer(
                                &gv,
                                op.pair,
                                &FlowVec::from_values(flow),
                                field(reply, "value").unwrap_or(f64::NAN),
                                field(reply, "upper_bound").unwrap_or(f64::NAN),
                                best,
                                epsilon,
                            )
                        }
                    }
                    // No routing of one unit from s to t has congestion
                    // below 1 / maxflow(s, t).
                    Kind::Route => match field(reply, "congestion") {
                        Some(c) if c.is_finite() && c >= (1.0 - 1e-6) / best => Ok(true),
                        c => Err(format!("route congestion {c:?} below 1/{best}")),
                    },
                    Kind::Update => Ok(true),
                }
            }
        };
        if report.record(outcome) {
            certified += 1;
        }
    }
    certified
}

pub fn flowd_mixed(args: &Args) -> Report {
    let g = streaming::fat_tree(16, 8, 61, 10.0, 40.0).expect("1k fat-tree fits u32 ids");
    let hosts = 16 * 61;
    let edges: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(_, e)| (e.tail.0, e.head.0, e.capacity))
        .collect();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).expect("bind loopback");
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).expect("connect to the in-process daemon");

    let mut load_times = Vec::new();
    let mut fingerprint = String::new();
    for seed in (0..SETUP_LOADS).rev() {
        let config = parse(&client_config(seed).to_json().expect("config serializes"))
            .expect("canonical config json");
        let (loaded, dt) = timed(|| setup.load_graph(g.num_nodes() as u64, &edges, Some(config)));
        let loaded = loaded.expect("load_graph round trip");
        assert_eq!(
            loaded.get("ok").and_then(Value::as_bool),
            Some(true),
            "{loaded:?}"
        );
        load_times.push(dt);
        fingerprint = loaded
            .get("graph")
            .and_then(Value::as_str)
            .expect("fingerprint")
            .into();
    }
    let setup_s = percentile(&load_times, 0.5);

    // The replay; the last loaded session (tree seed 0) serves it.
    let started = Instant::now();
    let ops: Vec<Op> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let (fp, g) = (&fingerprint, &g);
                let seed = args.seed ^ 0x5851_f42d_4c95_7f2d_u64.wrapping_mul(k + 1);
                scope.spawn(move || client_loop(addr, fp, g, hosts, seed, started, args))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let stats = setup.stats().expect("stats round trip");
    let _ = setup.shutdown();
    server.shutdown();

    let mut report = Report::default();
    let cfg = client_config(0);
    let certified = validate(&g, &ops, cfg.epsilon, &mut report);
    let latencies: Vec<f64> = ops.iter().map(|op| op.latency).collect();
    report.set_end_to_end(&latencies, certified, wall_s, setup_s);
    if args.trace {
        trace(&g, &ops, &cfg, &fingerprint, &stats, setup_s, &mut report);
    }
    report
}

/// Per-layer numbers: client round trips against the same operations on
/// an identical in-process session, and the codec, protocol and frame
/// layers on the run's own documents.
fn trace(
    g: &Graph,
    ops: &[Op],
    cfg: &MaxFlowConfig,
    fingerprint: &str,
    stats: &Value,
    setup_s: f64,
    report: &mut Report,
) {
    let rtt_us = |kind| {
        let xs: Vec<f64> = ops
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| op.latency * 1e6)
            .collect();
        percentile(&xs, 0.5)
    };
    let sample = |kind| ops.iter().filter(move |op| op.kind == kind).take(8);
    let mut session = PreparedMaxFlow::prepare(g, cfg).expect("benchmark graph is valid");
    if let Some(op) = sample(Kind::MaxFlow).next() {
        layers::query_layers(g, &session, op.pair, cfg, 4, None, report);
    }
    // Solver counts from the max_flow replies served at the loaded
    // capacities (version 0), whose trees the in-process session shares.
    let answers: Vec<(&Op, &Value)> = ops
        .iter()
        .filter(|op| op.kind == Kind::MaxFlow)
        .filter_map(|op| op.reply.as_ref().ok().map(|reply| (op, reply)))
        .filter(|(_, reply)| reply.get("version").and_then(Value::as_index) == Some(0))
        .collect();
    let per_answer = |f: &dyn Fn(&Op, &Value) -> f64| {
        answers
            .iter()
            .map(|&(op, reply)| f(op, reply))
            .collect::<Vec<_>>()
    };
    let bound = |reply: &Value| field(reply, "upper_bound").unwrap_or(f64::NAN);
    report.set(
        "almost_route.iterations",
        mean(&per_answer(&|_, r| field(r, "iterations").unwrap_or(0.0))),
    );
    report.set(
        "solver.phases",
        mean(&per_answer(&|_, r| field(r, "phases").unwrap_or(0.0))),
    );
    report.set(
        "solver.certified_ratio_p50",
        percentile(
            &per_answer(&|_, r| (field(r, "value").unwrap_or(0.0) / bound(r)).min(1.0)),
            0.5,
        ),
    );
    report.set(
        "solver.tree_certified_share",
        mean(&per_answer(&|op, r| {
            let tree_value = layers::best_tree_value(g, session.approximator(), op.pair);
            f64::from(u8::from(tree_value * (1.0 + cfg.epsilon) >= bound(r)))
        })),
    );
    let flow_engine: Vec<f64> = sample(Kind::MaxFlow)
        .map(|op| timed(|| session.par_max_flow_batch(&[op.pair])).1 * 1e6)
        .collect();
    let route_engine: Vec<f64> = sample(Kind::Route)
        .map(|op| {
            let demand = Demand::from_values(route_demand(g.num_nodes(), op.pair));
            timed(|| session.route_many(std::slice::from_ref(&demand))).1 * 1e6
        })
        .collect();
    let (rtt_flow, rtt_route) = (rtt_us(Kind::MaxFlow), rtt_us(Kind::Route));
    let (engine_flow, engine_route) = (
        percentile(&flow_engine, 0.5),
        percentile(&route_engine, 0.5),
    );
    report.set("service.rtt_us.max_flow", rtt_flow);
    report.set("service.rtt_us.route", rtt_route);
    report.set("service.engine_us.max_flow", engine_flow);
    report.set("service.engine_us.route", engine_route);
    report.set("service.overhead_us.max_flow", rtt_flow - engine_flow);
    report.set("service.overhead_us.route", rtt_route - engine_route);

    // Codec layers on the largest documents of the mix: a max_flow reply
    // carrying the flow, and a route request carrying the demand.
    if let Some(Ok(reply)) = sample(Kind::MaxFlow).map(|op| &op.reply).next() {
        let text = reply.to_json().expect("reply serializes");
        report.set("service.json_parse_us", time_us(|| parse(&text)));
        report.set("service.json_write_us", time_us(|| reply.to_json()));
        report.set(
            "service.frame_us",
            time_us(|| {
                let mut buf = Vec::with_capacity(text.len() + 4);
                write_frame(&mut buf, &text).expect("frame fits");
                read_frame(&mut buf.as_slice())
            }),
        );
    }
    if let Some(op) = sample(Kind::Route).next() {
        let doc = request(Kind::Route, fingerprint, g.num_nodes(), op);
        report.set("service.protocol_parse_us", time_us(|| parse_request(&doc)));
    }
    let reply_bytes: Vec<f64> = ops
        .iter()
        .filter_map(|op| op.reply.as_ref().ok())
        .map(|r| r.to_json().map_or(0, |s| s.len()) as f64)
        .collect();
    let request_bytes: Vec<f64> = ops.iter().map(|op| op.request_bytes as f64).collect();
    report.set("service.request_bytes", mean(&request_bytes));
    report.set("service.reply_bytes", mean(&reply_bytes));

    let entry = stats.get("entries").and_then(Value::as_arr).and_then(|es| {
        es.iter()
            .find(|e| e.get("graph").and_then(Value::as_str) == Some(fingerprint))
    });
    let counter = |key| {
        entry
            .and_then(|e| e.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    report.set("service.coalesced_batches", counter("coalesced_batches"));
    report.set("service.max_batch", counter("max_batch"));
    report.set(
        "service.incremental_share",
        counter("incremental_updates") / counter("updates").max(1.0),
    );
    report.set("session.prepare_s", setup_s);
    report.set(
        "session.query_ms",
        percentile(&ops.iter().map(|op| op.latency).collect::<Vec<_>>(), 0.5) * 1e3,
    );
}
