//! The `flowd` daemon: a TCP listener serving prepared max-flow sessions.
//!
//! # Architecture
//!
//! One **worker thread per cached graph** owns that graph's
//! [`PreparedMaxFlow`] outright, graph included — no lock is ever held
//! across a gradient iteration. Connection threads translate frames into
//! jobs and post them to the owning worker over an `mpsc` channel, then
//! block for the reply.
//!
//! **Coalescing**: a worker drains its queue before serving, so queries that
//! arrive while a previous answer is being computed are batched into one
//! [`PreparedMaxFlow::par_max_flow_batch`] / [`PreparedMaxFlow::route_many`]
//! call, which walks the shared operator structures once per gradient
//! iteration for all lanes. Answers are byte-identical to serving each query
//! alone (the engine's pinned contract), so coalescing is invisible to
//! clients except in throughput.
//!
//! **Updates are barriers**: a capacity update is applied alone, never
//! interleaved inside a batch, so every answer is computed against exactly
//! one graph version — the `version` field of each response names it, and a
//! concurrent reader sees the old answer or the new answer, never a torn
//! one. The worker hands each update to
//! [`PreparedMaxFlow::update_capacities`], which prepares the updated graph
//! with the graph's config, so an updated graph answers like a fresh
//! `load_graph` of its updated edges. An update it refuses answers
//! `graph_error`, and the graph keeps serving its current version.
//!
//! **Eviction**: the cache is an [`Lru`] keyed by graph fingerprint.
//! Evicting an entry drops its job sender; the worker drains already-queued
//! jobs (no accepted query is ever lost) and exits. A later request for the
//! evicted fingerprint gets `unknown_graph` — clients re-`load_graph`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use flowgraph::{EdgeId, Graph, NodeId};
use maxflow::{MaxFlowConfig, PreparedMaxFlow};

use crate::cache::{graph_fingerprint, Lru};
use crate::json::{parse, Value};
use crate::protocol::{error_response, fingerprint_to_wire, parse_request, ErrorCode, Request};
use crate::wire::{is_timeout, read_frame, write_frame, WireError};

/// How often an idle connection thread wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Tuning knobs of a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum number of prepared sessions kept alive at once.
    pub cache_capacity: usize,
    /// Solver configuration used when `load_graph` omits `"config"`.
    pub default_config: MaxFlowConfig,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            cache_capacity: 8,
            default_config: MaxFlowConfig::default(),
        }
    }
}

/// Per-graph serving counters (all monotone; read by the `stats` op).
///
/// A refused update (an invalid change, or capacities the session cannot be
/// prepared for) bumps none of them: the graph keeps its version.
#[derive(Debug, Default)]
pub struct EntryStats {
    /// Queries answered (max_flow + route).
    pub queries: AtomicU64,
    /// Engine calls that served two or more coalesced queries.
    pub coalesced_batches: AtomicU64,
    /// Largest number of queries served by one engine call.
    pub max_batch: AtomicU64,
    /// Capacity updates applied, an empty one included.
    pub updates: AtomicU64,
    /// Current graph version: the number of applied updates that named at
    /// least one edge.
    pub version: AtomicU64,
}

/// A job posted to a graph worker. Every job carries its own reply channel.
enum Job {
    MaxFlow {
        s: NodeId,
        t: NodeId,
        include_flow: bool,
        reply: mpsc::Sender<Value>,
    },
    Route {
        demand: Vec<f64>,
        reply: mpsc::Sender<Value>,
    },
    Update {
        changes: Vec<(EdgeId, f64)>,
        reply: mpsc::Sender<Value>,
    },
}

/// A live cache entry: the handle to a graph worker.
struct GraphEntry {
    sender: mpsc::Sender<Job>,
    stats: Arc<EntryStats>,
}

/// State shared by the listener, connection threads and [`ServerHandle`].
struct Shared {
    cache: Mutex<Lru<GraphEntry>>,
    options: ServerOptions,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    connections: AtomicU64,
    frames: AtomicU64,
    invalid_requests: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
}

/// A running daemon. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    listener_thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Blocks until the server stops on its own — i.e. until some client
    /// sends the `shutdown` op. The daemon binary's main thread parks here.
    pub fn join(&mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }

    /// Requests shutdown and waits for the listener to exit. Idempotent.
    /// Queued queries on live workers are still answered; workers exit once
    /// their queues drain.
    pub fn shutdown(&mut self) {
        request_shutdown(&self.shared);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }
}

/// Sets the shutdown flag and pokes the accept loop with a throwaway
/// connection so it observes the flag immediately.
fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(shared.local_addr);
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving in background
/// threads.
pub fn start(addr: &str, options: ServerOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        cache: Mutex::new(Lru::new(options.cache_capacity)),
        options,
        local_addr,
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        frames: AtomicU64::new(0),
        invalid_requests: AtomicU64::new(0),
        loads: AtomicU64::new(0),
        evictions: AtomicU64::new(0),
    });
    let accept_shared = Arc::clone(&shared);
    let listener_thread = thread::Builder::new()
        .name("flowd-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        shared,
        listener_thread: Some(listener_thread),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let _ = thread::Builder::new()
            .name("flowd-conn".into())
            .spawn(move || connection_loop(stream, conn_shared));
    }
    // Drop every cached entry: workers drain their queues and exit.
    let drained = shared.cache.lock().expect("cache lock").drain();
    drop(drained);
}

fn connection_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    // Replies are one small frame each; Nagle + delayed ACK would park
    // every round trip for ~40ms.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(WireError::Io(e)) if is_timeout(&e) => continue,
            Err(e) => {
                // Framing is broken; report once and hang up.
                let resp = error_response(ErrorCode::InvalidRequest, &e.to_string());
                let _ = send_value(&mut stream, &resp);
                return;
            }
        };
        shared.frames.fetch_add(1, Ordering::Relaxed);
        let (response, stop_after) = handle_frame(&shared, &payload);
        if send_value(&mut stream, &response).is_err() {
            return;
        }
        if stop_after {
            request_shutdown(&shared);
            return;
        }
    }
}

fn send_value(stream: &mut TcpStream, value: &Value) -> Result<(), WireError> {
    let text = value
        .to_json()
        .unwrap_or_else(|e| panic!("server responses are always serializable: {e}"));
    write_frame(stream, &text)
}

/// Dispatches one frame; returns the response and whether the connection
/// (and server) should stop afterwards.
fn handle_frame(shared: &Arc<Shared>, payload: &str) -> (Value, bool) {
    let doc = match parse(payload) {
        Ok(doc) => doc,
        Err(e) => {
            shared.invalid_requests.fetch_add(1, Ordering::Relaxed);
            return (
                error_response(ErrorCode::InvalidRequest, &e.to_string()),
                false,
            );
        }
    };
    let request = match parse_request(&doc) {
        Ok(r) => r,
        Err(e) => {
            shared.invalid_requests.fetch_add(1, Ordering::Relaxed);
            return (error_response(ErrorCode::InvalidRequest, &e), false);
        }
    };
    match request {
        Request::Ping => (
            Value::obj(vec![("ok", Value::Bool(true)), ("pong", Value::Bool(true))]),
            false,
        ),
        Request::Shutdown => (
            Value::obj(vec![
                ("ok", Value::Bool(true)),
                ("stopping", Value::Bool(true)),
            ]),
            true,
        ),
        Request::Stats => (stats_response(shared), false),
        Request::LoadGraph {
            nodes,
            edges,
            config,
        } => (load_graph(shared, nodes, &edges, config.as_ref()), false),
        Request::MaxFlow {
            graph,
            s,
            t,
            include_flow,
        } => (
            dispatch(shared, graph, |reply| Job::MaxFlow {
                s,
                t,
                include_flow,
                reply,
            }),
            false,
        ),
        Request::Route { graph, demand } => (
            dispatch(shared, graph, |reply| Job::Route { demand, reply }),
            false,
        ),
        Request::Update { graph, changes } => (
            dispatch(shared, graph, |reply| Job::Update { changes, reply }),
            false,
        ),
    }
}

fn stats_response(shared: &Shared) -> Value {
    let cache = shared.cache.lock().expect("cache lock");
    let mut entries = Vec::new();
    for fp in cache.keys() {
        let stats = &cache.peek(fp).expect("listed key").stats;
        entries.push(Value::obj(vec![
            ("graph", Value::Str(fingerprint_to_wire(fp))),
            (
                "queries",
                Value::index(stats.queries.load(Ordering::Relaxed)),
            ),
            (
                "coalesced_batches",
                Value::index(stats.coalesced_batches.load(Ordering::Relaxed)),
            ),
            (
                "max_batch",
                Value::index(stats.max_batch.load(Ordering::Relaxed)),
            ),
            (
                "updates",
                Value::index(stats.updates.load(Ordering::Relaxed)),
            ),
            (
                "version",
                Value::index(stats.version.load(Ordering::Relaxed)),
            ),
        ]));
    }
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("graphs", Value::index(entries.len() as u64)),
        (
            "connections",
            Value::index(shared.connections.load(Ordering::Relaxed)),
        ),
        (
            "frames",
            Value::index(shared.frames.load(Ordering::Relaxed)),
        ),
        (
            "invalid_requests",
            Value::index(shared.invalid_requests.load(Ordering::Relaxed)),
        ),
        ("loads", Value::index(shared.loads.load(Ordering::Relaxed))),
        (
            "evictions",
            Value::index(shared.evictions.load(Ordering::Relaxed)),
        ),
        ("entries", Value::Arr(entries)),
    ])
}

/// Serves `load_graph`: prepare (outside the cache lock) and register a
/// worker, or just touch the existing session.
fn load_graph(
    shared: &Arc<Shared>,
    nodes: u64,
    edges: &[(u32, u32, f64)],
    config: Option<&Value>,
) -> Value {
    shared.loads.fetch_add(1, Ordering::Relaxed);
    let config = match config {
        None => shared.options.default_config.clone(),
        Some(doc) => match MaxFlowConfig::from_value(doc) {
            Ok(c) => c,
            Err(e) => return error_response(ErrorCode::InvalidRequest, &format!("config: {e}")),
        },
    };
    // Fingerprint over the *canonical* config JSON so key order and
    // defaulted fields don't split the cache.
    let canonical = match config.to_json() {
        Ok(c) => c,
        Err(e) => return error_response(ErrorCode::InvalidRequest, &format!("config: {e}")),
    };
    let fp = graph_fingerprint(nodes, edges, &canonical);
    let loaded = |cached: bool| {
        Value::obj(vec![
            ("ok", Value::Bool(true)),
            ("graph", Value::Str(fingerprint_to_wire(fp))),
            ("cached", Value::Bool(cached)),
            ("nodes", Value::index(nodes)),
            ("edges", Value::index(edges.len() as u64)),
        ])
    };
    if shared.cache.lock().expect("cache lock").get(fp).is_some() {
        return loaded(true);
    }
    if usize::try_from(nodes).is_err() || nodes > u64::from(u32::MAX) {
        return error_response(ErrorCode::InvalidRequest, "load_graph: too many nodes");
    }
    let mut g = Graph::with_nodes(nodes as usize);
    for &(u, v, cap) in edges {
        if let Err(e) = g.add_edge(NodeId(u), NodeId(v), cap) {
            return error_response(ErrorCode::GraphError, &e.to_string());
        }
    }
    let session = match PreparedMaxFlow::prepare_owned(g, &config) {
        Ok(session) => session,
        Err(e) => return error_response(ErrorCode::GraphError, &e.to_string()),
    };
    let (sender, receiver) = mpsc::channel();
    let stats = Arc::new(EntryStats::default());
    let worker_stats = Arc::clone(&stats);
    let spawned = thread::Builder::new()
        .name("flowd-worker".into())
        .spawn(move || worker_loop(session, receiver, worker_stats));
    if spawned.is_err() {
        return error_response(ErrorCode::GraphError, "could not spawn a session worker");
    }
    let mut cache = shared.cache.lock().expect("cache lock");
    // A racing load of the same graph may have won; keep the incumbent so
    // its queued jobs keep their worker.
    if cache.get(fp).is_none() && cache.insert(fp, GraphEntry { sender, stats }).is_some() {
        shared.evictions.fetch_add(1, Ordering::Relaxed);
    }
    loaded(false)
}

/// Posts a job to the owning worker and waits for the answer.
fn dispatch(shared: &Shared, fp: u64, job: impl FnOnce(mpsc::Sender<Value>) -> Job) -> Value {
    let sender = {
        let mut cache = shared.cache.lock().expect("cache lock");
        match cache.get(fp) {
            Some(entry) => entry.sender.clone(),
            None => {
                return error_response(
                    ErrorCode::UnknownGraph,
                    "graph is not loaded (never sent, or evicted); re-send load_graph",
                )
            }
        }
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if sender.send(job(reply_tx)).is_err() {
        return error_response(ErrorCode::UnknownGraph, "session worker already stopped");
    }
    reply_rx
        .recv()
        .unwrap_or_else(|_| error_response(ErrorCode::GraphError, "session worker died"))
}

/// The per-graph worker: owns the prepared session, drains its queue into
/// coalesced batches, and treats updates as barriers.
fn worker_loop(
    mut session: PreparedMaxFlow<'static>,
    receiver: mpsc::Receiver<Job>,
    stats: Arc<EntryStats>,
) {
    let mut version: u64 = 0;
    while let Ok(first) = receiver.recv() {
        // Coalesce: everything already queued is served in this pass.
        let mut pending = std::collections::VecDeque::new();
        pending.push_back(first);
        while let Ok(job) = receiver.try_recv() {
            pending.push_back(job);
        }
        while let Some(job) = pending.pop_front() {
            match job {
                Job::Update { changes, reply } => {
                    let response = apply_update(&mut session, &stats, &mut version, &changes);
                    let _ = reply.send(response);
                }
                Job::MaxFlow {
                    s,
                    t,
                    include_flow,
                    reply,
                } => {
                    let mut run = vec![(s, t, include_flow, reply)];
                    while let Some(Job::MaxFlow { .. }) = pending.front() {
                        let Some(Job::MaxFlow {
                            s,
                            t,
                            include_flow,
                            reply,
                        }) = pending.pop_front()
                        else {
                            unreachable!()
                        };
                        run.push((s, t, include_flow, reply));
                    }
                    serve_max_flow_run(&mut session, &stats, version, run);
                }
                Job::Route { demand, reply } => {
                    let mut run = vec![(demand, reply)];
                    while let Some(Job::Route { .. }) = pending.front() {
                        let Some(Job::Route { demand, reply }) = pending.pop_front() else {
                            unreachable!()
                        };
                        run.push((demand, reply));
                    }
                    serve_route_run(&mut session, &stats, version, run);
                }
            }
        }
    }
}

fn note_batch(stats: &EntryStats, served: usize) {
    stats.queries.fetch_add(served as u64, Ordering::Relaxed);
    if served > 1 {
        stats.coalesced_batches.fetch_add(1, Ordering::Relaxed);
    }
    stats.max_batch.fetch_max(served as u64, Ordering::Relaxed);
}

fn max_flow_response(r: &maxflow::MaxFlowResult, version: u64, include_flow: bool) -> Value {
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("value", Value::Num(r.value)),
        ("upper_bound", Value::Num(r.upper_bound)),
        ("iterations", Value::index(r.iterations as u64)),
        ("phases", Value::index(r.phases as u64)),
        ("version", Value::index(version)),
    ];
    if include_flow {
        fields.push((
            "flow",
            Value::Arr(r.flow.values().iter().map(|&x| Value::Num(x)).collect()),
        ));
    }
    Value::obj(fields)
}

fn serve_max_flow_run(
    session: &mut PreparedMaxFlow,
    stats: &EntryStats,
    version: u64,
    run: Vec<(NodeId, NodeId, bool, mpsc::Sender<Value>)>,
) {
    note_batch(stats, run.len());
    let pairs: Vec<(NodeId, NodeId)> = run.iter().map(|&(s, t, _, _)| (s, t)).collect();
    match session.par_max_flow_batch(&pairs) {
        Ok(results) => {
            for ((_, _, include_flow, reply), r) in run.into_iter().zip(results.iter()) {
                let _ = reply.send(max_flow_response(r, version, include_flow));
            }
        }
        // The batch fails fast on the earliest bad pair; answer each query
        // by itself so one bad terminal pair cannot poison its batchmates
        // (the sequential answers are byte-identical to the batch).
        Err(_) => {
            for (s, t, include_flow, reply) in run {
                let response = match session.max_flow(s, t) {
                    Ok(r) => max_flow_response(&r, version, include_flow),
                    Err(e) => error_response(ErrorCode::GraphError, &e.to_string()),
                };
                let _ = reply.send(response);
            }
        }
    }
}

fn route_response(r: &maxflow::RoutingResult, version: u64) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("congestion", Value::Num(r.congestion)),
        ("iterations", Value::index(r.iterations as u64)),
        ("phases", Value::index(r.phases as u64)),
        ("version", Value::index(version)),
    ])
}

fn serve_route_run(
    session: &mut PreparedMaxFlow,
    stats: &EntryStats,
    version: u64,
    run: Vec<(Vec<f64>, mpsc::Sender<Value>)>,
) {
    note_batch(stats, run.len());
    let demands: Vec<flowgraph::Demand> = run
        .iter()
        .map(|(d, _)| flowgraph::Demand::from_values(d.clone()))
        .collect();
    match session.route_many(&demands) {
        Ok(results) => {
            for ((_, reply), r) in run.into_iter().zip(results.iter()) {
                let _ = reply.send(route_response(r, version));
            }
        }
        Err(_) => {
            for (demand, reply) in run {
                let response = match session.route(&flowgraph::Demand::from_values(demand)) {
                    Ok(r) => route_response(&r, version),
                    Err(e) => error_response(ErrorCode::GraphError, &e.to_string()),
                };
                let _ = reply.send(response);
            }
        }
    }
}

/// Applies one capacity-update barrier. An update that names an edge makes
/// a new version; a refused one leaves the session and counters as they
/// were.
fn apply_update(
    session: &mut PreparedMaxFlow,
    stats: &EntryStats,
    version: &mut u64,
    changes: &[(EdgeId, f64)],
) -> Value {
    let changed = match session.update_capacities(changes) {
        Ok(changed) => changed,
        Err(e) => return error_response(ErrorCode::GraphError, &e.to_string()),
    };
    stats.updates.fetch_add(1, Ordering::Relaxed);
    if changed > 0 {
        *version += 1;
        stats.version.store(*version, Ordering::Relaxed);
    }
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("version", Value::index(*version)),
        ("changes", Value::index(changed as u64)),
    ])
}
