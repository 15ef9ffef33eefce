//! A minimal blocking client for the `flowd` wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a time
//! (the protocol is strictly request/reply per connection). Concurrency
//! comes from opening more connections — which is also what feeds the
//! server's query coalescing.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::json::{parse, JsonError, Value};
use crate::protocol::ErrorCode;
use crate::wire::{read_frame, write_frame, WireError};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or framing failure.
    Wire(WireError),
    /// The server sent a frame that is not valid JSON.
    Json(JsonError),
    /// The server closed the connection instead of replying.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "client wire error: {e}"),
            ClientError::Json(e) => write!(f, "client json error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection mid-request"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Json(e)
    }
}

/// A blocking `flowd` connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request document and waits for the reply document.
    pub fn call(&mut self, request: &Value) -> Result<Value, ClientError> {
        let text = request.to_json()?;
        write_frame(&mut self.stream, &text)?;
        match read_frame(&mut self.stream)? {
            Some(reply) => Ok(parse(&reply)?),
            None => Err(ClientError::Closed),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::Str("ping".into()))]))
    }

    /// Loads a graph; on success the reply's `"graph"` field is the session
    /// fingerprint to pass to [`Self::max_flow`] / [`Self::route`] /
    /// [`Self::update`]. `config` is an optional solver-config object in the
    /// field names of [`maxflow::MaxFlowConfig::to_value`] (e.g.
    /// `{"epsilon": 0.5}`); absent fields take their defaults.
    pub fn load_graph(
        &mut self,
        nodes: u64,
        edges: &[(u32, u32, f64)],
        config: Option<Value>,
    ) -> Result<Value, ClientError> {
        let edge_values = edges
            .iter()
            .map(|&(u, v, cap)| {
                Value::Arr(vec![
                    Value::index(u64::from(u)),
                    Value::index(u64::from(v)),
                    Value::Num(cap),
                ])
            })
            .collect();
        let mut fields = vec![
            ("op", Value::Str("load_graph".into())),
            ("nodes", Value::index(nodes)),
            ("edges", Value::Arr(edge_values)),
        ];
        if let Some(c) = config {
            fields.push(("config", c));
        }
        self.call(&Value::obj(fields))
    }

    /// `(1+ε)` max flow between `s` and `t` on a loaded graph.
    pub fn max_flow(&mut self, graph: &str, s: u32, t: u32) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::Str("max_flow".into())),
            ("graph", Value::Str(graph.into())),
            ("s", Value::index(u64::from(s))),
            ("t", Value::index(u64::from(t))),
        ]))
    }

    /// Routes a demand vector (one entry per node, summing to ~0).
    pub fn route(&mut self, graph: &str, demand: &[f64]) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::Str("route".into())),
            ("graph", Value::Str(graph.into())),
            (
                "demand",
                Value::Arr(demand.iter().map(|&x| Value::Num(x)).collect()),
            ),
        ]))
    }

    /// Changes edge capacities; the reply reports the new graph `version`
    /// and the number of distinct edges `changes` named.
    pub fn update(&mut self, graph: &str, changes: &[(u32, f64)]) -> Result<Value, ClientError> {
        let change_values = changes
            .iter()
            .map(|&(e, cap)| Value::Arr(vec![Value::index(u64::from(e)), Value::Num(cap)]))
            .collect();
        self.call(&Value::obj(vec![
            ("op", Value::Str("update".into())),
            ("graph", Value::Str(graph.into())),
            ("changes", Value::Arr(change_values)),
        ]))
    }

    /// Server-wide serving counters.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::Str("stats".into()))]))
    }

    /// Asks the daemon to stop.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::Str("shutdown".into()))]))
    }
}

/// Convenience: whether a reply is an error with the given code.
pub fn is_error(reply: &Value, code: ErrorCode) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(false)
        && reply.get("code").and_then(Value::as_str) == Some(code.as_str())
}
