//! `flowd` — flow as a service.
//!
//! A long-lived daemon over the prepare-once / query-many sessions of the
//! `maxflow` crate: clients load a graph once (the server keeps the
//! prepared congestion approximator, spanning tree and scratch in an LRU
//! session cache keyed by graph fingerprint) and then stream cheap
//! queries — `(1+ε)` max-flow values, demand routings, and capacity
//! updates — over a std-only TCP wire protocol.
//!
//! The wire format is deliberately boring: each frame is a 4-byte
//! big-endian length prefix followed by one UTF-8 JSON document (see
//! [`wire`] and [`protocol`]). No external dependencies, no registry —
//! a client fits in a page of any language. The JSON codec is [`json`], a
//! re-export of `maxflow::json`, which solver config files use too.
//!
//! Concurrent queries against the same graph are **coalesced**: each cached
//! graph has one worker thread, and whatever queued up while the previous
//! answer was computed is served as one blocked-gradient batch
//! ([`maxflow::PreparedMaxFlow::par_max_flow_batch`]), whose answers are
//! byte-identical to serving each query alone. Capacity updates are queue
//! barriers: every answer is computed against exactly one graph version
//! (reported back as `"version"`), never a torn mix.
//!
//! # Quickstart
//!
//! ```
//! use service::client::Client;
//! use service::json::Value;
//! use service::server::{start, ServerOptions};
//!
//! // Bind an ephemeral port; production uses a fixed --addr.
//! let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! // Load a 4-node path graph with a cheap solver config.
//! let edges = [(0, 1, 4.0), (1, 2, 2.0), (2, 3, 4.0)];
//! let config = Value::obj(vec![("epsilon", Value::Num(0.5))]);
//! let loaded = client.load_graph(4, &edges, Some(config)).unwrap();
//! let graph = loaded.get("graph").and_then(Value::as_str).unwrap().to_string();
//!
//! // Query it: the bottleneck capacity 2.0 is inside the certified bracket.
//! let answer = client.max_flow(&graph, 0, 3).unwrap();
//! let value = answer.get("value").and_then(Value::as_f64).unwrap();
//! let upper = answer.get("upper_bound").and_then(Value::as_f64).unwrap();
//! assert!(value <= 2.0 + 1e-9 && 2.0 <= upper + 1e-9);
//!
//! // Raise the bottleneck; the graph answers at its new capacities.
//! let updated = client.update(&graph, &[(1, 8.0)]).unwrap();
//! assert_eq!(updated.get("ok").and_then(Value::as_bool), Some(true));
//! let answer = client.max_flow(&graph, 0, 3).unwrap();
//! assert!(answer.get("upper_bound").and_then(Value::as_f64).unwrap() >= 4.0 - 1e-9);
//!
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use maxflow::json;
pub use server::{start, ServerHandle, ServerOptions};
