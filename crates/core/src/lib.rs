//! Near-optimal distributed maximum flow — the primary contribution of
//! Ghaffari, Karrenbauer, Kuhn, Lenzen and Patt-Shamir,
//! *Near-Optimal Distributed Maximum Flow* (PODC 2015).
//!
//! The crate computes `(1+ε)`-approximate maximum s–t flows on undirected
//! capacitated graphs using Sherman's congestion-minimization framework over
//! tree-based congestion approximators, and accounts the CONGEST-model round
//! complexity of the distributed execution described in the paper
//! (`(D + √n)·n^{o(1)}·ε^{-3}` rounds, Theorem 1.1).
//!
//! * [`session`] — the primary API: [`PreparedMaxFlow`] builds the
//!   congestion approximator, repair tree and scratch buffers once, then
//!   answers many `(s, t)` / demand queries against them (prepare-once /
//!   query-many, with zero heap allocation per gradient iteration);
//! * [`mod@almost_route`] — Sherman's gradient descent on the soft-max
//!   potential (Algorithm 2, §9.1);
//! * [`solver`] — the top-level reduction from max flow to congestion
//!   minimization plus residual repair on a spanning tree (Algorithm 1), and
//!   the one-shot convenience wrappers around the session;
//! * [`distributed`] — execution of the same pipeline with CONGEST round
//!   accounting driven by the real message-passing primitives of the
//!   `congest` crate (BFS trees, tree decompositions, subtree aggregations),
//!   including the amortized [`SessionBill`] of a prepared session;
//! * [`json`] — the workspace's one JSON codec: [`MaxFlowConfig`] files
//!   ([`config_io`]) and `flowd`'s wire protocol both go through its
//!   [`json::Value`].
//!
//! # Quickstart
//!
//! Prepare a session once, then query it as often as needed — each query is
//! just the cheap gradient iterations:
//!
//! ```
//! use flowgraph::{gen, NodeId};
//! use maxflow::{MaxFlowConfig, PreparedMaxFlow};
//!
//! let g = gen::grid(5, 5, 1.0);
//! let mut session = PreparedMaxFlow::prepare(&g, &MaxFlowConfig::default()).unwrap();
//! let result = session.max_flow(NodeId(0), NodeId(24)).unwrap();
//! assert!(result.value > 0.0);
//! assert!(result.value <= result.upper_bound);
//! // The flow is feasible and conserves at every internal node.
//! result.flow.validate_st_flow(&g, NodeId(0), NodeId(24), 1e-6).unwrap();
//! // Further queries reuse the prepared approximator and scratch buffers.
//! let reverse = session.max_flow(NodeId(24), NodeId(0)).unwrap();
//! assert!(reverse.value > 0.0);
//! ```
//!
//! To use more cores, opt into a worker pool with
//! [`MaxFlowConfig::with_parallelism`]: single queries fan the per-tree
//! operator evaluations of every gradient iteration across the workers, and
//! [`PreparedMaxFlow::par_max_flow_batch`] additionally fans independent
//! `(s, t)` queries of a batch across them. Both are pure performance knobs —
//! results are byte-identical to `threads = 1` for any thread count. When
//! serving many queries, the batch fan-out is the primary lever (one worker
//! team per batch); the in-query operator fan-out re-spawns its scoped
//! workers every iteration, which costs more than a small instance's whole
//! evaluation. In the `operator_fanout` arms of `dmf-bench`'s `capprox`
//! bench (2-CPU Xeon, one lane, threads 1 → 2), one `R·b` went from about
//! 23 to 44 µs on a 16×16 grid and from about 2.0 to 1.2 ms on a 10⁴-node
//! fat-tree (README, "Parallel execution & determinism policy"):
//!
//! ```
//! use flowgraph::{gen, NodeId};
//! use maxflow::{MaxFlowConfig, Parallelism, PreparedMaxFlow};
//!
//! let g = gen::grid(5, 5, 1.0);
//! let cfg = MaxFlowConfig::default().with_parallelism(Parallelism::with_threads(4));
//! let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
//! let pairs = [(NodeId(0), NodeId(24)), (NodeId(4), NodeId(20))];
//! let results = session.par_max_flow_batch(&pairs).unwrap();
//! assert_eq!(results.len(), 2);
//! ```
//!
//! The multiplicative-weights ensemble *construction* stays sequential by
//! design: each tree's edge lengths depend on the loads of all previous
//! trees, so the build is an inherently sequential fixpoint iteration (it is
//! also a one-time cost that [`PreparedMaxFlow`] amortizes away).
//!
//! The free function [`approx_max_flow`] remains as a thin one-shot wrapper
//! (it prepares a throwaway session per call and answers byte-identically to
//! a session with the same seed):
//!
//! ```
//! use flowgraph::{gen, NodeId};
//! use maxflow::{approx_max_flow, MaxFlowConfig};
//!
//! let g = gen::grid(5, 5, 1.0);
//! let result = approx_max_flow(&g, NodeId(0), NodeId(24), &MaxFlowConfig::default()).unwrap();
//! assert!(result.value > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod almost_route;
pub mod config_io;
pub mod distributed;
pub mod json;
pub mod session;
pub mod solver;

pub use almost_route::{
    almost_route, almost_route_with, AlmostRouteConfig, AlmostRouteResult, AlmostRouteScratch,
};
pub use capprox::{HierarchyConfig, HierarchyStats};
pub use distributed::{
    distributed_approx_max_flow, DistributedMaxFlowResult, RoundBreakdown, SessionBill,
};
pub use parallel::Parallelism;
pub use session::PreparedMaxFlow;
pub use solver::{
    approx_max_flow, route_demand, MaxFlowConfig, MaxFlowResult, RoutingResult,
    DEMAND_BALANCE_TOLERANCE,
};
