//! Undirected weighted graph substrate for the distributed maximum-flow
//! reproduction of Ghaffari et al., *Near-Optimal Distributed Maximum Flow*
//! (PODC 2015).
//!
//! The crate provides everything the higher layers (low-stretch trees,
//! congestion approximators, Sherman's gradient descent, the CONGEST
//! simulator) need from a graph library:
//!
//! * [`Graph`] — an undirected, capacitated multigraph with a fixed arbitrary
//!   orientation per edge (the paper's §1.1 problem setup), backed by the
//!   flat compressed-sparse-row incidence index of [`csr`],
//! * [`FlowVec`] / [`Demand`] — flow and demand vectors together with
//!   feasibility, conservation and congestion checks,
//! * [`Cut`] — node-side cuts with capacity and crossing-edge queries,
//! * [`RootedTree`] — rooted (spanning) trees with subtree aggregation, LCA,
//!   stretch computation and trivial tree routing,
//! * [`gen`] — workload generators for every graph family used in the
//!   experiment harness,
//! * [`contract`] — quotient multigraphs, used by the low-stretch-tree
//!   machinery.
//!
//! # Example
//!
//! ```
//! use flowgraph::{gen, Demand, NodeId};
//!
//! let g = gen::grid(4, 4, 1.0);
//! assert_eq!(g.num_nodes(), 16);
//! let s = NodeId(0);
//! let t = NodeId(15);
//! let d = Demand::st(&g, s, t, 3.0);
//! assert_eq!(d.total_positive(), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod csr;
pub mod cut;
pub mod flow;
pub mod gen;
pub mod graph;
pub mod spanning;
pub mod tree;
pub mod unionfind;

pub use csr::{Csr, IncidentIter, IncidentSlots};
pub use cut::Cut;
pub use flow::{excess_block_into, residual_block_into, Demand, FlowVec};
pub use graph::{Edge, EdgeId, Graph, GraphBuilder, GraphMemory, NodeId};
pub use spanning::{
    bfs_tree, max_weight_spanning_tree, minimum_spanning_tree, random_spanning_tree,
};
pub use tree::RootedTree;
pub use unionfind::UnionFind;

/// Error type for graph construction and query operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node index was out of range for the graph.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        num_nodes: usize,
    },
    /// An edge index was out of range for the graph.
    EdgeOutOfRange {
        /// The offending edge index.
        edge: usize,
        /// The number of edges in the graph.
        num_edges: usize,
    },
    /// A capacity or length was not strictly positive / finite.
    InvalidWeight {
        /// The offending value.
        value: f64,
    },
    /// The graph is not connected but the operation requires connectivity.
    NotConnected,
    /// A self-loop was supplied where it is not allowed.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// A node count exceeded the `u32` id space ([`Graph::MAX_NODES`]).
    /// Construction rejects this up front instead of truncating ids.
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
    /// An edge count exceeded the `u32` id space ([`Graph::MAX_EDGES`]:
    /// `u32::MAX / 2`, so the `2m` CSR slot offsets still fit in `u32`).
    /// Construction rejects this up front instead of truncating ids.
    TooManyEdges {
        /// The requested edge count.
        requested: usize,
    },
    /// The operation requires a non-empty graph.
    Empty,
    /// The graph has nodes but no edges. Solvers reject this up front: with
    /// an empty edge set the paper's soft-max potential
    /// `ln Σ_i (e^{y_i} + e^{-y_i})` is an empty sum whose logarithm is
    /// undefined (see `maxflow::almost_route::smax_and_weights_into`), and
    /// no flow can route anything anyway.
    NoEdges,
    /// A demand / price vector did not match the dimension the operator was
    /// built for (demand entries per node, prices per operator row).
    DemandMismatch {
        /// The dimension the operation expected.
        expected: usize,
        /// The dimension that was supplied.
        actual: usize,
    },
    /// A tree's parent-edge vector did not have one entry per entry of its
    /// parent vector ([`RootedTree::from_parents`]).
    ParentEdgesMismatch {
        /// Entries of the parent vector (the tree's node count).
        nodes: usize,
        /// Entries of the parent-edge vector.
        parent_edges: usize,
    },
    /// A demand's entries do not sum to zero beyond rounding: the routing
    /// entry points accept `|Σ_v b_v| ≤ tol · Σ_v |b_v|` with the relative
    /// tolerance `maxflow::solver::DEMAND_BALANCE_TOLERANCE`. A flow's excess
    /// always sums to zero, so no flow meets such a demand.
    UnbalancedDemand {
        /// The sum of the demand's entries.
        imbalance: f64,
        /// The sum of their absolute values.
        magnitude: f64,
    },
    /// A demand entry was NaN or infinite.
    NonFiniteDemand {
        /// The node whose entry is not finite.
        node: usize,
        /// The offending entry.
        value: f64,
    },
    /// A number the solver works with or would report — a demand's total
    /// magnitude `Σ_v |b_v|`, or an answer's flow entries, congestion, flow
    /// value or upper bound — overflowed the `f64` range or came out NaN.
    /// The solvers do not rescale capacities or demands, so such an input
    /// gets this error instead of an answer carrying non-finite numbers.
    NonFinite {
        /// Which quantity is not finite.
        quantity: &'static str,
    },
    /// A solver configuration contained a value that can never produce a
    /// meaningful run (e.g. `epsilon <= 0`, `NaN`, or a zero iteration
    /// budget). Rejected up front instead of looping forever or emitting NaN
    /// flows.
    InvalidConfig {
        /// The offending configuration parameter.
        parameter: &'static str,
        /// Why the value was rejected.
        reason: &'static str,
    },
    /// An internal bookkeeping invariant was violated. This indicates a bug
    /// in the library, not bad input; it is returned as a typed error (rather
    /// than panicking) so long-lived serving processes fail the one request
    /// instead of aborting a worker thread.
    Internal {
        /// Which invariant was violated.
        invariant: &'static str,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node index {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::EdgeOutOfRange { edge, num_edges } => {
                write!(
                    f,
                    "edge index {edge} out of range for graph with {num_edges} edges"
                )
            }
            GraphError::InvalidWeight { value } => {
                write!(f, "weight {value} is not a strictly positive finite number")
            }
            GraphError::NotConnected => write!(f, "graph is not connected"),
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node} is not allowed"),
            GraphError::TooManyNodes { requested } => {
                write!(
                    f,
                    "node count {requested} exceeds the u32 id space (max {})",
                    graph::Graph::MAX_NODES
                )
            }
            GraphError::TooManyEdges { requested } => {
                write!(
                    f,
                    "edge count {requested} exceeds the u32 id space (max {})",
                    graph::Graph::MAX_EDGES
                )
            }
            GraphError::Empty => write!(f, "graph is empty"),
            GraphError::NoEdges => write!(f, "graph has no edges"),
            GraphError::DemandMismatch { expected, actual } => {
                write!(
                    f,
                    "vector of length {actual} does not match the expected dimension {expected}"
                )
            }
            GraphError::ParentEdgesMismatch {
                nodes,
                parent_edges,
            } => {
                write!(
                    f,
                    "parent-edge vector has {parent_edges} entries for a tree of {nodes} \
                     nodes; a tree needs one per node"
                )
            }
            GraphError::UnbalancedDemand {
                imbalance,
                magnitude,
            } => {
                write!(
                    f,
                    "demand is unbalanced: entries sum to {imbalance} (total magnitude \
                     {magnitude}); a routable demand sums to zero"
                )
            }
            GraphError::NonFiniteDemand { node, value } => {
                write!(
                    f,
                    "demand entry {value} at node {node} is not a finite number"
                )
            }
            GraphError::NonFinite { quantity } => {
                write!(
                    f,
                    "{quantity} is not a finite number; capacities and demands must keep \
                     the solver's sums and ratios within the f64 range"
                )
            }
            GraphError::InvalidConfig { parameter, reason } => {
                write!(f, "invalid configuration: {parameter} {reason}")
            }
            GraphError::Internal { invariant } => {
                write!(
                    f,
                    "internal invariant violated: {invariant} (library bug — please report)"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
