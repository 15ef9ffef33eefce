//! A synchronous CONGEST-model simulator and the distributed building blocks
//! used by the max-flow algorithm of Ghaffari et al. (PODC 2015).
//!
//! The CONGEST model (§1.1 of the paper): computation proceeds in synchronous
//! rounds; in every round each node may send one message of `B = O(log n)`
//! bits over each incident edge. The simulator in [`engine`] executes
//! per-node programs round by round, enforces the one-message-per-edge rule
//! and accounts rounds, messages and message sizes.
//!
//! On top of the raw model the crate provides:
//!
//! * [`primitives`] — genuine message-passing implementations of the
//!   standard toolbox: BFS-tree construction, flooding/leader election,
//!   broadcast, convergecast and pipelined aggregation of `k` values over a
//!   tree (the `D + k` bound used throughout §5 and §9 of the paper);
//! * [`treeops`] — subtree sums and root-to-node prefix sums ("downcasts") on
//!   a (possibly deep) spanning tree in `Õ(√n + D)` rounds via the random
//!   edge-sampling decomposition of Lemma 8.2 / Lemma 9.1;
//! * [`cost`] — composable round/message cost records used by the
//!   round-accounted execution of the full pipeline.
//!
//! Classic CONGEST is the only communication model: it is the model of
//! Theorem 1.1 and of every round bill the workspace reproduces.
//!
//! # Example: distributed BFS tree
//!
//! ```
//! use congest::engine::Network;
//! use congest::primitives::build_bfs_tree;
//! use flowgraph::{gen, NodeId};
//!
//! let g = gen::grid(4, 4, 1.0);
//! let network = Network::new(g);
//! let result = build_bfs_tree(&network, NodeId(0));
//! assert_eq!(result.tree.root(), NodeId(0));
//! // A BFS tree of a 4x4 grid from a corner has depth 6 and is found in
//! // depth + O(1) rounds.
//! assert_eq!(result.tree.max_depth(), 6);
//! assert!(result.cost.rounds >= 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod primitives;
pub mod treeops;

pub use cost::RoundCost;
pub use treeops::{DecomposedTree, TreeDecomposition};

pub use engine::{
    DeliveryEvent, Inbox, LocalView, MessageSize, Network, Outbox, Protocol, RunResult, Simulator,
    Transcript,
};
