//! Congestion approximators for the distributed max-flow reproduction
//! (paper §2, §4, §6, §8).
//!
//! A congestion approximator is a linear operator `R` with
//! `‖Rb‖_∞ ≤ opt(b) ≤ α·‖Rb‖_∞` for every demand vector `b`, where `opt(b)`
//! is the smallest possible maximum edge congestion of any routing of `b`.
//! Sherman's gradient descent (implemented in the `maxflow` crate) needs `R`
//! and `Rᵀ` as black boxes; this crate builds them from:
//!
//! * [`mod@sparsify`] — cut sparsifiers (§6) that shrink dense graphs before
//!   the expensive tree constructions;
//! * [`racke`] — Räcke-style distributions of capacitated low-stretch
//!   spanning trees built by multiplicative weight updates (§2, §8.2);
//! * [`jtree`] — Madry's j-tree construction with portals and skeletons
//!   (§4, §8.3);
//! * [`mod@hierarchy`] — the recursive j-tree hierarchy of Theorem 8.10,
//!   which assembles the ensemble level by level so preparation stays
//!   affordable at millions of nodes;
//! * [`approximator`] — the `O(log n)`-sample tree-cut approximator of
//!   Lemma 3.3 with `R·b` / `Rᵀ·y` evaluation by tree aggregation (§9.1).
//!
//! # Example
//!
//! An approximator is built once per graph and then evaluated many times —
//! the posture of the `maxflow::PreparedMaxFlow` session, whose queries call
//! the borrowed-scratch operators [`CongestionApproximator::apply_into`] /
//! [`CongestionApproximator::apply_transpose_into`] so that repeated
//! evaluations allocate nothing once the [`OperatorScratch`] is warm:
//!
//! ```
//! use capprox::{CongestionApproximator, OperatorScratch, RackeConfig};
//! use flowgraph::{gen, Demand, NodeId};
//!
//! let g = gen::grid(5, 5, 1.0);
//! let r = CongestionApproximator::build(&g, &RackeConfig::default()).unwrap();
//! let b = Demand::st(&g, NodeId(0), NodeId(24), 1.0);
//! let lower = r.congestion_lower_bound(&b);
//! let upper = r.congestion_upper_bound(&g, &b);
//! assert!(lower <= upper);
//!
//! // Allocation-free evaluation with caller-owned buffers (one per session,
//! // reused across gradient iterations).
//! let mut scratch = OperatorScratch::for_nodes(g.num_nodes());
//! let mut rows = vec![0.0; r.num_rows()];
//! r.apply_into(&b, &mut rows, &mut scratch).unwrap();
//! assert_eq!(rows, r.apply(&b).unwrap());
//! ```
//!
//! The allocating [`CongestionApproximator::apply`] /
//! [`CongestionApproximator::apply_transpose`] remain as conveniences for
//! one-off evaluations; misuse (a demand or price vector of the wrong
//! dimension) is reported as `GraphError::DemandMismatch` by both forms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approximator;
pub mod hierarchy;
pub mod jtree;
pub mod racke;
pub mod sparsify;

pub use approximator::{
    exhaustive_opt_congestion, ApproximatorStats, ApproximatorTree, CongestionApproximator,
    OperatorScratch, SlotTree,
};
pub use hierarchy::{
    build_hierarchical_ensemble, ChainStats, HierarchyConfig, HierarchyLevelStats, HierarchyStats,
};
pub use jtree::{build_jtree_top_loaded, CoreEdgeOrigin, JTree};
pub use racke::{build_tree_ensemble, CapacitatedTree, EnsembleStats, RackeConfig, TreeEnsemble};
pub use sparsify::{forest_indices, sparsify, Sparsifier, SparsifyConfig};
