//! Cross-crate oracle test harness for the distributed max-flow
//! reproduction.
//!
//! Every future scaling or performance PR runs through this crate: it bundles
//! the seeded workloads, the exact-flow oracles and the CONGEST invariant
//! checkers that pin down what "still correct" means for the pipeline of
//! Ghaffari et al., *Near-Optimal Distributed Maximum Flow* (PODC 2015).
//!
//! * [`families`] — named, seeded graph instances (paths, grids, expanders,
//!   random `G(n,p)`, datacenter-like fat-trees, …) with their terminal
//!   pairs, so suites sweep workloads uniformly and reproducibly;
//! * [`oracle`] — cross-checks of `maxflow::approx_max_flow` /
//!   `maxflow::distributed_approx_max_flow` against the exact
//!   `baselines::dinic` and `baselines::push_relabel` optima within
//!   `(1 ± ε)`-style brackets;
//! * [`congestcheck`] — shape checks on the CONGEST round accounting
//!   (`O((D + √n)·polylog n)` per phase, message payloads of `O(log n)`
//!   bits).
//!
//! # Example
//!
//! ```
//! use testkit::{families, oracle};
//!
//! let inst = families::oracle_families(36, 7).remove(0);
//! let report = oracle::check_solver_against_exact(&inst, &oracle::OracleConfig::default())
//!     .expect("solver stays within the oracle bracket");
//! assert!(report.ratio > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestcheck;
pub mod families;
pub mod oracle;

pub use congestcheck::{check_congest_invariants, CongestBudget, CongestReport};
pub use families::{oracle_families, Instance};
pub use oracle::{
    check_distributed_matches_centralized, check_exact_baselines_agree, check_solver_against_exact,
    OracleConfig, OracleError, OracleReport,
};
