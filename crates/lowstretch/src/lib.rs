//! Low average-stretch spanning trees (paper §7, Theorem 3.1).
//!
//! The congestion-approximator construction of Ghaffari et al. repeatedly
//! needs spanning trees whose *average stretch*
//! `Σ_e d_T(u_e, v_e) / Σ_e ℓ(e)` is small. The paper follows the classic
//! scheme of Alon, Karp, Peleg and West (AKPW) in the parallel formulation of
//! Blelloch et al.:
//!
//! 1. bucket the edges into length classes `E_i` with geometrically growing
//!    thresholds `z^i`;
//! 2. repeatedly run a low-diameter decomposition (`SplitGraph`) on the
//!    currently active (short) edges, take a BFS tree inside every cluster,
//!    contract the clusters and move to the next length class.
//!
//! The union of the per-cluster BFS trees over all iterations is a spanning
//! tree with expected average stretch `2^{O(√(log n · log log n))}` for the
//! theoretical choice of `z`; at practical sizes the crate lets callers pick
//! `z` (experiment E3 of `dmf-bench` measures the realized stretch).
//!
//! # Example
//!
//! ```
//! use flowgraph::gen;
//! use lowstretch::{low_stretch_spanning_tree, LowStretchConfig};
//!
//! let g = gen::grid(8, 8, 1.0);
//! let lengths: Vec<f64> = g.edge_ids().map(|_| 1.0).collect();
//! let result = low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::default()).unwrap();
//! let stretch = result.tree.average_stretch(&g, |e| lengths[e.index()]);
//! assert!(stretch >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod akpw;
pub mod decompose;

pub use akpw::{low_stretch_spanning_tree, LowStretchConfig, LowStretchResult, LowStretchStats};
pub use decompose::{split_graph, Decomposition};

/// The theoretical class-growth parameter `z = 2^{√(6 log n · log log n)}` of
/// Alon et al. (§7). At practical sizes this exceeds the graph diameter, so
/// the construction degenerates to a single low-diameter decomposition; the
/// experiments therefore also sweep smaller `z` values.
pub fn theoretical_z(n: usize) -> f64 {
    if n < 4 {
        return 4.0;
    }
    let ln = (n as f64).ln() / std::f64::consts::LN_2;
    let lln = ln.max(2.0).log2();
    (6.0 * ln * lln).sqrt().exp2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_z_grows_slowly() {
        let z100 = theoretical_z(100);
        let z10000 = theoretical_z(10_000);
        assert!(z100 > 1.0);
        assert!(z10000 > z100);
        // Sub-polynomial: far below n itself.
        assert!(z10000 < 10_000.0 * 10_000.0);
        assert_eq!(theoretical_z(2), 4.0);
    }
}
