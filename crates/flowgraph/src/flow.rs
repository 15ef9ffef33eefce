//! Flow and demand vectors.
//!
//! The paper reformulates max flow as congestion minimization for a demand
//! vector `b ∈ R^V` with `Σ_v b_v = 0` (§2): find `f ∈ R^E` with `Bf = b`
//! minimizing `‖C⁻¹ f‖_∞`. [`FlowVec`] is the signed edge vector `f` (signs
//! follow each edge's fixed orientation), [`Demand`] is `b`.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::{GraphError, Result};

/// Numerical slack used by feasibility checks on floating-point flows.
pub const FLOW_EPS: f64 = 1e-9;

/// A signed flow vector, one entry per edge of a fixed graph.
///
/// Positive values flow in the direction of the edge's fixed orientation
/// (`tail -> head`), negative values in the opposite direction.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowVec {
    values: Vec<f64>,
}

impl FlowVec {
    /// The all-zero flow on a graph with `m` edges.
    pub fn zeros(m: usize) -> Self {
        FlowVec {
            values: vec![0.0; m],
        }
    }

    /// Creates a flow vector from raw per-edge values.
    pub fn from_values(values: Vec<f64>) -> Self {
        FlowVec { values }
    }

    /// Number of edges covered by this flow vector.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the vector covers zero edges.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Flow on edge `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> f64 {
        self.values[e.index()]
    }

    /// Sets the flow on edge `e`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, value: f64) {
        self.values[e.index()] = value;
    }

    /// Adds `delta` to the flow on edge `e`.
    #[inline]
    pub fn add(&mut self, e: EdgeId, delta: f64) {
        self.values[e.index()] += delta;
    }

    /// Read-only view of the raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the raw values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Adds another flow vector (entrywise) to this one.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn add_assign(&mut self, other: &FlowVec) {
        assert_eq!(
            self.len(),
            other.len(),
            "flow vectors must cover the same edge set"
        );
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }

    /// Scales every entry by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// The excess vector `Bf`: for every node, inflow minus outflow under the
    /// fixed orientation convention of the paper (§2: `(Bf)_v` is the excess
    /// at node `v`, with `B_{ve} = 1` if `e = (u, v)` enters `v`).
    pub fn excess(&self, g: &Graph) -> Vec<f64> {
        let mut ex = vec![0.0; g.num_nodes()];
        self.excess_into(g, &mut ex);
        ex
    }

    /// Writes the excess vector `Bf` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` does not equal the graph's node count.
    pub fn excess_into(&self, g: &Graph, out: &mut [f64]) {
        assert_eq!(out.len(), g.num_nodes(), "excess buffer length mismatch");
        out.fill(0.0);
        for (id, e) in g.edges() {
            let f = self.values[id.index()];
            out[e.head.index()] += f;
            out[e.tail.index()] -= f;
        }
    }

    /// Net flow out of the source for an s–t flow: the value `F` of the flow
    /// (paper §1.1 condition 3).
    pub fn st_value(&self, g: &Graph, s: NodeId) -> f64 {
        let mut out = 0.0;
        for (eid, _) in g.incident(s) {
            let e = g.edge(eid);
            let f = self.values[eid.index()];
            if e.tail == s {
                out += f;
            } else {
                out -= f;
            }
        }
        out
    }

    /// Congestion of edge `e`: `|f_e| / cap(e)`.
    pub fn edge_congestion(&self, g: &Graph, e: EdgeId) -> f64 {
        self.values[e.index()].abs() / g.capacity(e)
    }

    /// Maximum edge congestion `‖C⁻¹ f‖_∞` (0 for an edgeless graph; NaN if
    /// any entry is NaN).
    pub fn max_congestion(&self, g: &Graph) -> f64 {
        g.edge_ids()
            .map(|e| self.edge_congestion(g, e))
            .fold(0.0, max_or_nan)
    }

    /// Returns `true` if `|f_e| ≤ cap(e) (1 + tol)` for every edge.
    pub fn respects_capacities(&self, g: &Graph, tol: f64) -> bool {
        g.edge_ids()
            .all(|e| self.values[e.index()].abs() <= g.capacity(e) * (1.0 + tol) + FLOW_EPS)
    }

    /// Checks flow conservation at every node except `s` and `t` and returns
    /// the largest absolute violation (NaN if any excess is NaN).
    pub fn conservation_violation(&self, g: &Graph, s: NodeId, t: NodeId) -> f64 {
        self.excess(g)
            .iter()
            .enumerate()
            .filter(|(v, _)| *v != s.index() && *v != t.index())
            .map(|(_, ex)| ex.abs())
            .fold(0.0, max_or_nan)
    }

    /// Verifies that this vector is a feasible s–t flow in `g` within
    /// tolerance `tol` and returns its value.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NonFinite`] if an entry is NaN or infinite, and
    /// otherwise [`GraphError::InvalidWeight`] describing the first violated
    /// constraint: a capacity violation or a conservation violation.
    pub fn validate_st_flow(&self, g: &Graph, s: NodeId, t: NodeId, tol: f64) -> Result<f64> {
        if !self.values.iter().all(|x| x.is_finite()) {
            return Err(GraphError::NonFinite {
                quantity: "a flow entry",
            });
        }
        for e in g.edge_ids() {
            let over = self.values[e.index()].abs() - g.capacity(e) * (1.0 + tol);
            if over > FLOW_EPS {
                return Err(GraphError::InvalidWeight {
                    value: self.values[e.index()],
                });
            }
        }
        let violation = self.conservation_violation(g, s, t);
        if violation > tol.max(FLOW_EPS) {
            return Err(GraphError::InvalidWeight { value: violation });
        }
        Ok(self.st_value(g, s))
    }
}

/// `f64::max` for folds that must not lose a NaN: `f64::max` returns the
/// other operand when one is NaN, so a NaN entry would vanish from a
/// maximum. On numbers this returns what `f64::max` does.
fn max_or_nan(acc: f64, x: f64) -> f64 {
    if acc.is_nan() || x.is_nan() {
        f64::NAN
    } else {
        acc.max(x)
    }
}

/// A demand vector `b ∈ R^V` with `Σ_v b_v = 0`.
///
/// Positive entries are sources of demand, negative entries are sinks; the
/// congestion-minimization problem asks for a flow whose excess equals `b`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Demand {
    values: Vec<f64>,
}

impl Demand {
    /// The all-zero demand for a graph with `n` nodes.
    pub fn zeros(n: usize) -> Self {
        Demand {
            values: vec![0.0; n],
        }
    }

    /// Creates a demand from raw per-node values.
    ///
    /// The values are *not* re-balanced; use [`Demand::is_balanced`] to check.
    pub fn from_values(values: Vec<f64>) -> Self {
        Demand { values }
    }

    /// Creates the s–t demand that ships `amount` units from `s` to `t`
    /// (positive at the sink `t`, negative at the source `s`, matching the
    /// excess convention `Bf = b`).
    pub fn st(g: &Graph, s: NodeId, t: NodeId, amount: f64) -> Self {
        let mut values = vec![0.0; g.num_nodes()];
        values[s.index()] -= amount;
        values[t.index()] += amount;
        Demand { values }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the demand covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Demand at node `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        self.values[v.index()]
    }

    /// Sets the demand at node `v`.
    #[inline]
    pub fn set(&mut self, v: NodeId, value: f64) {
        self.values[v.index()] = value;
    }

    /// Read-only view of the raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the raw values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Sum of all entries (should be ~0 for a routable demand).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sum of the positive entries (total quantity that must be shipped).
    pub fn total_positive(&self) -> f64 {
        self.values.iter().filter(|v| **v > 0.0).sum()
    }

    /// Returns `true` if the entries sum to zero within `tol`.
    pub fn is_balanced(&self, tol: f64) -> bool {
        self.total().abs() <= tol
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// Scales every entry by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Residual demand `b - Bf`: what remains to be routed after applying `f`.
    pub fn residual(&self, g: &Graph, f: &FlowVec) -> Demand {
        let mut out = Demand::zeros(self.values.len());
        self.residual_into(g, f, &mut out);
        out
    }

    /// Writes the residual demand `b - Bf` into `out` without allocating
    /// (the buffer reuse behind the session API's allocation-free gradient
    /// iterations).
    ///
    /// # Panics
    ///
    /// Panics if this demand or `out` does not cover exactly the graph's
    /// nodes.
    pub fn residual_into(&self, g: &Graph, f: &FlowVec, out: &mut Demand) {
        assert_eq!(self.values.len(), g.num_nodes(), "demand length mismatch");
        f.excess_into(g, &mut out.values);
        for (r, b) in out.values.iter_mut().zip(self.values.iter()) {
            *r = b - *r;
        }
    }
}

/// Writes `k` lane-major excess vectors `Bf` into `out`: `f_block[e*k + l]`
/// is lane `l`'s flow on edge `e`, `out[v*k + l]` receives lane `l`'s excess
/// at node `v`. The edge walk is edge-outer / lane-inner, so each lane's
/// accumulation order matches [`FlowVec::excess_into`] exactly and every lane
/// is byte-identical to a scalar evaluation — while the incidence walk (the
/// random-access part) is paid once for all `k` lanes.
///
/// # Panics
///
/// Panics if `f_block.len() != k × num_edges` or `out.len() != k × num_nodes`.
pub fn excess_block_into(g: &Graph, f_block: &[f64], k: usize, out: &mut [f64]) {
    assert_eq!(
        f_block.len(),
        g.num_edges() * k,
        "flow block length mismatch"
    );
    assert_eq!(out.len(), g.num_nodes() * k, "excess block length mismatch");
    out.fill(0.0);
    // Monomorphize the lane-inner loop for the session block widths so it
    // vectorizes (a runtime trip count defeats the autovectorizer); the
    // dynamic fallback executes the identical operations in the same order.
    match k {
        1 => excess_block_impl::<1>(g, f_block, k, out),
        2 => excess_block_impl::<2>(g, f_block, k, out),
        3 => excess_block_impl::<3>(g, f_block, k, out),
        4 => excess_block_impl::<4>(g, f_block, k, out),
        5 => excess_block_impl::<5>(g, f_block, k, out),
        6 => excess_block_impl::<6>(g, f_block, k, out),
        7 => excess_block_impl::<7>(g, f_block, k, out),
        8 => excess_block_impl::<8>(g, f_block, k, out),
        _ => excess_block_impl::<0>(g, f_block, k, out),
    }
}

#[inline(always)]
fn excess_block_impl<const K: usize>(g: &Graph, f_block: &[f64], k_dyn: usize, out: &mut [f64]) {
    let k = if K > 0 { K } else { k_dyn };
    for (id, e) in g.edges() {
        let src = id.index() * k;
        let head = e.head.index() * k;
        let tail = e.tail.index() * k;
        for l in 0..k {
            let f = f_block[src + l];
            out[head + l] += f;
            out[tail + l] -= f;
        }
    }
}

/// Writes `k` lane-major residual demands `b - Bf` into `out` — the blocked
/// counterpart of [`Demand::residual_into`], with the same per-lane
/// byte-identity guarantee as [`excess_block_into`].
///
/// # Panics
///
/// Panics if `b_block.len()` or `out.len()` is not `k × num_nodes`, or
/// `f_block.len()` is not `k × num_edges`.
pub fn residual_block_into(g: &Graph, b_block: &[f64], f_block: &[f64], k: usize, out: &mut [f64]) {
    assert_eq!(
        b_block.len(),
        g.num_nodes() * k,
        "demand block length mismatch"
    );
    excess_block_into(g, f_block, k, out);
    for (r, b) in out.iter_mut().zip(b_block) {
        *r = b - *r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path3() -> Graph {
        GraphBuilder::new(3)
            .edge(0, 1, 2.0)
            .edge(1, 2, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn excess_matches_orientation() {
        let g = path3();
        let mut f = FlowVec::zeros(g.num_edges());
        f.set(EdgeId(0), 1.0); // 0 -> 1
        f.set(EdgeId(1), 1.0); // 1 -> 2
        let ex = f.excess(&g);
        assert!((ex[0] + 1.0).abs() < 1e-12);
        assert!(ex[1].abs() < 1e-12);
        assert!((ex[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn st_value_and_validation() {
        let g = path3();
        let mut f = FlowVec::zeros(g.num_edges());
        f.set(EdgeId(0), 1.0);
        f.set(EdgeId(1), 1.0);
        let v = f.validate_st_flow(&g, NodeId(0), NodeId(2), 1e-9).unwrap();
        assert!((v - 1.0).abs() < 1e-12);
        assert!((f.st_value(&g, NodeId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_violation_detected() {
        let g = path3();
        let mut f = FlowVec::zeros(g.num_edges());
        f.set(EdgeId(0), 1.5);
        f.set(EdgeId(1), 1.5);
        assert!(f.validate_st_flow(&g, NodeId(0), NodeId(2), 1e-9).is_err());
        assert!((f.max_congestion(&g) - 1.5).abs() < 1e-12);
        assert!(!f.respects_capacities(&g, 0.0));
        assert!(f.respects_capacities(&g, 0.6));
    }

    #[test]
    fn conservation_violation_detected() {
        let g = path3();
        let mut f = FlowVec::zeros(g.num_edges());
        f.set(EdgeId(0), 1.0);
        // nothing leaves node 1 towards node 2 -> conservation violated at 1
        assert!(f.conservation_violation(&g, NodeId(0), NodeId(2)) > 0.5);
        assert!(f.validate_st_flow(&g, NodeId(0), NodeId(2), 1e-9).is_err());
    }

    #[test]
    fn nan_flows_are_rejected_and_propagate() {
        // A NaN fails every `>` test and `f64::max` drops it, so these flows
        // used to validate as `Ok(1.0)` and `Ok(NaN)` with congestion 1 and
        // no conservation violation.
        let g = crate::gen::path(4, 1.0);
        let (s, t) = (NodeId(0), NodeId(3));
        for values in [vec![1.0, f64::NAN, 1.0], vec![f64::NAN; 3]] {
            let f = FlowVec::from_values(values.clone());
            assert_eq!(
                f.validate_st_flow(&g, s, t, 1e-6),
                Err(GraphError::NonFinite {
                    quantity: "a flow entry"
                }),
                "{values:?}"
            );
            assert!(f.max_congestion(&g).is_nan(), "{values:?}");
            assert!(f.conservation_violation(&g, s, t).is_nan(), "{values:?}");
        }
        let f = FlowVec::from_values(vec![1.0, f64::INFINITY, 1.0]);
        assert!(matches!(
            f.validate_st_flow(&g, s, t, 1e-6),
            Err(GraphError::NonFinite { .. })
        ));
    }

    #[test]
    fn finite_maxima_keep_the_bits_of_f64_max() {
        let g = crate::gen::path(5, 3.0);
        for values in [
            vec![0.0, -0.0, 0.0, 0.0],
            vec![1.5, -2.25, 1e-300, 3.0],
            vec![-7.0, 0.1, 0.2, 0.30000000000000004],
        ] {
            let f = FlowVec::from_values(values);
            let plain = g
                .edge_ids()
                .map(|e| f.edge_congestion(&g, e))
                .fold(0.0, f64::max);
            assert_eq!(f.max_congestion(&g).to_bits(), plain.to_bits());
            let plain = f
                .excess(&g)
                .iter()
                .skip(1)
                .take(3)
                .map(|x| x.abs())
                .fold(0.0, f64::max);
            let got = f.conservation_violation(&g, NodeId(0), NodeId(4));
            assert_eq!(got.to_bits(), plain.to_bits());
        }
    }

    #[test]
    fn demand_basics() {
        let g = path3();
        let d = Demand::st(&g, NodeId(0), NodeId(2), 5.0);
        assert!(d.is_balanced(1e-12));
        assert_eq!(d.total_positive(), 5.0);
        assert_eq!(d.get(NodeId(0)), -5.0);
        assert_eq!(d.get(NodeId(2)), 5.0);
        assert_eq!(d.max_abs(), 5.0);
    }

    #[test]
    fn residual_demand_after_partial_routing() {
        let g = path3();
        let d = Demand::st(&g, NodeId(0), NodeId(2), 2.0);
        let mut f = FlowVec::zeros(g.num_edges());
        f.set(EdgeId(0), 2.0); // pushed to node 1 but not further
        let r = d.residual(&g, &f);
        assert!((r.get(NodeId(0)) - 0.0).abs() < 1e-12);
        assert!((r.get(NodeId(1)) + 2.0).abs() < 1e-12);
        assert!((r.get(NodeId(2)) - 2.0).abs() < 1e-12);
        assert!(r.is_balanced(1e-12));
    }

    #[test]
    fn blocked_excess_and_residual_match_scalar_lanes() {
        let g = path3();
        let k = 3;
        let flows = [
            FlowVec::from_values(vec![1.0, 0.5]),
            FlowVec::from_values(vec![-0.25, 2.0]),
            FlowVec::from_values(vec![0.0, -1.5]),
        ];
        let demands = [
            Demand::st(&g, NodeId(0), NodeId(2), 2.0),
            Demand::st(&g, NodeId(2), NodeId(0), 1.0),
            Demand::from_values(vec![0.5, -1.0, 0.5]),
        ];
        let mut f_block = vec![0.0; g.num_edges() * k];
        let mut b_block = vec![0.0; g.num_nodes() * k];
        for l in 0..k {
            for e in 0..g.num_edges() {
                f_block[e * k + l] = flows[l].values()[e];
            }
            for v in 0..g.num_nodes() {
                b_block[v * k + l] = demands[l].values()[v];
            }
        }
        let mut ex_block = vec![0.0; g.num_nodes() * k];
        excess_block_into(&g, &f_block, k, &mut ex_block);
        let mut res_block = vec![0.0; g.num_nodes() * k];
        residual_block_into(&g, &b_block, &f_block, k, &mut res_block);
        for l in 0..k {
            let ex = flows[l].excess(&g);
            let res = demands[l].residual(&g, &flows[l]);
            for v in 0..g.num_nodes() {
                assert_eq!(ex_block[v * k + l].to_bits(), ex[v].to_bits());
                assert_eq!(res_block[v * k + l].to_bits(), res.values()[v].to_bits());
            }
        }
    }

    #[test]
    fn flow_arithmetic() {
        let mut a = FlowVec::from_values(vec![1.0, -2.0]);
        let b = FlowVec::from_values(vec![0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.values(), &[1.5, -1.5]);
        a.scale(2.0);
        assert_eq!(a.values(), &[3.0, -3.0]);
        a.add(EdgeId(0), 1.0);
        assert_eq!(a.get(EdgeId(0)), 4.0);
    }
}
