//! Edge cuts induced by node sets.
//!
//! Congestion approximators (paper §2) are built from cuts: a cut's congestion
//! under a demand `b` is the net demand that must cross it divided by its
//! capacity. [`Cut`] represents one side `S ⊆ V` of a cut and answers
//! capacity, crossing-edge and demand-congestion queries.

use crate::flow::{Demand, FlowVec};
use crate::graph::{EdgeId, Graph, NodeId};

/// One side of an edge cut: the set `S` of nodes, stored as a membership
/// bitmap over the graph's node set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    side: Vec<bool>,
}

impl Cut {
    /// Creates a cut from the characteristic vector of `S`.
    pub fn from_membership(side: Vec<bool>) -> Self {
        Cut { side }
    }

    /// Creates a cut from an explicit list of nodes on the `S` side.
    pub fn from_nodes(n: usize, nodes: &[NodeId]) -> Self {
        let mut side = vec![false; n];
        for v in nodes {
            side[v.index()] = true;
        }
        Cut { side }
    }

    /// The singleton cut `{v}`.
    pub fn singleton(n: usize, v: NodeId) -> Self {
        let mut side = vec![false; n];
        side[v.index()] = true;
        Cut { side }
    }

    /// Number of nodes in the underlying graph.
    pub fn len(&self) -> usize {
        self.side.len()
    }

    /// Returns `true` if the membership vector is empty.
    pub fn is_empty(&self) -> bool {
        self.side.is_empty()
    }

    /// Returns `true` if node `v` lies on the `S` side.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.side[v.index()]
    }

    /// Number of nodes on the `S` side.
    pub fn side_size(&self) -> usize {
        self.side.iter().filter(|&&b| b).count()
    }

    /// Returns `true` if the cut is proper (neither side is empty).
    pub fn is_proper(&self) -> bool {
        let k = self.side_size();
        k > 0 && k < self.len()
    }

    /// Returns `true` if the cut separates `s` from `t`.
    pub fn separates(&self, s: NodeId, t: NodeId) -> bool {
        self.contains(s) != self.contains(t)
    }

    /// Edges crossing the cut.
    pub fn crossing_edges<'a>(&'a self, g: &'a Graph) -> impl Iterator<Item = EdgeId> + 'a {
        g.edges().filter_map(move |(id, e)| {
            if self.contains(e.tail) != self.contains(e.head) {
                Some(id)
            } else {
                None
            }
        })
    }

    /// Total capacity of the crossing edges.
    pub fn capacity(&self, g: &Graph) -> f64 {
        self.crossing_edges(g).map(|e| g.capacity(e)).sum()
    }

    /// Net demand that must cross from outside `S` into `S` (the sum of
    /// demand inside `S`, since total demand is balanced).
    pub fn net_demand(&self, d: &Demand) -> f64 {
        d.values()
            .iter()
            .enumerate()
            .filter(|(v, _)| self.side[*v])
            .map(|(_, b)| *b)
            .sum()
    }

    /// Congestion of the cut under demand `d`: `|net demand| / capacity`.
    ///
    /// Returns 0 when the cut has zero capacity and zero net demand, and
    /// `f64::INFINITY` when demand must cross a zero-capacity cut.
    pub fn demand_congestion(&self, g: &Graph, d: &Demand) -> f64 {
        let cap = self.capacity(g);
        let need = self.net_demand(d).abs();
        if cap <= 0.0 {
            if need <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            need / cap
        }
    }

    /// Net flow crossing the cut into `S` under flow `f` (positive entries
    /// follow each edge's fixed orientation).
    pub fn net_flow(&self, g: &Graph, f: &FlowVec) -> f64 {
        let mut total = 0.0;
        for (id, e) in g.edges() {
            let tail_in = self.contains(e.tail);
            let head_in = self.contains(e.head);
            if tail_in == head_in {
                continue;
            }
            let fe = f.get(id);
            if head_in {
                total += fe;
            } else {
                total -= fe;
            }
        }
        total
    }

    /// Congestion of the cut in a given flow: |net flow| / capacity.
    pub fn flow_congestion(&self, g: &Graph, f: &FlowVec) -> f64 {
        let cap = self.capacity(g);
        if cap <= 0.0 {
            0.0
        } else {
            self.net_flow(g, f).abs() / cap
        }
    }

    /// Complement cut (`V \ S`).
    #[must_use]
    pub fn complement(&self) -> Cut {
        Cut {
            side: self.side.iter().map(|b| !b).collect(),
        }
    }
}

/// Enumerates all `2^(n-1) - 1` proper cuts of a small graph (node 0 fixed on
/// the `S` side to avoid double counting). Intended for exhaustive
/// verification on test instances only.
///
/// # Panics
///
/// Panics if the graph has more than 20 nodes (the enumeration would be
/// prohibitively large).
pub fn enumerate_proper_cuts(g: &Graph) -> Vec<Cut> {
    let n = g.num_nodes();
    assert!(n <= 20, "exhaustive cut enumeration is limited to 20 nodes");
    if n < 2 {
        return Vec::new();
    }
    let mut cuts = Vec::new();
    // Node 0 always on the S side; iterate over subsets of the rest.
    for mask in 0..(1u32 << (n - 1)) {
        let mut side = vec![false; n];
        side[0] = true;
        for i in 0..(n - 1) {
            if mask & (1 << i) != 0 {
                side[i + 1] = true;
            }
        }
        let cut = Cut::from_membership(side);
        if cut.is_proper() {
            cuts.push(cut);
        }
    }
    cuts
}

/// The exact minimum s–t cut capacity of a small graph by exhaustive
/// enumeration. Intended for verification on test instances only.
///
/// # Panics
///
/// Panics if the graph has more than 20 nodes.
pub fn exhaustive_min_st_cut(g: &Graph, s: NodeId, t: NodeId) -> f64 {
    enumerate_proper_cuts(g)
        .into_iter()
        .filter(|c| c.separates(s, t))
        .map(|c| c.capacity(g))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn square() -> Graph {
        // 0 - 1
        // |   |
        // 3 - 2
        GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(1, 2, 2.0)
            .edge(2, 3, 3.0)
            .edge(3, 0, 4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn capacity_and_crossing() {
        let g = square();
        let cut = Cut::from_nodes(4, &[NodeId(0), NodeId(1)]);
        assert!(cut.is_proper());
        assert_eq!(cut.side_size(), 2);
        let crossing: Vec<_> = cut.crossing_edges(&g).collect();
        assert_eq!(crossing.len(), 2);
        assert!((cut.capacity(&g) - 6.0).abs() < 1e-12);
        assert!((cut.complement().capacity(&g) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn demand_congestion_of_cut() {
        let g = square();
        let d = Demand::st(&g, NodeId(0), NodeId(2), 3.0);
        let cut = Cut::singleton(4, NodeId(2));
        // capacity of {2} boundary = 2 + 3 = 5, demand entering = 3
        assert!((cut.demand_congestion(&g, &d) - 3.0 / 5.0).abs() < 1e-12);
        assert!(cut.separates(NodeId(0), NodeId(2)));
        assert!(!cut.separates(NodeId(0), NodeId(1)));
    }

    #[test]
    fn net_flow_across_cut() {
        let g = square();
        let mut f = FlowVec::zeros(g.num_edges());
        f.set(EdgeId(0), 1.0); // 0 -> 1
        f.set(EdgeId(1), 1.0); // 1 -> 2
        let cut = Cut::singleton(4, NodeId(2));
        assert!((cut.net_flow(&g, &f) - 1.0).abs() < 1e-12);
        assert!((cut.flow_congestion(&g, &f) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_min_cut_on_square() {
        let g = square();
        // min cut separating 0 and 2: {0} side capacity 1+4=5, {0,1}: 2+4=6,
        // {0,3}: 1+3=4, {0,1,3}: 2+3=5 -> minimum 4.
        let mc = exhaustive_min_st_cut(&g, NodeId(0), NodeId(2));
        assert!((mc - 4.0).abs() < 1e-12);
    }

    #[test]
    fn enumerate_counts() {
        let g = square();
        let cuts = enumerate_proper_cuts(&g);
        // 2^(4-1) - 1 = 7 proper cuts with node 0 fixed on the S side.
        assert_eq!(cuts.len(), 7);
        for c in &cuts {
            assert!(c.is_proper());
            assert!(c.contains(NodeId(0)));
        }
    }

    #[test]
    fn zero_capacity_cut_congestion() {
        let g = GraphBuilder::new(3).edge(0, 1, 1.0).build().unwrap();
        // node 2 is isolated
        let cut = Cut::singleton(3, NodeId(2));
        let d = Demand::zeros(3);
        assert_eq!(cut.demand_congestion(&g, &d), 0.0);
        let d = Demand::st(&g, NodeId(0), NodeId(2), 1.0);
        assert_eq!(cut.demand_congestion(&g, &d), f64::INFINITY);
    }
}
