//! Rooted trees over a graph's node set.
//!
//! Trees are the workhorse of the paper: low average-stretch spanning trees
//! (§7), the trees of the congestion approximator (§8) and the
//! maximum-weight spanning tree used to repair residual demand (§9, Alg. 1)
//! all need the same machinery — orientation towards a root, subtree
//! aggregation, least common ancestors, tree-induced cuts and the trivial
//! routing of a demand vector over a tree.
//!
//! # Layout
//!
//! A [`RootedTree`] on `n` nodes is six flat `u32` columns, 24 bytes per node
//! and no per-node allocation (a congestion approximator holds `O(log n)`
//! trees):
//!
//! ```text
//! parent:       [p_0, ..., p_{n-1}]   NONE (u32::MAX) at the root
//! parent_edge:  [e_0, ..., e_{n-1}]   realizing graph edge, or NONE
//! depth:        [d_0, ..., d_{n-1}]   0 at the root
//! order:        [root, ...]           BFS preorder
//! child_start:  [c_0, ..., c_n]       v's children: children[c_v..c_{v+1}]
//! children:     [w, ...]              n - 1 ids, ascending per parent
//! ```
//!
//! The preorder visits each node's children in ascending id, so it is a
//! function of the parent array alone. Tree edges carry no capacities of
//! their own: [`RootedTree::parent_capacity`] reads the realizing graph
//! edge. The j-trees of §8 (`capprox::jtree`) are a forest of such a tree
//! plus a core [`Graph`], not trees with capacities of their own.

use crate::cut::Cut;
use crate::flow::{Demand, FlowVec};
use crate::graph::{EdgeId, Graph, NodeId};
use crate::{GraphError, Result};

/// "No parent" and "no parent edge" in the `u32` columns. No id reaches it:
/// node ids stay below [`Graph::MAX_NODES`] and edge ids below
/// [`Graph::MAX_EDGES`].
const NONE: u32 = u32::MAX;

/// A rooted tree on the node set `0..n`, stored as the `u32` columns of the
/// [module docs](self).
///
/// Every non-root node of a spanning subtree of a [`Graph`] records the
/// graph edge to its parent; the capacities the tree's cuts and routings
/// use are those graph edges' capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct RootedTree {
    root: NodeId,
    /// Parent of each node; `NONE` at the root.
    parent: Vec<u32>,
    /// Graph edge realizing each node's parent edge; `NONE` where none does.
    parent_edge: Vec<u32>,
    /// Depth of each node (the root has depth 0).
    depth: Vec<u32>,
    /// Nodes in BFS preorder, children in ascending id; reversing gives
    /// bottom-up.
    order: Vec<NodeId>,
    /// `child_start[v]..child_start[v + 1]` is `v`'s range of `children`.
    child_start: Vec<u32>,
    /// The children of every node, in ascending id, grouped by parent.
    children: Vec<NodeId>,
}

impl RootedTree {
    /// Builds a rooted tree from a parent array.
    ///
    /// `parent[v]` must be `None` exactly for the root; all other nodes must
    /// reach the root by following parents. `parent_edge[v]` is the graph
    /// edge realizing `v`'s parent edge, if any; it has one entry per node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ParentEdgesMismatch`] if `parent_edge` and
    /// `parent` differ in length, [`GraphError::NodeOutOfRange`] for a root
    /// or parent outside `0..n`, and [`GraphError::NotConnected`] if some
    /// node cannot reach the root or the parent pointers contain a cycle.
    pub fn from_parents(
        root: NodeId,
        parent: Vec<Option<NodeId>>,
        parent_edge: Vec<Option<EdgeId>>,
    ) -> Result<Self> {
        let n = parent.len();
        if parent_edge.len() != n {
            return Err(GraphError::ParentEdgesMismatch {
                nodes: n,
                parent_edges: parent_edge.len(),
            });
        }
        if root.index() >= n {
            return Err(GraphError::NodeOutOfRange {
                node: root.index(),
                num_nodes: n,
            });
        }
        let mut parent_col = Vec::with_capacity(n);
        for (v, &p) in parent.iter().enumerate() {
            match p {
                Some(p) if p.index() >= n => {
                    return Err(GraphError::NodeOutOfRange {
                        node: p.index(),
                        num_nodes: n,
                    });
                }
                Some(p) => parent_col.push(p.0),
                None if v != root.index() => return Err(GraphError::NotConnected),
                None => parent_col.push(NONE),
            }
        }
        if parent_col[root.index()] != NONE {
            return Err(GraphError::NotConnected);
        }
        let parent_edge = parent_edge
            .iter()
            .map(|e| e.map_or(NONE, |e| e.0))
            .collect();
        RootedTree::from_columns(root, parent_col, parent_edge, Vec::with_capacity(n))
    }

    /// Builds a rooted spanning tree of `g` from an (unoriented) set of tree
    /// edges by a BFS over those edges starting at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if `root` is not a node of `g`,
    /// [`GraphError::EdgeOutOfRange`] if some id in `edges` is not an edge of
    /// `g`, and [`GraphError::NotConnected`] if the edges do not span all
    /// nodes.
    pub fn spanning_from_edges(g: &Graph, root: NodeId, edges: &[EdgeId]) -> Result<Self> {
        let n = g.num_nodes();
        if root.index() >= n {
            return Err(GraphError::NodeOutOfRange {
                node: root.index(),
                num_nodes: n,
            });
        }
        if let Some(&bad) = edges.iter().find(|e| e.index() >= g.num_edges()) {
            return Err(GraphError::EdgeOutOfRange {
                edge: bad.index(),
                num_edges: g.num_edges(),
            });
        }
        // Flat CSR over the edge subset, preserving the given edge order per
        // node: with more than a spanning tree's edges, the first edge to
        // reach a node in that order becomes its parent edge.
        let adj = crate::csr::Csr::from_links(
            n,
            edges.iter().map(|&eid| {
                let e = g.edge(eid);
                (eid, e.tail, e.head)
            }),
        );
        let mut parent = vec![NONE; n];
        let mut parent_edge = vec![NONE; n];
        // The BFS queue; its buffer becomes the tree's preorder.
        let mut queue = Vec::with_capacity(n);
        queue.push(root);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for (eid, w) in adj.incident(u) {
                if parent[w.index()] == NONE && w != root {
                    parent[w.index()] = u.0;
                    parent_edge[w.index()] = eid.0;
                    queue.push(w);
                }
            }
        }
        if queue.len() != n {
            return Err(GraphError::NotConnected);
        }
        // Free the adjacency before the remaining columns are allocated.
        drop(adj);
        RootedTree::from_columns(root, parent, parent_edge, queue)
    }

    /// Completes a tree from its parent columns, whose entries are `NONE`
    /// (at `root` only) or nodes in `0..n`: lays out the children by a
    /// counting sort and walks the BFS preorder and depths, with `order`'s
    /// buffer as the BFS queue.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotConnected`] if some node does not reach the
    /// root.
    fn from_columns(
        root: NodeId,
        parent: Vec<u32>,
        parent_edge: Vec<u32>,
        mut order: Vec<NodeId>,
    ) -> Result<Self> {
        let n = parent.len();
        // Count each parent's children; the running sum then leaves
        // `child_start[p]` at the end of `p`'s range. Placing the nodes from
        // the highest id down moves it back to the start and leaves every
        // range ascending.
        let mut child_start = vec![0u32; n + 1];
        for &p in &parent {
            if p != NONE {
                child_start[p as usize] += 1;
            }
        }
        let mut end = 0;
        for s in &mut child_start {
            end += *s;
            *s = end;
        }
        let mut children = vec![NodeId(0); end as usize];
        for (v, &p) in parent.iter().enumerate().rev() {
            if p != NONE {
                let start = &mut child_start[p as usize];
                *start -= 1;
                children[*start as usize] = NodeId(v as u32);
            }
        }
        // A node is reached at most once, from its only parent; the nodes on
        // a cycle or below one are never reached.
        let mut depth = vec![0u32; n];
        order.clear();
        order.push(root);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let kids =
                &children[child_start[u.index()] as usize..child_start[u.index() + 1] as usize];
            for &c in kids {
                depth[c.index()] = depth[u.index()] + 1;
            }
            order.extend_from_slice(kids);
        }
        if order.len() != n {
            return Err(GraphError::NotConnected);
        }
        Ok(RootedTree {
            root,
            parent,
            parent_edge,
            depth,
            order,
            child_start,
            children,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// Graph edge realizing the parent edge of `v` (if the tree is a spanning
    /// subtree of a graph).
    #[inline]
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        let e = self.parent_edge[v.index()];
        (e != NONE).then_some(EdgeId(e))
    }

    /// Children of `v`, in ascending id.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = (self.child_start[v.index()], self.child_start[v.index() + 1]);
        &self.children[lo as usize..hi as usize]
    }

    /// Depth of `v` (root has depth 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> usize {
        self.depth[v.index()] as usize
    }

    /// Maximum depth over all nodes.
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0) as usize
    }

    /// Nodes in BFS preorder from the root, each node's children in
    /// ascending id (every node appears after its parent).
    pub fn preorder(&self) -> &[NodeId] {
        &self.order
    }

    /// Capacity of the parent edge of `v`: the capacity of the graph edge
    /// realizing it.
    ///
    /// Returns `None` for the root and for a parent edge no graph edge
    /// realizes.
    pub fn parent_capacity(&self, g: &Graph, v: NodeId) -> Option<f64> {
        self.parent(v)?;
        self.parent_edge(v).map(|e| g.capacity(e))
    }

    /// Iterates over the tree edges as `(child, parent)` pairs.
    pub fn tree_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.order
            .iter()
            .filter_map(move |&v| self.parent(v).map(|p| (v, p)))
    }

    /// The graph edges used by this tree (when it is a spanning subtree), in
    /// ascending id of the child node.
    pub fn graph_edges(&self) -> Vec<EdgeId> {
        self.parent_edge
            .iter()
            .filter(|&&e| e != NONE)
            .map(|&e| EdgeId(e))
            .collect()
    }

    /// Returns `true` if `a` is an ancestor of `d` (or equal to it).
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        let mut cur = d;
        loop {
            if cur == a {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Least common ancestor of `u` and `v` (walk-up algorithm, `O(depth)`).
    pub fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut a, mut b) = (u, v);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("node above root");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("node above root");
        }
        while a != b {
            a = self.parent(a).expect("node above root");
            b = self.parent(b).expect("node above root");
        }
        a
    }

    /// Number of tree edges on the unique path between `u` and `v`.
    pub fn path_hops(&self, u: NodeId, v: NodeId) -> usize {
        let l = self.lca(u, v);
        self.depth(u) + self.depth(v) - 2 * self.depth(l)
    }

    /// Nodes on the unique path from `u` up to (and including) its ancestor `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an ancestor of `u`.
    pub fn path_to_ancestor(&self, u: NodeId, a: NodeId) -> Vec<NodeId> {
        let mut path = vec![u];
        let mut cur = u;
        while cur != a {
            cur = self
                .parent(cur)
                .expect("reached the root before the requested ancestor");
            path.push(cur);
        }
        path
    }

    /// Per-node sums over subtrees: `out[v] = Σ_{w in subtree(v)} values[w]`.
    pub fn subtree_sums(&self, values: &[f64]) -> Vec<f64> {
        let mut sums = vec![0.0; self.num_nodes()];
        self.subtree_sums_into(values, &mut sums);
        sums
    }

    /// Writes all subtree sums of `values` into `out` without allocating
    /// (used by the allocation-free operator evaluations of the session API).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` or `out.len()` does not equal the node count.
    pub fn subtree_sums_into(&self, values: &[f64], out: &mut [f64]) {
        assert_eq!(
            values.len(),
            self.num_nodes(),
            "value vector length mismatch"
        );
        assert_eq!(out.len(), self.num_nodes(), "output buffer length mismatch");
        out.copy_from_slice(values);
        for &v in self.order.iter().rev() {
            if let Some(p) = self.parent(v) {
                let add = out[v.index()];
                out[p.index()] += add;
            }
        }
    }

    /// Per-node sums of `values` along the path from the root down to each
    /// node: `out[v] = Σ_{w on root..v path} values[w]` (inclusive).
    ///
    /// This is the "downcast" aggregation used to accumulate node potentials
    /// (§9.1).
    pub fn prefix_sums_from_root(&self, values: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_nodes()];
        self.prefix_sums_from_root_into(values, &mut out);
        out
    }

    /// Writes all root-to-node prefix sums of `values` into `out` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` or `out.len()` does not equal the node count.
    pub fn prefix_sums_from_root_into(&self, values: &[f64], out: &mut [f64]) {
        assert_eq!(
            values.len(),
            self.num_nodes(),
            "value vector length mismatch"
        );
        assert_eq!(out.len(), self.num_nodes(), "output buffer length mismatch");
        for &v in &self.order {
            let base = match self.parent(v) {
                Some(p) => out[p.index()],
                None => 0.0,
            };
            out[v.index()] = base + values[v.index()];
        }
    }

    /// Distance from the root to every node where the parent edge of `v` has
    /// length `edge_length(v)`.
    pub fn root_distances(&self, mut edge_length: impl FnMut(NodeId) -> f64) -> Vec<f64> {
        let mut dist = vec![0.0; self.num_nodes()];
        for &v in &self.order {
            if let Some(p) = self.parent(v) {
                dist[v.index()] = dist[p.index()] + edge_length(v);
            }
        }
        dist
    }

    /// Tree distance between `u` and `v` given precomputed root distances.
    pub fn tree_distance(&self, root_dist: &[f64], u: NodeId, v: NodeId) -> f64 {
        let l = self.lca(u, v);
        root_dist[u.index()] + root_dist[v.index()] - 2.0 * root_dist[l.index()]
    }

    /// The cut induced by the parent edge of `v`: the subtree rooted at `v`
    /// versus the rest of the graph.
    pub fn subtree_cut(&self, v: NodeId) -> Cut {
        let mut side = vec![false; self.num_nodes()];
        // Mark subtree(v) via a DFS over children.
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            if side[u.index()] {
                continue;
            }
            side[u.index()] = true;
            stack.extend_from_slice(self.children(u));
        }
        Cut::from_membership(side)
    }

    /// Routes the demand `d` over the tree: returns, for every non-root node
    /// `v`, the signed flow on its parent edge (positive = towards the
    /// parent). Entry for the root is 0.
    ///
    /// The flow on the parent edge of `v` equals the net excess demanded by
    /// the subtree of `v` (everything below must be shipped through that
    /// edge), which is the unique way to route on a tree.
    pub fn route_demand(&self, d: &Demand) -> Vec<f64> {
        assert_eq!(d.len(), self.num_nodes(), "demand length mismatch");
        // subtree_sums of b: positive sum means the subtree is a net sink,
        // so flow must come *down* the parent edge (towards the child).
        // We define "towards parent" as positive, so the parent-edge flow is
        // -subtree_sum (the surplus of the subtree flows up).
        self.subtree_sums(d.values())
            .iter()
            .zip(0..)
            .map(|(&s, v)| if NodeId(v) == self.root { 0.0 } else { -s })
            .collect()
    }

    /// Routes the demand `d` over the tree and materializes it as a flow on
    /// the underlying graph (only possible for spanning subtrees, i.e. when
    /// every parent edge is realized by a graph edge).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotConnected`] if some parent edge has no
    /// realizing graph edge.
    pub fn route_demand_on_graph(&self, g: &Graph, d: &Demand) -> Result<FlowVec> {
        let per_node = self.route_demand(d);
        let mut f = FlowVec::zeros(g.num_edges());
        for &v in &self.order {
            if v == self.root {
                continue;
            }
            let eid = self.parent_edge(v).ok_or(GraphError::NotConnected)?;
            let p = self.parent(v).expect("non-root has parent");
            let e = g.edge(eid);
            // per_node[v] > 0 means flow from v towards p.
            let toward_parent = per_node[v.index()];
            let signed = if e.tail == v && e.head == p {
                toward_parent
            } else {
                -toward_parent
            };
            f.add(eid, signed);
        }
        Ok(f)
    }

    /// Maximum congestion over the *tree edges* when routing demand `d`, each
    /// at the capacity of its realizing graph edge.
    ///
    /// # Panics
    ///
    /// Panics if some parent edge has no realizing graph edge.
    pub fn routing_congestion(&self, g: &Graph, d: &Demand) -> f64 {
        let per_node = self.route_demand(d);
        let mut worst: f64 = 0.0;
        for &v in &self.order {
            if v == self.root {
                continue;
            }
            let cap = self
                .parent_capacity(g, v)
                .expect("non-root node of a capacitated tree has a parent capacity");
            if cap > 0.0 {
                worst = worst.max(per_node[v.index()].abs() / cap);
            } else if per_node[v.index()].abs() > 0.0 {
                worst = f64::INFINITY;
            }
        }
        worst
    }

    /// [`Self::routing_congestion`] specialized to the two-spike demand that
    /// ships `amount` units from `s` to `t`, in `O(depth)` instead of `O(n)`.
    ///
    /// Routing an s–t demand on a tree loads exactly the parent edges on the
    /// `s → lca` and `t → lca` paths with `|amount|` units each; every other
    /// tree edge carries zero. Because the max fold over non-negative terms
    /// is order-independent and zero-flow edges contribute nothing (including
    /// the `cap = 0` branch, which only fires for nonzero flow), the result
    /// is bit-identical to [`Self::routing_congestion`] on
    /// `Demand::st(g, s, t, amount)`.
    pub fn st_routing_congestion(&self, g: &Graph, s: NodeId, t: NodeId, amount: f64) -> f64 {
        let load = amount.abs();
        let l = self.lca(s, t);
        let mut worst: f64 = 0.0;
        for leg in [s, t] {
            let mut v = leg;
            while v != l {
                let cap = self
                    .parent_capacity(g, v)
                    .expect("non-root node of a capacitated tree has a parent capacity");
                if cap > 0.0 {
                    worst = worst.max(load / cap);
                } else if load > 0.0 {
                    worst = f64::INFINITY;
                }
                v = self.parent(v).expect("the lca is an ancestor of both legs");
            }
        }
        worst
    }

    /// Average stretch of the graph's edges with respect to this tree, in the
    /// paper's sense (Theorem 3.1): `Σ_e dT(u_e, v_e) / Σ_e ℓ(e)` where `ℓ`
    /// assigns each graph edge a length and the tree's parent edges inherit
    /// the length of their realizing graph edge.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not a spanning subtree of `g` (some parent edge
    /// has no realizing graph edge).
    pub fn average_stretch(&self, g: &Graph, length: impl Fn(EdgeId) -> f64) -> f64 {
        let root_dist = self.root_distances(|v| {
            let e = self.parent_edge(v).expect("spanning subtree required");
            length(e)
        });
        let mut total_tree_dist = 0.0;
        let mut total_length = 0.0;
        for (id, e) in g.edges() {
            total_length += length(id);
            total_tree_dist += self.tree_distance(&root_dist, e.tail, e.head);
        }
        if total_length <= 0.0 {
            0.0
        } else {
            total_tree_dist / total_length
        }
    }

    /// Per-edge stretch `dT(u_e, v_e) / ℓ(e)` for every graph edge.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not a spanning subtree of `g`.
    pub fn edge_stretches(&self, g: &Graph, length: impl Fn(EdgeId) -> f64) -> Vec<f64> {
        let root_dist = self.root_distances(|v| {
            let e = self.parent_edge(v).expect("spanning subtree required");
            length(e)
        });
        g.edges()
            .map(|(id, e)| {
                self.tree_distance(&root_dist, e.tail, e.head) / length(id).max(f64::MIN_POSITIVE)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Path 0-1-2-3 plus chord 0-3.
    fn diamond() -> Graph {
        GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(1, 2, 1.0)
            .edge(2, 3, 1.0)
            .edge(0, 3, 1.0)
            .build()
            .unwrap()
    }

    fn path_tree(g: &Graph) -> RootedTree {
        RootedTree::spanning_from_edges(g, NodeId(0), &[EdgeId(0), EdgeId(1), EdgeId(2)]).unwrap()
    }

    #[test]
    fn spanning_tree_structure() {
        let g = diamond();
        let t = path_tree(&g);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.depth(NodeId(3)), 3);
        assert_eq!(t.max_depth(), 3);
        assert_eq!(t.children(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.graph_edges().len(), 3);
        assert_eq!(t.tree_edges().count(), 3);
    }

    #[test]
    fn lca_and_paths() {
        let g = diamond();
        let t = path_tree(&g);
        assert_eq!(t.lca(NodeId(3), NodeId(1)), NodeId(1));
        assert_eq!(t.lca(NodeId(3), NodeId(3)), NodeId(3));
        assert_eq!(t.path_hops(NodeId(0), NodeId(3)), 3);
        assert!(t.is_ancestor(NodeId(1), NodeId(3)));
        assert!(!t.is_ancestor(NodeId(3), NodeId(1)));
        assert_eq!(
            t.path_to_ancestor(NodeId(3), NodeId(1)),
            vec![NodeId(3), NodeId(2), NodeId(1)]
        );
    }

    #[test]
    fn subtree_sums_and_prefix_sums() {
        let g = diamond();
        let t = path_tree(&g);
        let vals = [1.0, 2.0, 3.0, 4.0];
        let sums = t.subtree_sums(&vals);
        assert_eq!(sums, vec![10.0, 9.0, 7.0, 4.0]);
        let prefix = t.prefix_sums_from_root(&vals);
        assert_eq!(prefix, vec![1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn route_demand_on_path() {
        let g = diamond();
        let t = path_tree(&g);
        let d = Demand::st(&g, NodeId(0), NodeId(3), 2.0);
        let per_node = t.route_demand(&d);
        // subtree(1) = {1,2,3} needs +2, so 2 units flow down edge (1->0)? No:
        // flow toward parent is -subtree_sum = -2 (i.e. 2 units flow from parent to child).
        assert!((per_node[1] + 2.0).abs() < 1e-12);
        assert!((per_node[3] + 2.0).abs() < 1e-12);
        let f = t.route_demand_on_graph(&g, &d).unwrap();
        let val = f
            .validate_st_flow(&g, NodeId(0), NodeId(3), 1e-6)
            .unwrap_err();
        // capacity 1.0 is violated by routing 2 units on the path; the check
        // reports the offending value.
        let _ = val;
        assert!((f.st_value(&g, NodeId(0)) - 2.0).abs() < 1e-12);
        assert!((f.max_congestion(&g) - 2.0).abs() < 1e-12);
        assert!((t.routing_congestion(&g, &d) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn route_balanced_demand_conserves() {
        let g = diamond();
        let t = path_tree(&g);
        let mut d = Demand::zeros(4);
        d.set(NodeId(0), -1.0);
        d.set(NodeId(1), 3.0);
        d.set(NodeId(2), -2.5);
        d.set(NodeId(3), 0.5);
        assert!(d.is_balanced(1e-12));
        let f = t.route_demand_on_graph(&g, &d).unwrap();
        let ex = f.excess(&g);
        for (v, x) in ex.iter().enumerate().take(4) {
            assert!(
                (x - d.get(NodeId(v as u32))).abs() < 1e-9,
                "excess mismatch at {v}"
            );
        }
    }

    #[test]
    fn subtree_cut_capacity() {
        let g = diamond();
        let t = path_tree(&g);
        let cut = t.subtree_cut(NodeId(2));
        // subtree {2,3}: crossing edges are (1,2) and (0,3) -> capacity 2.
        assert!((cut.capacity(&g) - 2.0).abs() < 1e-12);
        assert!(cut.contains(NodeId(2)));
        assert!(cut.contains(NodeId(3)));
        assert!(!cut.contains(NodeId(0)));
    }

    #[test]
    fn average_stretch_of_path_tree() {
        let g = diamond();
        let t = path_tree(&g);
        // Edges on the tree have stretch 1; chord (0,3) has tree distance 3.
        let s = t.average_stretch(&g, |e| g.capacity(e));
        assert!((s - (1.0 + 1.0 + 1.0 + 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn from_parents_rejects_disconnected() {
        let parent = vec![None, Some(NodeId(0)), None];
        let r = RootedTree::from_parents(NodeId(0), parent, vec![None; 3]);
        assert!(matches!(r, Err(GraphError::NotConnected)));
    }

    #[test]
    fn from_parents_rejects_cycle() {
        let parent = vec![None, Some(NodeId(2)), Some(NodeId(1))];
        let r = RootedTree::from_parents(NodeId(0), parent, vec![None; 3]);
        assert!(matches!(r, Err(GraphError::NotConnected)));
    }

    #[test]
    fn spanning_from_edges_requires_spanning_set() {
        let g = diamond();
        let r = RootedTree::spanning_from_edges(&g, NodeId(0), &[EdgeId(0)]);
        assert!(matches!(r, Err(GraphError::NotConnected)));
    }

    #[test]
    fn spanning_from_edges_rejects_an_edge_id_outside_the_graph() {
        let g = crate::gen::path(3, 1.0);
        let r = RootedTree::spanning_from_edges(&g, NodeId(0), &[EdgeId(0), EdgeId(9)]);
        assert_eq!(
            r,
            Err(GraphError::EdgeOutOfRange {
                edge: 9,
                num_edges: 2,
            })
        );
    }

    #[test]
    fn from_parents_rejects_a_parent_edge_vector_of_another_length() {
        let parent = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        let r = RootedTree::from_parents(NodeId(0), parent.clone(), vec![]);
        assert_eq!(
            r,
            Err(GraphError::ParentEdgesMismatch {
                nodes: 3,
                parent_edges: 0,
            })
        );
        let r = RootedTree::from_parents(NodeId(0), parent, vec![None; 4]);
        assert!(matches!(
            r,
            Err(GraphError::ParentEdgesMismatch {
                nodes: 3,
                parent_edges: 4,
            })
        ));
    }

    #[test]
    fn sparse_st_congestion_is_bit_identical_to_dense() {
        // The diamond's shape with four different capacities, so every leg
        // of the tree path has its own bottleneck.
        let g = GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(1, 2, 0.37)
            .edge(2, 3, 2.5)
            .edge(0, 3, 4.0)
            .build()
            .unwrap();
        let t = path_tree(&g);
        assert_eq!(t.parent_capacity(&g, NodeId(2)), Some(0.37));
        assert_eq!(t.parent_capacity(&g, NodeId(0)), None);
        for (s, tt, amount) in [
            (NodeId(0), NodeId(3), 1.0),
            (NodeId(3), NodeId(0), 2.5),
            (NodeId(1), NodeId(2), -0.75),
            (NodeId(2), NodeId(3), 3.0),
            (NodeId(3), NodeId(1), 0.1),
            (NodeId(2), NodeId(2), 1.0),
        ] {
            let dense = t.routing_congestion(&g, &Demand::st(&g, s, tt, amount));
            let sparse = t.st_routing_congestion(&g, s, tt, amount);
            assert_eq!(
                sparse.to_bits(),
                dense.to_bits(),
                "({s:?}, {tt:?}, {amount})"
            );
        }
    }
}
