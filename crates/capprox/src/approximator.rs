//! The congestion approximator `R` (paper §2 and Lemma 3.3).
//!
//! `R` has one row per (tree, non-root node) pair of a sampled tree ensemble:
//! the row for node `v` of tree `T` evaluates, for a demand vector `b`, the
//! congestion `|Σ_{w ∈ subtree_T(v)} b_w| / cap_G(δ(subtree_T(v)))` that any
//! routing of `b` must place on the cut induced by `v`'s parent edge. Because
//! every row is the congestion of an actual cut of `G`,
//! `‖Rb‖_∞ ≤ opt(b)` holds unconditionally; the tree-distribution argument
//! (Lemma 3.3) bounds the other direction by a factor `α`.
//!
//! The two linear operators needed by Sherman's gradient descent — `R·b` and
//! `Rᵀ·y` — are tree aggregations: subtree sums for `R` and root-to-node
//! prefix sums for `Rᵀ` (§9.1), which is what makes the distributed
//! evaluation possible in `Õ(√n + D)` rounds. The same independence that
//! makes the *distributed* evaluation cheap makes the *threaded* one cheap:
//! each tree's aggregation touches only that tree, so
//! [`CongestionApproximator::apply_block_into_par`] and
//! [`CongestionApproximator::apply_transpose_block_into_par`] fan the
//! per-tree work across a worker pool and reduce in fixed tree order,
//! producing results byte-identical to the sequential evaluation for any
//! thread count.
//!
//! Every operator evaluates `k` lane-major right-hand sides in one walk over
//! the trees (see [`CongestionApproximator::apply_block_into`]); a single
//! vector is a block of one lane, which is all
//! [`CongestionApproximator::apply_into`] and
//! [`CongestionApproximator::apply_transpose_into`] are.
//!
//! # Level-ordered slot layout
//!
//! The approximator holds each tree once, as a [`SlotTree`]: nodes are
//! permuted into *slots* following the tree's BFS preorder (slot 0 is the
//! root, each level is a contiguous slot range, every parent precedes its
//! children), and five flat columns hold, per tree, 24 bytes per node:
//!
//! ```text
//! parent_slot:   [0, p_1, ..., p_{n-1}]   u32, p_i < i
//! node_at_slot:  [root, ...]              u32, the BFS preorder
//! slot_of_node:  [s_0, ..., s_{n-1}]      u32, its inverse
//! parent_edge:   [NONE, e_1, ...]         u32, the realizing graph edge
//! cut_capacity:  [0.0, c_1, ...]          f64, cut of the slot's subtree
//! ```
//!
//! plus one `max_rload` per tree ([`ApproximatorTree`]). Trees are built as
//! [`CapacitatedTree`]s (a `RootedTree` with node-indexed cut capacities
//! and relative loads, 40 bytes per node), and
//! [`CongestionApproximator::from_ensemble`] compacts each as it consumes
//! the ensemble.
//!
//! Both aggregations run as plain index sweeps over contiguous `f64`
//! buffers — a reverse sweep `buf[parent[i]] += buf[i]` for the subtree sums
//! (each run of siblings summed in registers and stored once), a forward
//! sweep `buf[i] = buf[parent[i]] + price[i]` for the prefix sums — with no
//! `Option` branches or per-node child-list chasing on the hot path. The
//! slot order is exactly the preorder of the `RootedTree` each tree was
//! built as, so every floating-point addition happens in the same sequence
//! on the same values as that tree's own sweeps: results are bit-for-bit
//! identical. The s–t walk of the tree-routing bound steps the larger of
//! two slots up until they meet, and the best tree's routing is a reverse
//! slot sweep plus each slot's parent edge; both match the `RootedTree`
//! evaluations bit for bit, and [`SlotTree::to_rooted_tree`] rebuilds the
//! tree itself where a caller needs one.

use flowgraph::{Cut, Demand, EdgeId, FlowVec, Graph, GraphError, NodeId, RootedTree};
use parallel::Parallelism;

use crate::hierarchy::{build_hierarchical_ensemble, HierarchyConfig, HierarchyStats};
use crate::racke::{build_tree_ensemble, CapacitatedTree, RackeConfig, TreeEnsemble};

/// A congestion approximator built from an ensemble of capacitated spanning
/// trees.
#[derive(Debug, Clone)]
pub struct CongestionApproximator {
    trees: Vec<ApproximatorTree>,
    num_nodes: usize,
    /// Per-level quality bookkeeping when the ensemble came from the
    /// recursive hierarchy ([`Self::build_hierarchical`]); `None` for direct
    /// builds.
    hierarchy: Option<HierarchyStats>,
}

/// Dispatches a lane-blocked kernel call to a monomorphized instantiation
/// for the common lane counts (`K = 1..=8`, the session block width and its
/// compaction tails) and to the dynamic fallback (`K = 0`, meaning "read the
/// runtime lane count") otherwise. The lane-inner loops of the blocked
/// kernels only vectorize when the trip count is a compile-time constant;
/// with a runtime `k` the autovectorizer gives up and the blocked sweeps run
/// *slower* than `k` one-lane sweeps. Every instantiation executes the exact
/// same operations in the same order, so byte-identity is unaffected.
macro_rules! lane_dispatch {
    ($k:expr, $slf:ident.$f:ident($($args:expr),* $(,)?)) => {
        match $k {
            1 => $slf.$f::<1>($($args),*),
            2 => $slf.$f::<2>($($args),*),
            3 => $slf.$f::<3>($($args),*),
            4 => $slf.$f::<4>($($args),*),
            5 => $slf.$f::<5>($($args),*),
            6 => $slf.$f::<6>($($args),*),
            7 => $slf.$f::<7>($($args),*),
            8 => $slf.$f::<8>($($args),*),
            _ => $slf.$f::<0>($($args),*),
        }
    };
}

/// "No parent edge" in the parent-edge column.
const NONE: u32 = u32::MAX;

/// The graph edge in a parent-edge column entry of a non-root slot.
///
/// # Panics
///
/// Panics where no graph edge realizes the parent edge.
fn realized(e: u32) -> EdgeId {
    assert_ne!(
        e, NONE,
        "non-root node of a capacitated tree has a parent capacity"
    );
    EdgeId(e)
}

/// One tree of the approximator in the slot layout of the module docs: node
/// `node_at_slot[i]` occupies slot `i`, slots follow the tree's BFS preorder,
/// and `parent_slot[i] < i` for every non-root slot. Five columns, 24 bytes
/// per node; every per-node answer is read through the node↔slot maps.
#[derive(Debug, Clone)]
pub struct SlotTree {
    /// Slot of the parent of the node at each slot; the root slot (0) maps to
    /// itself.
    parent_slot: Vec<u32>,
    /// Node index occupying each slot (the BFS preorder permutation).
    node_at_slot: Vec<u32>,
    /// Inverse permutation: slot occupied by each node.
    slot_of_node: Vec<u32>,
    /// Graph edge realizing each slot's parent edge; `NONE` where none does
    /// (the root, normally).
    parent_edge: Vec<u32>,
    /// Cut capacity of each slot's parent edge (0 at the root slot).
    cut_capacity: Vec<f64>,
}

/// One tree of a [`CongestionApproximator`]: the [`SlotTree`] its rows and
/// routings read, plus the tree's largest relative load for
/// [`CongestionApproximator::provable_alpha`].
#[derive(Debug, Clone)]
pub struct ApproximatorTree {
    /// The tree's slot-order columns.
    pub tree: SlotTree,
    /// `max_v cut_capacity(v) / cap(parent edge of v)`, as
    /// [`CapacitatedTree::max_rload`] folded it.
    max_rload: f64,
}

impl ApproximatorTree {
    /// Compacts a built tree into the slot layout. The built form is
    /// consumed and freed on return.
    fn compact(built: CapacitatedTree) -> Self {
        let max_rload = built.max_rload();
        let CapacitatedTree {
            tree,
            cut_capacity: cut_by_node,
            rload,
        } = built;
        drop(rload);
        let n = tree.num_nodes();
        let order = tree.preorder();
        let mut slot_of_node = vec![0u32; n];
        for (slot, &v) in order.iter().enumerate() {
            slot_of_node[v.index()] = slot as u32;
        }
        let mut parent_slot = Vec::with_capacity(n);
        let mut node_at_slot = Vec::with_capacity(n);
        let mut parent_edge = Vec::with_capacity(n);
        let mut cut_capacity = Vec::with_capacity(n);
        for (slot, &v) in order.iter().enumerate() {
            node_at_slot.push(v.0);
            cut_capacity.push(cut_by_node[v.index()]);
            parent_edge.push(tree.parent_edge(v).map_or(NONE, |e| e.0));
            parent_slot.push(match tree.parent(v) {
                // Parents precede children in the preorder, so the parent's
                // slot is already final.
                Some(p) => slot_of_node[p.index()],
                None => slot as u32,
            });
        }
        ApproximatorTree {
            tree: SlotTree {
                parent_slot,
                node_at_slot,
                slot_of_node,
                parent_edge,
                cut_capacity,
            },
            max_rload,
        }
    }

    /// Largest relative load `max_e rload(e)` over the tree edges.
    pub fn max_rload(&self) -> f64 {
        self.max_rload
    }

    /// Maximum congestion over the *graph* tree edges when routing demand `b`
    /// entirely on this tree (the upper-bound side of the approximator),
    /// bit-identical to [`flowgraph::RootedTree::routing_congestion`] on the
    /// tree it was built from.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not the tree's node count or some parent edge
    /// has no realizing graph edge.
    pub fn tree_routing_congestion(&self, g: &Graph, b: &Demand) -> f64 {
        let t = &self.tree;
        let sums = t.subtree_sums(b.values());
        let mut worst: f64 = 0.0;
        for (&sum, &e) in sums.iter().zip(&t.parent_edge).skip(1) {
            let cap = g.capacity(realized(e));
            // The routed flow is `−sum`; only its magnitude counts.
            if cap > 0.0 {
                worst = worst.max(sum.abs() / cap);
            } else if sum.abs() > 0.0 {
                worst = f64::INFINITY;
            }
        }
        worst
    }

    /// [`Self::tree_routing_congestion`] specialized to an s–t demand of
    /// `amount`, in `O(tree depth)` instead of `O(n)`: it walks the tree path
    /// from both ends, stepping the larger slot up until the two slots meet
    /// at the least common ancestor (a parent's slot is smaller than its
    /// child's, so the larger slot is never an ancestor of the smaller).
    /// The path's edges carry `|amount|` each and every other edge zero, and
    /// the max fold is order-free, so the result is bit-identical to the
    /// dense evaluation on `Demand::st(g, s, t, amount)` and to
    /// [`flowgraph::RootedTree::st_routing_congestion`].
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is not a node of the tree or a parent edge on
    /// the path has no realizing graph edge.
    pub fn st_tree_routing_congestion(&self, g: &Graph, s: NodeId, t: NodeId, amount: f64) -> f64 {
        let tree = &self.tree;
        let load = amount.abs();
        let (mut a, mut b) = (tree.slot(s), tree.slot(t));
        let mut worst: f64 = 0.0;
        while a != b {
            let up = if a > b { &mut a } else { &mut b };
            let cap = g.capacity(realized(tree.parent_edge[*up]));
            if cap > 0.0 {
                worst = worst.max(load / cap);
            } else if load > 0.0 {
                worst = f64::INFINITY;
            }
            *up = tree.parent_slot[*up] as usize;
        }
        worst
    }
}

impl SlotTree {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.slot_of_node.len()
    }

    /// The slot of node `v`.
    fn slot(&self, v: NodeId) -> usize {
        self.slot_of_node[v.index()] as usize
    }

    /// Graph edge realizing the parent edge of `v`, or `None` at the root.
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        let e = self.parent_edge[self.slot(v)];
        (e != NONE).then_some(EdgeId(e))
    }

    /// Capacity of the cut `(subtree(v), rest)` of `G`; 0 at the root.
    pub fn cut_capacity(&self, v: NodeId) -> f64 {
        self.cut_capacity[self.slot(v)]
    }

    /// The cut induced by the parent edge of `v`: the subtree rooted at `v`
    /// versus the rest of the graph. A node's descendants occupy larger
    /// slots than it does, so one forward sweep from `v`'s slot marks them.
    pub fn subtree_cut(&self, v: NodeId) -> Cut {
        let mut below = vec![false; self.num_nodes()];
        let first = self.slot(v);
        below[first] = true;
        for slot in first + 1..self.num_nodes() {
            below[slot] = below[self.parent_slot[slot] as usize];
        }
        let mut side = vec![false; self.num_nodes()];
        for (&node, &inside) in self.node_at_slot.iter().zip(&below) {
            side[node as usize] = inside;
        }
        Cut::from_membership(side)
    }

    /// The [`RootedTree`] this tree was compacted from, rebuilt from its
    /// parent and parent-edge columns: it compares `==` to the original.
    pub fn to_rooted_tree(&self) -> RootedTree {
        let n = self.num_nodes();
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        for (slot, (&v, &p)) in self.node_at_slot.iter().zip(&self.parent_slot).enumerate() {
            if slot > 0 {
                parent[v as usize] = Some(NodeId(self.node_at_slot[p as usize]));
            }
            let e = self.parent_edge[slot];
            parent_edge[v as usize] = (e != NONE).then_some(EdgeId(e));
        }
        RootedTree::from_parents(NodeId(self.node_at_slot[0]), parent, parent_edge)
            .expect("slot columns describe a rooted tree")
    }

    /// Subtree sums of the node-indexed `values`, in slot order: the reverse
    /// sweep adds in the order of [`RootedTree::subtree_sums_into`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not the node count.
    fn subtree_sums(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.num_nodes(), "demand length mismatch");
        let mut sums: Vec<f64> = self
            .node_at_slot
            .iter()
            .map(|&v| values[v as usize])
            .collect();
        for i in (1..sums.len()).rev() {
            let add = sums[i];
            sums[self.parent_slot[i] as usize] += add;
        }
        sums
    }

    /// Routes the demand `d` over the tree and materializes it as a flow on
    /// `g`: each parent edge carries its subtree's surplus towards the
    /// parent. Bit-identical to [`RootedTree::route_demand_on_graph`] on the
    /// tree it was built from (same sums, same edge order).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotConnected`] if some parent edge has no
    /// realizing graph edge.
    ///
    /// # Panics
    ///
    /// Panics if `d.len()` is not the tree's node count.
    pub fn route_demand_on_graph(&self, g: &Graph, d: &Demand) -> Result<FlowVec, GraphError> {
        let sums = self.subtree_sums(d.values());
        let mut f = FlowVec::zeros(g.num_edges());
        for (slot, (&sum, &eid)) in sums.iter().zip(&self.parent_edge).enumerate().skip(1) {
            if eid == NONE {
                return Err(GraphError::NotConnected);
            }
            let eid = EdgeId(eid);
            let v = NodeId(self.node_at_slot[slot]);
            let p = NodeId(self.node_at_slot[self.parent_slot[slot] as usize]);
            let e = g.edge(eid);
            // A positive subtree sum is a net sink, so its flow comes down
            // the parent edge.
            let toward_parent = -sum;
            let signed = if e.tail == v && e.head == p {
                toward_parent
            } else {
                -toward_parent
            };
            f.add(eid, signed);
        }
        Ok(f)
    }

    /// One tree's `k` lanes of `R·b` rows in one slot walk. `values_block`
    /// holds `k` lane-major right-hand sides (`values_block[v*k + l]` is lane
    /// `l` of node `v`), `buf` is a `slots × k` scratch and `out[v*k + l]`
    /// receives lane `l` of the row of node `v` (the public row layout).
    ///
    /// Every sweep is element-outer / lane-inner, so each lane sees exactly
    /// the operations of the `k = 1` sweep in the same order — every lane is
    /// byte-identical to evaluating that right-hand side alone, while the
    /// `parent_slot` walk (the bandwidth-bound part at scale) is paid once
    /// for all `k` lanes.
    fn apply_rows_block(&self, values_block: &[f64], k: usize, buf: &mut [f64], out: &mut [f64]) {
        lane_dispatch!(k, self.apply_rows_impl(values_block, k, buf, out));
    }

    #[inline(always)]
    fn apply_rows_impl<const K: usize>(
        &self,
        values_block: &[f64],
        k_dyn: usize,
        buf: &mut [f64],
        out: &mut [f64],
    ) {
        let k = if K > 0 { K } else { k_dyn };
        for (chunk, &v) in buf.chunks_exact_mut(k).zip(&self.node_at_slot) {
            chunk.copy_from_slice(&values_block[v as usize * k..][..k]);
        }
        // Subtree sums in slot space: the reverse sweep
        // `buf[parent[i]] += buf[i]` performs the same additions in the same
        // order as [`flowgraph::RootedTree::subtree_sums_into`]. A run of
        // consecutive slots with one parent (siblings, in level order) adds
        // into a register copy of the parent's window, stored once per run
        // instead of once per sibling: the same additions in the same order.
        // A run's slots are final when it is reached, because their children
        // come after the run. The dynamic lane count adds in place.
        let parent_slot = &self.parent_slot;
        if K == 0 {
            for i in (1..parent_slot.len()).rev() {
                let p = parent_slot[i] as usize;
                // Parents precede children in the level order (`p < i`), so
                // the parent window and the child window are disjoint.
                let (head, tail) = buf.split_at_mut(i * k);
                for (dst, &add) in head[p * k..p * k + k].iter_mut().zip(&tail[..k]) {
                    *dst += add;
                }
            }
        } else {
            // `i` is one past the last slot left to add; slot 0, the root,
            // has no parent.
            let mut i = parent_slot.len();
            while i > 1 {
                let p = parent_slot[i - 1] as usize;
                let mut acc = [0.0; K];
                acc.copy_from_slice(&buf[p * K..p * K + K]);
                while i > 1 && parent_slot[i - 1] as usize == p {
                    i -= 1;
                    for (a, &add) in acc.iter_mut().zip(&buf[i * K..i * K + K]) {
                        *a += add;
                    }
                }
                buf[p * K..p * K + K].copy_from_slice(&acc);
            }
        }
        // Divide by the (lane-independent) cut capacity and gather the rows
        // back into node order.
        for (chunk, &slot) in out.chunks_exact_mut(k).zip(&self.slot_of_node) {
            let cap = self.cut_capacity[slot as usize];
            if cap > 0.0 {
                let src = &buf[slot as usize * k..][..k];
                for (r, &sum) in chunk.iter_mut().zip(src) {
                    *r = sum / cap;
                }
            } else {
                chunk.fill(0.0);
            }
        }
    }

    /// One tree's `k` lanes of the `Rᵀ` prefix sums, left in slot space in
    /// `prefix`: the row-indexed prices `y_rows_block` (node order) are
    /// gathered into slot space and divided by the cut capacities (the
    /// per-row `y_i / cap_i` scaling of `Rᵀ`) into `prices`, then summed
    /// along every root path. Element-outer / lane-inner like
    /// [`Self::apply_rows_block`].
    fn prefix_sums_block(
        &self,
        y_rows_block: &[f64],
        k: usize,
        prices: &mut [f64],
        prefix: &mut [f64],
    ) {
        lane_dispatch!(k, self.prefix_sums_impl(y_rows_block, k, prices, prefix));
    }

    #[inline(always)]
    fn prefix_sums_impl<const K: usize>(
        &self,
        y_rows_block: &[f64],
        k_dyn: usize,
        prices: &mut [f64],
        buf: &mut [f64],
    ) {
        let k = if K > 0 { K } else { k_dyn };
        for ((chunk, &v), &cap) in prices
            .chunks_exact_mut(k)
            .zip(&self.node_at_slot)
            .zip(&self.cut_capacity)
        {
            if cap > 0.0 {
                let src = &y_rows_block[v as usize * k..][..k];
                for (p, &y) in chunk.iter_mut().zip(src) {
                    *p = y / cap;
                }
            } else {
                chunk.fill(0.0);
            }
        }
        if self.parent_slot.is_empty() {
            return;
        }
        // Root-to-slot prefix sums: the forward sweep
        // `buf[i] = buf[parent[i]] + price[i]` adds in the order of
        // [`flowgraph::RootedTree::prefix_sums_from_root_into`].
        for (b, &p) in buf[..k].iter_mut().zip(&prices[..k]) {
            *b = 0.0 + p;
        }
        if K == 1 {
            // One lane: plain indexing. The window split below costs this
            // sweep about 8% at one lane; the subtree-sum sweep above shows
            // no such difference and keeps its single shape.
            for i in 1..self.parent_slot.len() {
                buf[i] = buf[self.parent_slot[i] as usize] + prices[i];
            }
        } else {
            for i in 1..self.parent_slot.len() {
                let p = self.parent_slot[i] as usize;
                // `p < i` (parents precede children), so the parent window is
                // entirely inside `head` and disjoint from the slot being
                // written.
                let (head, tail) = buf.split_at_mut(i * k);
                let parent = &head[p * k..p * k + k];
                let src = &prices[i * k..i * k + k];
                for ((dst, &a), &b) in tail[..k].iter_mut().zip(parent).zip(src) {
                    *dst = a + b;
                }
            }
        }
    }

    /// Accumulates all `k` prefix-sum lanes into the lane-major node-indexed
    /// potentials, in node order (the `π +=` reduction of `Rᵀ`).
    fn add_potentials_block(&self, buf: &[f64], k: usize, potentials: &mut [f64]) {
        lane_dispatch!(k, self.add_potentials_impl(buf, k, potentials));
    }

    #[inline(always)]
    fn add_potentials_impl<const K: usize>(
        &self,
        buf: &[f64],
        k_dyn: usize,
        potentials: &mut [f64],
    ) {
        let k = if K > 0 { K } else { k_dyn };
        for (chunk, &slot) in potentials.chunks_exact_mut(k).zip(&self.slot_of_node) {
            let src = &buf[slot as usize * k..][..k];
            for (p, &x) in chunk.iter_mut().zip(src) {
                *p += x;
            }
        }
    }
}

// The parallel operator evaluations share `&CongestionApproximator` (and the
// ensembles it is built from) across worker threads; pin thread-safety at
// compile time so a future field can't silently revoke it.
const _: fn() = parallel::assert_send_sync::<CongestionApproximator>;
const _: fn() = parallel::assert_send_sync::<TreeEnsemble>;
const _: fn() = parallel::assert_send_sync::<CapacitatedTree>;
const _: fn() = parallel::assert_send_sync::<OperatorScratch>;

/// Reusable node-sized buffers (`nodes × lanes`) for the allocation-free
/// operator evaluations [`CongestionApproximator::apply_block_into`] and
/// [`CongestionApproximator::apply_transpose_block_into`] and their one-lane
/// calls.
///
/// Construct once (or use `Default` and let the first evaluation size it) and
/// pass `&mut` per call: after the first call on a given approximator no
/// further heap allocation happens, which is what keeps the session API's
/// gradient iterations allocation-free.
#[derive(Debug, Clone, Default)]
pub struct OperatorScratch {
    node_a: Vec<f64>,
    node_b: Vec<f64>,
    /// Tree-major workspaces (`num_trees × num_nodes`) backing the parallel
    /// operator evaluations: each tree's worker gets its own disjoint
    /// node-sized chunk, so no two workers share a buffer. Sized lazily on
    /// the first parallel call — sequential callers never pay for them.
    tree_a: Vec<f64>,
    tree_b: Vec<f64>,
}

impl OperatorScratch {
    /// Scratch pre-sized for an `n`-node approximator.
    pub fn for_nodes(n: usize) -> Self {
        OperatorScratch {
            node_a: vec![0.0; n],
            node_b: vec![0.0; n],
            tree_a: Vec::new(),
            tree_b: Vec::new(),
        }
    }

    /// Grows (or shrinks) the buffers to cover `n` nodes; a no-op when the
    /// size already matches, so warm buffers stay warm.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.node_a.len() != n {
            self.node_a.resize(n, 0.0);
        }
        if self.node_b.len() != n {
            self.node_b.resize(n, 0.0);
        }
    }

    /// Sizes the tree-major workspaces for a `trees × n` parallel evaluation
    /// (`both` additionally sizes the second workspace, needed by `Rᵀ`).
    /// No-op once warm, like [`Self::ensure_nodes`].
    fn ensure_tree_major(&mut self, trees: usize, n: usize, both: bool) {
        let len = trees * n;
        if self.tree_a.len() != len {
            self.tree_a.resize(len, 0.0);
        }
        if both && self.tree_b.len() != len {
            self.tree_b.resize(len, 0.0);
        }
    }
}

/// Summary statistics describing an approximator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximatorStats {
    /// Number of trees in the ensemble.
    pub num_trees: usize,
    /// Number of rows of `R` (trees × nodes; root rows are identically 0).
    pub num_rows: usize,
    /// The provable quality bound `min_T max_e rload_T(e)` (route everything
    /// on the single best tree).
    pub provable_alpha: f64,
}

impl CongestionApproximator {
    /// Wraps an explicit tree ensemble as an approximator, compacting each
    /// tree into the slot layout the operators read as it consumes the
    /// ensemble (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the ensemble contains no
    /// trees: an approximator with zero rows would report `‖Rb‖_∞ = 0` for
    /// every demand, silently certifying nonsense instead of failing.
    pub fn from_ensemble(ensemble: TreeEnsemble) -> Result<Self, GraphError> {
        let Some(first) = ensemble.trees.first() else {
            return Err(GraphError::InvalidConfig {
                parameter: "ensemble",
                reason: "must contain at least one tree (R would have no rows)",
            });
        };
        let num_nodes = first.tree.num_nodes();
        // Each built tree is freed as soon as its compact form exists, so at
        // most one tree is held in both forms.
        let trees = ensemble
            .trees
            .into_iter()
            .map(ApproximatorTree::compact)
            .collect();
        Ok(CongestionApproximator {
            trees,
            num_nodes,
            hierarchy: None,
        })
    }

    /// [`Self::from_ensemble`] with the hierarchy's per-level quality
    /// bookkeeping attached (retrievable via [`Self::hierarchy_stats`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::from_ensemble`].
    pub fn from_ensemble_with_hierarchy(
        ensemble: TreeEnsemble,
        stats: HierarchyStats,
    ) -> Result<Self, GraphError> {
        let mut approx = Self::from_ensemble(ensemble)?;
        approx.hierarchy = Some(stats);
        Ok(approx)
    }

    /// Builds the approximator for `g` by constructing a Räcke-style tree
    /// ensemble (Lemma 3.3: `O(log n)` sampled trees).
    ///
    /// # Errors
    ///
    /// Propagates construction errors for empty or disconnected graphs.
    pub fn build(g: &Graph, config: &RackeConfig) -> Result<Self, GraphError> {
        Self::from_ensemble(build_tree_ensemble(g, config)?)
    }

    /// Builds the approximator through the recursive j-tree hierarchy of
    /// Theorem 8.10 (see [`crate::hierarchy`]) — the scalable counterpart of
    /// [`Self::build`] for million-node graphs. The lifted trees are genuine
    /// capacitated spanning trees of `g`, so every certificate and operator
    /// behaves exactly as for a direct build; the hierarchy's per-level
    /// bookkeeping is available via [`Self::hierarchy_stats`].
    ///
    /// # Example
    ///
    /// ```
    /// use capprox::{CongestionApproximator, HierarchyConfig, RackeConfig};
    /// use flowgraph::{gen, Demand, NodeId};
    ///
    /// let g = gen::grid(20, 20, 1.0);
    /// let r = CongestionApproximator::build_hierarchical(
    ///     &g,
    ///     &HierarchyConfig::default().with_direct_threshold(64),
    ///     &RackeConfig::default().with_num_trees(2),
    /// )
    /// .unwrap();
    /// let b = Demand::st(&g, NodeId(0), NodeId(399), 1.0);
    /// assert!(r.congestion_lower_bound(&b) <= r.congestion_upper_bound(&g, &b));
    /// assert!(r.hierarchy_stats().unwrap().num_levels() >= 1);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates configuration and construction errors from
    /// [`build_hierarchical_ensemble`].
    pub fn build_hierarchical(
        g: &Graph,
        hierarchy: &HierarchyConfig,
        racke: &RackeConfig,
    ) -> Result<Self, GraphError> {
        let (ensemble, stats) = build_hierarchical_ensemble(g, hierarchy, racke)?;
        Self::from_ensemble_with_hierarchy(ensemble, stats)
    }

    /// Per-level quality bookkeeping of the hierarchical construction, or
    /// `None` when the ensemble was built directly.
    pub fn hierarchy_stats(&self) -> Option<&HierarchyStats> {
        self.hierarchy.as_ref()
    }

    /// The trees backing the approximator, in ensemble order.
    pub fn trees(&self) -> &[ApproximatorTree] {
        &self.trees
    }

    /// Number of network nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of rows of `R` (one per tree per node; root rows are zero).
    pub fn num_rows(&self) -> usize {
        self.trees.len() * self.num_nodes
    }

    /// Summary statistics.
    pub fn stats(&self) -> ApproximatorStats {
        ApproximatorStats {
            num_trees: self.trees.len(),
            num_rows: self.num_rows(),
            provable_alpha: self.provable_alpha(),
        }
    }

    /// The conservative, always-valid quality bound: routing any demand on
    /// the single tree with the smallest maximum relative load overestimates
    /// the optimal congestion by at most this factor.
    pub fn provable_alpha(&self) -> f64 {
        self.trees
            .iter()
            .map(|t| t.max_rload().max(1.0))
            .fold(f64::INFINITY, f64::min)
    }

    /// Evaluates `R·b`: for every tree and node, the congestion forced on the
    /// corresponding tree cut. Row layout: `tree_index * n + node_index`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `b.len()` does not match the
    /// approximator's node count.
    pub fn apply(&self, b: &Demand) -> Result<Vec<f64>, GraphError> {
        let mut rows = vec![0.0; self.num_rows()];
        let mut scratch = OperatorScratch::default();
        self.apply_into(b, &mut rows, &mut scratch)?;
        Ok(rows)
    }

    /// Evaluates `R·b` into the caller-owned buffer `rows` using borrowed
    /// scratch, so repeated evaluations allocate nothing in the steady state:
    /// a one-lane [`Self::apply_block_into`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `b.len()` does not match the
    /// approximator's node count.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` does not equal [`Self::num_rows`] (a misuse of
    /// the scratch-buffer protocol, not of the data).
    pub fn apply_into(
        &self,
        b: &Demand,
        rows: &mut [f64],
        scratch: &mut OperatorScratch,
    ) -> Result<(), GraphError> {
        self.apply_block_into(b.values(), 1, rows, scratch)
    }

    /// `‖R·b‖_∞` — the approximator's estimate (lower bound) of the optimal
    /// congestion needed to route `b` in `G`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the approximator's node count.
    pub fn congestion_lower_bound(&self, b: &Demand) -> f64 {
        self.apply(b)
            .expect("demand length mismatch")
            .iter()
            .map(|x| x.abs())
            .fold(0.0, f64::max)
    }

    /// An upper bound on the optimal congestion: the best congestion achieved
    /// by routing `b` entirely on one of the ensemble's trees (using graph
    /// edge capacities). Together with [`Self::congestion_lower_bound`] this
    /// sandwiches `opt(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the approximator's node count.
    pub fn congestion_upper_bound(&self, g: &Graph, b: &Demand) -> f64 {
        self.trees
            .iter()
            .map(|t| t.tree_routing_congestion(g, b))
            .fold(f64::INFINITY, f64::min)
    }

    /// Evaluates `Rᵀ·y` for a price vector `y` (one entry per row of `R`,
    /// same layout as [`Self::apply`]): returns the per-node potentials
    /// `π_v = Σ_{rows i whose cut contains v} y_i / cap_i` — the quantity the
    /// gradient descent needs to compute `∂φ₂/∂f_e = π_v − π_u` (§9.1).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `y.len()` does not equal
    /// [`Self::num_rows`].
    pub fn apply_transpose(&self, y: &[f64]) -> Result<Vec<f64>, GraphError> {
        let mut potentials = vec![0.0; self.num_nodes];
        let mut scratch = OperatorScratch::default();
        self.apply_transpose_into(y, &mut potentials, &mut scratch)?;
        Ok(potentials)
    }

    /// Evaluates `Rᵀ·y` into the caller-owned buffer `potentials` using
    /// borrowed scratch, the allocation-free counterpart of
    /// [`Self::apply_transpose`]: a one-lane
    /// [`Self::apply_transpose_block_into`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `y.len()` does not equal
    /// [`Self::num_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `potentials.len()` does not equal the approximator's node
    /// count (a misuse of the scratch-buffer protocol, not of the data).
    pub fn apply_transpose_into(
        &self,
        y: &[f64],
        potentials: &mut [f64],
        scratch: &mut OperatorScratch,
    ) -> Result<(), GraphError> {
        self.apply_transpose_block_into(y, 1, potentials, scratch)
    }

    /// Evaluates `R·b` for `k` right-hand sides in one walk over every
    /// tree's slots ([`Self::apply_into`] is its one-lane call).
    ///
    /// # Lane layout
    ///
    /// Inputs and outputs are **lane-major**: `b_block[v*k + l]` is lane `l`
    /// of node `v`'s demand, and `rows_block[(t*n + v)*k + l]` is lane `l` of
    /// the row for node `v` of tree `t` (the `k = 1` row layout with `k`
    /// contiguous lanes per row). The per-slot sweeps are element-outer /
    /// lane-inner, so **each lane's floating-point sequence is exactly the
    /// `k = 1` sequence**: lane `l` of the result is byte-identical to
    /// `apply_into` on lane `l`'s demand alone, while the level-ordered slot
    /// walk — the memory-bandwidth-bound part on million-node instances — is
    /// paid once per sweep instead of once per demand.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `b_block.len()` is not
    /// `k × num_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `rows_block.len() != k × num_rows` (misuse of
    /// the scratch-buffer protocol, not of the data).
    pub fn apply_block_into(
        &self,
        b_block: &[f64],
        k: usize,
        rows_block: &mut [f64],
        scratch: &mut OperatorScratch,
    ) -> Result<(), GraphError> {
        self.apply_block_into_par(b_block, k, rows_block, scratch, &Parallelism::sequential())
    }

    /// [`Self::apply_block_into`] with the per-tree blocked aggregations
    /// fanned across the workers of `par`. The row block of each tree is a
    /// disjoint chunk of `rows_block` and each worker aggregates into its own
    /// chunk of the scratch's tree-major workspace, so the result is
    /// **byte-identical** to the sequential evaluation for every thread
    /// count; `Parallelism::sequential()` takes the sequential path exactly.
    ///
    /// Each parallel call spawns its scoped workers afresh (tens of
    /// microseconds), so the fan-out pays off when the per-call work —
    /// `O(num_trees × n × k)` — dominates that setup: large instances, or the
    /// default `O(log n)`-tree ensembles on 10k+ nodes. For many small
    /// queries, prefer fanning out at the query level
    /// (`PreparedMaxFlow::par_max_flow_batch` in the `maxflow` crate), which
    /// spawns once per batch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::apply_block_into`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::apply_block_into`].
    pub fn apply_block_into_par(
        &self,
        b_block: &[f64],
        k: usize,
        rows_block: &mut [f64],
        scratch: &mut OperatorScratch,
        par: &Parallelism,
    ) -> Result<(), GraphError> {
        assert!(k > 0, "blocked operators need at least one lane");
        let nk = self.num_nodes * k;
        if b_block.len() != nk {
            return Err(GraphError::DemandMismatch {
                expected: nk,
                actual: b_block.len(),
            });
        }
        assert_eq!(
            rows_block.len(),
            self.num_rows() * k,
            "row block buffer length mismatch"
        );
        if par.is_sequential() || self.trees.len() <= 1 || nk == 0 {
            scratch.ensure_nodes(nk);
            for (t, out) in self.trees.iter().zip(rows_block.chunks_mut(nk)) {
                t.tree
                    .apply_rows_block(b_block, k, &mut scratch.node_a, out);
            }
            return Ok(());
        }
        scratch.ensure_tree_major(self.trees.len(), nk, false);
        let tasks: Vec<(&SlotTree, &mut [f64], &mut [f64])> = self
            .trees
            .iter()
            .zip(rows_block.chunks_mut(nk))
            .zip(scratch.tree_a.chunks_mut(nk))
            .map(|((t, out), tmp)| (&t.tree, out, tmp))
            .collect();
        par.for_each_owned(tasks, |_, (tree, out, tmp)| {
            tree.apply_rows_block(b_block, k, tmp, out);
        });
        Ok(())
    }

    /// Evaluates `Rᵀ·y` for `k` price vectors in one walk over every tree's
    /// slots ([`Self::apply_transpose_into`] is its one-lane call). Lane
    /// layout as in [`Self::apply_block_into`]: `y_block[(t*n + v)*k + l]`
    /// in, `potentials_block[v*k + l]` out, each lane byte-identical to the
    /// transpose of that lane's prices alone.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `y_block.len()` is not
    /// `k × num_rows`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `potentials_block.len() != k × num_nodes`
    /// (misuse of the scratch-buffer protocol, not of the data).
    pub fn apply_transpose_block_into(
        &self,
        y_block: &[f64],
        k: usize,
        potentials_block: &mut [f64],
        scratch: &mut OperatorScratch,
    ) -> Result<(), GraphError> {
        self.apply_transpose_block_into_par(
            y_block,
            k,
            potentials_block,
            scratch,
            &Parallelism::sequential(),
        )
    }

    /// [`Self::apply_transpose_block_into`] with the per-tree blocked prefix
    /// sums fanned across the workers of `par`, followed by a **fixed
    /// tree-order reduction** on the calling thread: tree contributions are
    /// added into `potentials_block` in tree index order, exactly like the
    /// sequential loop, so the result is byte-identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::apply_transpose_block_into`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::apply_transpose_block_into`].
    pub fn apply_transpose_block_into_par(
        &self,
        y_block: &[f64],
        k: usize,
        potentials_block: &mut [f64],
        scratch: &mut OperatorScratch,
        par: &Parallelism,
    ) -> Result<(), GraphError> {
        assert!(k > 0, "blocked operators need at least one lane");
        if y_block.len() != self.num_rows() * k {
            return Err(GraphError::DemandMismatch {
                expected: self.num_rows() * k,
                actual: y_block.len(),
            });
        }
        let nk = self.num_nodes * k;
        assert_eq!(
            potentials_block.len(),
            nk,
            "potential block buffer length mismatch"
        );
        if par.is_sequential() || self.trees.len() <= 1 || nk == 0 {
            potentials_block.fill(0.0);
            scratch.ensure_nodes(nk);
            for (t, y_rows) in self.trees.iter().zip(y_block.chunks(nk)) {
                t.tree
                    .prefix_sums_block(y_rows, k, &mut scratch.node_a, &mut scratch.node_b);
                t.tree
                    .add_potentials_block(&scratch.node_b, k, potentials_block);
            }
            return Ok(());
        }
        scratch.ensure_tree_major(self.trees.len(), nk, true);
        struct TransposeBlockTask<'a> {
            tree: &'a SlotTree,
            y_rows: &'a [f64],
            prices: &'a mut [f64],
            prefix: &'a mut [f64],
        }
        let tasks: Vec<TransposeBlockTask<'_>> = self
            .trees
            .iter()
            .zip(y_block.chunks(nk))
            .zip(scratch.tree_a.chunks_mut(nk))
            .zip(scratch.tree_b.chunks_mut(nk))
            .map(|(((t, y_rows), prices), prefix)| TransposeBlockTask {
                tree: &t.tree,
                y_rows,
                prices,
                prefix,
            })
            .collect();
        par.for_each_owned(tasks, |_, task| {
            task.tree
                .prefix_sums_block(task.y_rows, k, task.prices, task.prefix);
        });
        potentials_block.fill(0.0);
        for (t, prefix) in self.trees.iter().zip(scratch.tree_b.chunks(nk)) {
            t.tree.add_potentials_block(prefix, k, potentials_block);
        }
        Ok(())
    }

    /// Measured approximation factor for a specific demand:
    /// `opt_estimate / ‖Rb‖_∞`, where the optimum is estimated by the best
    /// tree routing (an upper bound on `opt`, so the returned value is an
    /// upper bound on the true factor for this demand).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the approximator's node count.
    pub fn measured_alpha(&self, g: &Graph, b: &Demand) -> f64 {
        let lower = self.congestion_lower_bound(b);
        let upper = self.congestion_upper_bound(g, b);
        if lower <= 0.0 {
            1.0
        } else {
            upper / lower
        }
    }
}

/// Exact optimal congestion `opt(b)` of a demand on a *small* graph (≤ 20
/// nodes), computed as the maximum cut congestion over all proper cuts.
/// By LP duality (max-flow min-cut for single commodities / the max
/// concurrent-flow bound used in §2), this is the exact value for
/// single-source-single-sink demands and a lower bound in general; it serves
/// as the ground truth in the approximator quality experiments.
///
/// # Panics
///
/// Panics if the graph has more than 20 nodes.
pub fn exhaustive_opt_congestion(g: &Graph, b: &Demand) -> f64 {
    flowgraph::cut::enumerate_proper_cuts(g)
        .iter()
        .map(|c| c.demand_congestion(g, b))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::{gen, Demand, EdgeId, NodeId};

    fn build(g: &Graph, trees: usize, seed: u64) -> CongestionApproximator {
        CongestionApproximator::build(
            g,
            &RackeConfig::default().with_num_trees(trees).with_seed(seed),
        )
        .unwrap()
    }

    #[test]
    fn lower_bound_never_exceeds_exact_opt() {
        // ‖Rb‖∞ ≤ opt(b) must hold for every demand because every row is a
        // genuine cut of G.
        let g = gen::random_gnp(12, 0.35, (1.0, 4.0), 3);
        let approx = build(&g, 4, 1);
        let mut rng = gen::rng(7);
        for _ in 0..20 {
            let mut b = Demand::zeros(12);
            for v in 0..12 {
                b.set(NodeId(v), rand::Rng::gen_range(&mut rng, -2.0..2.0));
            }
            let total = b.total();
            let last = b.get(NodeId(11)) - total;
            b.set(NodeId(11), last);
            let lower = approx.congestion_lower_bound(&b);
            let opt = exhaustive_opt_congestion(&g, &b);
            assert!(
                lower <= opt + 1e-9,
                "lower bound {lower} exceeded exact opt {opt}"
            );
        }
    }

    #[test]
    fn sandwich_bounds_bracket_exact_opt_for_st_demands() {
        let g = gen::grid(4, 4, 1.0);
        let approx = build(&g, 8, 2);
        let b = Demand::st(&g, NodeId(0), NodeId(15), 1.0);
        let lower = approx.congestion_lower_bound(&b);
        let upper = approx.congestion_upper_bound(&g, &b);
        let opt = exhaustive_opt_congestion(&g, &b);
        assert!(lower <= opt + 1e-9);
        assert!(upper + 1e-9 >= opt);
        assert!(upper >= lower);
        // The measured quality should be modest on a small grid.
        assert!(approx.measured_alpha(&g, &b) < 20.0);
    }

    #[test]
    fn apply_transpose_is_adjoint_of_apply() {
        // <R b, y> must equal <b, Rᵀ y> for arbitrary b, y.
        let g = gen::random_gnp(15, 0.3, (1.0, 3.0), 4);
        let approx = build(&g, 3, 3);
        let mut rng = gen::rng(11);
        let mut b = Demand::zeros(15);
        for v in 0..15 {
            b.set(NodeId(v), rand::Rng::gen_range(&mut rng, -1.0..1.0));
        }
        let y: Vec<f64> = (0..approx.num_rows())
            .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
            .collect();
        let rb = approx.apply(&b).unwrap();
        let rty = approx.apply_transpose(&y).unwrap();
        let lhs: f64 = rb.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = rty.iter().zip(b.values()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn zero_demand_gives_zero_rows() {
        let g = gen::grid(3, 3, 1.0);
        let approx = build(&g, 2, 5);
        let b = Demand::zeros(9);
        assert!(approx.apply(&b).unwrap().iter().all(|&x| x == 0.0));
        assert_eq!(approx.congestion_lower_bound(&b), 0.0);
        assert_eq!(approx.measured_alpha(&g, &b), 1.0);
    }

    #[test]
    fn dimension_mismatches_are_reported_not_panicked() {
        let g = gen::grid(3, 3, 1.0);
        let approx = build(&g, 2, 5);
        let short = Demand::zeros(4);
        assert_eq!(
            approx.apply(&short),
            Err(GraphError::DemandMismatch {
                expected: 9,
                actual: 4
            })
        );
        let bad_prices = vec![0.0; 3];
        assert_eq!(
            approx.apply_transpose(&bad_prices),
            Err(GraphError::DemandMismatch {
                expected: approx.num_rows(),
                actual: 3
            })
        );
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let g = gen::random_gnp(12, 0.3, (1.0, 4.0), 9);
        let approx = build(&g, 3, 2);
        let b = Demand::st(&g, NodeId(0), NodeId(11), 1.5);
        let mut scratch = OperatorScratch::for_nodes(approx.num_nodes());
        let mut rows = vec![0.0; approx.num_rows()];
        approx.apply_into(&b, &mut rows, &mut scratch).unwrap();
        assert_eq!(rows, approx.apply(&b).unwrap());
        let y: Vec<f64> = (0..approx.num_rows())
            .map(|i| (i % 5) as f64 - 2.0)
            .collect();
        let mut pot = vec![0.0; approx.num_nodes()];
        approx
            .apply_transpose_into(&y, &mut pot, &mut scratch)
            .unwrap();
        assert_eq!(pot, approx.apply_transpose(&y).unwrap());
    }

    /// `k` random demands packed lane-major (`block[v*k + l]`), with the
    /// demands themselves.
    fn random_demand_block(
        n: usize,
        k: usize,
        rng: &mut impl rand::Rng,
    ) -> (Vec<Demand>, Vec<f64>) {
        let demands: Vec<Demand> = (0..k)
            .map(|_| {
                let mut b = Demand::zeros(n);
                for v in 0..n {
                    b.set(NodeId(v as u32), rand::Rng::gen_range(rng, -2.0..2.0));
                }
                b
            })
            .collect();
        let mut block = vec![0.0; n * k];
        for (l, b) in demands.iter().enumerate() {
            for (v, &x) in b.values().iter().enumerate() {
                block[v * k + l] = x;
            }
        }
        (demands, block)
    }

    #[test]
    fn parallel_operators_are_byte_identical_to_sequential() {
        use parallel::Parallelism;
        let g = gen::random_gnp(24, 0.25, (1.0, 5.0), 17);
        let approx = build(&g, 5, 3);
        let (n, rows_n) = (approx.num_nodes(), approx.num_rows());
        let mut rng = gen::rng(23);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [1usize, 3] {
            let (_, b_block) = random_demand_block(n, k, &mut rng);
            let y_block: Vec<f64> = (0..rows_n * k)
                .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                .collect();
            let mut scratch = OperatorScratch::default();
            let mut seq_rows = vec![0.0; rows_n * k];
            approx
                .apply_block_into(&b_block, k, &mut seq_rows, &mut scratch)
                .unwrap();
            let mut seq_pot = vec![0.0; n * k];
            approx
                .apply_transpose_block_into(&y_block, k, &mut seq_pot, &mut scratch)
                .unwrap();
            for threads in [1usize, 2, 4, 8] {
                let par = Parallelism::with_threads(threads);
                let mut scratch = OperatorScratch::default();
                let mut rows = vec![0.0; rows_n * k];
                approx
                    .apply_block_into_par(&b_block, k, &mut rows, &mut scratch, &par)
                    .unwrap();
                let mut pot = vec![0.0; n * k];
                approx
                    .apply_transpose_block_into_par(&y_block, k, &mut pot, &mut scratch, &par)
                    .unwrap();
                assert_eq!(
                    bits(&rows),
                    bits(&seq_rows),
                    "apply k={k} at {threads} threads"
                );
                assert_eq!(
                    bits(&pot),
                    bits(&seq_pot),
                    "apply_transpose k={k} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_operators_report_dimension_mismatches() {
        use parallel::Parallelism;
        let g = gen::grid(3, 3, 1.0);
        let approx = build(&g, 3, 5);
        let par = Parallelism::with_threads(4);
        let mut scratch = OperatorScratch::default();
        let mut rows = vec![0.0; approx.num_rows()];
        assert_eq!(
            approx.apply_block_into_par(&[0.0; 4], 1, &mut rows, &mut scratch, &par),
            Err(GraphError::DemandMismatch {
                expected: 9,
                actual: 4
            })
        );
        let mut pot = vec![0.0; approx.num_nodes()];
        assert_eq!(
            approx.apply_transpose_block_into_par(&[0.0; 3], 1, &mut pot, &mut scratch, &par),
            Err(GraphError::DemandMismatch {
                expected: approx.num_rows(),
                actual: 3
            })
        );
    }

    #[test]
    fn empty_ensemble_is_rejected_not_vacuous() {
        // Regression: an empty ensemble used to silently produce a 0-node,
        // 0-row approximator whose every answer (`apply`, lower bounds) was
        // a vacuous zero. It must be a configuration error instead.
        let empty = TreeEnsemble {
            trees: Vec::new(),
            stats: crate::racke::EnsembleStats {
                num_trees: 0,
                max_rloads: Vec::new(),
                decomposition_rounds: 0,
                average_stretches: Vec::new(),
            },
        };
        assert!(matches!(
            CongestionApproximator::from_ensemble(empty),
            Err(GraphError::InvalidConfig {
                parameter: "ensemble",
                ..
            })
        ));
    }

    #[test]
    fn stats_report_shapes() {
        let g = gen::grid(4, 4, 1.0);
        let approx = build(&g, 5, 6);
        let stats = approx.stats();
        assert_eq!(stats.num_trees, 5);
        assert_eq!(stats.num_rows, 5 * 16);
        assert!(stats.provable_alpha >= 1.0);
        assert_eq!(approx.num_nodes(), 16);
    }

    #[test]
    fn blocked_operator_lanes_match_one_lane_applies_byte_for_byte() {
        use parallel::Parallelism;
        let g = gen::random_gnp(23, 0.3, (1.0, 5.0), 31);
        let approx = build(&g, 4, 7);
        let n = approx.num_nodes();
        let rows_n = approx.num_rows();
        let mut rng = gen::rng(41);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [1usize, 2, 3, 8, 9] {
            // k random demands + k random price vectors.
            let (demands, b_block) = random_demand_block(n, k, &mut rng);
            let ys: Vec<Vec<f64>> = (0..k)
                .map(|_| {
                    (0..rows_n)
                        .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                        .collect()
                })
                .collect();
            let mut y_block = vec![0.0; rows_n * k];
            for (l, y) in ys.iter().enumerate() {
                for (r, &x) in y.iter().enumerate() {
                    y_block[r * k + l] = x;
                }
            }
            let mut scratch = OperatorScratch::default();
            let mut rows_block = vec![0.0; rows_n * k];
            approx
                .apply_block_into(&b_block, k, &mut rows_block, &mut scratch)
                .unwrap();
            let mut pot_block = vec![0.0; n * k];
            approx
                .apply_transpose_block_into(&y_block, k, &mut pot_block, &mut scratch)
                .unwrap();
            // Lane `l` of the block equals input `l` alone as one lane.
            for l in 0..k {
                let alone_rows = approx.apply(&demands[l]).unwrap();
                let lane_rows: Vec<f64> = (0..rows_n).map(|r| rows_block[r * k + l]).collect();
                assert_eq!(bits(&lane_rows), bits(&alone_rows), "apply lane {l} of {k}");
                let alone_pot = approx.apply_transpose(&ys[l]).unwrap();
                let lane_pot: Vec<f64> = (0..n).map(|v| pot_block[v * k + l]).collect();
                assert_eq!(
                    bits(&lane_pot),
                    bits(&alone_pot),
                    "transpose lane {l} of {k}"
                );
            }
            // The parallel blocked variants stay byte-identical too.
            for threads in [2usize, 4] {
                let par = Parallelism::with_threads(threads);
                let mut par_scratch = OperatorScratch::default();
                let mut par_rows = vec![0.0; rows_n * k];
                approx
                    .apply_block_into_par(&b_block, k, &mut par_rows, &mut par_scratch, &par)
                    .unwrap();
                assert_eq!(bits(&par_rows), bits(&rows_block), "par apply k={k}");
                let mut par_pot = vec![0.0; n * k];
                approx
                    .apply_transpose_block_into_par(
                        &y_block,
                        k,
                        &mut par_pot,
                        &mut par_scratch,
                        &par,
                    )
                    .unwrap();
                assert_eq!(bits(&par_pot), bits(&pot_block), "par transpose k={k}");
            }
        }
    }

    /// `R·b` by the built trees' own sweeps: row `(t, v)` is tree `t`'s
    /// subtree sum at `v` ([`flowgraph::RootedTree::subtree_sums_into`]) over
    /// the cut capacity, or `0.0` where that capacity is not positive.
    fn reference_rows(built: &[CapacitatedTree], b: &[f64]) -> Vec<f64> {
        let mut rows = Vec::with_capacity(built.len() * b.len());
        let mut sums = vec![0.0; b.len()];
        for t in built {
            t.tree.subtree_sums_into(b, &mut sums);
            rows.extend(sums.iter().zip(&t.cut_capacity).map(|(&sum, &cap)| {
                if cap > 0.0 {
                    sum / cap
                } else {
                    0.0
                }
            }));
        }
        rows
    }

    /// `Rᵀ·y` by the built trees' own sweeps: each tree's root-to-node prefix
    /// sums ([`flowgraph::RootedTree::prefix_sums_from_root_into`]) of
    /// `y / cap` (`0.0` where the cut capacity is not positive), added in
    /// tree order.
    fn reference_potentials(built: &[CapacitatedTree], y: &[f64]) -> Vec<f64> {
        let n = y.len() / built.len();
        let (mut prices, mut prefix) = (vec![0.0; n], vec![0.0; n]);
        let mut potentials = vec![0.0; n];
        for (t, y_rows) in built.iter().zip(y.chunks(n)) {
            for ((p, &y), &cap) in prices.iter_mut().zip(y_rows).zip(&t.cut_capacity) {
                *p = if cap > 0.0 { y / cap } else { 0.0 };
            }
            t.tree.prefix_sums_from_root_into(&prices, &mut prefix);
            for (pi, &x) in potentials.iter_mut().zip(&prefix) {
                *pi += x;
            }
        }
        potentials
    }

    /// Capacitated explicit spanning trees of `g`, each given by its root and
    /// edge set, with the cut capacities of `dead` nodes overwritten (`0.0`
    /// and negative values take the zero-row branch).
    fn explicit_trees(
        g: &Graph,
        trees: &[(NodeId, Vec<EdgeId>)],
        dead: &[(usize, f64)],
    ) -> TreeEnsemble {
        let trees: Vec<CapacitatedTree> = trees
            .iter()
            .map(|(root, edges)| {
                let tree = flowgraph::RootedTree::spanning_from_edges(g, *root, edges).unwrap();
                let mut t = CapacitatedTree::new(g, tree);
                for &(v, cap) in dead {
                    t.cut_capacity[v] = cap;
                }
                t
            })
            .collect();
        let num_trees = trees.len();
        TreeEnsemble {
            trees,
            stats: crate::racke::EnsembleStats {
                num_trees,
                max_rloads: vec![1.0; num_trees],
                decomposition_rounds: 0,
                average_stretches: vec![1.0; num_trees],
            },
        }
    }

    /// An approximator together with its graph and the built trees it was
    /// compacted from, which the checks below take as the reference.
    struct Instance {
        name: &'static str,
        graph: Graph,
        built: Vec<CapacitatedTree>,
        approx: CongestionApproximator,
    }

    impl Instance {
        fn new(name: &'static str, graph: Graph, ensemble: TreeEnsemble) -> Self {
            let built = ensemble.trees.clone();
            let approx = CongestionApproximator::from_ensemble(ensemble).unwrap();
            Instance {
                name,
                graph,
                built,
                approx,
            }
        }
    }

    /// The star rooted at a leaf, the path rooted in its middle, random
    /// recursive trees, a 1k fat-tree ensemble, a random graph ensemble and
    /// hierarchy-lifted trees.
    fn instances(rng: &mut impl rand::Rng) -> Vec<Instance> {
        // A star rooted at a leaf: one sibling run of 300 slots below the
        // center. (Below the root, a run's sum reaches no row: the root's
        // cut capacity is 0.)
        let star = gen::star(302, 1.0);
        let star_edges: Vec<EdgeId> = star.edge_ids().collect();
        // A path rooted in its middle: runs of one slot, and of two at the
        // root.
        let path = gen::path(200, 2.0);
        let path_edges: Vec<EdgeId> = path.edge_ids().collect();
        // Random recursive trees on shuffled labels, one graph holding three
        // of them: node `i` of a tree hangs below one of its first
        // `min(i, fan)` predecessors, so `fan = 3` gives long sibling runs
        // and `fan = usize::MAX` uniform attachment.
        let n = 120;
        let mut random = Graph::with_nodes(n);
        let mut random_trees = Vec::new();
        for fan in [3usize, usize::MAX, 8] {
            let mut label: Vec<u32> = (0..n as u32).collect();
            rand::seq::SliceRandom::shuffle(&mut label[..], rng);
            let edges = (1..n)
                .map(|i| {
                    let p = rand::Rng::gen_range(rng, 0..i.min(fan));
                    let cap = rand::Rng::gen_range(rng, 0.5..4.0);
                    random
                        .add_edge(NodeId(label[p]), NodeId(label[i]), cap)
                        .unwrap()
                })
                .collect();
            random_trees.push((NodeId(label[0]), edges));
        }
        let fat_tree = gen::fat_tree(16, 8, 61, 10.0, 40.0);
        let gnp = gen::random_gnp(60, 0.1, (1.0, 5.0), 3);
        let grid = gen::grid(20, 20, 1.0);
        let lifted = build_hierarchical_ensemble(
            &grid,
            &HierarchyConfig::default()
                .with_direct_threshold(32)
                .with_chains(2)
                .with_trees_per_chain(Some(2)),
            &RackeConfig::default(),
        )
        .unwrap()
        .0;
        vec![
            Instance::new(
                "star",
                star.clone(),
                explicit_trees(
                    &star,
                    &[(NodeId(301), star_edges)],
                    &[(7, 0.0), (150, -1.0)],
                ),
            ),
            Instance::new(
                "path",
                path.clone(),
                explicit_trees(&path, &[(NodeId(100), path_edges)], &[(40, 0.0)]),
            ),
            Instance::new(
                "random trees",
                random.clone(),
                explicit_trees(&random, &random_trees, &[(5, 0.0), (77, -2.0)]),
            ),
            Instance::new(
                "1k fat-tree ensemble",
                fat_tree.clone(),
                build_tree_ensemble(&fat_tree, &RackeConfig::default()).unwrap(),
            ),
            Instance::new(
                "random graph ensemble",
                gnp.clone(),
                build_tree_ensemble(&gnp, &RackeConfig::default().with_num_trees(5).with_seed(9))
                    .unwrap(),
            ),
            Instance::new("hierarchy-lifted trees", grid, lifted),
        ]
    }

    #[test]
    fn slot_sweeps_match_the_rooted_tree_sweeps_bit_for_bit() {
        let mut rng = gen::rng(53);
        let instances = instances(&mut rng);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let star_slots = &instances[0].approx.trees[0].tree;
        assert!(star_slots.parent_slot[2..].iter().all(|&p| p == 1));
        assert_eq!(star_slots.parent_slot.len(), 302);
        for Instance {
            name,
            built,
            approx,
            ..
        } in &instances
        {
            let (n, rows_n) = (approx.num_nodes(), approx.num_rows());
            let mut scratch = OperatorScratch::default();
            // One lane through the one-lane entry points.
            let (demands, _) = random_demand_block(n, 1, &mut rng);
            let mut rows = vec![0.0; rows_n];
            approx
                .apply_into(&demands[0], &mut rows, &mut scratch)
                .unwrap();
            let want_rows = reference_rows(built, demands[0].values());
            assert_eq!(bits(&rows), bits(&want_rows), "{name}: one-lane R");
            let y: Vec<f64> = (0..rows_n)
                .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                .collect();
            let mut pot = vec![0.0; n];
            approx
                .apply_transpose_into(&y, &mut pot, &mut scratch)
                .unwrap();
            let want_pot = reference_potentials(built, &y);
            assert_eq!(bits(&pot), bits(&want_pot), "{name}: one-lane Rᵀ");
            // Every lane of every block width, against the reference alone.
            for k in 1..=9usize {
                let (demands, b_block) = random_demand_block(n, k, &mut rng);
                let y_block: Vec<f64> = (0..rows_n * k)
                    .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                    .collect();
                let mut rows_block = vec![0.0; rows_n * k];
                approx
                    .apply_block_into(&b_block, k, &mut rows_block, &mut scratch)
                    .unwrap();
                let mut pot_block = vec![0.0; n * k];
                approx
                    .apply_transpose_block_into(&y_block, k, &mut pot_block, &mut scratch)
                    .unwrap();
                for (l, b) in demands.iter().enumerate() {
                    let lane_rows: Vec<f64> = (0..rows_n).map(|r| rows_block[r * k + l]).collect();
                    let want_rows = reference_rows(built, b.values());
                    assert_eq!(
                        bits(&lane_rows),
                        bits(&want_rows),
                        "{name}: R lane {l} of {k}"
                    );
                    let y: Vec<f64> = (0..rows_n).map(|r| y_block[r * k + l]).collect();
                    let lane_pot: Vec<f64> = (0..n).map(|v| pot_block[v * k + l]).collect();
                    let want_pot = reference_potentials(built, &y);
                    assert_eq!(
                        bits(&lane_pot),
                        bits(&want_pot),
                        "{name}: Rᵀ lane {l} of {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn compact_trees_answer_like_the_built_trees_bit_for_bit() {
        let mut rng = gen::rng(59);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for inst in instances(&mut rng) {
            let (g, n) = (&inst.graph, inst.graph.num_nodes());
            assert_eq!(inst.approx.trees().len(), inst.built.len(), "{}", inst.name);
            for (i, (compact, built)) in inst.approx.trees().iter().zip(&inst.built).enumerate() {
                let case = format!("{} tree {i}", inst.name);
                assert_eq!(compact.tree.to_rooted_tree(), built.tree, "{case}: rebuilt");
                assert_eq!(compact.tree.num_nodes(), n, "{case}");
                assert_eq!(
                    compact.max_rload().to_bits(),
                    built.max_rload().to_bits(),
                    "{case}: max_rload"
                );
                for v in g.nodes() {
                    assert_eq!(
                        compact.tree.parent_edge(v),
                        built.tree.parent_edge(v),
                        "{case}: parent edge of {v}"
                    );
                    assert_eq!(
                        compact.tree.cut_capacity(v).to_bits(),
                        built.cut_capacity[v.index()].to_bits(),
                        "{case}: cut capacity of {v}"
                    );
                }
                for _ in 0..8 {
                    let v = NodeId(rand::Rng::gen_range(&mut rng, 0..n as u32));
                    assert_eq!(
                        compact.tree.subtree_cut(v),
                        built.tree.subtree_cut(v),
                        "{case}: subtree cut of {v}"
                    );
                }
                // s–t walks, including `s == t`, a zero and negative amounts.
                for j in 0..200 {
                    let s = NodeId(rand::Rng::gen_range(&mut rng, 0..n as u32));
                    let t = if j % 50 == 0 {
                        s
                    } else {
                        NodeId(rand::Rng::gen_range(&mut rng, 0..n as u32))
                    };
                    let amount = if j % 40 == 1 {
                        0.0
                    } else {
                        rand::Rng::gen_range(&mut rng, -3.0..3.0)
                    };
                    assert_eq!(
                        compact
                            .st_tree_routing_congestion(g, s, t, amount)
                            .to_bits(),
                        built.tree.st_routing_congestion(g, s, t, amount).to_bits(),
                        "{case}: walk {s}-{t} of {amount}"
                    );
                }
                for (l, b) in random_demand_block(n, 3, &mut rng).0.iter().enumerate() {
                    assert_eq!(
                        compact.tree_routing_congestion(g, b).to_bits(),
                        built.tree.routing_congestion(g, b).to_bits(),
                        "{case}: routing congestion {l}"
                    );
                    let flow = compact.tree.route_demand_on_graph(g, b).unwrap();
                    let want = built.tree.route_demand_on_graph(g, b).unwrap();
                    assert_eq!(
                        bits(flow.values()),
                        bits(want.values()),
                        "{case}: routed flow {l}"
                    );
                }
            }
        }
    }

    /// Heap bytes of one tree's columns, from their capacities.
    fn column_bytes(t: &SlotTree) -> usize {
        use std::mem::size_of;
        (t.parent_slot.capacity()
            + t.node_at_slot.capacity()
            + t.slot_of_node.capacity()
            + t.parent_edge.capacity())
            * size_of::<u32>()
            + t.cut_capacity.capacity() * size_of::<f64>()
    }

    #[test]
    fn a_held_tree_costs_24_bytes_per_node() {
        let mut rng = gen::rng(61);
        for inst in instances(&mut rng) {
            let approx = &inst.approx;
            let n = approx.num_nodes();
            for t in approx.trees() {
                assert_eq!(column_bytes(&t.tree), 24 * n, "{}", inst.name);
            }
            // Beyond the columns, the tree list holds a constant per tree: at
            // most the slot of the built tree it reuses.
            let list = approx.trees.capacity() * std::mem::size_of::<ApproximatorTree>();
            assert!(
                list <= approx.trees().len() * std::mem::size_of::<CapacitatedTree>(),
                "{}: a {list}-byte tree list",
                inst.name
            );
        }
    }

    #[test]
    fn blocked_operators_report_dimension_mismatches() {
        let g = gen::grid(3, 3, 1.0);
        let approx = build(&g, 2, 5);
        let mut scratch = OperatorScratch::default();
        let mut rows = vec![0.0; approx.num_rows() * 2];
        assert_eq!(
            approx.apply_block_into(&[0.0; 4], 2, &mut rows, &mut scratch),
            Err(GraphError::DemandMismatch {
                expected: 18,
                actual: 4
            })
        );
        let mut pot = vec![0.0; approx.num_nodes() * 2];
        assert_eq!(
            approx.apply_transpose_block_into(&[0.0; 5], 2, &mut pot, &mut scratch),
            Err(GraphError::DemandMismatch {
                expected: approx.num_rows() * 2,
                actual: 5
            })
        );
    }

    #[test]
    fn exhaustive_opt_matches_min_cut_for_unit_st_demand() {
        // opt for routing F units from s to t equals F / mincut(s, t).
        let g = gen::barbell(4, 1, 1.0, 1.0);
        let (s, t) = gen::default_terminals(&g);
        let b = Demand::st(&g, s, t, 3.0);
        let opt = exhaustive_opt_congestion(&g, &b);
        let mincut = flowgraph::cut::exhaustive_min_st_cut(&g, s, t);
        assert!((opt - 3.0 / mincut).abs() < 1e-9);
    }
}
