//! Distributed tree operations in `Õ(√n + D)` rounds.
//!
//! Routing on trees and evaluating tree-cut congestion both reduce to two
//! aggregations over a rooted spanning tree `T` of the network:
//!
//! * **subtree sums** — every node learns `Σ_{w ∈ subtree(v)} x_w`
//!   (the convergecast / "y-values" of §9.1), and
//! * **root-to-node prefix sums** — every node learns
//!   `Σ_{w on root→v path} x_w` (the downcast / node potentials π of §9.1).
//!
//! A naive convergecast costs `Θ(depth(T))` rounds, which can be `Θ(n)`.
//! The paper (Lemma 8.2, Lemma 9.1) instead cuts each tree edge independently
//! with probability `~1/√n`, which splits `T` into `Õ(√n)` components of
//! depth `Õ(√n)` w.h.p.; within components the aggregation is a real
//! convergecast, and the `Õ(√n)` per-component summaries are made global by
//! pipelining them over a BFS tree in `O(D + √n)` rounds.
//!
//! The within-component phases below are executed as genuine message-passing
//! protocols on the [`Simulator`]; the global
//! summary exchange is charged `2·(depth(BFS) + #components)` rounds via
//! [`pipelined_broadcast_cost`], i.e. with parameters measured on the actual
//! instance.

use flowgraph::{NodeId, RootedTree};
use rand::Rng;

use crate::cost::RoundCost;
use crate::engine::{Inbox, LocalView, MessageSize, Network, Outbox, Protocol, Simulator};
use crate::primitives::pipelined_broadcast_cost;

/// A decomposition of a rooted tree into low-depth components obtained by
/// cutting each non-root parent edge independently (Lemma 8.2 / Lemma 9.1).
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// Component label of every node (dense in `0..num_components`).
    pub component: Vec<usize>,
    /// Number of components.
    pub num_components: usize,
    /// The root node of every component (its parent edge was cut, or it is
    /// the tree root).
    pub component_roots: Vec<NodeId>,
    /// Maximum depth of a node below its component root.
    pub max_component_depth: usize,
}

impl TreeDecomposition {
    /// Cuts each non-root parent edge of `tree` independently with
    /// probability `cut_probability` and returns the resulting decomposition.
    ///
    /// With `cut_probability ≈ 1/√n` this yields `Õ(√n)` components of depth
    /// `Õ(√n)` w.h.p., which is the regime the paper uses.
    pub fn sample(tree: &RootedTree, cut_probability: f64, rng: &mut impl Rng) -> Self {
        let n = tree.num_nodes();
        let mut cut = vec![false; n];
        for v in 0..n {
            let v = NodeId(v as u32);
            if tree.parent(v).is_some() && rng.gen_bool(cut_probability.clamp(0.0, 1.0)) {
                cut[v.index()] = true;
            }
        }
        Self::from_cut_edges(tree, &cut)
    }

    /// Decomposition with no cut edges: a single component (the whole tree).
    pub fn trivial(tree: &RootedTree) -> Self {
        Self::from_cut_edges(tree, &vec![false; tree.num_nodes()])
    }

    /// Builds the decomposition from an explicit per-node "parent edge is
    /// cut" indicator.
    pub fn from_cut_edges(tree: &RootedTree, cut: &[bool]) -> Self {
        let n = tree.num_nodes();
        assert_eq!(cut.len(), n, "cut indicator length mismatch");
        let mut component = vec![usize::MAX; n];
        let mut component_roots = Vec::new();
        let mut depth_in_component = vec![0usize; n];
        let mut max_depth = 0usize;
        // Process in preorder so parents are labelled before children.
        for &v in tree.preorder() {
            let is_new_root = tree.parent(v).is_none() || cut[v.index()];
            if is_new_root {
                component[v.index()] = component_roots.len();
                component_roots.push(v);
                depth_in_component[v.index()] = 0;
            } else {
                let p = tree.parent(v).expect("non-root has parent");
                component[v.index()] = component[p.index()];
                depth_in_component[v.index()] = depth_in_component[p.index()] + 1;
                max_depth = max_depth.max(depth_in_component[v.index()]);
            }
        }
        TreeDecomposition {
            component,
            num_components: component_roots.len(),
            component_roots,
            max_component_depth: max_depth,
        }
    }

    /// The recommended cut probability `1/√n` for an `n`-node tree.
    pub fn recommended_probability(n: usize) -> f64 {
        if n <= 1 {
            0.0
        } else {
            1.0 / (n as f64).sqrt()
        }
    }
}

/// A spanning tree bundled with a sampled decomposition: a cached,
/// re-runnable handle for the two aggregation protocols the gradient descent
/// needs on every virtual tree (§9.1).
///
/// Sampling the Lemma 8.2 decomposition is a preprocessing step — the paper
/// performs it once per tree, not once per aggregation — so build-once /
/// query-many callers (the `PreparedMaxFlow` session) construct this handle
/// during `prepare` and re-run [`Self::subtree_sums`] /
/// [`Self::prefix_sums`] per query without re-sampling.
#[derive(Debug, Clone)]
pub struct DecomposedTree {
    tree: RootedTree,
    decomposition: TreeDecomposition,
}

impl DecomposedTree {
    /// Samples a decomposition for `tree` with the given cut probability
    /// (pass [`TreeDecomposition::recommended_probability`] for the paper's
    /// `1/√n` regime) and caches it alongside the tree.
    pub fn sample(tree: RootedTree, cut_probability: f64, rng: &mut impl Rng) -> Self {
        let decomposition = TreeDecomposition::sample(&tree, cut_probability, rng);
        DecomposedTree {
            tree,
            decomposition,
        }
    }

    /// The underlying spanning tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The cached Lemma 8.2 decomposition.
    pub fn decomposition(&self) -> &TreeDecomposition {
        &self.decomposition
    }

    /// Re-runs the distributed subtree-sum protocol (the "y-values"
    /// convergecast of §9.1) with the cached decomposition.
    ///
    /// # Panics
    ///
    /// Same conditions as [`distributed_subtree_sums`].
    pub fn subtree_sums(
        &self,
        network: &Network,
        bfs_tree: &RootedTree,
        values: &[f64],
    ) -> TreeAggregationResult {
        distributed_subtree_sums(network, &self.tree, &self.decomposition, bfs_tree, values)
    }

    /// Re-runs the distributed prefix-sum protocol (the potential downcast of
    /// §9.1) with the cached decomposition.
    ///
    /// # Panics
    ///
    /// Same conditions as [`distributed_prefix_sums`].
    pub fn prefix_sums(
        &self,
        network: &Network,
        bfs_tree: &RootedTree,
        values: &[f64],
    ) -> TreeAggregationResult {
        distributed_prefix_sums(network, &self.tree, &self.decomposition, bfs_tree, values)
    }
}

/// Result of a distributed tree aggregation.
#[derive(Debug, Clone)]
pub struct TreeAggregationResult {
    /// Per-node aggregate (subtree sum or prefix sum, depending on the call).
    pub values: Vec<f64>,
    /// Rounds and messages used, including the global summary exchange.
    pub cost: RoundCost,
}

/// Computes all subtree sums of `values` over `tree` distributively using the
/// component decomposition, in
/// `O(max component depth) + O(D + #components)` rounds.
///
/// The result equals [`RootedTree::subtree_sums`]; the centralized routine is
/// used as the correctness oracle in tests.
///
/// # Panics
///
/// Panics if the vector lengths do not match the network size or the tree is
/// not a spanning subtree of the network graph.
pub fn distributed_subtree_sums(
    network: &Network,
    tree: &RootedTree,
    decomposition: &TreeDecomposition,
    bfs_tree: &RootedTree,
    values: &[f64],
) -> TreeAggregationResult {
    assert_eq!(
        values.len(),
        network.num_nodes(),
        "value vector length mismatch"
    );

    // Phase 1 (real protocol): within-component subtree sums.
    let phase1 = forest_subtree_sums(network, tree, decomposition, values);

    // Phase 2 (pipelined BFS exchange, cost measured on the actual trees):
    // every node learns, for every component c, its total S_c and its parent
    // attachment, and locally computes the contracted-tree subtree totals.
    let k = decomposition.num_components as u64;
    let phase2_cost = pipelined_broadcast_cost(bfs_tree, k);
    let component_totals: Vec<f64> = decomposition
        .component_roots
        .iter()
        .map(|&r| phase1.values[r.index()])
        .collect();
    // Contracted tree: parent component of c = component of parent(root(c)).
    let comp_parent: Vec<Option<usize>> = decomposition
        .component_roots
        .iter()
        .map(|&r| tree.parent(r).map(|p| decomposition.component[p.index()]))
        .collect();
    // Subtree totals on the contracted tree (local computation at every node).
    let mut comp_subtree_total = component_totals.clone();
    // Process components bottom-up: order components by the depth of their root.
    let mut order: Vec<usize> = (0..decomposition.num_components).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(tree.depth(decomposition.component_roots[c])));
    for &c in &order {
        if let Some(p) = comp_parent[c] {
            let add = comp_subtree_total[c];
            comp_subtree_total[p] += add;
        }
    }

    // Phase 3 (real protocol): re-run the within-component aggregation with
    // the hanging-component totals added at the attachment nodes.
    let mut augmented = values.to_vec();
    for (&root, &total) in decomposition
        .component_roots
        .iter()
        .zip(&comp_subtree_total)
    {
        if let Some(p) = tree.parent(root) {
            augmented[p.index()] += total;
        }
    }
    let phase3 = forest_subtree_sums(network, tree, decomposition, &augmented);

    let cost = phase1.cost.then(phase2_cost).then(phase3.cost);
    TreeAggregationResult {
        values: phase3.values,
        cost,
    }
}

/// Computes, for every node, the sum of `values` along the tree path from the
/// root down to that node (inclusive), distributively via the component
/// decomposition, in `O(max component depth) + O(D + #components)` rounds.
///
/// The result equals [`RootedTree::prefix_sums_from_root`].
///
/// # Panics
///
/// Panics if the vector lengths do not match the network size or the tree is
/// not a spanning subtree of the network graph.
pub fn distributed_prefix_sums(
    network: &Network,
    tree: &RootedTree,
    decomposition: &TreeDecomposition,
    bfs_tree: &RootedTree,
    values: &[f64],
) -> TreeAggregationResult {
    assert_eq!(
        values.len(),
        network.num_nodes(),
        "value vector length mismatch"
    );

    // Phase 1 (real protocol): prefix sums within each component (root of the
    // component acts as a local root with offset 0).
    let phase1 = forest_prefix_sums(network, tree, decomposition, values);

    // Phase 2: every node learns each component's "entry offset", i.e. the
    // prefix sum at the attachment node of the component root. Offsets are
    // computed on the contracted tree, which is made global by pipelining
    // O(#components) summaries over the BFS tree.
    let k = decomposition.num_components as u64;
    let phase2_cost = pipelined_broadcast_cost(bfs_tree, k);

    // The offset of component c = prefix sum (in the full tree) at parent(root(c)).
    // Compute offsets top-down over the contracted tree: offset(c) =
    // offset(parent component) + phase1-prefix at the attachment node.
    let comp_parent: Vec<Option<(usize, NodeId)>> = decomposition
        .component_roots
        .iter()
        .map(|&r| {
            tree.parent(r)
                .map(|p| (decomposition.component[p.index()], p))
        })
        .collect();
    let mut order: Vec<usize> = (0..decomposition.num_components).collect();
    order.sort_by_key(|&c| tree.depth(decomposition.component_roots[c]));
    let mut offset = vec![0.0; decomposition.num_components];
    for &c in &order {
        if let Some((pc, attach)) = comp_parent[c] {
            offset[c] = offset[pc] + phase1.values[attach.index()];
        }
    }

    // Phase 3 (local): every node adds its component's offset. This requires
    // each node to know its component offset, which was part of the phase-2
    // broadcast, so no extra rounds are charged.
    let values_out: Vec<f64> = phase1
        .values
        .iter()
        .enumerate()
        .map(|(v, &x)| x + offset[decomposition.component[v]])
        .collect();

    TreeAggregationResult {
        values: values_out,
        cost: phase1.cost.then(phase2_cost),
    }
}

/// Within-component subtree sums as a genuine message-passing protocol: the
/// cut parent edges are simply never used, so each component performs an
/// independent convergecast concurrently.
fn forest_subtree_sums(
    network: &Network,
    tree: &RootedTree,
    decomposition: &TreeDecomposition,
    values: &[f64],
) -> TreeAggregationResult {
    let protocol = ForestAggregate {
        tree,
        decomposition,
        values,
        direction: Direction::Up,
    };
    run_forest(network, &protocol)
}

/// Within-component prefix sums (downcast) as a genuine message-passing
/// protocol.
fn forest_prefix_sums(
    network: &Network,
    tree: &RootedTree,
    decomposition: &TreeDecomposition,
    values: &[f64],
) -> TreeAggregationResult {
    let protocol = ForestAggregate {
        tree,
        decomposition,
        values,
        direction: Direction::Down,
    };
    run_forest(network, &protocol)
}

/// Executes one forest-aggregation phase on the simulator.
fn run_forest(network: &Network, protocol: &ForestAggregate<'_>) -> TreeAggregationResult {
    let run = Simulator::new()
        .run(network, protocol)
        .expect("forest aggregation respects the CONGEST rules");
    TreeAggregationResult {
        values: run.outputs,
        cost: run.cost,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

struct ForestAggregate<'a> {
    tree: &'a RootedTree,
    decomposition: &'a TreeDecomposition,
    values: &'a [f64],
    direction: Direction,
}

#[derive(Clone, Debug)]
struct AggMsg(f64);

impl MessageSize for AggMsg {}

struct AggState {
    acc: f64,
    pending: usize,
    sent: bool,
    /// For downcasts: whether the node has received its prefix from above.
    received_prefix: bool,
}

impl<'a> ForestAggregate<'a> {
    fn same_component_children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.tree.children(v).iter().copied().filter(move |c| {
            self.decomposition.component[c.index()] == self.decomposition.component[v.index()]
        })
    }

    fn is_component_root(&self, v: NodeId) -> bool {
        self.decomposition.component_roots[self.decomposition.component[v.index()]] == v
    }

    fn send_to_children(&self, v: NodeId, value: f64, outbox: &mut Outbox<'_, AggMsg>) {
        for c in self.same_component_children(v) {
            let e = self.tree.parent_edge(c).expect("child has a parent edge");
            outbox.send(e, AggMsg(value));
        }
    }
}

impl<'a> Protocol for ForestAggregate<'a> {
    type Msg = AggMsg;
    type State = AggState;
    type Output = f64;

    fn init(&self, view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
        let v = view.node;
        let children = self.same_component_children(v).count();
        match self.direction {
            Direction::Up => {
                let mut state = AggState {
                    acc: self.values[v.index()],
                    pending: children,
                    sent: false,
                    received_prefix: true,
                };
                if children == 0 && !self.is_component_root(v) {
                    let e = self
                        .tree
                        .parent_edge(v)
                        .expect("non-root has a parent edge");
                    outbox.send(e, AggMsg(state.acc));
                    state.sent = true;
                }
                state
            }
            Direction::Down => {
                let is_root = self.is_component_root(v);
                let acc = self.values[v.index()];
                if is_root {
                    self.send_to_children(v, acc, outbox);
                }
                AggState {
                    acc,
                    pending: 0,
                    sent: is_root,
                    received_prefix: is_root,
                }
            }
        }
    }

    fn round(
        &self,
        view: &LocalView<'_>,
        state: &mut Self::State,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        _round: u64,
    ) {
        let v = view.node;
        match self.direction {
            Direction::Up => {
                for (_, AggMsg(x)) in inbox.iter() {
                    state.acc += x;
                    state.pending -= 1;
                }
                if !state.sent && state.pending == 0 && !self.is_component_root(v) {
                    state.sent = true;
                    let e = self
                        .tree
                        .parent_edge(v)
                        .expect("non-root has a parent edge");
                    outbox.send(e, AggMsg(state.acc));
                }
            }
            Direction::Down => {
                if state.received_prefix {
                    return;
                }
                if let Some((_, AggMsg(prefix))) = inbox.first() {
                    state.acc += prefix;
                    state.received_prefix = true;
                    state.sent = true;
                    self.send_to_children(v, state.acc, outbox);
                }
            }
        }
    }

    fn is_terminated(&self, state: &Self::State) -> bool {
        match self.direction {
            Direction::Up => state.pending == 0,
            Direction::Down => state.received_prefix,
        }
    }

    fn output(&self, _view: &LocalView<'_>, state: Self::State) -> Self::Output {
        state.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::build_bfs_tree;
    use flowgraph::{gen, spanning};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize) -> (Network, RootedTree, RootedTree) {
        // A path graph gives the deepest possible spanning tree, the worst
        // case the decomposition is designed for.
        let g = gen::path(n, 1.0);
        let tree = spanning::bfs_tree(&g, NodeId(0)).unwrap();
        let network = Network::new(g);
        let bfs = build_bfs_tree(&network, NodeId(0)).tree;
        (network, tree, bfs)
    }

    #[test]
    fn decomposition_reduces_depth() {
        let (_, tree, _) = setup(400);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = TreeDecomposition::recommended_probability(400);
        let dec = TreeDecomposition::sample(&tree, p, &mut rng);
        assert!(dec.num_components > 1);
        assert!(
            dec.max_component_depth < 399,
            "decomposition must cut the path"
        );
        // sanity: every node's component root is an ancestor in the same component
        for v in 0..400 {
            let c = dec.component[v];
            assert!(c < dec.num_components);
        }
    }

    #[test]
    fn trivial_decomposition_is_single_component() {
        let (_, tree, _) = setup(10);
        let dec = TreeDecomposition::trivial(&tree);
        assert_eq!(dec.num_components, 1);
        assert_eq!(dec.max_component_depth, 9);
    }

    #[test]
    fn distributed_subtree_sums_match_centralized() {
        let (network, tree, bfs) = setup(60);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let dec = TreeDecomposition::sample(&tree, 0.2, &mut rng);
        let values: Vec<f64> = (0..60).map(|v| (v % 7) as f64 - 3.0).collect();
        let result = distributed_subtree_sums(&network, &tree, &dec, &bfs, &values);
        let expected = tree.subtree_sums(&values);
        for (v, (got, want)) in result.values.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "subtree sum mismatch at node {v}: {got} vs {want}"
            );
        }
        assert!(result.cost.rounds > 0);
    }

    #[test]
    fn distributed_prefix_sums_match_centralized() {
        let (network, tree, bfs) = setup(60);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dec = TreeDecomposition::sample(&tree, 0.2, &mut rng);
        let values: Vec<f64> = (0..60).map(|v| ((v * 13) % 5) as f64).collect();
        let result = distributed_prefix_sums(&network, &tree, &dec, &bfs, &values);
        let expected = tree.prefix_sums_from_root(&values);
        for (v, (got, want)) in result.values.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "prefix sum mismatch at node {v}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn decomposition_beats_naive_depth_on_deep_trees() {
        let (network, tree, bfs) = setup(900);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let p = TreeDecomposition::recommended_probability(900);
        let dec = TreeDecomposition::sample(&tree, p, &mut rng);
        let values = vec![1.0; 900];
        let decomposed = distributed_subtree_sums(&network, &tree, &dec, &bfs, &values);
        let trivial = TreeDecomposition::trivial(&tree);
        let naive = distributed_subtree_sums(&network, &tree, &trivial, &bfs, &values);
        // Correctness for both.
        let expected = tree.subtree_sums(&values);
        for (v, want) in expected.iter().enumerate() {
            assert!((decomposed.values[v] - want).abs() < 1e-9);
            assert!((naive.values[v] - want).abs() < 1e-9);
        }
        // Phase-1/3 cost of the naive version is ~2*depth = ~1800 rounds; the
        // decomposed version should pay far less in tree rounds but more in
        // BFS pipelining. On a path (D = n-1) the BFS term dominates both, so
        // compare only the within-component portion: max component depth must
        // be much smaller than the tree depth.
        assert!(dec.max_component_depth * 4 < tree.max_depth());
        let _ = (decomposed.cost, naive.cost);
    }

    #[test]
    fn works_on_branchy_graphs_too() {
        let g = gen::grid(8, 8, 1.0);
        let tree = spanning::max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let network = Network::new(g);
        let bfs = build_bfs_tree(&network, NodeId(0)).tree;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dec = TreeDecomposition::sample(&tree, 0.3, &mut rng);
        let values: Vec<f64> = (0..64).map(|v| (v as f64).sin()).collect();
        let up = distributed_subtree_sums(&network, &tree, &dec, &bfs, &values);
        let down = distributed_prefix_sums(&network, &tree, &dec, &bfs, &values);
        let expected_up = tree.subtree_sums(&values);
        let expected_down = tree.prefix_sums_from_root(&values);
        for v in 0..64 {
            assert!((up.values[v] - expected_up[v]).abs() < 1e-9);
            assert!((down.values[v] - expected_down[v]).abs() < 1e-9);
        }
    }
}
