//! Räcke-style tree distributions via multiplicative weight updates
//! (paper §2 "Congestion Approximators: Räcke's Construction" and §8.2).
//!
//! Each iteration builds a low average-stretch spanning tree with respect to
//! the current edge lengths, computes the load every tree edge would carry if
//! all graph edges routed their capacity over the tree (the multicommodity
//! flow of §8.1), and then increases the lengths of highly loaded tree edges
//! so that subsequent trees avoid them. The resulting small ensemble of
//! capacitated trees is exactly what Lemma 3.3 needs: `O(log n)` samples from
//! a cut-preserving tree distribution.

use flowgraph::{Demand, EdgeId, Graph, GraphError, NodeId, RootedTree};
use lowstretch::{low_stretch_spanning_tree, LowStretchConfig};

/// A spanning tree together with, for every non-root node, the capacity of
/// the cut its parent edge induces in `G`.
///
/// For a spanning subtree the cut capacity equals the total capacity of the
/// graph edges whose unique tree path crosses the parent edge (the
/// multicommodity load `|f'_e|` of §8.1), which we exploit to compute it with
/// one LCA pass.
#[derive(Debug, Clone)]
pub struct CapacitatedTree {
    /// The spanning tree (rooted at node 0).
    pub tree: RootedTree,
    /// `cut_capacity[v]` = capacity of the cut induced by `v`'s parent edge;
    /// entry for the root is 0.
    pub cut_capacity: Vec<f64>,
    /// `rload[v] = cut_capacity[v] / cap(parent edge of v)`; 0 for the root.
    pub rload: Vec<f64>,
}

impl CapacitatedTree {
    /// Builds the capacitated tree for a spanning subtree of `g`.
    pub fn new(g: &Graph, tree: RootedTree) -> Self {
        let cut_capacity = tree_loads(g, &tree);
        let rload = tree
            .preorder()
            .iter()
            .map(|&v| match tree.parent_edge(v) {
                Some(e) => cut_capacity[v.index()] / g.capacity(e),
                None => 0.0,
            })
            .collect::<Vec<_>>();
        // preorder is a permutation of nodes; re-index by node id.
        let mut rload_by_node = vec![0.0; tree.num_nodes()];
        for (i, &v) in tree.preorder().iter().enumerate() {
            rload_by_node[v.index()] = rload[i];
        }
        CapacitatedTree {
            tree,
            cut_capacity,
            rload: rload_by_node,
        }
    }

    /// Largest relative load `R = max_e rload(e)` over the tree edges.
    pub fn max_rload(&self) -> f64 {
        self.rload.iter().cloned().fold(0.0, f64::max)
    }

    /// Maximum congestion over the *graph* tree edges when routing demand `b`
    /// entirely on this tree (the upper-bound side of the approximator).
    pub fn tree_routing_congestion(&self, g: &Graph, b: &flowgraph::Demand) -> f64 {
        self.tree.routing_congestion(g, b)
    }
}

/// Computes, for every non-root node `v`, the total capacity of the graph
/// edges whose tree path crosses `v`'s parent edge — which equals the
/// capacity of the cut `(subtree(v), rest)` in `G`.
///
/// Uses the standard LCA marking trick: for edge `{u, w}` with capacity `c`
/// add `c` at `u` and `w` and `-2c` at `lca(u, w)`; the subtree sums of the
/// marks are exactly the loads.
pub fn tree_loads(g: &Graph, tree: &RootedTree) -> Vec<f64> {
    let n = g.num_nodes();
    let mut marks = vec![0.0; n];
    for (_, e) in g.edges() {
        let l = tree.lca(e.tail, e.head);
        marks[e.tail.index()] += e.capacity;
        marks[e.head.index()] += e.capacity;
        marks[l.index()] -= 2.0 * e.capacity;
    }
    let mut sums = tree.subtree_sums(&marks);
    sums[tree.root().index()] = 0.0;
    sums
}

/// Configuration of the multiplicative-weight tree-ensemble construction.
#[derive(Debug, Clone)]
pub struct RackeConfig {
    /// Number of trees to build. `None` selects `2·⌈log2 n⌉ + 1`
    /// (the `O(log n)` samples of Lemma 3.3).
    pub num_trees: Option<usize>,
    /// Multiplicative-weight step size.
    pub mwu_step: f64,
    /// RNG seed (also seeds the per-tree low-stretch constructions).
    pub seed: u64,
    /// Class growth factor handed to the low-stretch construction.
    pub lowstretch_z: f64,
    /// Empirical quality target for ensemble trimming; `None` (the default)
    /// always builds the full schedule. See
    /// [`RackeConfig::with_target_quality`].
    pub target_quality: Option<f64>,
}

impl Default for RackeConfig {
    fn default() -> Self {
        RackeConfig {
            num_trees: None,
            mwu_step: 0.5,
            seed: 0,
            lowstretch_z: 32.0,
            target_quality: None,
        }
    }
}

impl RackeConfig {
    /// Overrides the number of trees.
    #[must_use]
    pub fn with_num_trees(mut self, k: usize) -> Self {
        self.num_trees = Some(k);
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables empirical ensemble trimming: stop sampling trees as soon as
    /// the ensemble's *measured* approximation factor on a deterministic set
    /// of seeded probe demands drops to `quality` or below, instead of always
    /// building the full `O(log n)` schedule.
    ///
    /// The measured factor of a probe demand `b` is
    /// `min_T congestion(route b on T) / ‖Rb‖_∞` — best tree-routing upper
    /// bound over the rows' lower bound — which is exactly the factor by
    /// which the prefix ensemble brackets `opt(b)`. Because each tree only
    /// depends on the lengths produced by *earlier* trees, the trimmed
    /// ensemble is a prefix of the untrimmed one: trimming never changes the
    /// trees, only how many are built, and every certificate the solver emits
    /// (value / upper-bound bracket) remains valid for any prefix.
    ///
    /// `quality` below `1.0` can never be met (the bracket contains `opt`),
    /// so the full schedule is built; the solver-level configuration
    /// validation rejects such values up front.
    ///
    /// ```
    /// use capprox::{build_tree_ensemble, RackeConfig};
    /// use flowgraph::gen;
    ///
    /// let g = gen::fat_tree(8, 4, 10, 10.0, 40.0);
    /// let full = build_tree_ensemble(&g, &RackeConfig::default()).unwrap();
    /// let trimmed =
    ///     build_tree_ensemble(&g, &RackeConfig::default().with_target_quality(1.5)).unwrap();
    /// // Trimming builds a prefix: never more trees, often far fewer.
    /// assert!(trimmed.trees.len() <= full.trees.len());
    /// for (a, b) in trimmed.stats.max_rloads.iter().zip(&full.stats.max_rloads) {
    ///     assert_eq!(a, b);
    /// }
    /// ```
    #[must_use]
    pub fn with_target_quality(mut self, quality: f64) -> Self {
        self.target_quality = Some(quality);
        self
    }
}

/// Statistics of the ensemble construction.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleStats {
    /// Number of trees built.
    pub num_trees: usize,
    /// Max relative load per tree (the provable per-tree α contribution).
    pub max_rloads: Vec<f64>,
    /// Total cluster-level decomposition rounds spent building the trees
    /// (each costs `O(D + √n)` network rounds when simulated, Lemma 5.1).
    pub decomposition_rounds: usize,
    /// Average stretches of the trees with respect to the final lengths.
    pub average_stretches: Vec<f64>,
}

/// An ensemble of capacitated spanning trees forming a tree distribution in
/// the sense of Räcke / Madry, restricted to the `O(log n)` samples that
/// Lemma 3.3 shows suffice for a congestion approximator.
#[derive(Debug, Clone)]
pub struct TreeEnsemble {
    /// The capacitated trees.
    pub trees: Vec<CapacitatedTree>,
    /// Construction statistics.
    pub stats: EnsembleStats,
}

/// One probe demand of the empirical trimming rule, with the incrementally
/// maintained congestion bracket of the ensemble prefix built so far.
struct QualityProbe {
    demand: Demand,
    /// `‖Rb‖_∞` of the prefix: max over (tree, cut) rows seen so far.
    lower: f64,
    /// Best single-tree routing congestion over the trees seen so far.
    upper: f64,
}

impl QualityProbe {
    /// Folds one freshly built tree into the bracket. `sums` is node-sized
    /// scratch for the subtree aggregation.
    fn absorb(&mut self, g: &Graph, tree: &CapacitatedTree, sums: &mut [f64]) {
        tree.tree.subtree_sums_into(self.demand.values(), sums);
        let mut rows_max = 0.0f64;
        for (&s, &c) in sums.iter().zip(&tree.cut_capacity) {
            if c > 0.0 {
                rows_max = rows_max.max((s / c).abs());
            }
        }
        self.lower = self.lower.max(rows_max);
        self.upper = self
            .upper
            .min(tree.tree_routing_congestion(g, &self.demand));
    }

    /// The measured approximation factor of the prefix on this probe.
    fn alpha(&self) -> f64 {
        if self.lower > 0.0 {
            self.upper / self.lower
        } else {
            f64::INFINITY
        }
    }
}

/// The deterministic probe demands the trimming rule scores an ensemble
/// prefix on: the extreme-weighted-degree pair (stressing the most imbalanced
/// cut) plus seeded s–t pairs drawn with a splitmix64 generator, so the same
/// `(graph, seed)` always probes the same demands.
fn quality_probes(g: &Graph, seed: u64) -> Vec<QualityProbe> {
    let n = g.num_nodes();
    if n < 2 {
        return Vec::new();
    }
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut heaviest = NodeId(0);
    let mut lightest = NodeId(0);
    for v in g.nodes() {
        if g.weighted_degree(v) > g.weighted_degree(heaviest) {
            heaviest = v;
        }
        if g.weighted_degree(v) < g.weighted_degree(lightest) {
            lightest = v;
        }
    }
    if heaviest != lightest {
        pairs.push((heaviest.index() as u32, lightest.index() as u32));
    }
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..64 {
        if pairs.len() >= 6 {
            break;
        }
        let s = (next() % n as u64) as u32;
        let t = (next() % n as u64) as u32;
        if s != t && !pairs.contains(&(s, t)) {
            pairs.push((s, t));
        }
    }
    pairs
        .into_iter()
        .map(|(s, t)| QualityProbe {
            demand: Demand::st(g, NodeId(s), NodeId(t), 1.0),
            lower: 0.0,
            upper: f64::INFINITY,
        })
        .collect()
}

/// Builds the tree ensemble for `g` using multiplicative weight updates over
/// edge lengths (Räcke's construction, §2) with low average-stretch spanning
/// trees as the subroutine (Theorem 3.1).
///
/// With [`RackeConfig::target_quality`] set, construction stops as soon as
/// the prefix built so far measures at or below the target on the seeded
/// probe demands — the trimmed ensemble is always a prefix of the untrimmed
/// one.
///
/// # Errors
///
/// Propagates [`GraphError`]s from the low-stretch construction (empty or
/// disconnected input).
pub fn build_tree_ensemble(g: &Graph, config: &RackeConfig) -> Result<TreeEnsemble, GraphError> {
    if g.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    let n = g.num_nodes();
    let k = config
        .num_trees
        .unwrap_or_else(|| 2 * (n.max(2) as f64).log2().ceil() as usize + 1)
        .max(1);
    // Trimming state: probes only exist when a (meetable) target is set.
    let mut probes = match config.target_quality {
        Some(q) if q >= 1.0 => quality_probes(g, config.seed),
        _ => Vec::new(),
    };
    let mut probe_sums = vec![0.0; if probes.is_empty() { 0 } else { n }];

    // Initial lengths 1/cap: short = high capacity, so the first tree prefers
    // high-capacity edges.
    let mut lengths: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
    let mut trees = Vec::with_capacity(k);
    let mut stats = EnsembleStats {
        num_trees: 0,
        max_rloads: Vec::with_capacity(k),
        decomposition_rounds: 0,
        average_stretches: Vec::with_capacity(k),
    };

    for i in 0..k {
        let ls_config = LowStretchConfig {
            z: Some(config.lowstretch_z),
            radius_factor: 0.25,
            seed: config.seed.wrapping_add(i as u64 * 7919),
        };
        let result = low_stretch_spanning_tree(g, &lengths, &ls_config)?;
        stats.decomposition_rounds = stats
            .decomposition_rounds
            .saturating_add(result.stats.decomposition_rounds);
        stats
            .average_stretches
            .push(result.tree.average_stretch(g, |e| lengths[e.index()]));
        let cap_tree = CapacitatedTree::new(g, result.tree);
        let max_rload = cap_tree.max_rload().max(1.0);
        stats.max_rloads.push(cap_tree.max_rload());

        // Multiplicative weight update: lengthen overloaded tree edges so the
        // next tree routes around them (Räcke's potential argument).
        for v in g.nodes() {
            if let Some(e) = cap_tree.tree.parent_edge(v) {
                let boost = 1.0 + config.mwu_step * cap_tree.rload[v.index()] / max_rload;
                lengths[e.index()] *= boost;
            }
        }
        trees.push(cap_tree);
        stats.num_trees += 1;

        // Empirical trimming: stop once every probe's measured bracket is
        // within the target. The remaining trees of the schedule are exactly
        // the ones an untrimmed build would add — never different ones — so
        // stopping early only shrinks R, it never changes existing rows.
        if !probes.is_empty() {
            let target = config.target_quality.expect("probes imply a target");
            let last = trees.last().expect("just pushed");
            let mut worst = 0.0f64;
            for probe in probes.iter_mut() {
                probe.absorb(g, last, &mut probe_sums);
                worst = worst.max(probe.alpha());
            }
            if worst <= target {
                break;
            }
        }
    }

    Ok(TreeEnsemble { trees, stats })
}

/// Routes demand `b` on tree `t` of the ensemble and materializes the flow on
/// the graph (used by the flow-repair step of Algorithm 1 and by tests).
///
/// # Errors
///
/// Returns an error if the tree is not a spanning subtree of `g`.
pub fn route_on_tree(
    g: &Graph,
    tree: &CapacitatedTree,
    b: &flowgraph::Demand,
) -> Result<flowgraph::FlowVec, GraphError> {
    tree.tree.route_demand_on_graph(g, b)
}

/// Convenience: the single-edge-induced cut of node `v` in tree `t`, as a
/// [`flowgraph::Cut`] on the node set (used by tests and the experiments).
pub fn tree_cut(tree: &CapacitatedTree, v: NodeId) -> flowgraph::Cut {
    tree.tree.subtree_cut(v)
}

/// The edge set `{parent edge of v : v non-root}` of a capacitated tree, as
/// graph edge ids.
pub fn tree_graph_edges(tree: &CapacitatedTree) -> Vec<EdgeId> {
    tree.tree.graph_edges()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::{gen, spanning, Demand};

    #[test]
    fn tree_loads_equal_cut_capacities() {
        let g = gen::grid(5, 5, 1.0);
        let tree = spanning::bfs_tree(&g, NodeId(0)).unwrap();
        let loads = tree_loads(&g, &tree);
        for v in g.nodes() {
            if v == tree.root() {
                assert_eq!(loads[v.index()], 0.0);
                continue;
            }
            let cut = tree.subtree_cut(v);
            assert!(
                (loads[v.index()] - cut.capacity(&g)).abs() < 1e-9,
                "load at {v} should equal the induced cut capacity"
            );
        }
    }

    #[test]
    fn capacitated_tree_rload_at_least_one() {
        // The parent edge itself always crosses its induced cut, so
        // rload = cut capacity / edge capacity >= 1.
        let g = gen::random_gnp(30, 0.2, (1.0, 5.0), 2);
        let tree = spanning::max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let ct = CapacitatedTree::new(&g, tree);
        for v in g.nodes() {
            if ct.tree.parent(v).is_some() {
                assert!(
                    ct.rload[v.index()] >= 1.0 - 1e-9,
                    "rload at {v} is {}",
                    ct.rload[v.index()]
                );
            }
        }
        assert!(ct.max_rload() >= 1.0);
    }

    #[test]
    fn ensemble_has_requested_size_and_spanning_trees() {
        let g = gen::grid(6, 6, 1.0);
        let ensemble = build_tree_ensemble(&g, &RackeConfig::default().with_num_trees(5)).unwrap();
        assert_eq!(ensemble.trees.len(), 5);
        assert_eq!(ensemble.stats.num_trees, 5);
        for t in &ensemble.trees {
            assert_eq!(t.tree.graph_edges().len(), 35);
        }
    }

    #[test]
    fn default_tree_count_is_logarithmic() {
        let g = gen::grid(5, 5, 1.0);
        let ensemble = build_tree_ensemble(&g, &RackeConfig::default()).unwrap();
        let expected = 2 * (25f64).log2().ceil() as usize + 1;
        assert_eq!(ensemble.trees.len(), expected);
    }

    #[test]
    fn mwu_diversifies_trees() {
        // On a cycle, the first tree must drop one edge; subsequent trees
        // should (because dropped edges keep their length while tree edges are
        // lengthened) eventually drop a different edge.
        let g = gen::cycle(20, 1.0);
        let ensemble = build_tree_ensemble(&g, &RackeConfig::default().with_num_trees(6)).unwrap();
        let dropped: std::collections::HashSet<Vec<EdgeId>> = ensemble
            .trees
            .iter()
            .map(|t| {
                let used: std::collections::HashSet<EdgeId> =
                    t.tree.graph_edges().into_iter().collect();
                let mut d: Vec<EdgeId> = g.edge_ids().filter(|e| !used.contains(e)).collect();
                d.sort();
                d
            })
            .collect();
        assert!(
            dropped.len() > 1,
            "the MWU should produce at least two distinct trees on a cycle"
        );
    }

    #[test]
    fn routing_on_tree_meets_demand() {
        let g = gen::grid(4, 4, 1.0);
        let ensemble = build_tree_ensemble(&g, &RackeConfig::default().with_num_trees(2)).unwrap();
        let d = Demand::st(&g, NodeId(0), NodeId(15), 2.0);
        let f = route_on_tree(&g, &ensemble.trees[0], &d).unwrap();
        let ex = f.excess(&g);
        assert!((ex[0] + 2.0).abs() < 1e-9);
        assert!((ex[15] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trimmed_ensemble_is_a_prefix_of_the_untrimmed_one() {
        let g = gen::fat_tree(8, 4, 10, 10.0, 40.0);
        let full = build_tree_ensemble(&g, &RackeConfig::default().with_seed(3)).unwrap();
        let trimmed = build_tree_ensemble(
            &g,
            &RackeConfig::default().with_seed(3).with_target_quality(1.5),
        )
        .unwrap();
        assert!(trimmed.trees.len() <= full.trees.len());
        assert!(!trimmed.trees.is_empty());
        for (t, f) in trimmed.trees.iter().zip(&full.trees) {
            assert_eq!(t.tree.graph_edges(), f.tree.graph_edges());
            assert_eq!(t.cut_capacity, f.cut_capacity);
        }
        assert_eq!(
            trimmed.stats.max_rloads,
            full.stats.max_rloads[..trimmed.trees.len()]
        );
        // On a tree-like topology a handful of spanning trees already meet a
        // modest target, so trimming must actually bite.
        assert!(
            trimmed.trees.len() < full.trees.len(),
            "trimming did not reduce the {} trees",
            full.trees.len()
        );
    }

    #[test]
    fn unreachable_target_quality_builds_the_full_schedule() {
        let g = gen::grid(6, 6, 1.0);
        let full = build_tree_ensemble(&g, &RackeConfig::default()).unwrap();
        // A sub-1.0 target can never be met (the bracket contains opt), so
        // the builder falls back to the full schedule instead of looping.
        let sub_unit =
            build_tree_ensemble(&g, &RackeConfig::default().with_target_quality(0.5)).unwrap();
        assert_eq!(sub_unit.trees.len(), full.trees.len());
    }

    #[test]
    fn errors_on_empty_graph() {
        let g = Graph::with_nodes(0);
        assert!(matches!(
            build_tree_ensemble(&g, &RackeConfig::default()),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn tree_cut_helper_matches_tree() {
        let g = gen::path(6, 1.0);
        let ensemble = build_tree_ensemble(&g, &RackeConfig::default().with_num_trees(1)).unwrap();
        let cut = tree_cut(&ensemble.trees[0], NodeId(3));
        assert!(cut.is_proper());
        assert_eq!(tree_graph_edges(&ensemble.trees[0]).len(), 5);
    }
}
