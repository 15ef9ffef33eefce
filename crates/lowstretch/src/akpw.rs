//! The AKPW low average-stretch spanning tree algorithm (paper §7).
//!
//! Following Alon et al. in the formulation of Blelloch et al.: edges are
//! bucketed into geometric length classes, and the algorithm repeatedly
//! (i) runs the low-diameter decomposition of [`crate::decompose::split_graph`]
//! on the currently active classes, (ii) keeps the BFS tree of every cluster,
//! and (iii) contracts the clusters into super-nodes, carrying parallel edges
//! along as a multigraph (§7: "Remove all self loops, but leave parallel
//! edges in place").

use std::borrow::Cow;

use flowgraph::contract::ContractedGraph;
use flowgraph::{EdgeId, Graph, GraphError, NodeId, RootedTree};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::decompose::split_graph;
use crate::theoretical_z;

/// Configuration of the low-stretch spanning tree construction.
#[derive(Debug, Clone)]
pub struct LowStretchConfig {
    /// Geometric growth factor of the length classes. `None` selects the
    /// theoretical `2^{√(6 log n log log n)}` (which at practical sizes makes
    /// the construction a single low-diameter decomposition).
    pub z: Option<f64>,
    /// The decomposition radius as a fraction of `z` (the paper uses `z/4`).
    pub radius_factor: f64,
    /// RNG seed; the construction is randomized (Theorem 3.1 is a bound on
    /// the *expected* stretch).
    pub seed: u64,
}

impl Default for LowStretchConfig {
    fn default() -> Self {
        LowStretchConfig {
            z: Some(32.0),
            radius_factor: 0.25,
            seed: 0,
        }
    }
}

impl LowStretchConfig {
    /// Configuration using the theoretical class growth `z` from Theorem 3.1.
    pub fn theoretical() -> Self {
        LowStretchConfig {
            z: None,
            ..Default::default()
        }
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the class growth factor.
    #[must_use]
    pub fn with_z(mut self, z: f64) -> Self {
        self.z = Some(z);
        self
    }
}

/// Statistics of one construction, used for round accounting and by the
/// experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct LowStretchStats {
    /// Number of contract-and-recurse iterations performed.
    pub iterations: usize,
    /// Number of length classes induced by the input lengths and `z`.
    pub num_classes: usize,
    /// The class growth factor actually used.
    pub z: f64,
    /// Sum of the (cluster-level CONGEST) rounds taken by the low-diameter
    /// decompositions; each such round costs `O(D + √n)` network rounds when
    /// simulated on a cluster graph (Lemma 5.1).
    pub decomposition_rounds: usize,
    /// Number of times the progress safeguard had to force a contraction.
    pub forced_contractions: usize,
}

/// A constructed low-stretch spanning tree plus its construction statistics.
#[derive(Debug, Clone)]
pub struct LowStretchResult {
    /// The spanning tree (rooted at node 0), realized by graph edges.
    pub tree: RootedTree,
    /// Construction statistics.
    pub stats: LowStretchStats,
}

/// Computes a low average-stretch spanning tree of `g` with respect to the
/// given edge `lengths` (Theorem 3.1).
///
/// # Errors
///
/// Returns [`GraphError::Empty`] for an empty graph,
/// [`GraphError::NotConnected`] for a disconnected graph and
/// [`GraphError::InvalidWeight`] if some length is not strictly positive and
/// finite or the length vector has the wrong size.
pub fn low_stretch_spanning_tree(
    g: &Graph,
    lengths: &[f64],
    config: &LowStretchConfig,
) -> Result<LowStretchResult, GraphError> {
    if g.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    if lengths.len() != g.num_edges() {
        return Err(GraphError::InvalidWeight {
            value: lengths.len() as f64,
        });
    }
    for &l in lengths {
        if !(l.is_finite() && l > 0.0) {
            return Err(GraphError::InvalidWeight { value: l });
        }
    }
    let n = g.num_nodes();
    if n == 1 {
        let tree = RootedTree::from_parents(NodeId(0), vec![None], vec![None])?;
        return Ok(LowStretchResult {
            tree,
            stats: LowStretchStats {
                iterations: 0,
                num_classes: 0,
                z: config.z.unwrap_or_else(|| theoretical_z(n)),
                decomposition_rounds: 0,
                forced_contractions: 0,
            },
        });
    }

    let z = config.z.unwrap_or_else(|| theoretical_z(n)).max(2.0);
    let radius = ((z * config.radius_factor).round() as usize).max(2);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Length classes: class(e) = floor(log_z(ℓ(e)/ℓ_min)) + 1, so class 1
    // holds lengths in [ℓ_min, ℓ_min·z). Lengths spanning more than the
    // f64 range overflow the ratio to +∞; their logarithms' difference is
    // finite.
    let min_len = lengths.iter().cloned().fold(f64::INFINITY, f64::min);
    let class_of: Vec<usize> = lengths
        .iter()
        .map(|&l| {
            let ratio = l / min_len;
            let log_ratio = if ratio.is_finite() {
                ratio.ln()
            } else {
                l.ln() - min_len.ln()
            };
            (log_ratio / z.ln()).floor() as usize + 1
        })
        .collect();
    let num_classes = class_of.iter().copied().max().unwrap_or(1);

    // Current contracted multigraph plus the mapping of its edges back to G.
    // The first round reads `g` itself.
    let mut cur = Cow::Borrowed(g);
    let mut orig_of: Vec<EdgeId> = g.edge_ids().collect();
    let mut tree_edges: Vec<EdgeId> = Vec::new();
    let mut stats = LowStretchStats {
        iterations: 0,
        num_classes,
        z,
        decomposition_rounds: 0,
        forced_contractions: 0,
    };

    let mut active_class = 1usize;
    while cur.num_nodes() > 1 {
        // Contraction never merges two components, so a disconnected `G`
        // ends here with one edgeless super-node per component.
        if cur.num_edges() == 0 {
            return Err(GraphError::NotConnected);
        }
        stats.iterations += 1;
        let has_active = cur
            .edge_ids()
            .any(|e| class_of[orig_of[e.index()].index()] <= active_class);
        if !has_active {
            // Nothing to decompose at this scale yet: advance the class.
            active_class += 1;
            continue;
        }

        let dec = split_graph(
            &cur,
            |e| class_of[orig_of[e.index()].index()] <= active_class,
            radius,
            &mut rng,
        );
        stats.decomposition_rounds = stats.decomposition_rounds.saturating_add(dec.rounds.max(1));
        for &e in &dec.tree_edges {
            tree_edges.push(orig_of[e.index()]);
        }

        let labels = if dec.num_clusters == cur.num_nodes() {
            // Unlucky decomposition with no contraction: force progress by
            // merging the endpoints of one active edge.
            stats.forced_contractions += 1;
            let e = cur
                .edge_ids()
                .find(|&e| class_of[orig_of[e.index()].index()] <= active_class)
                .expect("an active edge exists");
            tree_edges.push(orig_of[e.index()]);
            let edge = cur.edge(e);
            let mut labels = dec.cluster_of.clone();
            let from = labels[edge.head.index()];
            let to = labels[edge.tail.index()];
            for l in &mut labels {
                if *l == from {
                    *l = to;
                }
            }
            densify(&labels)
        } else {
            dec.cluster_of
        };

        let contracted = ContractedGraph::new(&cur, &labels);
        orig_of = contracted
            .original_edge
            .iter()
            .map(|&prev| orig_of[prev.index()])
            .collect();
        cur = Cow::Owned(contracted.graph);
        active_class = (active_class + 1).min(num_classes + 1);
    }

    debug_assert_eq!(
        tree_edges.len(),
        n - 1,
        "AKPW must select exactly n-1 edges"
    );
    let tree = RootedTree::spanning_from_edges(g, NodeId(0), &tree_edges)?;
    Ok(LowStretchResult { tree, stats })
}

/// Re-labels an arbitrary labelling to dense labels `0..k`, preserving the
/// partition.
fn densify(labels: &[usize]) -> Vec<usize> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len();
            *map.entry(l).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::{gen, spanning};

    fn unit_lengths(g: &Graph) -> Vec<f64> {
        vec![1.0; g.num_edges()]
    }

    #[test]
    fn produces_spanning_tree_on_grid() {
        let g = gen::grid(8, 8, 1.0);
        let lengths = unit_lengths(&g);
        let r = low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::default()).unwrap();
        assert_eq!(r.tree.num_nodes(), 64);
        assert_eq!(r.tree.graph_edges().len(), 63);
        assert!(r.stats.iterations >= 1);
    }

    #[test]
    fn produces_spanning_tree_on_all_families() {
        for fam in gen::Family::ALL {
            let g = fam.generate(50, 3);
            let lengths: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
            let r = low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::default())
                .unwrap_or_else(|e| panic!("family {fam}: {e}"));
            assert_eq!(
                r.tree.graph_edges().len(),
                g.num_nodes() - 1,
                "family {fam}"
            );
        }
    }

    #[test]
    fn stretch_is_low_on_the_grid() {
        // On a 10x10 unit grid the AKPW tree should beat a BFS tree rooted in
        // a corner and stay well below the trivial O(diameter) bound.
        // (A uniformly random spanning tree is already near-optimal on a grid,
        // so the meaningful baselines are BFS and the absolute bound; the E3
        // experiment reports all of them.)
        let g = gen::grid(10, 10, 1.0);
        let lengths = unit_lengths(&g);
        let mut akpw_total = 0.0;
        for seed in 0..5 {
            let cfg = LowStretchConfig::default().with_seed(seed);
            let r = low_stretch_spanning_tree(&g, &lengths, &cfg).unwrap();
            akpw_total += r.tree.average_stretch(&g, |e| lengths[e.index()]);
        }
        let akpw_avg = akpw_total / 5.0;
        let bfs = spanning::bfs_tree(&g, NodeId(0)).unwrap();
        let bfs_stretch = bfs.average_stretch(&g, |e| lengths[e.index()]);
        assert!(
            akpw_avg < bfs_stretch,
            "AKPW stretch {akpw_avg} should beat corner-BFS stretch {bfs_stretch}"
        );
        let log2n = (g.num_nodes() as f64).log2();
        assert!(
            akpw_avg < 2.0 * log2n,
            "AKPW stretch {akpw_avg} should be well below 2·log2(n) = {}",
            2.0 * log2n
        );
    }

    #[test]
    fn respects_length_classes() {
        // A cycle where one edge is enormously long: the long edge should not
        // appear in the tree (it is the only edge whose removal keeps the
        // cycle spanning, and AKPW activates it last).
        let mut g = gen::path(20, 1.0);
        g.add_edge(NodeId(19), NodeId(0), 1.0).unwrap();
        let mut lengths = vec![1.0; g.num_edges()];
        let long_edge = EdgeId((g.num_edges() - 1) as u32);
        lengths[long_edge.index()] = 1.0e6;
        let cfg = LowStretchConfig::default().with_z(4.0);
        let r = low_stretch_spanning_tree(&g, &lengths, &cfg).unwrap();
        assert!(
            !r.tree.graph_edges().contains(&long_edge),
            "the very long edge must not be chosen"
        );
        assert!(r.stats.num_classes > 1);
    }

    #[test]
    fn lengths_spanning_more_than_the_f64_range_get_ordered_classes() {
        // Capacities 1e-300, 1e300, 1 and 1 around a 4-cycle: the longest
        // length over the shortest overflows to +∞, yet the longest edge
        // still gets the highest class and stays out of the tree.
        let g = gen::cycle(4, 1.0);
        let lengths = [1.0e300, 1.0e-300, 1.0, 1.0];
        let r = low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::default()).unwrap();
        assert_eq!(r.tree.graph_edges().len(), 3);
        assert!(
            !r.tree.graph_edges().contains(&EdgeId(0)),
            "the 1e300-long edge must not be chosen"
        );
        // floor(ln(1e600) / ln 32) + 1.
        assert_eq!(r.stats.num_classes, 399);
    }

    #[test]
    fn single_node_and_errors() {
        let g = Graph::with_nodes(1);
        let r = low_stretch_spanning_tree(&g, &[], &LowStretchConfig::default()).unwrap();
        assert_eq!(r.tree.num_nodes(), 1);

        let g = Graph::with_nodes(0);
        assert!(matches!(
            low_stretch_spanning_tree(&g, &[], &LowStretchConfig::default()),
            Err(GraphError::Empty)
        ));

        let g = gen::path(3, 1.0);
        assert!(low_stretch_spanning_tree(&g, &[1.0], &LowStretchConfig::default()).is_err());
        assert!(low_stretch_spanning_tree(&g, &[1.0, -2.0], &LowStretchConfig::default()).is_err());

        // Disconnected graphs of several shapes. The contraction loop finds
        // each: no component ever merges with another.
        let union = |a: Graph, b: Graph| {
            let shift = a.num_nodes() as u32;
            let mut g = Graph::with_nodes(a.num_nodes() + b.num_nodes());
            for (_, e) in a.edges() {
                g.add_edge(e.tail, e.head, e.capacity).unwrap();
            }
            for (_, e) in b.edges() {
                let (tail, head) = (NodeId(e.tail.0 + shift), NodeId(e.head.0 + shift));
                g.add_edge(tail, head, e.capacity).unwrap();
            }
            g
        };
        let unit = |g: Graph| {
            let lengths = vec![1.0; g.num_edges()];
            (g, lengths)
        };
        let two_cycles = union(gen::cycle(6, 1.0), gen::cycle(6, 1.0));
        // The second cycle's edges far above the first's length class, so
        // the two contract at different class steps.
        let split_classes = (0..12).map(|i| if i < 6 { 1.0 } else { 1.0e9 }).collect();
        let shapes = [
            (
                "an edge and isolated nodes",
                unit(union(gen::path(2, 1.0), Graph::with_nodes(2))),
            ),
            ("two cycles", unit(two_cycles.clone())),
            (
                "two cycles in different classes",
                (two_cycles, split_classes),
            ),
            (
                "a grid and a path",
                unit(union(gen::grid(5, 5, 1.0), gen::path(7, 1.0))),
            ),
            (
                "a grid and isolated nodes",
                unit(union(gen::grid(5, 5, 1.0), Graph::with_nodes(3))),
            ),
            ("isolated nodes only", unit(Graph::with_nodes(5))),
        ];
        for (name, (g, lengths)) in shapes {
            for (z, seed) in [(32.0, 0), (4.0, 0), (4.0, 1), (4.0, 2)] {
                let cfg = LowStretchConfig::default().with_z(z).with_seed(seed);
                assert!(
                    matches!(
                        low_stretch_spanning_tree(&g, &lengths, &cfg),
                        Err(GraphError::NotConnected)
                    ),
                    "{name}, z {z}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = gen::random_gnp(40, 0.2, (1.0, 4.0), 7);
        let lengths: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
        let cfg = LowStretchConfig::default().with_seed(11);
        let a = low_stretch_spanning_tree(&g, &lengths, &cfg).unwrap();
        let b = low_stretch_spanning_tree(&g, &lengths, &cfg).unwrap();
        assert_eq!(a.tree.graph_edges(), b.tree.graph_edges());
    }

    #[test]
    fn theoretical_config_works() {
        let g = gen::grid(6, 6, 1.0);
        let lengths = unit_lengths(&g);
        let r = low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::theoretical()).unwrap();
        assert_eq!(r.tree.graph_edges().len(), 35);
        // With the theoretical z the whole graph fits in one length class.
        assert_eq!(r.stats.num_classes, 1);
    }

    #[test]
    fn multigraph_with_parallel_edges() {
        let mut g = gen::cycle(10, 1.0);
        // Add parallel edges.
        g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 2.0).unwrap();
        let lengths = vec![1.0; g.num_edges()];
        let r = low_stretch_spanning_tree(&g, &lengths, &LowStretchConfig::default()).unwrap();
        assert_eq!(r.tree.graph_edges().len(), 9);
    }
}
