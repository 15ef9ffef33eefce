//! The recursive j-tree hierarchy of Theorem 8.10, producing a congestion
//! approximator that is affordable at millions of nodes.
//!
//! The direct construction ([`crate::build_tree_ensemble`]) builds `O(log n)`
//! low-stretch trees on the *full* input graph — every tree pays `Õ(m)`. The
//! paper instead recurses (§4, §8.3): sparsify the level graph (Lemma 6.1),
//! build **one** guide tree, extract a `⌈n/β⌉`-tree from it (Madry's
//! construction with `F` as exactly the `⌈n/β⌉` most loaded tree edges,
//! [`crate::build_jtree_top_loaded`]), and recurse on the contracted core
//! until the level is small enough for the direct build. Each level shrinks
//! the node count geometrically, so the whole hierarchy costs a constant
//! number of full-size tree constructions instead of a logarithmic one.
//!
//! # Lifting, and why the certificates survive
//!
//! The j-tree construction keeps the invariant that *every core edge is also
//! a graph edge* (§3): a `GraphEdge` core edge is literally an edge of the
//! level graph, and a `PathReplacement` core edge stands for the deleted tree
//! edge of its skeleton path. Because the per-level sparsifier also remembers
//! which original edge every kept edge came from, each recursion level carries
//! an **edge map** back to the input graph `G`. A spanning tree of the bottom
//! core therefore lifts to a spanning tree of `G`: take the per-level forest
//! edges (the guide-tree edges *not* removed into `F ∪ D`) plus the mapped
//! bottom-tree edges — exactly `n − 1` edges of `G` that connect it.
//!
//! The lifted trees are re-capacitated against `G` itself
//! ([`CapacitatedTree::new`] computes genuine cut capacities of `G`), so every
//! row of the resulting [`crate::CongestionApproximator`] is the congestion of
//! an actual cut of `G` and the unconditional lower-bound side
//! `‖Rb‖_∞ ≤ opt(b)` holds exactly as for the direct build. The hierarchy
//! only influences *which* trees are sampled — its per-level cut distortion
//! (tracked in [`HierarchyStats`]) degrades the quality factor `α`, never the
//! soundness of the certificates.
//!
//! # Quickstart
//!
//! ```
//! use capprox::{CongestionApproximator, HierarchyConfig, RackeConfig};
//! use flowgraph::{gen, Demand, NodeId};
//!
//! let g = gen::fat_tree(8, 4, 10, 10.0, 40.0);
//! let hier = HierarchyConfig::default()
//!     .with_direct_threshold(64)
//!     .with_chains(2)
//!     .with_trees_per_chain(Some(3));
//! let r = CongestionApproximator::build_hierarchical(&g, &hier, &RackeConfig::default())
//!     .unwrap();
//! // The bracket certificate works exactly like the direct build's.
//! let b = Demand::st(&g, NodeId(0), NodeId((g.num_nodes() - 1) as u32), 1.0);
//! let lower = r.congestion_lower_bound(&b);
//! let upper = r.congestion_upper_bound(&g, &b);
//! assert!(lower <= upper);
//! // Per-level bookkeeping is threaded into the approximator.
//! let stats = r.hierarchy_stats().unwrap();
//! assert_eq!(stats.chains.len(), 2);
//! assert!(stats.cut_distortion_bound() >= 1.0);
//! ```

use std::borrow::Cow;

use flowgraph::{EdgeId, Graph, GraphError, NodeId, RootedTree};

use crate::jtree::{build_jtree_top_loaded, CoreEdgeOrigin};
use crate::racke::{
    build_tree_ensemble, CapacitatedTree, EnsembleStats, RackeConfig, TreeEnsemble,
};
use crate::sparsify::{sparsify, SparsifyConfig};

/// Configuration of the recursive hierarchy construction (Theorem 8.10).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Per-level shrink target: each level extracts a `⌈n/β⌉`-tree, so the
    /// core has at most `4⌈n/β⌉ + 1` portals (worst-case shrink factor
    /// `β/4`). Must exceed 4 for guaranteed progress; the builder falls back
    /// to the direct build on any level that fails to shrink.
    pub beta: f64,
    /// Stop recursing once the level graph has at most this many nodes and
    /// hand the bottom level to the direct Räcke build.
    pub direct_threshold: usize,
    /// Number of independent recursion chains, each with its own seed. The
    /// final ensemble is the union of every chain's lifted trees, so more
    /// chains buy tree diversity at linear cost.
    pub chains: usize,
    /// Bottom-ensemble size per chain (= lifted trees per chain). `None`
    /// uses the Räcke `O(log n_bottom)` schedule on the bottom graph. Keep
    /// this small at million-node scale: every lifted tree stores per-node
    /// state on the *full* graph.
    pub trees_per_chain: Option<usize>,
    /// Cut error `ε` of the per-level sparsification. Levels with at most
    /// `4n` edges skip sparsification entirely.
    pub sparsify_epsilon: f64,
    /// Base RNG seed; chains and levels derive their own seeds from it.
    pub seed: u64,
    /// Hard cap on recursion depth (a backstop, not a tuning knob).
    pub max_levels: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            beta: 8.0,
            direct_threshold: 512,
            chains: 2,
            trees_per_chain: None,
            sparsify_epsilon: 0.5,
            seed: 0,
            max_levels: 64,
        }
    }
}

impl HierarchyConfig {
    /// Replaces the per-level shrink target `β`.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Replaces the bottom-of-recursion size.
    #[must_use]
    pub fn with_direct_threshold(mut self, threshold: usize) -> Self {
        self.direct_threshold = threshold;
        self
    }

    /// Replaces the number of independent recursion chains.
    #[must_use]
    pub fn with_chains(mut self, chains: usize) -> Self {
        self.chains = chains;
        self
    }

    /// Replaces the bottom-ensemble size per chain.
    #[must_use]
    pub fn with_trees_per_chain(mut self, trees: Option<usize>) -> Self {
        self.trees_per_chain = trees;
        self
    }

    /// Replaces the per-level sparsification error.
    #[must_use]
    pub fn with_sparsify_epsilon(mut self, epsilon: f64) -> Self {
        self.sparsify_epsilon = epsilon;
        self
    }

    /// Replaces the base RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Rejects configurations that can never produce a meaningful hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), GraphError> {
        if !self.beta.is_finite() || self.beta <= 4.0 {
            return Err(GraphError::InvalidConfig {
                parameter: "hierarchy.beta",
                reason: "must be a finite number > 4 (portal count is 4·⌈n/β⌉ + 1)",
            });
        }
        if self.direct_threshold < 2 {
            return Err(GraphError::InvalidConfig {
                parameter: "hierarchy.direct_threshold",
                reason: "must be at least 2 (the bottom build needs an edge)",
            });
        }
        if self.chains == 0 {
            return Err(GraphError::InvalidConfig {
                parameter: "hierarchy.chains",
                reason: "must be at least 1",
            });
        }
        if self.trees_per_chain == Some(0) {
            return Err(GraphError::InvalidConfig {
                parameter: "hierarchy.trees_per_chain",
                reason: "must be at least 1 (or None for the O(log n) schedule)",
            });
        }
        if !self.sparsify_epsilon.is_finite()
            || self.sparsify_epsilon <= 0.0
            || self.sparsify_epsilon >= 1.0
        {
            return Err(GraphError::InvalidConfig {
                parameter: "hierarchy.sparsify_epsilon",
                reason: "must lie strictly between 0 and 1",
            });
        }
        if self.max_levels == 0 {
            return Err(GraphError::InvalidConfig {
                parameter: "hierarchy.max_levels",
                reason: "must be at least 1",
            });
        }
        Ok(())
    }
}

/// Per-level quality bookkeeping of one recursion chain.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyLevelStats {
    /// Nodes of the level graph.
    pub num_nodes: usize,
    /// Edges of the level graph before sparsification.
    pub num_edges: usize,
    /// Edges after sparsification (equals `num_edges` when skipped).
    pub num_sparsified_edges: usize,
    /// Sparsification error applied at this level (`0.0` when skipped); the
    /// level's cuts are preserved within `1 ± ε` w.h.p.
    pub sparsify_epsilon: f64,
    /// The `j` handed to the j-tree extraction.
    pub j: usize,
    /// Portals produced (= nodes of the next level).
    pub num_portals: usize,
    /// Core edges produced (= edges of the next level).
    pub num_core_edges: usize,
    /// Maximum relative load of the level's guide tree — the per-level
    /// analogue of the direct build's `max_rloads` quality series.
    pub guide_max_rload: f64,
}

/// Statistics of one recursion chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStats {
    /// Per-level bookkeeping, outermost level first.
    pub levels: Vec<HierarchyLevelStats>,
    /// Nodes of the bottom graph handed to the direct build.
    pub bottom_nodes: usize,
    /// Edges of the bottom graph.
    pub bottom_edges: usize,
    /// Lifted trees this chain contributed to the ensemble.
    pub trees_lifted: usize,
}

/// Quality bookkeeping of a full hierarchical construction, threaded into
/// [`crate::CongestionApproximator`] by
/// [`crate::CongestionApproximator::build_hierarchical`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyStats {
    /// One entry per recursion chain.
    pub chains: Vec<ChainStats>,
}

impl HierarchyStats {
    /// Deepest recursion depth over the chains (levels above the bottom).
    pub fn num_levels(&self) -> usize {
        self.chains
            .iter()
            .map(|c| c.levels.len())
            .max()
            .unwrap_or(0)
    }

    /// Total lifted trees across all chains.
    pub fn total_trees(&self) -> usize {
        self.chains.iter().map(|c| c.trees_lifted).sum()
    }

    /// Worst-case multiplicative cut distortion accumulated by the per-level
    /// sparsifications: the product of `(1 + ε_l) / (1 − ε_l)` over the
    /// levels of the worst chain. The lifted trees' cut capacities are exact
    /// (recomputed on the input graph), so this bound only describes how far
    /// the *tree selection* may have been steered by distorted cuts — i.e.
    /// it inflates the quality factor `α`, never the certificates.
    pub fn cut_distortion_bound(&self) -> f64 {
        self.chains
            .iter()
            .map(|c| {
                c.levels
                    .iter()
                    .filter(|l| l.sparsify_epsilon > 0.0)
                    .map(|l| (1.0 + l.sparsify_epsilon) / (1.0 - l.sparsify_epsilon))
                    .product::<f64>()
            })
            .fold(1.0, f64::max)
    }
}

/// One recursion level's working state: the level graph and, for every one of
/// its edges, the input-graph edge it stands for. Level 0 borrows the input
/// graph; the sparsified and contracted levels own theirs.
struct Level<'g> {
    graph: Cow<'g, Graph>,
    edge_to_g: Vec<EdgeId>,
}

/// Sparsifies the level graph when it is dense (more than `4n` edges),
/// composing the edge map; falls back to the unsparsified level if the
/// sample ever disconnects (the forest-index sampler keeps first-forest
/// edges deterministically, so this is a guard, not an expected path).
fn sparsify_level(level: Level<'_>, epsilon: f64, seed: u64) -> (Level<'_>, f64) {
    if level.graph.num_edges() <= 4 * level.graph.num_nodes() {
        return (level, 0.0);
    }
    let s = sparsify(
        &level.graph,
        &SparsifyConfig {
            epsilon,
            oversampling: 2.0,
            seed,
        },
    );
    if !s.graph.is_connected() {
        return (level, 0.0);
    }
    let edge_to_g = s
        .original_edge
        .iter()
        .map(|e| level.edge_to_g[e.index()])
        .collect();
    (
        Level {
            graph: Cow::Owned(s.graph),
            edge_to_g,
        },
        epsilon,
    )
}

/// Builds the hierarchical tree ensemble for `g` (Theorem 8.10): every chain
/// recurses `sparsify → guide tree → j-tree → core` down to
/// [`HierarchyConfig::direct_threshold`] nodes, runs the direct Räcke build
/// there, and lifts each bottom tree to a spanning tree of `g` through the
/// per-level edge maps. The returned trees are genuine capacitated spanning
/// trees of `g` — interchangeable with the direct build's wherever a
/// [`TreeEnsemble`] is consumed.
///
/// `racke` configures the *bottom* build (and the per-level guide trees
/// inherit its MWU/low-stretch knobs); [`HierarchyConfig::trees_per_chain`]
/// overrides its tree count.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] for invalid configurations and
/// propagates construction errors for empty or disconnected inputs.
pub fn build_hierarchical_ensemble(
    g: &Graph,
    config: &HierarchyConfig,
    racke: &RackeConfig,
) -> Result<(TreeEnsemble, HierarchyStats), GraphError> {
    config.validate()?;
    if g.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    let mut trees: Vec<CapacitatedTree> = Vec::new();
    let mut stats = EnsembleStats {
        num_trees: 0,
        max_rloads: Vec::new(),
        decomposition_rounds: 0,
        // Lifted trees have no per-length stretch series; the per-level
        // guide-tree quality lives in `HierarchyStats` instead.
        average_stretches: Vec::new(),
    };
    let mut chains = Vec::with_capacity(config.chains);

    for chain in 0..config.chains {
        let chain_seed = config
            .seed
            .wrapping_add(chain as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(config.seed);
        let mut level = Level {
            graph: Cow::Borrowed(g),
            edge_to_g: g.edge_ids().collect(),
        };
        // Input-graph edges lifting the forests of all levels walked so far.
        let mut lift_edges: Vec<EdgeId> = Vec::new();
        let mut level_stats = Vec::new();

        while level.graph.num_nodes() > config.direct_threshold
            && level_stats.len() < config.max_levels
        {
            let num_nodes = level.graph.num_nodes();
            let num_edges = level.graph.num_edges();
            let level_seed = chain_seed.wrapping_add(level_stats.len() as u64 * 7919);
            let (sparse, eps_used) = sparsify_level(level, config.sparsify_epsilon, level_seed);
            let guide_ensemble = build_tree_ensemble(
                &sparse.graph,
                &RackeConfig {
                    num_trees: Some(1),
                    mwu_step: racke.mwu_step,
                    seed: level_seed,
                    lowstretch_z: racke.lowstretch_z,
                    target_quality: None,
                },
            )?;
            stats.decomposition_rounds = stats
                .decomposition_rounds
                .saturating_add(guide_ensemble.stats.decomposition_rounds);
            let guide = &guide_ensemble.trees[0];
            let j = ((num_nodes as f64 / config.beta).ceil() as usize).max(1);
            let jt = build_jtree_top_loaded(&sparse.graph, guide, j);
            level_stats.push(HierarchyLevelStats {
                num_nodes,
                num_edges,
                num_sparsified_edges: sparse.graph.num_edges(),
                sparsify_epsilon: eps_used,
                j,
                num_portals: jt.num_portals(),
                num_core_edges: jt.core.num_edges(),
                guide_max_rload: guide.max_rload(),
            });
            if jt.num_portals() >= num_nodes {
                // The level failed to shrink (pathological guide tree);
                // hand what we have to the direct build instead of looping.
                level = sparse;
                break;
            }
            // Forest edges of this level — guide-tree edges surviving
            // F ∪ D — become part of every lifted tree.
            let mut removed = vec![false; sparse.graph.num_nodes()];
            for &v in jt.removed_high_load.iter().chain(&jt.removed_path_edges) {
                removed[v.index()] = true;
            }
            for v in sparse.graph.nodes() {
                if removed[v.index()] {
                    continue;
                }
                if let Some(e) = guide.tree.parent_edge(v) {
                    lift_edges.push(sparse.edge_to_g[e.index()]);
                }
            }
            // The core inherits the edge map through its origins: graph-edge
            // cores map directly, path replacements map to the deleted tree
            // edge. The core stays a multigraph so edge identity survives.
            let core_map = jt
                .core_origin
                .iter()
                .map(|origin| match *origin {
                    CoreEdgeOrigin::GraphEdge(e) => sparse.edge_to_g[e.index()],
                    CoreEdgeOrigin::PathReplacement(v) => {
                        let e = guide
                            .tree
                            .parent_edge(v)
                            .expect("path-replacement nodes have parent edges");
                        sparse.edge_to_g[e.index()]
                    }
                })
                .collect();
            level = Level {
                graph: Cow::Owned(jt.core),
                edge_to_g: core_map,
            };
        }

        let bottom_nodes = level.graph.num_nodes();
        let bottom_edges = level.graph.num_edges();
        let chain_trees_before = trees.len();
        if bottom_nodes <= 1 {
            // The forests alone already span `g`: lift the single tree.
            let lifted = RootedTree::spanning_from_edges(g, NodeId(0), &lift_edges)?;
            push_lifted(g, lifted, &mut trees, &mut stats);
        } else {
            let mut bottom_racke = racke.clone().with_seed(chain_seed ^ 0x5bd1_e995);
            if let Some(k) = config.trees_per_chain {
                bottom_racke = bottom_racke.with_num_trees(k);
            }
            let bottom = build_tree_ensemble(&level.graph, &bottom_racke)?;
            stats.decomposition_rounds = stats
                .decomposition_rounds
                .saturating_add(bottom.stats.decomposition_rounds);
            for t in &bottom.trees {
                let mut edges = lift_edges.clone();
                edges.extend(
                    t.tree
                        .graph_edges()
                        .iter()
                        .map(|e| level.edge_to_g[e.index()]),
                );
                let lifted = RootedTree::spanning_from_edges(g, NodeId(0), &edges)?;
                push_lifted(g, lifted, &mut trees, &mut stats);
            }
        }
        chains.push(ChainStats {
            levels: level_stats,
            bottom_nodes,
            bottom_edges,
            trees_lifted: trees.len() - chain_trees_before,
        });
    }

    Ok((TreeEnsemble { trees, stats }, HierarchyStats { chains }))
}

/// Re-capacitates a lifted spanning tree against the input graph and appends
/// it to the ensemble under construction.
fn push_lifted(
    g: &Graph,
    lifted: RootedTree,
    trees: &mut Vec<CapacitatedTree>,
    stats: &mut EnsembleStats,
) {
    let cap = CapacitatedTree::new(g, lifted);
    stats.max_rloads.push(cap.max_rload());
    stats.num_trees += 1;
    trees.push(cap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::{gen, Demand};

    fn config() -> HierarchyConfig {
        HierarchyConfig::default()
            .with_direct_threshold(32)
            .with_chains(2)
            .with_trees_per_chain(Some(2))
    }

    #[test]
    fn lifted_trees_are_spanning_trees_of_the_input() {
        let g = gen::random_gnp(200, 0.05, (1.0, 4.0), 7);
        let (ensemble, stats) =
            build_hierarchical_ensemble(&g, &config(), &RackeConfig::default()).unwrap();
        assert_eq!(ensemble.trees.len(), 4);
        assert_eq!(stats.total_trees(), 4);
        for t in &ensemble.trees {
            assert_eq!(t.tree.num_nodes(), g.num_nodes());
            assert_eq!(t.tree.graph_edges().len(), g.num_nodes() - 1);
        }
    }

    #[test]
    fn recursion_actually_recurses_and_shrinks() {
        let g = gen::grid(20, 20, 1.0);
        let (_, stats) =
            build_hierarchical_ensemble(&g, &config(), &RackeConfig::default()).unwrap();
        assert!(stats.num_levels() >= 1, "400 nodes must recurse past 32");
        for chain in &stats.chains {
            assert_eq!(chain.levels[0].num_nodes, 400);
            for w in chain.levels.windows(2) {
                assert!(w[1].num_nodes < w[0].num_nodes);
            }
            assert!(chain.bottom_nodes <= chain.levels.last().unwrap().num_portals);
        }
    }

    #[test]
    fn bracket_certificates_stay_sound() {
        // Every row of the lifted approximator is a genuine cut of G, so the
        // sandwich ‖Rb‖∞ ≤ opt(b) ≤ upper must bracket the exhaustive opt.
        let g = gen::random_gnp(16, 0.3, (1.0, 5.0), 3);
        let hier = HierarchyConfig::default()
            .with_direct_threshold(4)
            .with_chains(1)
            .with_trees_per_chain(Some(3));
        let (ensemble, _) =
            build_hierarchical_ensemble(&g, &hier, &RackeConfig::default()).unwrap();
        let r = crate::CongestionApproximator::from_ensemble(ensemble).unwrap();
        for (s, t) in [(0u32, 15u32), (3, 9), (7, 12)] {
            let b = Demand::st(&g, NodeId(s), NodeId(t), 1.0);
            let lower = r.congestion_lower_bound(&b);
            let upper = r.congestion_upper_bound(&g, &b);
            let opt = crate::exhaustive_opt_congestion(&g, &b);
            assert!(lower <= opt + 1e-9, "lower {lower} exceeds opt {opt}");
            assert!(upper + 1e-9 >= opt, "upper {upper} below opt {opt}");
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let g = gen::fat_tree(16, 4, 10, 10.0, 40.0);
        let build = || {
            let (e, s) =
                build_hierarchical_ensemble(&g, &config(), &RackeConfig::default()).unwrap();
            (e, s)
        };
        let (a, sa) = build();
        let (b, sb) = build();
        assert_eq!(sa, sb);
        for (ta, tb) in a.trees.iter().zip(&b.trees) {
            assert_eq!(ta.tree.graph_edges(), tb.tree.graph_edges());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ta.cut_capacity), bits(&tb.cut_capacity));
        }
    }

    #[test]
    fn small_graphs_skip_straight_to_the_direct_build() {
        let g = gen::grid(4, 4, 1.0);
        let (ensemble, stats) =
            build_hierarchical_ensemble(&g, &config(), &RackeConfig::default()).unwrap();
        assert_eq!(stats.num_levels(), 0);
        assert_eq!(stats.cut_distortion_bound(), 1.0);
        assert!(!ensemble.trees.is_empty());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for (cfg, parameter) in [
            (config().with_beta(2.0), "hierarchy.beta"),
            (config().with_beta(f64::NAN), "hierarchy.beta"),
            (
                config().with_direct_threshold(1),
                "hierarchy.direct_threshold",
            ),
            (config().with_chains(0), "hierarchy.chains"),
            (
                config().with_trees_per_chain(Some(0)),
                "hierarchy.trees_per_chain",
            ),
            (
                config().with_sparsify_epsilon(1.0),
                "hierarchy.sparsify_epsilon",
            ),
        ] {
            match cfg.validate() {
                Err(GraphError::InvalidConfig { parameter: p, .. }) => assert_eq!(p, parameter),
                other => panic!("{parameter}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn distortion_bound_tracks_sparsified_levels() {
        // A dense graph forces at least one sparsified level.
        let g = gen::random_gnp(300, 0.2, (1.0, 2.0), 11);
        let (_, stats) = build_hierarchical_ensemble(
            &g,
            &config().with_sparsify_epsilon(0.25),
            &RackeConfig::default(),
        )
        .unwrap();
        let sparsified_levels = stats
            .chains
            .iter()
            .flat_map(|c| &c.levels)
            .filter(|l| l.sparsify_epsilon > 0.0)
            .count();
        assert!(sparsified_levels > 0, "dense input must sparsify");
        assert!(stats.cut_distortion_bound() > 1.0);
    }
}
