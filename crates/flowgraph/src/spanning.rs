//! Spanning-tree constructions: BFS trees, minimum / maximum weight spanning
//! trees and random spanning trees.
//!
//! The top-level max-flow algorithm (Algorithm 1, §9) routes residual demand
//! over a *maximum-weight* spanning tree; the distributed implementation uses
//! BFS trees for global broadcast/convergecast; random spanning trees serve as
//! a baseline in the stretch experiments (E3).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::tree::RootedTree;
use crate::unionfind::UnionFind;
use crate::{GraphError, Result};

/// Builds a BFS tree rooted at `root`.
///
/// # Errors
///
/// Returns [`GraphError::NotConnected`] if not every node is reachable from
/// `root`, and [`GraphError::NodeOutOfRange`] if `root` is invalid.
pub fn bfs_tree(g: &Graph, root: NodeId) -> Result<RootedTree> {
    if root.index() >= g.num_nodes() {
        return Err(GraphError::NodeOutOfRange {
            node: root.index(),
            num_nodes: g.num_nodes(),
        });
    }
    let n = g.num_nodes();
    let mut parent = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[root.index()] = true;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for (eid, w) in g.incident(u) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                parent[w.index()] = Some(u);
                parent_edge[w.index()] = Some(eid);
                queue.push_back(w);
            }
        }
    }
    if seen.iter().any(|&s| !s) {
        return Err(GraphError::NotConnected);
    }
    RootedTree::from_parents(root, parent, parent_edge)
}

/// Kruskal's algorithm on an arbitrary edge ordering; returns the selected
/// spanning edges.
fn kruskal_by_order(g: &Graph, order: &[EdgeId]) -> Result<Vec<EdgeId>> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut uf = UnionFind::new(n);
    let mut chosen = Vec::with_capacity(n.saturating_sub(1));
    for &eid in order {
        let e = g.edge(eid);
        if uf.union(e.tail.index(), e.head.index()) {
            chosen.push(eid);
        }
    }
    if chosen.len() + 1 != n {
        return Err(GraphError::NotConnected);
    }
    Ok(chosen)
}

/// Minimum spanning tree with respect to the given per-edge weight function,
/// rooted at `root`.
///
/// # Errors
///
/// Returns [`GraphError::NotConnected`] for disconnected graphs and
/// [`GraphError::Empty`] for the empty graph.
pub fn minimum_spanning_tree(
    g: &Graph,
    root: NodeId,
    weight: impl Fn(EdgeId) -> f64,
) -> Result<RootedTree> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    order.sort_by(|&a, &b| {
        weight(a)
            .partial_cmp(&weight(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let edges = kruskal_by_order(g, &order)?;
    RootedTree::spanning_from_edges(g, root, &edges)
}

/// Maximum-weight spanning tree with respect to edge capacities, rooted at
/// `root` (Algorithm 1, step 5).
///
/// # Errors
///
/// Same error conditions as [`minimum_spanning_tree`].
pub fn max_weight_spanning_tree(g: &Graph, root: NodeId) -> Result<RootedTree> {
    minimum_spanning_tree(g, root, |e| -g.capacity(e))
}

/// Spanning tree produced by running Kruskal on a uniformly random edge
/// ordering (a cheap stand-in for a uniformly random spanning tree; used only
/// as an experiment baseline).
///
/// # Errors
///
/// Same error conditions as [`minimum_spanning_tree`].
pub fn random_spanning_tree(g: &Graph, root: NodeId, rng: &mut impl Rng) -> Result<RootedTree> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    order.shuffle(rng);
    let edges = kruskal_by_order(g, &order)?;
    RootedTree::spanning_from_edges(g, root, &edges)
}

/// Shortest-path tree with respect to a per-edge length function (Dijkstra),
/// rooted at `root`. Used to compare low-stretch trees against shortest-path
/// trees in the experiments.
///
/// # Errors
///
/// Returns [`GraphError::NotConnected`] if some node is unreachable.
pub fn shortest_path_tree(
    g: &Graph,
    root: NodeId,
    length: impl Fn(EdgeId) -> f64,
) -> Result<RootedTree> {
    let n = g.num_nodes();
    if root.index() >= n {
        return Err(GraphError::NodeOutOfRange {
            node: root.index(),
            num_nodes: n,
        });
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut done = vec![false; n];
    dist[root.index()] = 0.0;
    // Binary heap keyed on (dist, node); f64 is not Ord so store bits.
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((ordered(0.0), root.index())));
    while let Some(std::cmp::Reverse((_, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (eid, w) in g.incident(NodeId(u as u32)) {
            let nd = dist[u] + length(eid);
            if nd < dist[w.index()] {
                dist[w.index()] = nd;
                parent[w.index()] = Some(NodeId(u as u32));
                parent_edge[w.index()] = Some(eid);
                heap.push(std::cmp::Reverse((ordered(nd), w.index())));
            }
        }
    }
    if dist.iter().any(|d| d.is_infinite()) {
        return Err(GraphError::NotConnected);
    }
    RootedTree::from_parents(root, parent, parent_edge)
}

/// Total-orderable wrapper for non-NaN f64 keys in the Dijkstra heap.
fn ordered(x: f64) -> u64 {
    debug_assert!(!x.is_nan());
    let bits = x.to_bits();
    if x >= 0.0 {
        bits ^ (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn weighted_square() -> Graph {
        GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(1, 2, 5.0)
            .edge(2, 3, 1.0)
            .edge(3, 0, 5.0)
            .edge(0, 2, 2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn bfs_tree_depths() {
        let g = weighted_square();
        let t = bfs_tree(&g, NodeId(0)).unwrap();
        assert_eq!(t.depth(NodeId(0)), 0);
        assert!(t.depth(NodeId(2)) <= 2);
        assert_eq!(t.graph_edges().len(), 3);
    }

    #[test]
    fn mst_picks_light_edges() {
        let g = weighted_square();
        let t = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        let total: f64 = t.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        // MST: edges of weight 1, 1, 2 -> 4.
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn max_weight_tree_picks_heavy_edges() {
        let g = weighted_square();
        let t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let total: f64 = t.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        // Max weight spanning tree: 5 + 5 + 2 = 12.
        assert!((total - 12.0).abs() < 1e-12);
    }

    #[test]
    fn random_tree_is_spanning() {
        let g = weighted_square();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..5 {
            let t = random_spanning_tree(&g, NodeId(0), &mut rng).unwrap();
            assert_eq!(t.graph_edges().len(), 3);
            assert_eq!(t.num_nodes(), 4);
        }
    }

    #[test]
    fn spanning_trees_reject_an_out_of_range_root() {
        let g = crate::gen::path(3, 1.0);
        let out_of_range = Err(GraphError::NodeOutOfRange {
            node: 5,
            num_nodes: 3,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(max_weight_spanning_tree(&g, NodeId(5)), out_of_range);
        assert_eq!(
            minimum_spanning_tree(&g, NodeId(5), |e| g.capacity(e)),
            out_of_range
        );
        assert_eq!(random_spanning_tree(&g, NodeId(5), &mut rng), out_of_range);
    }

    #[test]
    fn shortest_path_tree_distances() {
        let g = weighted_square();
        // lengths = 1/capacity so heavy edges are short
        let t = shortest_path_tree(&g, NodeId(0), |e| 1.0 / g.capacity(e)).unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.num_nodes(), 4);
        // node 3 should hang off node 0 directly (length 0.2 < any detour)
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(0)));
    }

    #[test]
    fn disconnected_graph_errors() {
        let g = GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(2, 3, 1.0)
            .build()
            .unwrap();
        assert!(bfs_tree(&g, NodeId(0)).is_err());
        assert!(max_weight_spanning_tree(&g, NodeId(0)).is_err());
        assert!(shortest_path_tree(&g, NodeId(0), |_| 1.0).is_err());
    }

    #[test]
    fn ordered_key_is_monotone() {
        let mut values = [3.5, 0.0, 1.25, 10.0, 0.5];
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let keys: Vec<u64> = values.iter().map(|&v| ordered(v)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn bfs_tree_matches_graph_distances_on_known_graphs() {
        // On a grid and a cycle the BFS depths must equal the graph's hop
        // distances node by node, and parent edges must step one level up.
        for g in [crate::gen::grid(4, 5, 1.0), crate::gen::cycle(11, 1.0)] {
            let t = bfs_tree(&g, NodeId(0)).unwrap();
            let dist = g.bfs_distances(NodeId(0));
            for v in g.nodes() {
                assert_eq!(t.depth(v), dist[v.index()], "depth mismatch at {v}");
                if let Some(p) = t.parent(v) {
                    assert_eq!(t.depth(v), t.depth(p) + 1, "parent of {v} not one level up");
                }
            }
        }
    }

    #[test]
    fn mst_weight_matches_brute_force_on_known_graph() {
        // K4 with distinct weights: brute-force over all 16 spanning trees.
        let g = GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(0, 2, 2.0)
            .edge(0, 3, 3.0)
            .edge(1, 2, 4.0)
            .edge(1, 3, 5.0)
            .edge(2, 3, 6.0)
            .build()
            .unwrap();
        let edge_ids: Vec<EdgeId> = g.edge_ids().collect();
        let mut best_min = f64::INFINITY;
        let mut best_max = f64::NEG_INFINITY;
        for mask in 0u32..(1 << edge_ids.len()) {
            if mask.count_ones() != 3 {
                continue;
            }
            let chosen: Vec<EdgeId> = edge_ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let (sub, _) = g.edge_subgraph(&chosen);
            if !sub.is_connected() {
                continue;
            }
            let w: f64 = chosen.iter().map(|&e| g.capacity(e)).sum();
            best_min = best_min.min(w);
            best_max = best_max.max(w);
        }
        let mst = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        let mst_w: f64 = mst.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        assert!(
            (mst_w - best_min).abs() < 1e-12,
            "MST {mst_w} vs brute force {best_min}"
        );
        let mwst = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let mwst_w: f64 = mwst.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        assert!(
            (mwst_w - best_max).abs() < 1e-12,
            "MWST {mwst_w} vs brute force {best_max}"
        );
    }

    #[test]
    fn spanning_constructions_are_deterministic_across_runs() {
        let g = crate::gen::random_gnp(24, 0.3, (1.0, 9.0), 5);
        let a = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        let b = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        assert_eq!(a.graph_edges(), b.graph_edges());
        let mut r1 = ChaCha8Rng::seed_from_u64(21);
        let mut r2 = ChaCha8Rng::seed_from_u64(21);
        let t1 = random_spanning_tree(&g, NodeId(0), &mut r1).unwrap();
        let t2 = random_spanning_tree(&g, NodeId(0), &mut r2).unwrap();
        assert_eq!(t1.graph_edges(), t2.graph_edges());
    }
}
