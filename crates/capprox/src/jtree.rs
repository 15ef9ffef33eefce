//! Madry's j-tree construction (paper §4 and §8.3).
//!
//! Given a capacitated spanning tree `T` of `G` and a target `j`, the
//! construction removes the `≤ j` most loaded tree edges (`F`), turning
//! `T \ F` into a forest, declares the endpoints of removed edges *primary
//! portals*, prunes the forest down to its skeleton, adds *secondary portals*
//! at skeleton branch points, removes the lightest edge of every portal-free
//! skeleton path (`D`, replaced by a virtual edge between the path's portal
//! endpoints), and finally moves every non-forest edge of `G` that connects
//! different forest components to the portals of those components. The
//! result is an `O(j)`-tree: a forest in which every component contains
//! exactly one portal, plus a *core* multigraph on the portals
//! (cf. Figure 1 / Figure 5 of the paper).
//!
//! The recursion of Theorem 8.10 (sparsify → low-stretch tree → j-tree →
//! recurse on the core) is [`crate::hierarchy`]'s
//! [`build_hierarchical_ensemble`](crate::build_hierarchical_ensemble). It
//! extracts each level with [`build_jtree_top_loaded`], which picks `F` as
//! exactly the `j` most loaded tree edges; experiment E7 tabulates the same
//! rule.

use flowgraph::{EdgeId, Graph, NodeId};

use crate::racke::CapacitatedTree;

/// Where a core edge comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEdgeOrigin {
    /// A graph edge between two different forest components; in the
    /// distributed representation communication over this core edge uses the
    /// physical edge (invariant of §3: "every core edge is also a graph
    /// edge").
    GraphEdge(EdgeId),
    /// A virtual edge replacing the minimum-capacity tree edge deleted from a
    /// portal-free skeleton path; the payload is the node whose parent edge
    /// was deleted.
    PathReplacement(NodeId),
}

/// A j-tree: a forest over the nodes of `G` (every component containing one
/// portal) plus a core multigraph on the components.
#[derive(Debug, Clone)]
pub struct JTree {
    /// Component label of every node (dense in `0..num_components`).
    pub component_of: Vec<usize>,
    /// The unique portal node of every component.
    pub portal_of_component: Vec<NodeId>,
    /// Nodes whose (tree) parent edge was removed into `F` (highly loaded).
    pub removed_high_load: Vec<NodeId>,
    /// Nodes whose (tree) parent edge was removed from a skeleton path (`D`).
    pub removed_path_edges: Vec<NodeId>,
    /// The core multigraph: node `i` is component `i`, edges carry the
    /// capacities prescribed by the construction.
    pub core: Graph,
    /// Origin of every core edge.
    pub core_origin: Vec<CoreEdgeOrigin>,
    /// The target `j` the construction was invoked with.
    pub j_target: usize,
}

impl JTree {
    /// Number of forest components (= number of portals).
    pub fn num_components(&self) -> usize {
        self.portal_of_component.len()
    }

    /// Number of portals (identical to the component count; named for
    /// readability in the experiments).
    pub fn num_portals(&self) -> usize {
        self.portal_of_component.len()
    }

    /// Returns `true` if node `v` is a portal.
    pub fn is_portal(&self, v: NodeId) -> bool {
        self.portal_of_component[self.component_of[v.index()]] == v
    }
}

/// Builds a j-tree from a capacitated spanning tree of `g` (one level of
/// Madry's construction, §8.3), with `F` chosen as *exactly* the
/// `min(j, n−1)` most loaded tree edges.
///
/// Section 4's geometric load classes can legitimately select an empty `F`
/// (when the heaviest class is already large), which collapses the whole
/// graph into a single component — fatal for the recursion of Theorem 8.10
/// that needs every level to shrink by `≈ β`, no more, no less. With
/// `|F| = j` the core has between `j + 1` and `4j + 1` portals, giving the
/// predictable per-level geometry the recursion is built on.
///
/// # Panics
///
/// Panics if `j == 0`.
pub fn build_jtree_top_loaded(g: &Graph, tree: &CapacitatedTree, j: usize) -> JTree {
    assert!(j >= 1, "j must be at least 1");
    let removed_high_load = select_top_loaded_edges(tree, j);
    let n = g.num_nodes();
    let root = tree.tree.root();

    let mut removed = vec![false; n];
    for &v in &removed_high_load {
        removed[v.index()] = true;
    }

    // Step 2: components of T \ F.
    let comp_tf = components_of_forest(tree, &removed);

    // Step 3: primary portals = endpoints of removed edges.
    let mut is_portal = vec![false; n];
    for &v in &removed_high_load {
        is_portal[v.index()] = true;
        if let Some(p) = tree.tree.parent(v) {
            is_portal[p.index()] = true;
        }
    }
    // The global root always acts as a portal of its component so that every
    // component ends up with exactly one portal even when F is empty.
    is_portal[root.index()] = true;

    // Step 4: skeleton of T \ F — iteratively strip degree-1 non-portals.
    // Forest adjacency (tree edges not in F) as a flat CSR over the parent
    // links, using the child id as the link id.
    let adj = flowgraph::Csr::from_links(
        n,
        (0..n as u32)
            .map(NodeId)
            .filter_map(|v| match tree.tree.parent(v) {
                Some(p) if !removed[v.index()] => Some((EdgeId(v.0), v, p)),
                _ => None,
            }),
    );
    let mut degree: Vec<usize> = g.nodes().map(|v| adj.degree(v)).collect();
    let mut in_skeleton = vec![true; n];
    let mut queue: std::collections::VecDeque<NodeId> = g
        .nodes()
        .filter(|v| degree[v.index()] <= 1 && !is_portal[v.index()])
        .collect();
    while let Some(v) = queue.pop_front() {
        if !in_skeleton[v.index()] || is_portal[v.index()] {
            continue;
        }
        in_skeleton[v.index()] = false;
        for (_, w) in adj.incident(v) {
            if in_skeleton[w.index()] {
                degree[w.index()] -= 1;
                if degree[w.index()] <= 1 && !is_portal[w.index()] {
                    queue.push_back(w);
                }
            }
        }
    }

    // Step 5: secondary portals = skeleton nodes of degree > 2.
    for v in g.nodes() {
        if in_skeleton[v.index()] && degree[v.index()] > 2 {
            is_portal[v.index()] = true;
        }
    }

    // Step 6: on every maximal portal-free skeleton path, delete the tree
    // edge of minimum capacity (the set D) and remember a virtual
    // portal-to-portal edge of the same capacity.
    let mut removed_path_edges = Vec::new();
    let mut d_virtual: Vec<(NodeId, f64)> = Vec::new(); // (node whose parent edge was cut, capacity)
    {
        // Walk skeleton paths: consider skeleton tree edges (v, parent(v))
        // with both endpoints in the skeleton and not removed; group them into
        // maximal chains whose inner nodes are non-portal degree-2 skeleton
        // nodes.
        let mut visited = vec![false; n];
        for start in g.nodes() {
            // Start from portal skeleton nodes and walk each incident chain.
            if !in_skeleton[start.index()] || !is_portal[start.index()] {
                continue;
            }
            for (_, nb) in adj.incident(start) {
                if !in_skeleton[nb.index()] || visited[nb.index()] && is_portal[nb.index()] {
                    continue;
                }
                // Walk the chain start - nb - ... until the next portal.
                let mut prev = start;
                let mut cur = nb;
                let mut chain_min: Option<(NodeId, f64)> = None;
                let mut chain_nodes = Vec::new();
                loop {
                    // Tree edge between prev and cur: the child is whichever
                    // has the other as parent.
                    let (child, _parent) = if tree.tree.parent(cur) == Some(prev) {
                        (cur, prev)
                    } else {
                        (prev, cur)
                    };
                    if !removed[child.index()] {
                        let cap = tree
                            .tree
                            .parent_edge(child)
                            .map(|e| g.capacity(e))
                            .unwrap_or(f64::INFINITY);
                        if chain_min.map(|(_, c)| cap < c).unwrap_or(true) {
                            chain_min = Some((child, cap));
                        }
                    }
                    if is_portal[cur.index()] {
                        break;
                    }
                    chain_nodes.push(cur);
                    // Continue to the next skeleton neighbor that is not prev.
                    let next = adj
                        .incident(cur)
                        .iter()
                        .map(|(_, w)| w)
                        .find(|&w| w != prev && in_skeleton[w.index()]);
                    match next {
                        Some(w) => {
                            prev = cur;
                            cur = w;
                        }
                        None => break,
                    }
                }
                // Only process each chain once: mark inner nodes visited and
                // skip when the chain was already walked from the other side.
                if chain_nodes.iter().any(|v| visited[v.index()]) {
                    continue;
                }
                if chain_nodes.is_empty() && start.index() > cur.index() {
                    // A direct portal-portal skeleton edge: process from the
                    // smaller endpoint only.
                    continue;
                }
                for v in &chain_nodes {
                    visited[v.index()] = true;
                }
                if let Some((child, cap)) = chain_min {
                    removed_path_edges.push(child);
                    d_virtual.push((child, cap));
                }
            }
        }
    }
    for &v in &removed_path_edges {
        removed[v.index()] = true;
    }

    // Step 7: components of T \ (F ∪ D); each contains exactly one portal.
    let component_of = components_of_forest(tree, &removed);
    let num_components = component_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut portal_of_component = vec![None; num_components];
    for v in g.nodes() {
        if is_portal[v.index()] {
            let c = component_of[v.index()];
            // Prefer the first portal encountered; components produced by the
            // construction contain exactly one, which tests assert.
            if portal_of_component[c].is_none() {
                portal_of_component[c] = Some(v);
            }
        }
    }
    let portal_of_component: Vec<NodeId> = portal_of_component
        .into_iter()
        .enumerate()
        .map(|(c, p)| p.unwrap_or_else(|| panic!("component {c} has no portal")))
        .collect();

    // Step 8: the core — virtual D edges plus graph edges between different
    // components of T \ F, both attached to the portals of their components.
    let mut core = Graph::with_nodes(num_components);
    let mut core_origin = Vec::new();
    for (child, cap) in d_virtual {
        let parent = tree.tree.parent(child).expect("D edges are tree edges");
        let cu = component_of[child.index()];
        let cv = component_of[parent.index()];
        if cu != cv {
            core.add_edge(NodeId(cu as u32), NodeId(cv as u32), cap)
                .expect("valid core edge");
            core_origin.push(CoreEdgeOrigin::PathReplacement(child));
        }
    }
    for (id, e) in g.edges() {
        let cu = comp_tf[e.tail.index()];
        let cv = comp_tf[e.head.index()];
        if cu == cv {
            continue;
        }
        let ju = component_of[e.tail.index()];
        let jv = component_of[e.head.index()];
        if ju == jv {
            continue;
        }
        core.add_edge(NodeId(ju as u32), NodeId(jv as u32), e.capacity)
            .expect("valid core edge");
        core_origin.push(CoreEdgeOrigin::GraphEdge(id));
    }

    JTree {
        component_of,
        portal_of_component,
        removed_high_load,
        removed_path_edges,
        core,
        core_origin,
        j_target: j,
    }
}

/// Selects exactly the `min(j, n−1)` most loaded tree edges (the `F` rule of
/// [`build_jtree_top_loaded`]); ties broken by node id for determinism.
fn select_top_loaded_edges(tree: &CapacitatedTree, j: usize) -> Vec<NodeId> {
    let n = tree.tree.num_nodes();
    let mut candidates: Vec<(f64, NodeId)> = (0..n)
        .map(|v| NodeId(v as u32))
        .filter(|&v| tree.tree.parent(v).is_some())
        .map(|v| (tree.rload[v.index()], v))
        .collect();
    candidates.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    candidates.truncate(j);
    candidates.into_iter().map(|(_, v)| v).collect()
}

/// Labels the components of the forest obtained from the tree by removing the
/// parent edges of the flagged nodes.
fn components_of_forest(tree: &CapacitatedTree, removed: &[bool]) -> Vec<usize> {
    let n = tree.tree.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    for &v in tree.tree.preorder() {
        if tree.tree.parent(v).is_none() || removed[v.index()] {
            label[v.index()] = next;
            next += 1;
        } else {
            let p = tree.tree.parent(v).expect("non-root has parent");
            label[v.index()] = label[p.index()];
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::racke::{build_tree_ensemble, RackeConfig};
    use flowgraph::gen;

    fn capacitated_tree(g: &Graph, seed: u64) -> CapacitatedTree {
        let ensemble =
            build_tree_ensemble(g, &RackeConfig::default().with_num_trees(1).with_seed(seed))
                .unwrap();
        ensemble.trees.into_iter().next().unwrap()
    }

    #[test]
    fn portal_count_is_bounded() {
        let g = gen::grid(8, 8, 1.0);
        let tree = capacitated_tree(&g, 1);
        for j in [2usize, 4, 8, 16] {
            let jt = build_jtree_top_loaded(&g, &tree, j);
            assert!(
                jt.num_portals() <= 4 * j + 1,
                "j = {j}: {} portals exceeds 4j + 1",
                jt.num_portals()
            );
        }
    }

    #[test]
    fn every_component_has_exactly_one_portal() {
        let g = gen::random_gnp(50, 0.15, (1.0, 5.0), 3);
        let tree = capacitated_tree(&g, 2);
        let jt = build_jtree_top_loaded(&g, &tree, 6);
        // portal_of_component is total by construction (panics otherwise);
        // additionally check that no component contains two portals that are
        // *primary* (endpoints of removed edges map to distinct components
        // only when the construction is consistent).
        for (c, &p) in jt.portal_of_component.iter().enumerate() {
            assert_eq!(jt.component_of[p.index()], c);
            assert!(jt.is_portal(p));
        }
        assert_eq!(
            jt.component_of.iter().copied().max().unwrap() + 1,
            jt.num_components()
        );
    }

    #[test]
    fn core_edges_connect_distinct_components() {
        let g = gen::grid(6, 6, 1.0);
        let tree = capacitated_tree(&g, 4);
        let jt = build_jtree_top_loaded(&g, &tree, 5);
        assert_eq!(jt.core.num_nodes(), jt.num_components());
        assert_eq!(jt.core.num_edges(), jt.core_origin.len());
        for (_, e) in jt.core.edges() {
            assert_ne!(e.tail, e.head);
        }
    }

    #[test]
    fn trivial_j_tree_when_j_covers_everything() {
        let g = gen::path(10, 1.0);
        let tree = capacitated_tree(&g, 5);
        // With j >= n-1 every tree edge may be removed; the construction must
        // still produce a consistent structure.
        let jt = build_jtree_top_loaded(&g, &tree, 20);
        assert!(jt.num_portals() >= 1);
        assert!(jt.num_portals() <= 10);
    }

    #[test]
    fn removed_edges_have_high_load() {
        let g = gen::barbell(6, 3, 1.0, 1.0);
        let tree = capacitated_tree(&g, 6);
        let jt = build_jtree_top_loaded(&g, &tree, 3);
        assert_eq!(jt.removed_high_load.len(), 3);
        let mut removed = vec![false; g.num_nodes()];
        for v in &jt.removed_high_load {
            removed[v.index()] = true;
        }
        let min_removed = jt
            .removed_high_load
            .iter()
            .map(|v| tree.rload[v.index()])
            .fold(f64::INFINITY, f64::min);
        let max_kept = g
            .nodes()
            .filter(|v| tree.tree.parent(*v).is_some() && !removed[v.index()])
            .map(|v| tree.rload[v.index()])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            min_removed >= max_kept,
            "a removed edge (load {min_removed}) is lighter than a kept one ({max_kept})"
        );
    }
}
