//! The layout contract of `RootedTree` against a simple reference, over
//! random parent arrays.
//!
//! The congestion approximator lays each tree's nodes out in
//! `RootedTree::preorder` order (`capprox`'s `SlotTree`), so answers keep
//! their bits only while the preorder stays the BFS that visits each node's
//! children in ascending id. Each case draws a random recursive tree (every
//! node hangs below a uniformly random earlier node of a random
//! permutation, whose first node is the root) on up to a few hundred nodes
//! and checks, against per-node `Vec`s and a `VecDeque` BFS:
//!
//! * `children(v)` is ascending and lists exactly the nodes whose parent is
//!   `v`;
//! * `preorder()` is that BFS, and depths follow the parent chain;
//! * `parent` and `parent_edge` return what the tree was built from;
//! * `spanning_from_edges` over the tree's edges equals `from_parents` of
//!   its own parent arrays;
//! * corrupted parent arrays (cycles, extra roots, out-of-range parents, a
//!   root with a parent) get the reference's error.

use std::collections::VecDeque;

use flowgraph::{EdgeId, Graph, GraphError, NodeId, RootedTree};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 300;
const MAX_NODES: usize = 300;

/// A random recursive tree on `n` nodes with a random root.
fn random_parents(n: usize, rng: &mut ChaCha8Rng) -> (NodeId, Vec<Option<NodeId>>) {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    let mut parent = vec![None; n];
    for k in 1..n {
        parent[perm[k] as usize] = Some(NodeId(perm[rng.gen_range(0..k)]));
    }
    (NodeId(perm[0]), parent)
}

/// Per-node child lists in ascending id and the BFS that visits them in
/// that order.
fn reference_layout(root: NodeId, parent: &[Option<NodeId>]) -> (Vec<Vec<NodeId>>, Vec<NodeId>) {
    let mut children = vec![Vec::new(); parent.len()];
    for (v, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[p.index()].push(NodeId(v as u32));
        }
    }
    let mut order = Vec::new();
    let mut queue = VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        queue.extend(children[u.index()].iter().copied());
    }
    (children, order)
}

/// The errors `from_parents` gives, in the order it checks for them: a
/// root or parent out of range, a parentless non-root node, a root with a
/// parent, then nodes the root does not reach (cycles).
fn reference_error(root: NodeId, parent: &[Option<NodeId>]) -> Option<GraphError> {
    let n = parent.len();
    if root.index() >= n {
        return Some(GraphError::NodeOutOfRange {
            node: root.index(),
            num_nodes: n,
        });
    }
    for (v, p) in parent.iter().enumerate() {
        match p {
            Some(p) if p.index() >= n => {
                return Some(GraphError::NodeOutOfRange {
                    node: p.index(),
                    num_nodes: n,
                })
            }
            None if v != root.index() => return Some(GraphError::NotConnected),
            _ => {}
        }
    }
    if parent[root.index()].is_some() {
        return Some(GraphError::NotConnected);
    }
    let (_, order) = reference_layout(root, parent);
    (order.len() != n).then_some(GraphError::NotConnected)
}

/// A graph holding the tree's edges, each in a random orientation, in a
/// random id order and interleaved with non-tree edges, plus each node's
/// parent edge id.
fn graph_over(parent: &[Option<NodeId>], rng: &mut ChaCha8Rng) -> (Graph, Vec<Option<EdgeId>>) {
    let n = parent.len();
    let mut nodes: Vec<usize> = (0..n).filter(|&v| parent[v].is_some()).collect();
    nodes.shuffle(rng);
    let mut g = Graph::with_nodes(n);
    let mut parent_edge = vec![None; n];
    for v in nodes {
        let p = parent[v].expect("non-root nodes have parents");
        if n > 2 && rng.gen_bool(0.3) {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a != b {
                g.add_edge(NodeId(a), NodeId(b), 1.0).unwrap();
            }
        }
        let (tail, head) = if rng.gen_bool(0.5) {
            (NodeId(v as u32), p)
        } else {
            (p, NodeId(v as u32))
        };
        parent_edge[v] = Some(g.add_edge(tail, head, 1.0).unwrap());
    }
    (g, parent_edge)
}

#[test]
fn columns_match_the_reference_layout() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let n = rng.gen_range(1..=MAX_NODES);
        let (root, parent) = random_parents(n, &mut rng);
        let (g, parent_edge) = graph_over(&parent, &mut rng);
        let t = RootedTree::from_parents(root, parent.clone(), parent_edge.clone())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let (children, order) = reference_layout(root, &parent);

        assert_eq!(t.num_nodes(), n, "case {case}");
        assert_eq!(t.root(), root, "case {case}");
        assert_eq!(t.preorder(), &order[..], "case {case}: preorder");
        let mut max_depth = 0;
        for v in (0..n as u32).map(NodeId) {
            let kids = t.children(v);
            assert!(
                kids.windows(2).all(|w| w[0] < w[1]),
                "case {case}: children of {v:?} not ascending"
            );
            assert_eq!(kids, &children[v.index()][..], "case {case}: {v:?}");
            assert_eq!(t.parent(v), parent[v.index()], "case {case}: {v:?}");
            assert_eq!(t.parent_edge(v), parent_edge[v.index()], "case {case}");
            let depth = match t.parent(v) {
                Some(p) => t.depth(p) + 1,
                None => 0,
            };
            assert_eq!(t.depth(v), depth, "case {case}: depth of {v:?}");
            max_depth = max_depth.max(depth);
        }
        assert_eq!(t.max_depth(), max_depth, "case {case}");

        // The same tree from its unoriented edge set: shuffled, so the BFS
        // over it meets each node's edges in another order.
        let mut edges: Vec<EdgeId> = parent_edge.iter().flatten().copied().collect();
        edges.shuffle(&mut rng);
        let s = RootedTree::spanning_from_edges(&g, root, &edges)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(s, t, "case {case}: spanning_from_edges");
        let (p, pe) = (0..n as u32)
            .map(|v| (s.parent(NodeId(v)), s.parent_edge(NodeId(v))))
            .unzip();
        assert_eq!(RootedTree::from_parents(root, p, pe), Ok(s), "case {case}");
    }
}

#[test]
fn corrupt_parent_arrays_get_the_reference_errors() {
    let (mut out_of_range, mut not_connected) = (0, 0);
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let n = rng.gen_range(1..=MAX_NODES);
        let (mut root, mut parent) = random_parents(n, &mut rng);
        for _ in 0..rng.gen_range(1..=3) {
            let v = rng.gen_range(0..n);
            match rng.gen_range(0..5) {
                // A cycle through `v` and one of its descendants (or itself).
                0 => {
                    let mut d = v;
                    for _ in 0..rng.gen_range(0..4) {
                        match (0..n).find(|&c| parent[c] == Some(NodeId(d as u32))) {
                            Some(c) => d = c,
                            None => break,
                        }
                    }
                    parent[v] = Some(NodeId(d as u32));
                }
                // A second parentless node.
                1 => parent[v] = None,
                2 => parent[v] = Some(NodeId((n + rng.gen_range(0..3usize)) as u32)),
                3 => {
                    if let Some(p) = parent.get_mut(root.index()) {
                        *p = Some(NodeId(v as u32));
                    }
                }
                _ => root = NodeId(rng.gen_range(0..n as u32 + 2)),
            }
        }
        let expected = reference_error(root, &parent);
        let got = RootedTree::from_parents(root, parent.clone(), vec![None; n]).err();
        assert_eq!(
            got, expected,
            "case {case}: root {root:?}, parents {parent:?}"
        );
        match expected {
            Some(GraphError::NodeOutOfRange { .. }) => out_of_range += 1,
            Some(_) => not_connected += 1,
            None => {}
        }
    }
    // Both refusals are exercised, not only the first check.
    assert!(
        out_of_range > 10 && not_connected > 10,
        "{out_of_range}, {not_connected}"
    );
}
