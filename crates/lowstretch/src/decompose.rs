//! Low-diameter decomposition (`SplitGraph` of Blelloch et al., Figure 4 of
//! the paper).
//!
//! Given an unweighted (multi)graph restricted to a set of *active* edges and
//! a target radius `ρ`, the decomposition partitions the nodes into clusters
//! of hop radius `O(ρ)` such that every edge is cut (has endpoints in
//! different clusters) with probability `O(log n / ρ)`.
//!
//! We implement the random-delay BFS variant that the paper's `SplitGraph`
//! uses: every node draws a random start delay in `[0, ρ)`, all nodes grow
//! BFS balls simultaneously (a ball can start expanding only after its
//! delay), and every node joins the cluster of the first ball that reaches
//! it, breaking ties by the smaller center identifier. In the CONGEST model
//! the same process runs in `O(ρ)` rounds because only the winning traversal
//! needs to proceed over any edge (§7).
//!
//! [`split_graph`] simulates those synchronous rounds one at a time. Round
//! `t` holds the reaches pushed in round `t − 1` plus the seeds of the
//! still-unclaimed nodes whose delay is `t`. Each reached node keeps only its
//! smallest `center << 32 | via edge` key in a node-indexed array, so ties go
//! to the smaller center, then to the smaller edge id (a seed is its own
//! center and comes over no edge). The round's winners then claim their
//! nodes in `(center, node)` order, which is the order the cluster BFS trees
//! list their edges in, and every claim pushes one reach per active edge to
//! an unclaimed neighbor into round `t + 1`.
//!
//! Nothing is sized by `ρ`: the seeds are ordered by `(delay, node)` with a
//! counting sort when `ρ ≤ n` and a comparison sort otherwise, rounds with
//! no reach and no seed are skipped, and the simulation stops once all `n`
//! nodes are claimed. Each node wins once, so at most `n` winners are ever
//! sorted and the time is `O(m + n log n)` for any `ρ`, up to `usize::MAX`.

use flowgraph::{EdgeId, Graph, NodeId};
use rand::Rng;

/// Result of a low-diameter decomposition.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Cluster label of every node (dense in `0..num_clusters`).
    pub cluster_of: Vec<usize>,
    /// Number of clusters.
    pub num_clusters: usize,
    /// BFS-tree edges chosen inside the clusters (each connects a node to the
    /// neighbor through which it was first reached).
    pub tree_edges: Vec<EdgeId>,
    /// The center node of every cluster.
    pub centers: Vec<NodeId>,
    /// Maximum hop radius observed (distance from a node to its center).
    pub max_radius: usize,
    /// Number of active edges whose endpoints ended up in different clusters.
    pub cut_edges: usize,
    /// Number of synchronous rounds the random-delay BFS would take in the
    /// CONGEST model (the largest finish time over all nodes).
    pub rounds: usize,
}

/// Marks a node no ball has claimed yet, and a center with no label yet.
const NONE: u32 = u32::MAX;

/// Marks a node no ball reaches in a round. No key reaches it: centers stay
/// below `NONE`.
const UNREACHED: u64 = u64::MAX;

/// Records that the ball of `center` reaches node `v` over `via_edge` (0
/// for the center's own seed) in the round whose keys are `best`: the
/// smallest key `center << 32 | via_edge` reaching a node wins it, and
/// `reached` lists each node with a key once.
fn reach(best: &mut [u64], reached: &mut Vec<u32>, v: u32, center: u32, via_edge: u32) {
    let b = &mut best[v as usize];
    if *b == UNREACHED {
        reached.push(v);
    }
    *b = (*b).min((u64::from(center) << 32) | u64::from(via_edge));
}

/// Runs the random-delay BFS decomposition on the subgraph formed by the
/// edges for which `active(e)` is true, with target radius `radius`.
///
/// Nodes that are isolated in the active subgraph become singleton clusters.
///
/// # Panics
///
/// Panics if `radius == 0`.
pub fn split_graph(
    g: &Graph,
    active: impl Fn(EdgeId) -> bool,
    radius: usize,
    rng: &mut impl Rng,
) -> Decomposition {
    assert!(radius >= 1, "target radius must be at least 1");
    let n = g.num_nodes();
    // Random start delays in [0, radius).
    let delays: Vec<usize> = (0..n).map(|_| rng.gen_range(0..radius)).collect();
    let seeds = seeds_by_delay(&delays, radius);

    let mut center_of = vec![NONE; n];
    let mut tree_edges = Vec::new();
    let mut max_radius = 0usize;
    let mut claimed = 0usize;
    let mut next_seed = 0usize;
    // The smallest key reaching each node in this round and in the next,
    // and the nodes holding one; an entry is reset when its node is claimed
    // or found claimed.
    let (mut best, mut next_best) = (vec![UNREACHED; n], vec![UNREACHED; n]);
    let (mut reached, mut next_reached): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    // The round's winners as `center << 32 | node`.
    let mut winners: Vec<u64> = Vec::new();
    let mut t = 0usize;
    while claimed < n {
        // An unclaimed node's seed is still ahead, so `next_seed < n`.
        // Pushes come from a claim in round `t`, and every node is claimed
        // by its own delay `≤ radius − 1`, so `t + 1` cannot overflow.
        t = if next_reached.is_empty() {
            delays[seeds[next_seed] as usize]
        } else {
            t + 1
        };
        std::mem::swap(&mut best, &mut next_best);
        std::mem::swap(&mut reached, &mut next_reached);
        while let Some(&v) = seeds.get(next_seed) {
            if delays[v as usize] != t {
                break;
            }
            next_seed += 1;
            if center_of[v as usize] == NONE {
                reach(&mut best, &mut reached, v, v, 0);
            }
        }
        winners.clear();
        for v in reached.drain(..) {
            let key = best[v as usize];
            if center_of[v as usize] == NONE {
                winners.push((key & !u64::from(u32::MAX)) | u64::from(v));
            } else {
                best[v as usize] = UNREACHED;
            }
        }
        winners.sort_unstable();
        for &winner in &winners {
            let (center, v) = ((winner >> 32) as u32, winner as u32);
            let via_edge = best[v as usize] as u32;
            best[v as usize] = UNREACHED;
            center_of[v as usize] = center;
            claimed += 1;
            max_radius = max_radius.max(t - delays[center as usize]);
            // A center's own node is won by its seed, before its ball
            // pushes anything; every other node is won over an edge.
            if center != v {
                tree_edges.push(EdgeId(via_edge));
            }
            for (eid, w) in g.incident(NodeId(v)) {
                if active(eid) && center_of[w.index()] == NONE {
                    reach(&mut next_best, &mut next_reached, w.0, center, eid.0);
                }
            }
        }
    }

    // Densify cluster labels in order of first appearance.
    let mut label_of_center = vec![NONE; n];
    let mut centers = Vec::new();
    let cluster_of: Vec<usize> = center_of
        .iter()
        .map(|&center| {
            let label = &mut label_of_center[center as usize];
            if *label == NONE {
                *label = centers.len() as u32;
                centers.push(NodeId(center));
            }
            *label as usize
        })
        .collect();
    let num_clusters = centers.len();
    let cut_edges = g
        .edges()
        .filter(|(id, e)| active(*id) && cluster_of[e.tail.index()] != cluster_of[e.head.index()])
        .count();

    Decomposition {
        cluster_of,
        num_clusters,
        tree_edges,
        centers,
        max_radius,
        cut_edges,
        // The last round processed is the one that claimed the last node.
        rounds: t,
    }
}

/// The nodes ordered by `(delay, node)`: a counting sort over the delays when
/// there are at most `n` of them, a comparison sort otherwise, so the work
/// never depends on `radius`.
fn seeds_by_delay(delays: &[usize], radius: usize) -> Vec<u32> {
    let n = delays.len();
    if radius > n {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| (delays[v as usize], v));
        return order;
    }
    let mut start = vec![0usize; radius + 1];
    for &d in delays {
        start[d + 1] += 1;
    }
    for d in 0..radius {
        start[d + 1] += start[d];
    }
    let mut order = vec![0u32; n];
    for (v, &d) in delays.iter().enumerate() {
        order[start[d]] = v as u32;
        start[d] += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::gen;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Reference simulation: every reach goes through one priority queue
    /// ordered by `(time, center, node, via edge, has via edge)`, so nodes
    /// are claimed in that global order.
    fn heap_split_graph(
        g: &Graph,
        active: impl Fn(EdgeId) -> bool,
        radius: usize,
        rng: &mut impl Rng,
    ) -> Decomposition {
        let n = g.num_nodes();
        let delays: Vec<usize> = (0..n).map(|_| rng.gen_range(0..radius)).collect();
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Item {
            time: usize,
            center: u32,
            node: u32,
            via_edge: u32,
            has_via: bool,
        }
        let mut heap = std::collections::BinaryHeap::new();
        for (v, &delay) in delays.iter().enumerate() {
            heap.push(std::cmp::Reverse(Item {
                time: delay,
                center: v as u32,
                node: v as u32,
                via_edge: 0,
                has_via: false,
            }));
        }
        let mut owner: Vec<Option<(u32, usize)>> = vec![None; n];
        let mut tree_edges = Vec::new();
        let mut rounds = 0usize;
        while let Some(std::cmp::Reverse(item)) = heap.pop() {
            let v = item.node as usize;
            if owner[v].is_some() {
                continue;
            }
            owner[v] = Some((item.center, item.time));
            rounds = rounds.max(item.time);
            if item.has_via {
                tree_edges.push(EdgeId(item.via_edge));
            }
            for (eid, w) in g.incident(NodeId(v as u32)) {
                if !active(eid) || owner[w.index()].is_some() {
                    continue;
                }
                heap.push(std::cmp::Reverse(Item {
                    time: item.time + 1,
                    center: item.center,
                    node: w.0,
                    via_edge: eid.0,
                    has_via: true,
                }));
            }
        }
        let mut label_of_center = std::collections::HashMap::new();
        let mut centers = Vec::new();
        let mut cluster_of = vec![0usize; n];
        let mut max_radius = 0usize;
        for v in 0..n {
            let (center, time) = owner[v].expect("every node is claimed");
            let next = label_of_center.len();
            let label = *label_of_center.entry(center).or_insert_with(|| {
                centers.push(NodeId(center));
                next
            });
            cluster_of[v] = label;
            max_radius = max_radius.max(time.saturating_sub(delays[center as usize]));
        }
        let num_clusters = centers.len();
        let cut_edges = g
            .edges()
            .filter(|(id, e)| {
                active(*id) && cluster_of[e.tail.index()] != cluster_of[e.head.index()]
            })
            .count();
        Decomposition {
            cluster_of,
            num_clusters,
            tree_edges,
            centers,
            max_radius,
            cut_edges,
            rounds,
        }
    }

    #[test]
    fn rounds_match_the_heap_simulation_field_for_field() {
        let masks: [fn(EdgeId) -> bool; 3] =
            [|_| true, |e| e.index() % 2 == 0, |e| e.index() % 3 != 1];
        for fam in gen::Family::ALL {
            for size in [20, 60, 200] {
                for seed in 0..6 {
                    let g = fam.generate(size, seed);
                    let n = g.num_nodes();
                    let radii = [1, 2, 3, 5, 8, n - 1, n, n + 1, 1_000, 1 << 40, usize::MAX];
                    for (m, mask) in masks.iter().enumerate() {
                        for radius in radii {
                            let mut rng = ChaCha8Rng::seed_from_u64(seed);
                            let got = split_graph(&g, mask, radius, &mut rng);
                            let mut rng = ChaCha8Rng::seed_from_u64(seed);
                            let want = heap_split_graph(&g, mask, radius, &mut rng);
                            let case = format!("{fam} n={n} seed={seed} mask={m} radius={radius}");
                            assert_eq!(got.cluster_of, want.cluster_of, "{case}");
                            assert_eq!(got.num_clusters, want.num_clusters, "{case}");
                            assert_eq!(got.tree_edges, want.tree_edges, "{case}");
                            assert_eq!(got.centers, want.centers, "{case}");
                            assert_eq!(got.max_radius, want.max_radius, "{case}");
                            assert_eq!(got.cut_edges, want.cut_edges, "{case}");
                            assert_eq!(got.rounds, want.rounds, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decomposition_covers_all_nodes() {
        let g = gen::grid(6, 6, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let dec = split_graph(&g, |_| true, 3, &mut rng);
        assert_eq!(dec.cluster_of.len(), 36);
        assert!(dec.num_clusters >= 1);
        assert_eq!(dec.centers.len(), dec.num_clusters);
        // Radius is bounded by the target radius (ball grows for < radius steps
        // after its delay, and delays are < radius).
        assert!(dec.max_radius <= 2 * 3);
    }

    #[test]
    fn tree_edges_span_clusters() {
        let g = gen::grid(6, 6, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let dec = split_graph(&g, |_| true, 4, &mut rng);
        // Each cluster of size k contributes k-1 tree edges.
        assert_eq!(dec.tree_edges.len(), 36 - dec.num_clusters);
        // Tree edges never cross clusters.
        for &e in &dec.tree_edges {
            let edge = g.edge(e);
            assert_eq!(
                dec.cluster_of[edge.tail.index()],
                dec.cluster_of[edge.head.index()]
            );
        }
    }

    #[test]
    fn inactive_edges_are_never_used() {
        let g = gen::grid(4, 4, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Only edges with even ids are active.
        let dec = split_graph(&g, |e| e.index() % 2 == 0, 3, &mut rng);
        for &e in &dec.tree_edges {
            assert_eq!(e.index() % 2, 0, "used an inactive edge");
        }
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let g = gen::path(5, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // No active edges at all.
        let dec = split_graph(&g, |_| false, 2, &mut rng);
        assert_eq!(dec.num_clusters, 5);
        assert!(dec.tree_edges.is_empty());
        assert_eq!(dec.cut_edges, 0);
    }

    #[test]
    fn larger_radius_gives_fewer_clusters_on_average() {
        let g = gen::grid(10, 10, 1.0);
        let mut small_total = 0usize;
        let mut large_total = 0usize;
        for seed in 0..5 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            small_total += split_graph(&g, |_| true, 2, &mut rng).num_clusters;
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            large_total += split_graph(&g, |_| true, 8, &mut rng).num_clusters;
        }
        assert!(large_total < small_total, "{large_total} !< {small_total}");
    }

    #[test]
    fn rounds_bounded_by_twice_radius() {
        let g = gen::grid(8, 8, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dec = split_graph(&g, |_| true, 5, &mut rng);
        assert!(dec.rounds <= 2 * 5 + 1);
    }
}
