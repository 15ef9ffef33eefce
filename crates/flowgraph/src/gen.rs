//! Workload generators.
//!
//! The experiment harness (`dmf-bench`, E1–E9) sweeps over several graph
//! families chosen to stress different parameter regimes of the paper's
//! bound `(D + √n)·n^{o(1)}`:
//!
//! * [`path`] / [`cycle`] — diameter `Θ(n)`, the `D` term dominates;
//! * [`grid`] — diameter `Θ(√n)`, balanced regime;
//! * [`random_gnp`] / [`random_regular`] — expanders, diameter `O(log n)`,
//!   the `√n` term dominates;
//! * [`complete`] — dense baseline for sparsification (E6);
//! * [`barbell`] — two cliques joined by a path, small min cuts;
//! * [`barabasi_albert`] — heavy-tailed degrees;
//! * [`layered_st`] — a classic max-flow stress family with many disjoint
//!   augmenting paths.
//!
//! All generators take capacities (or a capacity range) explicitly so the
//! same topology can be re-used across experiments.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::graph::{Graph, NodeId};

/// Deterministic RNG used by the randomized generators, seeded explicitly so
/// experiments are reproducible.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Path graph `0 - 1 - … - (n-1)` with uniform capacity.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize, capacity: f64) -> Graph {
    assert!(n > 0, "path requires at least one node");
    let mut g = Graph::with_nodes(n);
    for i in 0..n.saturating_sub(1) {
        g.add_edge(NodeId(i as u32), NodeId((i + 1) as u32), capacity)
            .expect("valid path edge");
    }
    g
}

/// Cycle graph with uniform capacity.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize, capacity: f64) -> Graph {
    assert!(n >= 3, "cycle requires at least three nodes");
    let mut g = path(n, capacity);
    g.add_edge(NodeId((n - 1) as u32), NodeId(0), capacity)
        .expect("valid cycle edge");
    g
}

/// `rows × cols` grid with uniform capacity.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub fn grid(rows: usize, cols: usize, capacity: f64) -> Graph {
    assert!(rows > 0 && cols > 0, "grid requires positive dimensions");
    let mut g = Graph::with_nodes(rows * cols);
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1), capacity)
                    .expect("valid grid edge");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c), capacity)
                    .expect("valid grid edge");
            }
        }
    }
    g
}

/// Complete graph on `n` nodes with uniform capacity.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize, capacity: f64) -> Graph {
    assert!(n > 0, "complete graph requires at least one node");
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId(i as u32), NodeId(j as u32), capacity)
                .expect("valid complete-graph edge");
        }
    }
    g
}

/// Star graph: node 0 is the hub.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize, capacity: f64) -> Graph {
    assert!(n > 0, "star requires at least one node");
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i as u32), capacity)
            .expect("valid star edge");
    }
    g
}

/// Erdős–Rényi `G(n, p)` random graph with capacities drawn uniformly from
/// `cap_range`, re-sampled until connected (a spanning path is added as a
/// fallback after 50 failed attempts so the function always terminates).
///
/// # Panics
///
/// Panics if `n == 0`, `p` is not in `[0, 1]` or the capacity range is empty
/// or non-positive.
pub fn random_gnp(n: usize, p: f64, cap_range: (f64, f64), seed: u64) -> Graph {
    assert!(n > 0, "random graph requires at least one node");
    assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
    assert!(
        cap_range.0 > 0.0 && cap_range.1 >= cap_range.0,
        "capacity range must be positive and non-empty"
    );
    let mut rng = rng(seed);
    for attempt in 0..50 {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(p) {
                    let c = rng.gen_range(cap_range.0..=cap_range.1);
                    g.add_edge(NodeId(i as u32), NodeId(j as u32), c)
                        .expect("valid random edge");
                }
            }
        }
        if g.is_connected() {
            return g;
        }
        let _ = attempt;
    }
    // Fallback: connect with a path so callers always get a connected graph.
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                let c = rng.gen_range(cap_range.0..=cap_range.1);
                g.add_edge(NodeId(i as u32), NodeId(j as u32), c)
                    .expect("valid random edge");
            }
        }
    }
    for i in 0..n.saturating_sub(1) {
        let c = rng.gen_range(cap_range.0..=cap_range.1);
        g.add_edge(NodeId(i as u32), NodeId((i + 1) as u32), c)
            .expect("valid fallback path edge");
    }
    g
}

/// Random `d`-regular-ish multigraph built from `d/2` random perfect
/// matchings of a random permutation ring (a standard cheap expander
/// construction). Parallel edges may occur; self-loops are skipped.
///
/// # Panics
///
/// Panics if `n < 3` or `d < 2`.
pub fn random_regular(n: usize, d: usize, capacity: f64, seed: u64) -> Graph {
    assert!(n >= 3, "random regular graph requires at least three nodes");
    assert!(d >= 2, "degree must be at least two");
    let mut rng = rng(seed);
    let mut g = Graph::with_nodes(n);
    // Base cycle guarantees connectivity.
    for i in 0..n {
        g.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32), capacity)
            .expect("valid ring edge");
    }
    // Additional random permutations add expansion.
    let extra = d.saturating_sub(2).div_ceil(2);
    for _ in 0..extra {
        let mut perm: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        perm.shuffle(&mut rng);
        for (u, &v) in perm.iter().enumerate() {
            if u != v {
                g.add_edge(NodeId(u as u32), NodeId(v as u32), capacity)
                    .expect("valid permutation edge");
            }
        }
    }
    g
}

/// Barbell graph: two cliques of size `k` joined by a path of `bridge_len`
/// edges with capacity `bridge_capacity`. The min cut between the cliques is
/// the bridge, which makes the max-flow value easy to reason about.
///
/// # Panics
///
/// Panics if `k < 2` or `bridge_len == 0`.
pub fn barbell(k: usize, bridge_len: usize, clique_capacity: f64, bridge_capacity: f64) -> Graph {
    assert!(k >= 2, "cliques need at least two nodes");
    assert!(bridge_len >= 1, "bridge needs at least one edge");
    let n = 2 * k + bridge_len.saturating_sub(1);
    let mut g = Graph::with_nodes(n);
    let add_clique = |g: &mut Graph, offset: usize| {
        for i in 0..k {
            for j in (i + 1)..k {
                g.add_edge(
                    NodeId((offset + i) as u32),
                    NodeId((offset + j) as u32),
                    clique_capacity,
                )
                .expect("valid clique edge");
            }
        }
    };
    add_clique(&mut g, 0);
    add_clique(&mut g, k + bridge_len.saturating_sub(1));
    // Bridge from node k-1 (last of clique A) to node k+bridge_len-1 (first of clique B).
    let mut prev = k - 1;
    for step in 0..bridge_len {
        let next = if step + 1 == bridge_len {
            k + bridge_len - 1
        } else {
            k + step
        };
        g.add_edge(NodeId(prev as u32), NodeId(next as u32), bridge_capacity)
            .expect("valid bridge edge");
        prev = next;
    }
    g
}

/// Barabási–Albert preferential-attachment graph: each new node attaches to
/// `attach` existing nodes with probability proportional to their degree.
///
/// # Panics
///
/// Panics if `n <= attach` or `attach == 0`.
pub fn barabasi_albert(n: usize, attach: usize, cap_range: (f64, f64), seed: u64) -> Graph {
    assert!(attach >= 1, "attachment count must be positive");
    assert!(n > attach, "graph must be larger than the attachment count");
    let mut rng = rng(seed);
    let mut g = Graph::with_nodes(n);
    // Start from a small clique of `attach + 1` nodes.
    for i in 0..=attach {
        for j in (i + 1)..=attach {
            let c = rng.gen_range(cap_range.0..=cap_range.1);
            g.add_edge(NodeId(i as u32), NodeId(j as u32), c)
                .expect("valid seed clique edge");
        }
    }
    // Maintain a repeated-endpoint list for preferential attachment.
    let mut endpoints: Vec<usize> = Vec::new();
    for (_, e) in g.edges() {
        endpoints.push(e.tail.index());
        endpoints.push(e.head.index());
    }
    for v in (attach + 1)..n {
        let mut targets = std::collections::HashSet::new();
        let mut guard = 0;
        while targets.len() < attach && guard < 50 * attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v {
                targets.insert(t);
            }
            guard += 1;
        }
        // Ensure connectivity even if sampling failed to find enough targets.
        if targets.is_empty() {
            targets.insert(v - 1);
        }
        for &t in &targets {
            let c = rng.gen_range(cap_range.0..=cap_range.1);
            g.add_edge(NodeId(v as u32), NodeId(t as u32), c)
                .expect("valid preferential-attachment edge");
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    g
}

/// Layered s–t flow network: `layers` layers of `width` nodes each, the
/// source (node 0) connects to the first layer, consecutive layers are
/// completely bipartitely connected, and the last layer connects to the sink
/// (last node). A classic max-flow stress family with a known structure of
/// many short disjoint paths.
///
/// # Panics
///
/// Panics if `layers == 0` or `width == 0`.
pub fn layered_st(layers: usize, width: usize, cap_range: (f64, f64), seed: u64) -> Graph {
    assert!(
        layers >= 1 && width >= 1,
        "layers and width must be positive"
    );
    let mut rng = rng(seed);
    let n = 2 + layers * width;
    let mut g = Graph::with_nodes(n);
    let s = NodeId(0);
    let t = NodeId((n - 1) as u32);
    let node = |layer: usize, i: usize| NodeId((1 + layer * width + i) as u32);
    for i in 0..width {
        let c = rng.gen_range(cap_range.0..=cap_range.1);
        g.add_edge(s, node(0, i), c).expect("valid source edge");
    }
    for l in 0..layers.saturating_sub(1) {
        for i in 0..width {
            for j in 0..width {
                let c = rng.gen_range(cap_range.0..=cap_range.1);
                g.add_edge(node(l, i), node(l + 1, j), c)
                    .expect("valid layer edge");
            }
        }
    }
    for i in 0..width {
        let c = rng.gen_range(cap_range.0..=cap_range.1);
        g.add_edge(node(layers - 1, i), t, c)
            .expect("valid sink edge");
    }
    g
}

/// Datacenter-like two-tier leaf–spine fabric ("fat-tree"): every leaf switch
/// connects to every spine with capacity `fabric_capacity`, and each leaf
/// aggregates `hosts_per_leaf` hosts over `host_capacity` uplinks.
///
/// Node layout: hosts come first, rack by rack (`leaves * hosts_per_leaf`
/// nodes), then the leaf switches, then the spines. Hence node 0 is a host in
/// the first rack and the natural cross-fabric terminals are
/// `(NodeId(0), NodeId(leaves * hosts_per_leaf - 1))` — a host in the last
/// rack — which is what [`fat_tree_terminals`] returns.
///
/// # Panics
///
/// Panics if any dimension is zero or a capacity is not strictly positive.
pub fn fat_tree(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    host_capacity: f64,
    fabric_capacity: f64,
) -> Graph {
    assert!(
        leaves >= 2 && spines >= 1 && hosts_per_leaf >= 1,
        "fat tree requires at least two leaves, one spine and one host per leaf"
    );
    assert!(
        host_capacity > 0.0 && fabric_capacity > 0.0,
        "fat tree capacities must be strictly positive"
    );
    let hosts = leaves * hosts_per_leaf;
    let mut g = Graph::with_nodes(hosts + leaves + spines);
    let host = |rack: usize, i: usize| NodeId((rack * hosts_per_leaf + i) as u32);
    let leaf = |i: usize| NodeId((hosts + i) as u32);
    let spine = |i: usize| NodeId((hosts + leaves + i) as u32);
    for l in 0..leaves {
        for s in 0..spines {
            g.add_edge(leaf(l), spine(s), fabric_capacity)
                .expect("valid fabric edge");
        }
        for h in 0..hosts_per_leaf {
            g.add_edge(host(l, h), leaf(l), host_capacity)
                .expect("valid host uplink");
        }
    }
    g
}

/// The natural cross-fabric terminal pair for [`fat_tree`]: the first host of
/// the first rack and the last host of the last rack.
pub fn fat_tree_terminals(leaves: usize, hosts_per_leaf: usize) -> (NodeId, NodeId) {
    (NodeId(0), NodeId((leaves * hosts_per_leaf - 1) as u32))
}

/// The source/sink pair conventionally used with each generated family: node
/// 0 and the last node (which the generators place "far apart").
pub fn default_terminals(g: &Graph) -> (NodeId, NodeId) {
    (NodeId(0), NodeId((g.num_nodes().saturating_sub(1)) as u32))
}

/// A named graph family, used by the experiment harness to sweep over
/// workloads uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Path graph (diameter Θ(n)).
    Path,
    /// Cycle graph.
    Cycle,
    /// Square grid (diameter Θ(√n)).
    Grid,
    /// Erdős–Rényi with p chosen for average degree ≈ 8.
    Random,
    /// Random regular-ish expander with degree 6.
    Expander,
    /// Two cliques joined by a bridge.
    Barbell,
    /// Preferential attachment.
    PowerLaw,
    /// Layered s–t network.
    Layered,
}

impl Family {
    /// All families, in the order used by the experiment tables.
    pub const ALL: [Family; 8] = [
        Family::Path,
        Family::Cycle,
        Family::Grid,
        Family::Random,
        Family::Expander,
        Family::Barbell,
        Family::PowerLaw,
        Family::Layered,
    ];

    /// Short machine-readable name used in table rows.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Grid => "grid",
            Family::Random => "random",
            Family::Expander => "expander",
            Family::Barbell => "barbell",
            Family::PowerLaw => "powerlaw",
            Family::Layered => "layered",
        }
    }

    /// Generates an instance of the family with roughly `n` nodes.
    ///
    /// The exact node count may differ slightly (e.g. the grid rounds to a
    /// square); capacities lie in `[1, 10]` for the randomized families and
    /// are 1 for the deterministic ones unless noted.
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        let n = n.max(4);
        match self {
            Family::Path => path(n, 1.0),
            Family::Cycle => cycle(n, 1.0),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                grid(side, side, 1.0)
            }
            Family::Random => {
                let p = (8.0 / n as f64).min(1.0);
                random_gnp(n, p, (1.0, 10.0), seed)
            }
            Family::Expander => random_regular(n, 6, 1.0, seed),
            Family::Barbell => {
                let k = (n / 2).max(2);
                barbell(k, (n / 10).max(1), 1.0, 2.0)
            }
            Family::PowerLaw => barabasi_albert(n, 3, (1.0, 10.0), seed),
            Family::Layered => {
                let width = (n as f64).sqrt().round().max(2.0) as usize;
                let layers = (n / width).max(1);
                layered_st(layers, width, (1.0, 10.0), seed)
            }
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5, 2.0);
        assert_eq!(p.num_nodes(), 5);
        assert_eq!(p.num_edges(), 4);
        assert!(p.is_connected());
        let c = cycle(5, 1.0);
        assert_eq!(c.num_edges(), 5);
        assert_eq!(c.hop_diameter().unwrap(), 2);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, 1.0);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());
        assert_eq!(g.hop_diameter().unwrap(), 5);
    }

    #[test]
    fn complete_and_star() {
        let k = complete(5, 1.0);
        assert_eq!(k.num_edges(), 10);
        assert_eq!(k.hop_diameter().unwrap(), 1);
        let s = star(6, 1.0);
        assert_eq!(s.num_edges(), 5);
        assert_eq!(s.degree(NodeId(0)), 5);
    }

    #[test]
    fn random_graphs_are_connected_and_deterministic() {
        let a = random_gnp(30, 0.2, (1.0, 5.0), 42);
        let b = random_gnp(30, 0.2, (1.0, 5.0), 42);
        assert_eq!(a, b);
        assert!(a.is_connected());
        let r = random_regular(20, 6, 1.0, 3);
        assert!(r.is_connected());
        assert!(r.num_edges() >= 20);
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(4, 2, 1.0, 3.0);
        assert!(g.is_connected());
        // 2 cliques of 6 edges each + 2 bridge edges
        assert_eq!(g.num_edges(), 6 + 6 + 2);
    }

    #[test]
    fn barabasi_albert_connected() {
        let g = barabasi_albert(50, 3, (1.0, 2.0), 9);
        assert!(g.is_connected());
        assert!(g.num_edges() >= 49);
    }

    #[test]
    fn layered_structure() {
        let g = layered_st(3, 2, (1.0, 1.0), 5);
        assert_eq!(g.num_nodes(), 2 + 6);
        assert!(g.is_connected());
        let (s, t) = default_terminals(&g);
        assert_eq!(s, NodeId(0));
        assert_eq!(t, NodeId(7));
    }

    #[test]
    fn family_generation_is_connected() {
        for fam in Family::ALL {
            let g = fam.generate(40, 11);
            assert!(
                g.is_connected(),
                "family {fam} produced a disconnected graph"
            );
            assert!(g.num_nodes() >= 4);
        }
    }

    #[test]
    #[should_panic(expected = "path requires")]
    fn path_zero_panics() {
        let _ = path(0, 1.0);
    }

    #[test]
    fn fat_tree_structure() {
        let g = fat_tree(4, 2, 3, 10.0, 40.0);
        // 12 hosts + 4 leaves + 2 spines.
        assert_eq!(g.num_nodes(), 18);
        // 4*2 fabric edges + 12 host uplinks.
        assert_eq!(g.num_edges(), 8 + 12);
        assert!(g.is_connected());
        let (s, t) = fat_tree_terminals(4, 3);
        assert_eq!(s, NodeId(0));
        assert_eq!(t, NodeId(11));
        // Host uplink is the bottleneck for host-to-host flow.
        assert!((g.weighted_degree(s) - 10.0).abs() < 1e-12);
        // Fabric tier: every leaf reaches every spine.
        assert_eq!(g.degree(NodeId(12)), 2 + 3);
    }
}
