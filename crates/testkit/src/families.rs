//! Named, seeded workload instances for the oracle suites.
//!
//! Each [`Instance`] bundles a connected graph, the terminal pair the oracles
//! route between, and the seed it was generated from, so every failure
//! message pinpoints a reproducible workload.

use flowgraph::{gen, Graph, GraphError, NodeId};

/// One reproducible workload: a graph plus its terminal pair.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Family name used in failure messages (e.g. `"grid"`).
    pub name: &'static str,
    /// The connected instance graph.
    pub graph: Graph,
    /// Flow source.
    pub s: NodeId,
    /// Flow sink.
    pub t: NodeId,
    /// The seed the instance was generated from.
    pub seed: u64,
}

impl Instance {
    fn from_family(name: &'static str, graph: Graph, seed: u64) -> Self {
        let (s, t) = gen::default_terminals(&graph);
        Instance {
            name,
            graph,
            s,
            t,
            seed,
        }
    }
}

/// The distinct graph families the `(1+ε)` oracle is required to pass on:
/// path, grid, expander, random `G(n,p)` and a datacenter-like fat-tree —
/// five structurally different workloads (line, mesh, low-diameter,
/// unstructured, hierarchical), all seeded.
pub fn oracle_families(n: usize, seed: u64) -> Vec<Instance> {
    let n = n.max(9);
    let side = (n as f64).sqrt().round().max(2.0) as usize;
    let leaves = (n / 8).clamp(2, 8);
    let spines = (leaves / 2).max(2);
    let hosts = ((n.saturating_sub(leaves + spines)) / leaves).max(1);
    let fat = gen::fat_tree(leaves, spines, hosts, 10.0, 40.0);
    let (fs, ft) = gen::fat_tree_terminals(leaves, hosts);
    vec![
        Instance::from_family("path", gen::path(n, 1.0), seed),
        Instance::from_family("grid", gen::grid(side, side, 1.0), seed),
        Instance::from_family("expander", gen::random_regular(n, 6, 1.0, seed), seed),
        Instance::from_family(
            "gnp",
            gen::random_gnp(n, (8.0 / n as f64).min(1.0), (1.0, 10.0), seed),
            seed,
        ),
        Instance {
            name: "fat_tree",
            graph: fat,
            s: fs,
            t: ft,
            seed,
        },
    ]
}

/// Instances for the CONGEST round-shape checks: one low-diameter family
/// (expander), one high-diameter family (path) and the mesh in between, so
/// the `D + √n` bound is stressed from both sides.
pub fn congest_families(n: usize, seed: u64) -> Vec<Instance> {
    let n = n.max(9);
    let side = (n as f64).sqrt().round().max(2.0) as usize;
    vec![
        Instance::from_family("expander", gen::random_regular(n, 6, 1.0, seed), seed),
        Instance::from_family("grid", gen::grid(side, side, 1.0), seed),
        Instance::from_family("path", gen::path(n, 1.0), seed),
    ]
}

/// Streaming generators that scale to millions of nodes.
///
/// Unlike the incremental `flowgraph::gen` builders (which grow the graph one
/// `add_edge` at a time), these compute the exact node and edge counts up
/// front, reject anything that would overflow the `u32` id space with a typed
/// [`GraphError`], fill the three struct-of-arrays edge columns directly and
/// hand them to [`Graph::from_soa`] in one shot — no per-node adjacency Vecs
/// and no incremental reallocation, so peak memory during construction is the
/// final edge list plus nothing.
pub mod streaming {
    use super::*;

    /// Checks a would-be node count against [`Graph::MAX_NODES`].
    ///
    /// `None` (arithmetic overflow while sizing the family) is reported the
    /// same way as an explicit out-of-range count.
    fn checked_nodes(requested: Option<usize>) -> Result<usize, GraphError> {
        match requested {
            Some(n) if n <= Graph::MAX_NODES => Ok(n),
            Some(n) => Err(GraphError::TooManyNodes { requested: n }),
            None => Err(GraphError::TooManyNodes {
                requested: usize::MAX,
            }),
        }
    }

    /// Checks a would-be edge count against [`Graph::MAX_EDGES`].
    fn checked_edges(requested: Option<usize>) -> Result<usize, GraphError> {
        match requested {
            Some(m) if m <= Graph::MAX_EDGES => Ok(m),
            Some(m) => Err(GraphError::TooManyEdges { requested: m }),
            None => Err(GraphError::TooManyEdges {
                requested: usize::MAX,
            }),
        }
    }

    /// Streaming fat-tree: identical topology and edge order to
    /// [`gen::fat_tree`] (leaf→spine fabric, then host uplinks, rack by
    /// rack), but with up-front sizing and a typed overflow error instead of
    /// a panic.
    pub fn fat_tree(
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
        host_capacity: f64,
        fabric_capacity: f64,
    ) -> Result<Graph, GraphError> {
        assert!(
            leaves >= 2 && spines >= 1 && hosts_per_leaf >= 1,
            "fat tree requires at least two leaves, one spine and one host per leaf"
        );
        assert!(
            host_capacity > 0.0 && fabric_capacity > 0.0,
            "fat tree capacities must be strictly positive"
        );
        let hosts = leaves.checked_mul(hosts_per_leaf);
        let num_nodes = checked_nodes(
            hosts
                .and_then(|h| h.checked_add(leaves))
                .and_then(|n| n.checked_add(spines)),
        )?;
        let hosts = hosts.expect("host count fits after node check");
        let num_edges = checked_edges(
            leaves
                .checked_mul(spines)
                .and_then(|f| f.checked_add(hosts)),
        )?;
        let mut tails = Vec::with_capacity(num_edges);
        let mut heads = Vec::with_capacity(num_edges);
        let mut capacities = Vec::with_capacity(num_edges);
        let leaf = |i: usize| (hosts + i) as u32;
        let spine = |i: usize| (hosts + leaves + i) as u32;
        for l in 0..leaves {
            for s in 0..spines {
                tails.push(leaf(l));
                heads.push(spine(s));
                capacities.push(fabric_capacity);
            }
            for h in 0..hosts_per_leaf {
                tails.push((l * hosts_per_leaf + h) as u32);
                heads.push(leaf(l));
                capacities.push(host_capacity);
            }
        }
        Graph::from_soa(num_nodes, tails, heads, capacities)
    }

    /// Streaming grid: identical topology and edge order to [`gen::grid`]
    /// (east then south, row-major), sized up front.
    pub fn grid(rows: usize, cols: usize, capacity: f64) -> Result<Graph, GraphError> {
        assert!(rows > 0 && cols > 0, "grid requires positive dimensions");
        assert!(capacity > 0.0, "grid capacity must be strictly positive");
        let num_nodes = checked_nodes(rows.checked_mul(cols))?;
        let horizontal = rows.checked_mul(cols - 1);
        let vertical = cols.checked_mul(rows - 1);
        let num_edges = checked_edges(horizontal.and_then(|h| vertical.map(|v| h + v)))?;
        let mut tails = Vec::with_capacity(num_edges);
        let mut heads = Vec::with_capacity(num_edges);
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    tails.push(id(r, c));
                    heads.push(id(r, c + 1));
                }
                if r + 1 < rows {
                    tails.push(id(r, c));
                    heads.push(id(r + 1, c));
                }
            }
        }
        let capacities = vec![capacity; tails.len()];
        Graph::from_soa(num_nodes, tails, heads, capacities)
    }

    /// Streaming expander-ish random regular multigraph: the same ring plus
    /// `⌈(d-2)/2⌉` random-permutation construction as
    /// [`gen::random_regular`], with the permutation drawn from the same
    /// seeded RNG, sized up front.
    pub fn random_regular(
        n: usize,
        d: usize,
        capacity: f64,
        seed: u64,
    ) -> Result<Graph, GraphError> {
        assert!(n >= 3, "random regular graph requires at least three nodes");
        assert!(d >= 2, "degree must be at least two");
        assert!(capacity > 0.0, "capacity must be strictly positive");
        let num_nodes = checked_nodes(Some(n))?;
        let extra = d.saturating_sub(2).div_ceil(2);
        // Ring edges plus at most `n` per extra permutation (fixed points of
        // the permutation are skipped, so this is an upper bound).
        let max_edges = checked_edges(n.checked_mul(extra).and_then(|e| e.checked_add(n)))?;
        let mut tails = Vec::with_capacity(max_edges);
        let mut heads = Vec::with_capacity(max_edges);
        for i in 0..n {
            tails.push(i as u32);
            heads.push(((i + 1) % n) as u32);
        }
        let mut rng = gen::rng(seed);
        for _ in 0..extra {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            use rand::seq::SliceRandom;
            perm.shuffle(&mut rng);
            for (u, &v) in perm.iter().enumerate() {
                if u as u32 != v {
                    tails.push(u as u32);
                    heads.push(v);
                }
            }
        }
        let capacities = vec![capacity; tails.len()];
        Graph::from_soa(num_nodes, tails, heads, capacities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_families_are_connected_distinct_and_deterministic() {
        let a = oracle_families(40, 3);
        let b = oracle_families(40, 3);
        assert_eq!(a.len(), 5);
        let mut names: Vec<_> = a.iter().map(|i| i.name).collect();
        names.dedup();
        assert_eq!(names.len(), 5, "family names must be distinct");
        for (x, y) in a.iter().zip(&b) {
            assert!(x.graph.is_connected(), "family {} disconnected", x.name);
            assert_eq!(x.graph, y.graph, "family {} not deterministic", x.name);
            assert_ne!(x.s, x.t, "family {} has degenerate terminals", x.name);
        }
    }

    #[test]
    fn streaming_generators_match_their_incremental_counterparts() {
        assert_eq!(
            streaming::fat_tree(4, 2, 3, 10.0, 40.0).unwrap(),
            gen::fat_tree(4, 2, 3, 10.0, 40.0)
        );
        assert_eq!(streaming::grid(7, 5, 1.0).unwrap(), gen::grid(7, 5, 1.0));
        assert_eq!(
            streaming::random_regular(50, 6, 1.0, 9).unwrap(),
            gen::random_regular(50, 6, 1.0, 9)
        );
    }

    /// The compact-ID SoA core's footprint budget: at most 48 bytes per
    /// edge, CSR incidence index included.
    fn assert_within_soa_budget(g: &Graph) {
        g.csr();
        let bytes_per_edge = g.memory_bytes().bytes_per_edge(g.num_edges());
        assert!(
            bytes_per_edge <= 48.0,
            "{bytes_per_edge} bytes/edge exceeds the 48 bytes/edge SoA budget"
        );
    }

    #[test]
    fn streaming_fat_tree_builds_a_million_nodes() {
        let g = streaming::fat_tree(1000, 8, 1000, 10.0, 40.0).unwrap();
        assert_eq!(g.num_nodes(), 1_001_008);
        assert_eq!(g.num_edges(), 1_008_000);
        assert_within_soa_budget(&g);
    }

    #[test]
    fn streaming_grid_builds_a_million_nodes() {
        let g = streaming::grid(1000, 1000, 1.0).unwrap();
        assert_eq!(g.num_nodes(), 1_000_000);
        assert_eq!(g.num_edges(), 2 * 1000 * 999);
        assert_within_soa_budget(&g);
    }

    #[test]
    fn streaming_random_regular_builds_a_million_nodes() {
        let g = streaming::random_regular(1_000_000, 4, 1.0, 3).unwrap();
        assert_eq!(g.num_nodes(), 1_000_000);
        assert!(g.num_edges() >= 1_000_000);
        assert!(g.num_edges() <= 2_000_000);
    }

    #[test]
    fn streaming_generators_reject_u32_overflow_with_typed_errors() {
        use flowgraph::GraphError;

        // Node-count overflow, including arithmetic overflow while sizing.
        assert!(matches!(
            streaming::grid(Graph::MAX_NODES, 2, 1.0),
            Err(GraphError::TooManyNodes { .. })
        ));
        assert!(matches!(
            streaming::fat_tree(2, 1, usize::MAX / 2, 1.0, 1.0),
            Err(GraphError::TooManyNodes { .. })
        ));
        // Edge-count overflow with an in-range node count.
        assert!(matches!(
            streaming::grid(1, Graph::MAX_NODES, 1.0),
            Err(GraphError::TooManyEdges { .. })
        ));
        assert!(matches!(
            streaming::random_regular(Graph::MAX_NODES, 2, 1.0, 0),
            Err(GraphError::TooManyEdges { .. })
        ));
    }

    #[test]
    fn congest_families_cover_both_diameter_regimes() {
        let fams = congest_families(64, 1);
        let diam: Vec<usize> = fams
            .iter()
            .map(|i| i.graph.approx_hop_diameter().unwrap())
            .collect();
        // The path's diameter dwarfs the expander's.
        assert!(diam[2] > 4 * diam[0], "diameters {diam:?}");
    }
}
