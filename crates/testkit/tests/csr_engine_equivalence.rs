//! Differential suite for the CSR graph core and the arena CONGEST engine.
//!
//! Two equivalences are pinned:
//!
//! 1. **Storage**: on seeded random multigraphs, the CSR
//!    `incident`/`neighbors` slices must enumerate exactly the
//!    `(edge, endpoint)` sequence the legacy per-node `Vec<Vec<EdgeId>>`
//!    incidence path produced (same multiset *and* same insertion order —
//!    the documented CSR ordering guarantee).
//! 2. **Execution**: the BFS protocol from `congest::primitives` must
//!    produce byte-identical transcripts, identical `RoundCost` and
//!    identical outputs on the zero-allocation arena engine and on the
//!    allocation-per-round reference engine (`engine::reference_run_traced`),
//!    on seeded random multigraphs and on the seeded CONGEST workload
//!    families (`testkit::families::congest_families`). On the random
//!    multigraphs the min-id flood must agree too, traced and untraced.

use congest::engine::{reference_run_traced, Network, Simulator};
use congest::primitives::{BfsProtocol, MinIdFlood};
use flowgraph::{EdgeId, Graph, NodeId};
use proptest::prelude::*;
use testkit::families;

/// Builds a connected random multigraph: a spanning path plus `extra` random
/// edges (parallel edges allowed), all derived deterministically from the
/// sampled integers.
fn build_graph(n: usize, extras: &[(usize, usize)]) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n - 1 {
        g.add_edge(NodeId(i as u32), NodeId((i + 1) as u32), 1.0 + i as f64)
            .expect("valid path edge");
    }
    for &(a, b) in extras {
        let u = a % n;
        // Skew away from u to avoid self-loops while keeping determinism.
        let v = (u + 1 + (b % (n - 1))) % n;
        g.add_edge(NodeId(u as u32), NodeId(v as u32), 2.0)
            .expect("valid extra edge");
    }
    g
}

/// The legacy incidence path, reconstructed as the executable specification:
/// append each edge id to both endpoint lists at insertion time.
fn legacy_incidence(g: &Graph) -> Vec<Vec<EdgeId>> {
    let mut incidence = vec![Vec::new(); g.num_nodes()];
    for (id, e) in g.edges() {
        incidence[e.tail.index()].push(id);
        incidence[e.head.index()].push(id);
    }
    incidence
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_enumerates_the_legacy_incidence_in_order(
        n in 2usize..40,
        extras in proptest::collection::vec((0usize..1000, 0usize..1000), 0..80),
    ) {
        let g = build_graph(n, &extras);
        let legacy = legacy_incidence(&g);
        for v in g.nodes() {
            let csr_edges: Vec<EdgeId> = g.incident(v).iter().map(|(e, _)| e).collect();
            prop_assert_eq!(&csr_edges, &legacy[v.index()]);
            prop_assert_eq!(g.degree(v), legacy[v.index()].len());
            // Every CSR neighbor is the other endpoint of its edge.
            for (e, w) in g.incident(v) {
                prop_assert_eq!(g.edge(e).other(v), w);
            }
            // neighbors() is exactly the incident slice view.
            let from_iter: Vec<(EdgeId, NodeId)> = g.neighbors(v).collect();
            prop_assert_eq!(&from_iter[..], &g.incident(v).to_vec()[..]);
        }
    }

    #[test]
    fn bfs_transcripts_match_between_engines(
        n in 2usize..30,
        extras in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
        root_pick in 0usize..1000,
    ) {
        let g = build_graph(n, &extras);
        let root = NodeId((root_pick % n) as u32);
        let network = Network::new(g);
        let protocol = BfsProtocol::new(root);
        let (arena, arena_t) = Simulator::new()
            .run_traced(&network, &protocol)
            .expect("BFS respects the CONGEST rules");
        let (reference, reference_t) = reference_run_traced(&network, &protocol, 1_000_000)
            .expect("BFS respects the CONGEST rules");
        prop_assert_eq!(&arena.outputs, &reference.outputs);
        prop_assert_eq!(arena.cost, reference.cost);
        // Byte-identical canonical transcripts.
        let arena_bytes = format!("{arena_t:?}").into_bytes();
        let reference_bytes = format!("{reference_t:?}").into_bytes();
        prop_assert_eq!(arena_bytes, reference_bytes);
        // The outputs really are a BFS tree: depths equal graph distances.
        let dist = network.graph().bfs_distances(root);
        for (v, out) in arena.outputs.iter().enumerate() {
            match out {
                None => prop_assert_eq!(v, root.index()),
                Some((e, parent)) => {
                    prop_assert_eq!(dist[v], dist[parent.index()] + 1);
                    let edge = network.graph().edge(*e);
                    prop_assert!(edge.is_incident(NodeId(v as u32)));
                    prop_assert!(edge.is_incident(*parent));
                }
            }
        }
        // The min-id flood agrees on both engines, and recording a
        // transcript changes neither its outputs nor its bill.
        let (flood, flood_t) = Simulator::new()
            .run_traced(&network, &MinIdFlood)
            .expect("flooding respects the CONGEST rules");
        let (flood_ref, flood_ref_t) = reference_run_traced(&network, &MinIdFlood, 1_000_000)
            .expect("flooding respects the CONGEST rules");
        prop_assert_eq!(&flood.outputs, &flood_ref.outputs);
        prop_assert_eq!(flood.cost, flood_ref.cost);
        prop_assert_eq!(
            format!("{flood_t:?}").into_bytes(),
            format!("{flood_ref_t:?}").into_bytes()
        );
        let untraced = Simulator::new()
            .run(&network, &MinIdFlood)
            .expect("flooding respects the CONGEST rules");
        prop_assert_eq!(&untraced.outputs, &flood.outputs);
        prop_assert_eq!(untraced.cost, flood.cost);
        prop_assert!(flood.outputs.iter().all(|&b| b == 0));
    }

    #[test]
    fn bfs_transcripts_match_the_reference_on_congest_families(
        n in 16usize..56,
        seed in 0u64..10_000,
    ) {
        for inst in families::congest_families(n, seed) {
            let network = Network::new(inst.graph.clone());
            let protocol = BfsProtocol::new(inst.s);
            let (arena, arena_t) = Simulator::new()
                .run_traced(&network, &protocol)
                .expect("BFS terminates");
            let (reference, reference_t) =
                reference_run_traced(&network, &protocol, 1_000_000).expect("BFS terminates");
            prop_assert_eq!(&arena.cost, &reference.cost, "family {}", inst.name);
            prop_assert_eq!(&arena.outputs, &reference.outputs, "family {}", inst.name);
            prop_assert_eq!(&arena_t, &reference_t, "family {}", inst.name);
            // Byte-identical, not merely equal.
            prop_assert_eq!(
                format!("{:?}", &arena_t).into_bytes(),
                format!("{:?}", &reference_t).into_bytes(),
                "family {} transcript bytes", inst.name
            );
        }
    }
}
