//! Compressed-sparse-row (CSR) adjacency for [`Graph`](crate::Graph) and
//! ad-hoc edge sets.
//!
//! The incidence structure of a multigraph with `n` nodes and `m` edges is
//! stored as three flat `u32` arrays (struct-of-arrays) instead of `n`
//! separately allocated vectors or an array of `(edge, neighbor)` structs:
//!
//! ```text
//! offsets:   [o_0, o_1, ..., o_n]      (n + 1 entries, o_0 = 0, o_n = 2m)
//! edge_ids:  [e, e, e, ...]            (2m entries, one per edge endpoint)
//! neighbors: [w, w, w, ...]            (2m entries, parallel to edge_ids)
//!             `- node 0 -'`- node 1 -' ...
//! ```
//!
//! The incident slots of node `v` are index range `offsets[v]..offsets[v+1]`
//! into the two parallel arrays; each slot holds the edge id and the *other*
//! endpoint, so a neighborhood scan touches contiguous cache-friendly ranges
//! and never chases an edge id back into the edge array. Keeping edge ids and
//! neighbors in *separate* slices lets traversals that only need one of the
//! two (BFS wants neighbors, capacity scans want edge ids) halve their cache
//! traffic — that is the [`Csr::neighbor_slice`] / [`Csr::edge_id_slice`]
//! fast path. A *slot* (a global index into the parallel arrays) also doubles
//! as the identity of a directed edge endpoint, which is what the CONGEST
//! simulator's flat message arenas are indexed by.
//!
//! All ids are `u32`: a CSR addresses at most `u32::MAX` nodes and
//! `u32::MAX / 2` edges (so the `2m` slot offsets still fit in `u32`).
//! [`Graph`](crate::Graph) construction enforces those bounds with typed
//! errors before a CSR is ever built.
//!
//! # Ordering guarantee
//!
//! [`Csr::from_edges`] lists the incident slots of every node in **edge
//! insertion order** (ascending [`EdgeId`]), exactly like the legacy
//! `Vec<Vec<EdgeId>>` incidence path that appended an edge id to both
//! endpoint lists at `add_edge` time. Algorithms may rely on this: iteration
//! order over a node's neighborhood is stable across representations, and the
//! per-node slices are sorted by edge id, which makes the slot lookup
//! [`Csr::slot_of`] a binary search instead of a linear scan.
//! [`Csr::from_links`] preserves the order of the supplied link list per node
//! instead (callers that need binary-search lookups must supply links in
//! ascending edge-id order).

use crate::graph::{EdgeId, NodeId};

/// Flat compressed-sparse-row incidence index over a node set `0..n`.
///
/// See the [module docs](self) for the memory layout and the per-node
/// ordering guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` is the slot range of node `v`.
    offsets: Vec<u32>,
    /// Edge id of each slot (one slot per edge endpoint).
    edge_ids: Vec<u32>,
    /// Other endpoint of each slot, parallel to `edge_ids`.
    neighbors: Vec<u32>,
}

impl Default for Csr {
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            edge_ids: Vec::new(),
            neighbors: Vec::new(),
        }
    }
}

/// A borrowed view of one node's incident slots: two parallel `u32` slices
/// (edge ids and other endpoints), yielded by [`Csr::incident`].
///
/// Iterating the view (it is `IntoIterator`, by value or by reference) yields
/// `(EdgeId, NodeId)` pairs exactly like the pre-SoA tuple slice did; hot
/// paths that need only one of the two arrays use [`IncidentSlots::edge_ids`]
/// or [`IncidentSlots::neighbors`] directly.
#[derive(Debug, Clone, Copy)]
pub struct IncidentSlots<'a> {
    edge_ids: &'a [u32],
    neighbors: &'a [u32],
}

impl<'a> IncidentSlots<'a> {
    /// Number of incident slots (the node's degree, parallel edges counted
    /// individually).
    #[inline]
    pub fn len(&self) -> usize {
        self.edge_ids.len()
    }

    /// Returns `true` if the node has no incident edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edge_ids.is_empty()
    }

    /// The `(edge, neighbor)` pair at local slot index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> (EdgeId, NodeId) {
        (EdgeId(self.edge_ids[i]), NodeId(self.neighbors[i]))
    }

    /// The first `(edge, neighbor)` pair, or `None` for an isolated node.
    #[inline]
    pub fn first(&self) -> Option<(EdgeId, NodeId)> {
        match (self.edge_ids.first(), self.neighbors.first()) {
            (Some(&e), Some(&w)) => Some((EdgeId(e), NodeId(w))),
            _ => None,
        }
    }

    /// The raw edge-id slice of the node.
    #[inline]
    pub fn edge_ids(&self) -> &'a [u32] {
        self.edge_ids
    }

    /// The raw neighbor slice of the node, parallel to
    /// [`IncidentSlots::edge_ids`].
    #[inline]
    pub fn neighbors(&self) -> &'a [u32] {
        self.neighbors
    }

    /// Iterates over `(EdgeId, NodeId)` pairs.
    #[inline]
    pub fn iter(&self) -> IncidentIter<'a> {
        IncidentIter {
            edge_ids: self.edge_ids.iter(),
            neighbors: self.neighbors.iter(),
        }
    }

    /// Local index of edge `e` within this view, or `None` if absent. A
    /// binary search — requires the ascending edge-id order that
    /// [`Csr::from_edges`] guarantees.
    #[inline]
    pub fn position_of(&self, e: EdgeId) -> Option<usize> {
        self.edge_ids.binary_search(&e.0).ok()
    }

    /// Collects the view into a `Vec` of pairs (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<(EdgeId, NodeId)> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for IncidentSlots<'a> {
    type Item = (EdgeId, NodeId);
    type IntoIter = IncidentIter<'a>;

    #[inline]
    fn into_iter(self) -> IncidentIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &IncidentSlots<'a> {
    type Item = (EdgeId, NodeId);
    type IntoIter = IncidentIter<'a>;

    #[inline]
    fn into_iter(self) -> IncidentIter<'a> {
        self.iter()
    }
}

/// Iterator over the `(EdgeId, NodeId)` pairs of an [`IncidentSlots`] view.
#[derive(Debug, Clone)]
pub struct IncidentIter<'a> {
    edge_ids: std::slice::Iter<'a, u32>,
    neighbors: std::slice::Iter<'a, u32>,
}

impl Iterator for IncidentIter<'_> {
    type Item = (EdgeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(EdgeId, NodeId)> {
        let e = self.edge_ids.next()?;
        let w = self.neighbors.next()?;
        Some((EdgeId(*e), NodeId(*w)))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.edge_ids.size_hint()
    }
}

impl ExactSizeIterator for IncidentIter<'_> {}

impl DoubleEndedIterator for IncidentIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<(EdgeId, NodeId)> {
        let e = self.edge_ids.next_back()?;
        let w = self.neighbors.next_back()?;
        Some((EdgeId(*e), NodeId(*w)))
    }
}

impl Csr {
    /// Builds the CSR index of a multigraph's edge list, given as parallel
    /// tail/head arrays. Every edge contributes one slot at each endpoint;
    /// per-node slots appear in ascending edge-id order (the insertion order
    /// of `add_edge`).
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths or an endpoint is out of
    /// `0..num_nodes` (graph construction validates both beforehand).
    pub fn from_edges(num_nodes: usize, tails: &[u32], heads: &[u32]) -> Self {
        assert_eq!(
            tails.len(),
            heads.len(),
            "tail/head arrays must be parallel"
        );
        let csr = Self::from_links(
            num_nodes,
            tails
                .iter()
                .zip(heads)
                .enumerate()
                .map(|(i, (&t, &h))| (EdgeId(i as u32), NodeId(t), NodeId(h))),
        );
        debug_assert!(
            (0..num_nodes).all(|v| csr
                .edge_id_slice(NodeId(v as u32))
                .windows(2)
                .all(|w| w[0] < w[1])),
            "per-node slots of a graph CSR are sorted by edge id"
        );
        csr
    }

    /// Builds a CSR index from an arbitrary `(edge, u, v)` link list (e.g. a
    /// spanning forest or an edge subset). Both endpoints receive a slot.
    /// Per-node slot order follows the iteration order of `links`; the
    /// binary-search lookups ([`Csr::slot_of`]) additionally require the
    /// links to arrive in ascending edge-id order.
    ///
    /// # Panics
    ///
    /// Panics if a link endpoint is out of `0..num_nodes`.
    pub fn from_links<I>(num_nodes: usize, links: I) -> Self
    where
        I: Iterator<Item = (EdgeId, NodeId, NodeId)> + Clone,
    {
        let mut offsets = vec![0u32; num_nodes + 1];
        let mut num_links = 0usize;
        for (_, u, v) in links.clone() {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
            num_links += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..num_nodes].to_vec();
        let mut edge_ids = vec![0u32; 2 * num_links];
        let mut neighbors = vec![0u32; 2 * num_links];
        for (e, u, v) in links {
            let cu = cursor[u.index()] as usize;
            edge_ids[cu] = e.0;
            neighbors[cu] = v.0;
            cursor[u.index()] += 1;
            let cv = cursor[v.index()] as usize;
            edge_ids[cv] = e.0;
            neighbors[cv] = u.0;
            cursor[v.index()] += 1;
        }
        Csr {
            offsets,
            edge_ids,
            neighbors,
        }
    }

    /// Number of nodes covered by the index.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of slots (`2m` for a graph CSR: one per edge endpoint).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.edge_ids.len()
    }

    /// The raw offset array (`n + 1` entries); `offsets[v]..offsets[v+1]` is
    /// the slot range of node `v`. Exposed for consumers that maintain their
    /// own per-slot side arrays (capacities, message arenas, residual arcs).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The full per-slot edge-id array (`2m` entries).
    #[inline]
    pub fn edge_ids(&self) -> &[u32] {
        &self.edge_ids
    }

    /// The full per-slot neighbor array (`2m` entries), parallel to
    /// [`Csr::edge_ids`].
    #[inline]
    pub fn neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// The global slot range of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn slot_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// The incident slots of node `v` as a pair of parallel `(edge, neighbor)`
    /// slices, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn incident(&self, v: NodeId) -> IncidentSlots<'_> {
        let range = self.slot_range(v);
        IncidentSlots {
            edge_ids: &self.edge_ids[range.clone()],
            neighbors: &self.neighbors[range],
        }
    }

    /// The raw neighbor slice of node `v` — the BFS fast path that never
    /// touches the edge-id array.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[u32] {
        &self.neighbors[self.slot_range(v)]
    }

    /// The raw edge-id slice of node `v` — the capacity-scan fast path that
    /// never touches the neighbor array.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn edge_id_slice(&self, v: NodeId) -> &[u32] {
        &self.edge_ids[self.slot_range(v)]
    }

    /// Degree of node `v` (number of incident slots; parallel edges count
    /// individually).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// The `(edge, neighbor)` pair stored at a global slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn slot(&self, slot: usize) -> (EdgeId, NodeId) {
        (EdgeId(self.edge_ids[slot]), NodeId(self.neighbors[slot]))
    }

    /// The global slot of edge `e` at endpoint `v`, or `None` if `e` is not
    /// incident to `v`. A binary search over `v`'s slice — requires the
    /// per-node sorted order that [`Csr::from_edges`] guarantees.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn slot_of(&self, v: NodeId, e: EdgeId) -> Option<usize> {
        let range = self.slot_range(v);
        self.edge_ids[range.clone()]
            .binary_search(&e.0)
            .ok()
            .map(|i| range.start + i)
    }

    /// The node owning a global slot (inverse of [`Csr::slot_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn node_of_slot(&self, slot: usize) -> NodeId {
        debug_assert!(slot < self.num_slots());
        let i = self.offsets.partition_point(|&o| o as usize <= slot);
        NodeId((i - 1) as u32)
    }

    /// Heap bytes held by the index: `4·(n+1)` offsets plus `2·4·2m` slot
    /// entries. Feeds the measured bytes/edge budget of
    /// [`Graph::memory_bytes`](crate::Graph::memory_bytes).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>()
            * (self.offsets.capacity() + self.edge_ids.capacity() + self.neighbors.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn csr_matches_legacy_incidence_order() {
        // Insertion order per node must match the legacy Vec<Vec<EdgeId>>
        // path: edge ids ascending, parallel edges kept.
        let g = GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(1, 2, 1.0)
            .edge(0, 1, 2.0) // parallel
            .edge(3, 0, 1.0)
            .build()
            .unwrap();
        let csr = g.csr();
        let ids = |v: u32| -> Vec<u32> { csr.edge_id_slice(NodeId(v)).to_vec() };
        assert_eq!(ids(0), vec![0, 2, 3]);
        assert_eq!(ids(1), vec![0, 1, 2]);
        assert_eq!(ids(2), vec![1]);
        assert_eq!(ids(3), vec![3]);
        // Neighbors are the other endpoints.
        assert_eq!(
            csr.incident(NodeId(2)).to_vec(),
            vec![(EdgeId(1), NodeId(1))]
        );
        assert_eq!(csr.neighbor_slice(NodeId(2)), &[1]);
        assert_eq!(csr.degree(NodeId(0)), 3);
        assert_eq!(csr.num_slots(), 8);
    }

    #[test]
    fn slot_lookup_round_trips() {
        let g = GraphBuilder::new(3)
            .edge(0, 1, 1.0)
            .edge(1, 2, 1.0)
            .edge(2, 0, 1.0)
            .build()
            .unwrap();
        let csr = g.csr();
        for v in g.nodes() {
            for (i, (e, w)) in csr.incident(v).iter().enumerate() {
                let slot = csr.slot_range(v).start + i;
                assert_eq!(csr.slot_of(v, e), Some(slot));
                assert_eq!(csr.node_of_slot(slot), v);
                assert_eq!(csr.slot(slot), (e, w));
                assert_eq!(csr.incident(v).get(i), (e, w));
                assert_eq!(csr.incident(v).position_of(e), Some(i));
                // The mirrored slot lives at the other endpoint.
                let mirror = csr.slot_of(w, e).expect("edge incident to both ends");
                assert_eq!(csr.node_of_slot(mirror), w);
                assert_eq!(csr.slot(mirror).1, v);
            }
        }
        assert_eq!(csr.slot_of(NodeId(0), EdgeId(1)), None);
        assert_eq!(csr.incident(NodeId(0)).position_of(EdgeId(1)), None);
    }

    #[test]
    fn isolated_nodes_have_empty_slices() {
        let g = GraphBuilder::new(5).edge(3, 4, 1.0).build().unwrap();
        let csr = g.csr();
        for v in 0..3 {
            assert!(csr.incident(NodeId(v)).is_empty());
            assert_eq!(csr.degree(NodeId(v)), 0);
        }
        // Slot ownership skips the empty prefix correctly.
        assert_eq!(csr.node_of_slot(0), NodeId(3));
        assert_eq!(csr.node_of_slot(1), NodeId(4));
    }

    #[test]
    fn from_links_preserves_given_order() {
        // A forest supplied out of edge-id order keeps the supplied order.
        let links = [
            (EdgeId(7), NodeId(0), NodeId(1)),
            (EdgeId(2), NodeId(1), NodeId(2)),
        ];
        let csr = Csr::from_links(3, links.iter().copied());
        assert_eq!(
            csr.incident(NodeId(1)).to_vec(),
            vec![(EdgeId(7), NodeId(0)), (EdgeId(2), NodeId(2))]
        );
        assert_eq!(csr.num_slots(), 4);
    }

    #[test]
    fn incident_view_iterates_both_directions() {
        let g = GraphBuilder::new(3)
            .edge(0, 1, 1.0)
            .edge(0, 2, 1.0)
            .build()
            .unwrap();
        let view = g.csr().incident(NodeId(0));
        assert_eq!(view.len(), 2);
        let fwd: Vec<_> = view.iter().collect();
        let mut rev: Vec<_> = view.iter().rev().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(view.iter().len(), 2);
    }

    #[test]
    fn empty_and_default() {
        let csr = Csr::default();
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_slots(), 0);
        let csr = Csr::from_edges(3, &[], &[]);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.num_slots(), 0);
        assert!(csr.heap_bytes() >= 4 * 4);
    }
}
