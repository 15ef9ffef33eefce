//! Core undirected, capacitated multigraph type.
//!
//! The paper (§1.1) works with a simple connected weighted graph
//! `G = (V, E, cap)` with an arbitrary but fixed orientation per edge; several
//! of the constructions (Madry cores, contracted cluster graphs, AKPW
//! iterations) additionally require *multigraphs*. [`Graph`] therefore stores
//! oriented edges (parallel edges allowed) plus a lazily built
//! compressed-sparse-row incidence index ([`crate::csr::Csr`]), which covers
//! both use cases. The CSR index is built once on first neighborhood query
//! and invalidated by topology mutations (`add_node` / `add_edge`); capacity
//! updates do not invalidate it.
//!
//! # Compact-ID struct-of-arrays storage
//!
//! Node and edge ids are `u32`; the edge list is three parallel arrays
//! (`tails`, `heads`, `capacities`) rather than a `Vec<Edge>` of per-edge
//! structs, so an m-edge graph costs `2·4 + 8 = 16` bytes per edge for the
//! edge list plus `4·(n+1) + 2·2·4·m ≈ 16` bytes per edge for the CSR index —
//! about 32 bytes/edge all-in (measured by [`Graph::memory_bytes`]), which is
//! what makes `n = 10^6..10^7` graphs affordable. [`Edge`] remains the
//! by-value *view* type handed out by accessors; it is never stored.
//!
//! Construction enforces the id space: node counts above
//! [`Graph::MAX_NODES`] or edge counts above [`Graph::MAX_EDGES`] are
//! rejected with typed [`GraphError`]s instead of silently truncating ids.

use std::sync::OnceLock;

use crate::csr::{Csr, IncidentSlots};
use crate::{GraphError, Result};

/// Identifier of a node, an index into `0..graph.num_nodes()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value as u32)
    }
}

/// Identifier of an (oriented) edge, an index into `0..graph.num_edges()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(value as u32)
    }
}

/// A single undirected edge with the fixed orientation `tail -> head` used to
/// give flow values a sign (paper §1.1: "We fix an arbitrary orientation of
/// the edges").
///
/// This is a by-value *view* assembled on demand from the graph's
/// struct-of-arrays storage — cheap to copy, never stored per edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Tail of the fixed orientation.
    pub tail: NodeId,
    /// Head of the fixed orientation.
    pub head: NodeId,
    /// Capacity `cap(e) > 0`.
    pub capacity: f64,
}

impl Edge {
    /// Returns the endpoint different from `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not an endpoint of the edge.
    #[inline]
    pub fn other(&self, u: NodeId) -> NodeId {
        if u == self.tail {
            self.head
        } else if u == self.head {
            self.tail
        } else {
            panic!("node {u} is not an endpoint of edge {self:?}");
        }
    }

    /// Returns `true` if `u` is one of the endpoints.
    #[inline]
    pub fn is_incident(&self, u: NodeId) -> bool {
        self.tail == u || self.head == u
    }

    /// Orientation sign of the edge as seen from node `u`:
    /// `+1.0` if the edge leaves `u` (u is the tail), `-1.0` if it enters `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not an endpoint of the edge.
    #[inline]
    pub fn sign_from(&self, u: NodeId) -> f64 {
        if u == self.tail {
            1.0
        } else if u == self.head {
            -1.0
        } else {
            panic!("node {u} is not an endpoint of edge {self:?}");
        }
    }
}

/// Heap-memory breakdown of a [`Graph`], from [`Graph::memory_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphMemory {
    /// Bytes of the tail/head/capacity edge arrays.
    pub edge_list_bytes: usize,
    /// Bytes of the CSR incidence index (0 if not yet built).
    pub csr_bytes: usize,
}

impl GraphMemory {
    /// Total heap bytes (edge list + CSR index).
    pub fn total(&self) -> usize {
        self.edge_list_bytes + self.csr_bytes
    }

    /// Total bytes divided by the edge count; `0.0` for an edgeless graph.
    /// The 48 bytes/edge budget of the SoA core is asserted at a million
    /// nodes by `testkit`'s `streaming_*_builds_a_million_nodes` tests.
    pub fn bytes_per_edge(&self, num_edges: usize) -> f64 {
        if num_edges == 0 {
            0.0
        } else {
            self.total() as f64 / num_edges as f64
        }
    }
}

/// An undirected, capacitated multigraph.
///
/// Nodes are `0..n`, edges are `0..m` in insertion order; parallel edges and
/// the empty graph are allowed, self-loops are not. Incidence queries are
/// answered from a flat CSR index ([`Graph::csr`]) that lists every node's
/// incident `(edge, neighbor)` slots contiguously and in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Tail endpoint of each edge (fixed orientation).
    tails: Vec<u32>,
    /// Head endpoint of each edge, parallel to `tails`.
    heads: Vec<u32>,
    /// Capacity of each edge, parallel to `tails`.
    capacities: Vec<f64>,
    num_nodes: usize,
    /// Lazily built CSR incidence index; cleared on topology mutation and
    /// rebuilt on demand.
    csr: OnceLock<Csr>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // The CSR cache is derived state and must not affect equality.
        self.num_nodes == other.num_nodes
            && self.tails == other.tails
            && self.heads == other.heads
            && self.capacities == other.capacities
    }
}

// Shared-graph parallelism (worker pools borrowing one `&Graph`) rests on the
// lazy CSR cache being a thread-safe `OnceLock`: concurrent first queries
// race to build, exactly one build wins, everyone sees the same index. Pin
// the `Send + Sync` consequence at compile time so a future cache field
// (e.g. a `RefCell`) can't silently revoke it.
const _: fn() = parallel::assert_send_sync::<Graph>;
const _: fn() = parallel::assert_send_sync::<Csr>;

impl Graph {
    /// Largest supported node count: node ids must fit in `u32`.
    pub const MAX_NODES: usize = u32::MAX as usize;

    /// Largest supported edge count: edge ids must fit in `u32` **and** the
    /// CSR slot offsets (`2m` of them) must too, so the bound is
    /// `u32::MAX / 2`.
    pub const MAX_EDGES: usize = (u32::MAX / 2) as usize;

    /// Creates an empty graph with `n` isolated nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`Graph::MAX_NODES`]; use
    /// [`Graph::try_with_nodes`] for a typed error instead.
    pub fn with_nodes(n: usize) -> Self {
        Self::try_with_nodes(n).expect("node count exceeds the u32 id space")
    }

    /// Creates an empty graph with `n` isolated nodes, rejecting node counts
    /// that do not fit the `u32` id space.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyNodes`] if `n > Graph::MAX_NODES`.
    pub fn try_with_nodes(n: usize) -> Result<Self> {
        if n > Self::MAX_NODES {
            return Err(GraphError::TooManyNodes { requested: n });
        }
        Ok(Graph {
            tails: Vec::new(),
            heads: Vec::new(),
            capacities: Vec::new(),
            num_nodes: n,
            csr: OnceLock::new(),
        })
    }

    /// Builds a graph in one shot from struct-of-arrays edge data: parallel
    /// `tails` / `heads` / `capacities` arrays over `num_nodes` nodes. This
    /// is the bulk-construction path the streaming million-node generators
    /// use — no intermediate per-edge structs or per-node vectors.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyNodes`] / [`GraphError::TooManyEdges`]
    /// when a count overflows the `u32` id space,
    /// [`GraphError::DemandMismatch`] when the arrays are not parallel, and
    /// the usual [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] /
    /// [`GraphError::InvalidWeight`] for invalid edges.
    pub fn from_soa(
        num_nodes: usize,
        tails: Vec<u32>,
        heads: Vec<u32>,
        capacities: Vec<f64>,
    ) -> Result<Self> {
        if num_nodes > Self::MAX_NODES {
            return Err(GraphError::TooManyNodes {
                requested: num_nodes,
            });
        }
        if tails.len() > Self::MAX_EDGES {
            return Err(GraphError::TooManyEdges {
                requested: tails.len(),
            });
        }
        if tails.len() != heads.len() || tails.len() != capacities.len() {
            return Err(GraphError::DemandMismatch {
                expected: tails.len(),
                actual: heads.len().min(capacities.len()),
            });
        }
        for (&t, &h) in tails.iter().zip(&heads) {
            if t as usize >= num_nodes || h as usize >= num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: (t as usize).max(h as usize),
                    num_nodes,
                });
            }
            if t == h {
                return Err(GraphError::SelfLoop { node: t as usize });
            }
        }
        for &c in &capacities {
            if !(c.is_finite() && c > 0.0) {
                return Err(GraphError::InvalidWeight { value: c });
            }
        }
        Ok(Graph {
            tails,
            heads,
            capacities,
            num_nodes,
            csr: OnceLock::new(),
        })
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges `m` (parallel edges counted individually).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.tails.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// The CSR incidence index of the current topology, built on first use
    /// after a mutation. All neighborhood queries go through this index.
    #[inline]
    pub fn csr(&self) -> &Csr {
        self.csr
            .get_or_init(|| Csr::from_edges(self.num_nodes, &self.tails, &self.heads))
    }

    /// Adds a new isolated node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the node count would exceed [`Graph::MAX_NODES`].
    pub fn add_node(&mut self) -> NodeId {
        assert!(
            self.num_nodes < Self::MAX_NODES,
            "node count exceeds the u32 id space"
        );
        self.num_nodes += 1;
        self.csr.take();
        NodeId((self.num_nodes - 1) as u32)
    }

    /// Adds an undirected edge `{u, v}` with the fixed orientation `u -> v`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, if `u == v`, if
    /// the capacity is not a strictly positive finite number, or if the edge
    /// count would exceed [`Graph::MAX_EDGES`]
    /// ([`GraphError::TooManyEdges`]).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, capacity: f64) -> Result<EdgeId> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u.index() });
        }
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(GraphError::InvalidWeight { value: capacity });
        }
        if self.tails.len() >= Self::MAX_EDGES {
            return Err(GraphError::TooManyEdges {
                requested: self.tails.len() + 1,
            });
        }
        let id = EdgeId(self.tails.len() as u32);
        self.tails.push(u.0);
        self.heads.push(v.0);
        self.capacities.push(capacity);
        self.csr.take();
        Ok(id)
    }

    /// Returns the edge with the given id (a by-value view into the
    /// struct-of-arrays storage).
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        let i = e.index();
        Edge {
            tail: NodeId(self.tails[i]),
            head: NodeId(self.heads[i]),
            capacity: self.capacities[i],
        }
    }

    /// Returns the edge with the given id, or `None` if out of range.
    #[inline]
    pub fn get_edge(&self, e: EdgeId) -> Option<Edge> {
        if e.index() < self.tails.len() {
            Some(self.edge(e))
        } else {
            None
        }
    }

    /// Tail endpoint of edge `e` (fixed orientation).
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[inline]
    pub fn tail(&self, e: EdgeId) -> NodeId {
        NodeId(self.tails[e.index()])
    }

    /// Head endpoint of edge `e` (fixed orientation).
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[inline]
    pub fn head(&self, e: EdgeId) -> NodeId {
        NodeId(self.heads[e.index()])
    }

    /// Capacity of edge `e`.
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.capacities[e.index()]
    }

    /// The raw per-edge capacity array (hot-path accessor for kernels that
    /// scan all capacities).
    #[inline]
    pub fn capacity_slice(&self) -> &[f64] {
        &self.capacities
    }

    /// Replaces the capacity of edge `e`.
    ///
    /// # Errors
    ///
    /// Returns an error if the capacity is not strictly positive and finite.
    pub fn set_capacity(&mut self, e: EdgeId, capacity: f64) -> Result<()> {
        self.check_edge(e)?;
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(GraphError::InvalidWeight { value: capacity });
        }
        self.capacities[e.index()] = capacity;
        Ok(())
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Iterates over `(EdgeId, Edge)` pairs (edges are by-value views).
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.tails
            .iter()
            .zip(&self.heads)
            .zip(&self.capacities)
            .enumerate()
            .map(|(i, ((&t, &h), &c))| {
                (
                    EdgeId(i as u32),
                    Edge {
                        tail: NodeId(t),
                        head: NodeId(h),
                        capacity: c,
                    },
                )
            })
    }

    /// The incident `(edge, neighbor)` slots of node `v` as a pair of
    /// contiguous CSR slices, in edge insertion order (parallel edges
    /// repeated). The view iterates as `(EdgeId, NodeId)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn incident(&self, v: NodeId) -> IncidentSlots<'_> {
        self.csr().incident(v)
    }

    /// The raw neighbor slice of node `v` (BFS fast path; see
    /// [`Csr::neighbor_slice`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[u32] {
        self.csr().neighbor_slice(v)
    }

    /// The raw incident edge-id slice of node `v` (capacity-scan fast path;
    /// see [`Csr::edge_id_slice`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn edge_id_slice(&self, v: NodeId) -> &[u32] {
        self.csr().edge_id_slice(v)
    }

    /// Degree of node `v` (number of incident edge slots, so parallel edges
    /// count multiple times).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr().degree(v)
    }

    /// Iterates over `(EdgeId, neighbor)` pairs for node `v`, in edge
    /// insertion order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.incident(v).iter()
    }

    /// Sum of all edge capacities.
    pub fn total_capacity(&self) -> f64 {
        self.capacities.iter().sum()
    }

    /// Largest edge capacity, or `0.0` for an edgeless graph.
    pub fn max_capacity(&self) -> f64 {
        self.capacities.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest edge capacity, or `f64::INFINITY` for an edgeless graph.
    pub fn min_capacity(&self) -> f64 {
        self.capacities
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Total capacity of edges incident to `v`.
    pub fn weighted_degree(&self, v: NodeId) -> f64 {
        self.edge_id_slice(v)
            .iter()
            .map(|&e| self.capacities[e as usize])
            .sum()
    }

    /// Heap-memory breakdown of the graph storage (edge arrays plus the CSR
    /// index if built). The `hierarchy_scale` bench prints it per instance.
    pub fn memory_bytes(&self) -> GraphMemory {
        let edge_list_bytes = std::mem::size_of::<u32>()
            * (self.tails.capacity() + self.heads.capacity())
            + std::mem::size_of::<f64>() * self.capacities.capacity();
        GraphMemory {
            edge_list_bytes,
            csr_bytes: self.csr.get().map_or(0, Csr::heap_bytes),
        }
    }

    /// Runs a breadth-first search from `root` and returns, for every node,
    /// its hop distance from the root (`usize::MAX` for unreachable nodes).
    pub fn bfs_distances(&self, root: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_nodes()];
        if root.index() >= self.num_nodes() {
            return dist;
        }
        let csr = self.csr();
        let mut queue = std::collections::VecDeque::new();
        dist[root.index()] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let next = dist[u.index()] + 1;
            for &w in csr.neighbor_slice(u) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = next;
                    queue.push_back(NodeId(w));
                }
            }
        }
        dist
    }

    /// Returns `true` if every node is reachable from node 0 (the empty graph
    /// counts as connected).
    ///
    /// Fewer than `n − 1` edges cannot connect `n` nodes, and that case is
    /// answered before the O(n) search, so a huge node count read from input
    /// allocates nothing here.
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        if self.num_edges() + 1 < self.num_nodes() {
            return false;
        }
        self.bfs_distances(NodeId(0))
            .iter()
            .all(|&d| d != usize::MAX)
    }

    /// The hop diameter of the graph (longest shortest path in hops),
    /// computed exactly with one BFS per node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotConnected`] if the graph is disconnected and
    /// [`GraphError::Empty`] if it has no nodes.
    pub fn hop_diameter(&self) -> Result<usize> {
        if self.num_nodes() == 0 {
            return Err(GraphError::Empty);
        }
        let mut diam = 0usize;
        for v in self.nodes() {
            let dist = self.bfs_distances(v);
            for &d in &dist {
                if d == usize::MAX {
                    return Err(GraphError::NotConnected);
                }
                diam = diam.max(d);
            }
        }
        Ok(diam)
    }

    /// Cheap 2-approximation of the hop diameter using a single BFS
    /// (eccentricity of node 0 doubled is an upper bound; we return the
    /// eccentricity of the farthest node found by a second BFS, which is a
    /// lower bound and at least half the true diameter).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotConnected`] or [`GraphError::Empty`]
    /// analogously to [`Graph::hop_diameter`].
    pub fn approx_hop_diameter(&self) -> Result<usize> {
        if self.num_nodes() == 0 {
            return Err(GraphError::Empty);
        }
        let d0 = self.bfs_distances(NodeId(0));
        let (far, &maxd) = d0
            .iter()
            .enumerate()
            .max_by_key(|(_, &d)| if d == usize::MAX { 0 } else { d })
            .expect("non-empty");
        if d0.contains(&usize::MAX) {
            return Err(GraphError::NotConnected);
        }
        let _ = maxd;
        let d1 = self.bfs_distances(NodeId(far as u32));
        Ok(*d1.iter().max().expect("non-empty"))
    }

    /// Connected components as a node -> component-index labelling, plus the
    /// number of components.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0usize;
        if n > 0 {
            let csr = self.csr();
            let mut queue = std::collections::VecDeque::new();
            for start in 0..n {
                if comp[start] != usize::MAX {
                    continue;
                }
                comp[start] = next;
                queue.push_back(NodeId(start as u32));
                while let Some(u) = queue.pop_front() {
                    for &w in csr.neighbor_slice(u) {
                        if comp[w as usize] == usize::MAX {
                            comp[w as usize] = next;
                            queue.push_back(NodeId(w));
                        }
                    }
                }
                next += 1;
            }
        }
        (comp, next)
    }

    /// Returns a copy of the graph restricted to the given edge set (same node
    /// set, only the listed edges). Edge ids are re-assigned in the order
    /// given; the returned vector maps new edge ids to old ones.
    pub fn edge_subgraph(&self, edges: &[EdgeId]) -> (Graph, Vec<EdgeId>) {
        let mut g = Graph::with_nodes(self.num_nodes());
        let mut back = Vec::with_capacity(edges.len());
        for &e in edges {
            let edge = self.edge(e);
            g.add_edge(edge.tail, edge.head, edge.capacity)
                .expect("edges of a valid graph remain valid");
            back.push(e);
        }
        (g, back)
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if v.index() >= self.num_nodes() {
            Err(GraphError::NodeOutOfRange {
                node: v.index(),
                num_nodes: self.num_nodes(),
            })
        } else {
            Ok(())
        }
    }

    fn check_edge(&self, e: EdgeId) -> Result<()> {
        if e.index() >= self.num_edges() {
            Err(GraphError::EdgeOutOfRange {
                edge: e.index(),
                num_edges: self.num_edges(),
            })
        } else {
            Ok(())
        }
    }
}

/// Builder for [`Graph`] that allows deferred validation and fluent
/// construction of test and example graphs.
///
/// # Example
///
/// ```
/// use flowgraph::GraphBuilder;
///
/// let g = GraphBuilder::new(3)
///     .edge(0, 1, 2.0)
///     .edge(1, 2, 3.0)
///     .build()
///     .expect("valid graph");
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// Queues an edge `{u, v}` with the given capacity.
    #[must_use]
    pub fn edge(mut self, u: usize, v: usize, capacity: f64) -> Self {
        self.edges.push((u, v, capacity));
        self
    }

    /// Queues a unit-capacity edge `{u, v}`.
    #[must_use]
    pub fn unit_edge(self, u: usize, v: usize) -> Self {
        self.edge(u, v, 1.0)
    }

    /// Builds the graph, validating every queued edge.
    ///
    /// # Errors
    ///
    /// Returns the first validation error encountered (out-of-range endpoint,
    /// self-loop, non-positive capacity, or a node/edge count overflowing the
    /// `u32` id space).
    pub fn build(self) -> Result<Graph> {
        let mut g = Graph::try_with_nodes(self.num_nodes)?;
        for (u, v, c) in self.edges {
            g.add_edge(NodeId(u as u32), NodeId(v as u32), c)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        GraphBuilder::new(3)
            .edge(0, 1, 1.0)
            .edge(1, 2, 2.0)
            .edge(2, 0, 4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_query_basic_properties() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.total_capacity(), 7.0);
        assert_eq!(g.max_capacity(), 4.0);
        assert_eq!(g.min_capacity(), 1.0);
        assert!(g.is_connected());
    }

    #[test]
    fn edge_orientation_and_sign() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.tail, NodeId(0));
        assert_eq!(e.head, NodeId(1));
        assert_eq!(e.sign_from(NodeId(0)), 1.0);
        assert_eq!(e.sign_from(NodeId(1)), -1.0);
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert!(e.is_incident(NodeId(1)));
        assert!(!e.is_incident(NodeId(2)));
        assert_eq!(g.tail(EdgeId(0)), NodeId(0));
        assert_eq!(g.head(EdgeId(0)), NodeId(1));
    }

    #[test]
    fn rejects_invalid_edges() {
        let mut g = Graph::with_nodes(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(0), 1.0),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(5), 1.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), 0.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::INFINITY),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn rejects_id_space_overflow() {
        // Node counts beyond u32 must be a typed error, not a truncation.
        let r = Graph::try_with_nodes(Graph::MAX_NODES + 1);
        assert!(matches!(
            r,
            Err(GraphError::TooManyNodes {
                requested
            }) if requested == Graph::MAX_NODES + 1
        ));
        assert!(GraphBuilder::new(Graph::MAX_NODES + 1).build().is_err());
        let r = Graph::from_soa(Graph::MAX_NODES + 1, vec![], vec![], vec![]);
        assert!(matches!(r, Err(GraphError::TooManyNodes { .. })));
        // MAX_NODES itself is fine (no edge storage is allocated).
        assert!(Graph::try_with_nodes(Graph::MAX_NODES).is_ok());
    }

    #[test]
    fn from_soa_validates_and_matches_incremental_build() {
        let bulk = Graph::from_soa(3, vec![0, 1, 2], vec![1, 2, 0], vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(bulk, triangle());
        assert!(matches!(
            Graph::from_soa(3, vec![0], vec![0], vec![1.0]),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            Graph::from_soa(3, vec![0], vec![7], vec![1.0]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            Graph::from_soa(3, vec![0], vec![1], vec![-1.0]),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            Graph::from_soa(3, vec![0, 1], vec![1], vec![1.0]),
            Err(GraphError::DemandMismatch { .. })
        ));
    }

    #[test]
    fn memory_bytes_accounts_edge_list_and_csr() {
        let g = triangle();
        let before = g.memory_bytes();
        assert_eq!(before.csr_bytes, 0, "CSR not built yet");
        assert!(before.edge_list_bytes >= 3 * (4 + 4 + 8));
        let _ = g.incident(NodeId(0));
        let after = g.memory_bytes();
        // offsets: 4 u32, slots: 2 * 6 u32.
        assert!(after.csr_bytes >= 4 * 4 + 2 * 6 * 4);
        assert!(after.total() > before.total());
        assert!(after.bytes_per_edge(g.num_edges()) > 0.0);
        assert_eq!(after.bytes_per_edge(0), 0.0);
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.weighted_degree(NodeId(0)), 3.0);
    }

    #[test]
    fn bfs_distances_and_diameter() {
        let g = GraphBuilder::new(4)
            .unit_edge(0, 1)
            .unit_edge(1, 2)
            .unit_edge(2, 3)
            .build()
            .unwrap();
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
        assert_eq!(g.hop_diameter().unwrap(), 3);
        assert!(g.approx_hop_diameter().unwrap() >= 2);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = GraphBuilder::new(4)
            .unit_edge(0, 1)
            .unit_edge(2, 3)
            .build()
            .unwrap();
        assert!(!g.is_connected());
        assert!(matches!(g.hop_diameter(), Err(GraphError::NotConnected)));
        let (comp, k) = g.components();
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        // n − 1 edges can still leave a node out: the search decides.
        let g = GraphBuilder::new(4)
            .unit_edge(0, 1)
            .unit_edge(1, 2)
            .unit_edge(2, 0)
            .build()
            .unwrap();
        assert!(!g.is_connected());
        // Too few edges to span: answered without a per-node allocation.
        let mut g = Graph::with_nodes(Graph::MAX_NODES);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = Graph::default();
        assert!(g.is_empty());
        assert!(g.is_connected());
        assert!(matches!(g.hop_diameter(), Err(GraphError::Empty)));
    }

    #[test]
    fn edge_subgraph_preserves_endpoints() {
        let g = triangle();
        let (sub, back) = g.edge_subgraph(&[EdgeId(2)]);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(back, vec![EdgeId(2)]);
        assert_eq!(sub.edge(EdgeId(0)).capacity, 4.0);
    }

    #[test]
    fn set_capacity_validates() {
        let mut g = triangle();
        g.set_capacity(EdgeId(0), 10.0).unwrap();
        assert_eq!(g.capacity(EdgeId(0)), 10.0);
        assert!(g.set_capacity(EdgeId(0), -1.0).is_err());
        assert!(g.set_capacity(EdgeId(9), 1.0).is_err());
    }

    #[test]
    fn racing_incident_queries_build_exactly_one_csr() {
        // Two threads race `Graph::incident` on a freshly mutated graph: the
        // OnceLock must hand both the *same* lazily built index (pointer
        // equality), i.e. exactly one build happens.
        for attempt in 0..32 {
            let mut g = GraphBuilder::new(64).build().unwrap();
            for i in 0..63u32 {
                g.add_edge(NodeId(i), NodeId(i + 1), 1.0 + f64::from(attempt))
                    .unwrap();
            }
            let start = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let ha = s.spawn(|| {
                    start.wait();
                    let slots = g.incident(NodeId(1));
                    (g.csr() as *const Csr as usize, slots.len())
                });
                let hb = s.spawn(|| {
                    start.wait();
                    let slots = g.incident(NodeId(62));
                    (g.csr() as *const Csr as usize, slots.len())
                });
                (ha.join().unwrap(), hb.join().unwrap())
            });
            assert_eq!(a.0, b.0, "both threads must see the same CSR build");
            assert_eq!(a.1, 2);
            assert_eq!(b.1, 2);
        }
    }

    #[test]
    fn builder_example_compiles() {
        let g = GraphBuilder::new(3)
            .edge(0, 1, 2.0)
            .edge(1, 2, 3.0)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 2);
    }
}
