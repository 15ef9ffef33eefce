//! Genuine message-passing implementations of the distributed toolbox used
//! throughout the paper: BFS-tree construction, leader election, broadcast,
//! convergecast and pipelined aggregation of `k` values over a tree
//! (the "`D + k` convergecasts" bound quoted in Lemma 5.1 and §9).
//!
//! Each function wraps a [`Protocol`] run on the [`Simulator`], validates the
//! result and returns both the computed object and the measured
//! [`RoundCost`], so the higher layers can compose real measured costs. The
//! protocols write directly into the engine's flat message arenas via
//! [`Outbox`] and allocate nothing per round.

use flowgraph::{EdgeId, NodeId, RootedTree};

use crate::cost::RoundCost;
use crate::engine::{
    Inbox, LocalView, MessageSize, Network, Outbox, Protocol, SimulationError, Simulator,
};

/// Result of the distributed BFS-tree construction.
#[derive(Debug, Clone)]
pub struct BfsTreeResult {
    /// The constructed BFS tree, rooted at the requested node.
    pub tree: RootedTree,
    /// Rounds and messages used.
    pub cost: RoundCost,
}

/// Distributed BFS-tree construction by level-synchronized flooding from
/// `root`. Completes in (eccentricity of the root) + O(1) rounds.
///
/// # Panics
///
/// Panics if the graph is disconnected (the paper assumes a connected
/// network) or `root` is out of range.
pub fn build_bfs_tree(network: &Network, root: NodeId) -> BfsTreeResult {
    let run = Simulator::new()
        .run(network, &BfsProtocol::new(root))
        .expect("BFS flooding respects the CONGEST rules");
    let mut parent = vec![None; network.num_nodes()];
    let mut parent_edge = vec![None; network.num_nodes()];
    for (v, out) in run.outputs.iter().enumerate() {
        if let Some((edge, par)) = out {
            parent[v] = Some(*par);
            parent_edge[v] = Some(*edge);
        }
    }
    let tree = RootedTree::from_parents(root, parent, parent_edge)
        .expect("BFS on a connected graph yields a spanning tree");
    BfsTreeResult {
        tree,
        cost: run.cost,
    }
}

/// The level-synchronized BFS flooding protocol behind [`build_bfs_tree`].
/// Public so differential suites can execute the same protocol on both the
/// arena engine and the reference engine; each node outputs its
/// `(parent edge, parent)` pair (`None` at the root).
pub struct BfsProtocol {
    root: NodeId,
}

impl BfsProtocol {
    /// A BFS flood rooted at `root`.
    pub fn new(root: NodeId) -> Self {
        BfsProtocol { root }
    }
}

/// The (payload-free) join announcement of [`BfsProtocol`].
#[derive(Clone, Debug)]
pub struct BfsMsg;

impl MessageSize for BfsMsg {}

/// Per-node state of [`BfsProtocol`].
pub struct BfsState {
    joined: bool,
    parent: Option<(EdgeId, NodeId)>,
}

impl Protocol for BfsProtocol {
    type Msg = BfsMsg;
    type State = BfsState;
    type Output = Option<(EdgeId, NodeId)>;

    fn init(&self, view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
        if view.node == self.root {
            outbox.broadcast(BfsMsg);
            BfsState {
                joined: true,
                parent: None,
            }
        } else {
            BfsState {
                joined: false,
                parent: None,
            }
        }
    }

    fn round(
        &self,
        view: &LocalView<'_>,
        state: &mut Self::State,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        _round: u64,
    ) {
        if state.joined {
            return;
        }
        // Join via the smallest arrival edge id for determinism (the inbox
        // order is the incident-edge order, so the first message is it).
        let Some((edge, _)) = inbox.first() else {
            return;
        };
        let parent = view
            .neighbor_via(edge)
            .expect("message arrived over an incident edge");
        state.joined = true;
        state.parent = Some((edge, parent));
        for (i, (e, _)) in view.incident_pairs().iter().enumerate() {
            if e != edge {
                outbox.send_at(i, BfsMsg);
            }
        }
    }

    fn is_terminated(&self, state: &Self::State) -> bool {
        state.joined
    }

    fn output(&self, _view: &LocalView<'_>, state: Self::State) -> Self::Output {
        state.parent
    }
}

/// Result of a leader election.
#[derive(Debug, Clone)]
pub struct LeaderResult {
    /// The elected leader (the node with the smallest identifier).
    pub leader: NodeId,
    /// Rounds and messages used.
    pub cost: RoundCost,
}

/// Elects the node with the minimum identifier by flooding, in `O(D)` rounds.
///
/// # Panics
///
/// Panics if the protocol fails to converge within the simulator's round cap
/// (only possible on disconnected graphs).
pub fn elect_leader(network: &Network) -> LeaderResult {
    let run = Simulator::new()
        .run(network, &MinIdFlood)
        .expect("flooding respects the CONGEST rules");
    let leader = NodeId(run.outputs[0]);
    debug_assert!(run.outputs.iter().all(|&b| b == run.outputs[0]));
    LeaderResult {
        leader,
        cost: run.cost,
    }
}

/// The minimum-identifier flooding protocol behind [`elect_leader`]: every
/// node announces the smallest id it has seen and re-floods on improvement;
/// each node outputs that minimum. Public because its outputs are
/// independent of message delivery order, which makes it the canonical
/// replay subject of the engine suites: the same outputs must emerge on the
/// arena round loop and on the reference engine.
pub struct MinIdFlood;

/// The id announcement of [`MinIdFlood`] (one `O(log n)`-bit word).
#[derive(Clone, Debug)]
pub struct MinMsg(u32);

impl MessageSize for MinMsg {}

/// Per-node state of [`MinIdFlood`].
pub struct MinState {
    best: u32,
    announced: Option<u32>,
}

impl Protocol for MinIdFlood {
    type Msg = MinMsg;
    type State = MinState;
    type Output = u32;

    fn init(&self, view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
        outbox.broadcast(MinMsg(view.node.0));
        MinState {
            best: view.node.0,
            announced: Some(view.node.0),
        }
    }

    fn round(
        &self,
        _view: &LocalView<'_>,
        state: &mut Self::State,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        _round: u64,
    ) {
        for (_, MinMsg(id)) in inbox.iter() {
            state.best = state.best.min(*id);
        }
        if state.announced != Some(state.best) {
            state.announced = Some(state.best);
            outbox.broadcast(MinMsg(state.best));
        }
    }

    fn is_terminated(&self, _state: &Self::State) -> bool {
        true
    }

    fn output(&self, _view: &LocalView<'_>, state: Self::State) -> Self::Output {
        state.best
    }
}

/// Result of a broadcast over a tree.
#[derive(Debug, Clone)]
pub struct BroadcastResult {
    /// The value received by every node (indexed by node id).
    pub values: Vec<f64>,
    /// Rounds and messages used.
    pub cost: RoundCost,
}

/// Broadcasts `value` from the root of `tree` to every node, using only tree
/// edges, in (tree depth) rounds.
///
/// # Panics
///
/// Panics if `tree` is not a spanning subtree of the network graph (every
/// parent edge must be realized by a graph edge).
pub fn broadcast_over_tree(network: &Network, tree: &RootedTree, value: f64) -> BroadcastResult {
    let protocol = TreeBroadcast { tree, value };
    let run = Simulator::new()
        .run(network, &protocol)
        .expect("tree broadcast respects the CONGEST rules");
    let values = run.outputs;
    BroadcastResult {
        values,
        cost: run.cost,
    }
}

struct TreeBroadcast<'a> {
    tree: &'a RootedTree,
    value: f64,
}

#[derive(Clone, Debug)]
struct ValueMsg(f64);

impl MessageSize for ValueMsg {}

struct BroadcastState {
    value: Option<f64>,
    forwarded: bool,
}

impl<'a> TreeBroadcast<'a> {
    fn send_to_children(&self, v: NodeId, value: f64, outbox: &mut Outbox<'_, ValueMsg>) {
        for &c in self.tree.children(v) {
            let e = self
                .tree
                .parent_edge(c)
                .expect("spanning tree children have realizing parent edges");
            outbox.send(e, ValueMsg(value));
        }
    }
}

impl<'a> Protocol for TreeBroadcast<'a> {
    type Msg = ValueMsg;
    type State = BroadcastState;
    type Output = f64;

    fn init(&self, view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
        if view.node == self.tree.root() {
            self.send_to_children(view.node, self.value, outbox);
            BroadcastState {
                value: Some(self.value),
                forwarded: true,
            }
        } else {
            BroadcastState {
                value: None,
                forwarded: false,
            }
        }
    }

    fn round(
        &self,
        view: &LocalView<'_>,
        state: &mut Self::State,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        _round: u64,
    ) {
        if state.forwarded {
            return;
        }
        if let Some((_, ValueMsg(v))) = inbox.first() {
            state.value = Some(*v);
            state.forwarded = true;
            self.send_to_children(view.node, *v, outbox);
        }
    }

    fn is_terminated(&self, state: &Self::State) -> bool {
        state.value.is_some()
    }

    fn output(&self, _view: &LocalView<'_>, state: Self::State) -> Self::Output {
        state
            .value
            .expect("broadcast reached every node of a spanning tree")
    }
}

/// Result of a convergecast (aggregation towards the root).
#[derive(Debug, Clone)]
pub struct ConvergecastResult {
    /// The aggregate received by the root.
    pub root_value: f64,
    /// Per-node partial aggregates (the subtree sums seen by each node).
    pub subtree_values: Vec<f64>,
    /// Rounds and messages used.
    pub cost: RoundCost,
}

/// Aggregates `values` (one per node) towards the root of `tree` by summing
/// along tree edges; completes in (tree depth) rounds.
///
/// As a by-product every node learns the sum of its own subtree, which is the
/// primitive used to evaluate tree-cut congestion (Figure 2 of the paper).
///
/// # Panics
///
/// Panics if `values.len()` differs from the node count or the tree is not a
/// spanning subtree of the network graph.
pub fn convergecast_sum(
    network: &Network,
    tree: &RootedTree,
    values: &[f64],
) -> ConvergecastResult {
    assert_eq!(
        values.len(),
        network.num_nodes(),
        "value vector length mismatch"
    );
    let protocol = TreeConvergecast { tree, values };
    let run = Simulator::new()
        .run(network, &protocol)
        .expect("tree convergecast respects the CONGEST rules");
    let subtree_values = run.outputs;
    let root_value = subtree_values[tree.root().index()];
    ConvergecastResult {
        root_value,
        subtree_values,
        cost: run.cost,
    }
}

struct TreeConvergecast<'a> {
    tree: &'a RootedTree,
    values: &'a [f64],
}

struct ConvergecastState {
    pending_children: usize,
    acc: f64,
    sent: bool,
}

impl<'a> Protocol for TreeConvergecast<'a> {
    type Msg = ValueMsg;
    type State = ConvergecastState;
    type Output = f64;

    fn init(&self, view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
        let children = self.tree.children(view.node).len();
        let mut state = ConvergecastState {
            pending_children: children,
            acc: self.values[view.node.index()],
            sent: false,
        };
        if children == 0 && view.node != self.tree.root() {
            let e = self
                .tree
                .parent_edge(view.node)
                .expect("non-root node of a spanning tree has a parent edge");
            outbox.send(e, ValueMsg(state.acc));
            state.sent = true;
        }
        state
    }

    fn round(
        &self,
        view: &LocalView<'_>,
        state: &mut Self::State,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        _round: u64,
    ) {
        for (_, ValueMsg(v)) in inbox.iter() {
            state.acc += v;
            state.pending_children -= 1;
        }
        if !state.sent && state.pending_children == 0 && view.node != self.tree.root() {
            state.sent = true;
            let e = self
                .tree
                .parent_edge(view.node)
                .expect("non-root node of a spanning tree has a parent edge");
            outbox.send(e, ValueMsg(state.acc));
        }
    }

    fn is_terminated(&self, state: &Self::State) -> bool {
        state.pending_children == 0
    }

    fn output(&self, _view: &LocalView<'_>, state: Self::State) -> Self::Output {
        state.acc
    }
}

/// Result of a pipelined multi-value aggregation.
#[derive(Debug, Clone)]
pub struct PipelinedResult {
    /// The `k` aggregated totals received by the root.
    pub totals: Vec<f64>,
    /// Rounds and messages used.
    pub cost: RoundCost,
}

/// Aggregates `k` independent value vectors towards the root of `tree` with
/// pipelining: one `(index, partial sum)` message per tree edge per round.
///
/// This is the classic "`k` convergecasts on a depth-`d` tree take `O(d + k)`
/// rounds" primitive (used in Lemma 5.1 and §9 for handling the Õ(√n) large
/// clusters / component summaries).
///
/// # Panics
///
/// Panics if the per-node value vectors do not all have length `k`, or the
/// tree is not a spanning subtree of the network graph.
pub fn pipelined_convergecast(
    network: &Network,
    tree: &RootedTree,
    per_node_values: &[Vec<f64>],
    k: usize,
) -> PipelinedResult {
    assert_eq!(
        per_node_values.len(),
        network.num_nodes(),
        "need one value vector per node"
    );
    assert!(
        per_node_values.iter().all(|v| v.len() == k),
        "every node must hold exactly k values"
    );
    let protocol = PipelinedConvergecast {
        tree,
        values: per_node_values,
        k,
    };
    let run = Simulator::new()
        .run(network, &protocol)
        .expect("pipelined convergecast respects the CONGEST rules");
    let totals = run.outputs[tree.root().index()].clone();
    PipelinedResult {
        totals,
        cost: run.cost,
    }
}

struct PipelinedConvergecast<'a> {
    tree: &'a RootedTree,
    values: &'a [Vec<f64>],
    k: usize,
}

#[derive(Clone, Debug)]
struct IndexedValueMsg {
    index: u32,
    value: f64,
}

impl MessageSize for IndexedValueMsg {
    fn words(&self) -> u64 {
        2
    }
}

struct PipelinedState {
    /// Partial sums per index.
    acc: Vec<f64>,
    /// Remaining child reports per index.
    pending: Vec<usize>,
    /// Next index to forward to the parent.
    next_to_send: usize,
}

impl<'a> Protocol for PipelinedConvergecast<'a> {
    type Msg = IndexedValueMsg;
    type State = PipelinedState;
    type Output = Vec<f64>;

    fn init(&self, view: &LocalView<'_>, _outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
        let children = self.tree.children(view.node).len();
        PipelinedState {
            acc: self.values[view.node.index()].clone(),
            pending: vec![children; self.k],
            next_to_send: 0,
        }
    }

    fn round(
        &self,
        view: &LocalView<'_>,
        state: &mut Self::State,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        _round: u64,
    ) {
        for (_, msg) in inbox.iter() {
            let i = msg.index as usize;
            state.acc[i] += msg.value;
            state.pending[i] -= 1;
        }
        if view.node == self.tree.root() || state.next_to_send >= self.k {
            return;
        }
        let i = state.next_to_send;
        if state.pending[i] == 0 {
            state.next_to_send += 1;
            let e = self
                .tree
                .parent_edge(view.node)
                .expect("non-root node of a spanning tree has a parent edge");
            outbox.send(
                e,
                IndexedValueMsg {
                    index: i as u32,
                    value: state.acc[i],
                },
            );
        }
    }

    fn is_terminated(&self, state: &Self::State) -> bool {
        state.pending.iter().all(|&p| p == 0)
    }

    fn output(&self, _view: &LocalView<'_>, state: Self::State) -> Self::Output {
        state.acc
    }
}

/// Convenience: the measured cost of making `k` values of global interest
/// known to every node via the BFS tree (convergecast of `k` values followed
/// by a pipelined broadcast), as used by Lemma 5.1. The returned cost is
/// `O(depth + k)` rounds with the constant measured on the actual tree.
pub fn pipelined_broadcast_cost(tree: &RootedTree, k: u64) -> RoundCost {
    let d = tree.max_depth() as u64;
    // Upcast k values (pipelined): d + k rounds; downcast another d + k.
    RoundCost::rounds(2 * (d + k))
}

/// Re-export of the simulation error type for callers that run protocols
/// directly.
pub type ProtocolError = SimulationError;

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::gen;

    fn grid_network() -> Network {
        Network::new(gen::grid(4, 4, 1.0))
    }

    #[test]
    fn bfs_tree_has_correct_depths() {
        let network = grid_network();
        let result = build_bfs_tree(&network, NodeId(0));
        let dist = network.graph().bfs_distances(NodeId(0));
        for v in network.graph().nodes() {
            assert_eq!(
                result.tree.depth(v),
                dist[v.index()],
                "depth mismatch at {v}"
            );
        }
        assert!(result.cost.rounds as usize >= result.tree.max_depth());
        assert!(result.cost.rounds as usize <= result.tree.max_depth() + 2);
    }

    #[test]
    fn leader_election_finds_minimum() {
        let network = Network::new(gen::cycle(9, 1.0));
        let result = elect_leader(&network);
        assert_eq!(result.leader, NodeId(0));
        assert!(result.cost.rounds >= 4);
    }

    #[test]
    fn broadcast_reaches_all_nodes_in_depth_rounds() {
        let network = grid_network();
        let bfs = build_bfs_tree(&network, NodeId(0));
        let result = broadcast_over_tree(&network, &bfs.tree, 42.5);
        assert!(result.values.iter().all(|&v| (v - 42.5).abs() < 1e-12));
        assert!(result.cost.rounds as usize <= bfs.tree.max_depth() + 2);
        // Broadcast uses only tree edges: n - 1 messages.
        assert_eq!(result.cost.messages as usize, network.num_nodes() - 1);
    }

    #[test]
    fn convergecast_computes_subtree_sums() {
        let network = grid_network();
        let bfs = build_bfs_tree(&network, NodeId(0));
        let values: Vec<f64> = (0..network.num_nodes()).map(|v| v as f64).collect();
        let result = convergecast_sum(&network, &bfs.tree, &values);
        let expected_total: f64 = values.iter().sum();
        assert!((result.root_value - expected_total).abs() < 1e-9);
        let reference = bfs.tree.subtree_sums(&values);
        for v in network.graph().nodes() {
            assert!(
                (result.subtree_values[v.index()] - reference[v.index()]).abs() < 1e-9,
                "subtree sum mismatch at {v}"
            );
        }
        assert!(result.cost.rounds as usize <= bfs.tree.max_depth() + 2);
    }

    #[test]
    fn pipelined_convergecast_is_depth_plus_k() {
        let network = Network::new(gen::path(20, 1.0));
        let bfs = build_bfs_tree(&network, NodeId(0));
        let k = 8;
        let per_node: Vec<Vec<f64>> = (0..network.num_nodes())
            .map(|v| (0..k).map(|i| (v * i) as f64).collect())
            .collect();
        let result = pipelined_convergecast(&network, &bfs.tree, &per_node, k);
        for (i, total) in result.totals.iter().enumerate() {
            let expected: f64 = (0..network.num_nodes()).map(|v| (v * i) as f64).sum();
            assert!(
                (total - expected).abs() < 1e-9,
                "total mismatch at index {i}"
            );
        }
        let depth = bfs.tree.max_depth() as u64;
        // Pipelining: depth + k (+ slack), NOT depth * k.
        assert!(result.cost.rounds <= depth + k as u64 + 3);
        assert!(result.cost.rounds >= depth);
        assert_eq!(result.cost.max_message_words, 2);
    }

    #[test]
    fn pipelined_broadcast_cost_scales_linearly() {
        let network = grid_network();
        let bfs = build_bfs_tree(&network, NodeId(0));
        let c1 = pipelined_broadcast_cost(&bfs.tree, 1);
        let c10 = pipelined_broadcast_cost(&bfs.tree, 10);
        assert!(c10.rounds > c1.rounds);
        assert!(c10.rounds <= c1.rounds + 20);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn convergecast_checks_value_length() {
        let network = grid_network();
        let bfs = build_bfs_tree(&network, NodeId(0));
        let _ = convergecast_sum(&network, &bfs.tree, &[1.0, 2.0]);
    }

    #[test]
    fn bfs_round_accounting_tracks_eccentricity_on_every_family() {
        // The BFS protocol must finish within ecc(root) + O(1) rounds on
        // every workload family — the round bill may not hide a Θ(n) sweep.
        for fam in gen::Family::ALL {
            let network = Network::new(fam.generate(30, 3));
            let result = build_bfs_tree(&network, NodeId(0));
            let ecc = *network
                .graph()
                .bfs_distances(NodeId(0))
                .iter()
                .max()
                .expect("non-empty graph");
            assert_eq!(
                result.tree.max_depth(),
                ecc,
                "family {fam}: wrong BFS depth"
            );
            assert!(
                (result.cost.rounds as usize) >= ecc,
                "family {fam}: BFS cannot beat the eccentricity"
            );
            assert!(
                (result.cost.rounds as usize) <= ecc + 2,
                "family {fam}: {} rounds for eccentricity {ecc}",
                result.cost.rounds
            );
            // CONGEST bandwidth: BFS announcements fit in one word.
            assert!(result.cost.max_message_words <= 1, "family {fam}");
        }
    }

    #[test]
    fn bfs_message_count_is_bounded_by_edge_work() {
        // Every edge carries O(1) BFS announcements in each direction.
        let network = grid_network();
        let result = build_bfs_tree(&network, NodeId(0));
        let m = network.graph().num_edges() as u64;
        assert!(
            result.cost.messages <= 4 * m,
            "{} messages on {m} edges",
            result.cost.messages
        );
    }
}
