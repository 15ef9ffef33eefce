//! The synchronous CONGEST simulator.
//!
//! Algorithms are expressed as [`Protocol`]s: per-node state machines that,
//! in every round, consume the messages delivered over their incident edges
//! and emit at most one message per incident edge. The [`Simulator`] executes
//! all nodes in lock step, enforces the congestion constraint and records a
//! [`RoundCost`].
//!
//! # Message arenas
//!
//! The engine allocates **no memory in the steady-state round loop**. All
//! message traffic lives in two flat arenas with one slot per directed edge
//! endpoint, indexed by the graph's CSR offsets (see [`flowgraph::csr`]):
//!
//! ```text
//! send: [ .. node 0 slots .. | .. node 1 slots .. | .. ]   (2m Option<Msg>)
//! recv: [ .. node 0 slots .. | .. node 1 slots .. | .. ]   (2m Option<Msg>)
//! flip: [ s -> mirrored slot at the other endpoint ]       (2m u32)
//! ```
//!
//! A node's [`Outbox`] is its `send` sub-slice; sending writes the slot and
//! pushes the global slot index onto a dirty list. Delivery walks only the
//! dirty slots, moving each message to the mirrored `recv` slot of the
//! receiving endpoint (the `flip` permutation, precomputed once per
//! [`Network`]). After all nodes have executed the round, the delivered slots
//! are cleared through the same list — the arenas, the dirty lists and the
//! per-node states are allocated exactly once per [`Simulator::run`].
//!
//! # Inbox ordering
//!
//! A node's [`Inbox`] iterates its incident slots in CSR order, i.e. in edge
//! insertion order — *not* in sender-id order like a per-round
//! `Vec<Vec<(EdgeId, Msg)>>` inbox would. Protocols must not rely on message
//! arrival order; where a deterministic choice is needed they should pick it
//! explicitly (the BFS protocol, for instance, joins via the minimum incident
//! edge id). [`reference_run_traced`] provides a straightforward
//! allocation-per-round implementation of the same semantics that the test
//! suites diff the arena engine against.
//!
//! # One round loop
//!
//! [`Simulator::run`] and [`Simulator::run_traced`] share one round loop. It
//! steps the nodes of every round on the calling thread, in node-id order,
//! stops at the first violation of the sending rules in that order, and
//! delivers every sent message through `flip` in the next round, as above.
//! The only other loop is [`reference_run`], the executable specification
//! the suites diff this one against. What the
//! simulator measures (rounds, messages, message widths and transcripts)
//! does not depend on how the nodes of a round are scheduled, so there is no
//! multi-threaded twin of the loop: the workspace's thread fan-out sits in
//! the approximator's operators and in query batches (see the README's
//! determinism policy).

use flowgraph::{EdgeId, Graph, IncidentSlots, NodeId};

use crate::cost::RoundCost;

/// Message types must report their size in `O(log n)`-bit machine words so
/// the simulator can verify the CONGEST bandwidth constraint.
pub trait MessageSize {
    /// Number of `O(log n)`-bit words needed to encode this message.
    fn words(&self) -> u64 {
        1
    }
}

/// What a node knows locally at the start of an algorithm (paper §1.1:
/// "Initially, each node only knows its identifier, its incident edges, and
/// their capacities"). Knowing the total node count `n` and the identifiers
/// of neighbors is standard (both can be obtained in `O(D)` / 1 rounds).
///
/// The view borrows the network's CSR slices — constructing one performs no
/// allocation.
#[derive(Debug, Clone, Copy)]
pub struct LocalView<'a> {
    /// This node's identifier.
    pub node: NodeId,
    /// Total number of nodes in the network.
    pub num_nodes: usize,
    incident: IncidentSlots<'a>,
    caps: &'a [f64],
}

impl<'a> LocalView<'a> {
    /// The degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.incident.len()
    }

    /// The incident `(edge, neighbor)` slots of this node as a borrowed CSR
    /// view (two parallel `u32` slices), in edge insertion order (sorted by
    /// edge id).
    #[inline]
    pub fn incident_pairs(&self) -> IncidentSlots<'a> {
        self.incident
    }

    /// Iterates over `(edge, neighbor, capacity)` triples.
    pub fn incident(&self) -> impl Iterator<Item = (EdgeId, NodeId, f64)> + 'a {
        self.incident
            .iter()
            .zip(self.caps)
            .map(|((e, w), &c)| (e, w, c))
    }

    /// Looks up the neighbor reached through `edge` by binary search over the
    /// edge-id-sorted incident slice (`O(log degree)`, previously a linear
    /// scan).
    #[inline]
    pub fn neighbor_via(&self, edge: EdgeId) -> Option<NodeId> {
        self.slot_via(edge).map(|i| self.incident.get(i).1)
    }

    /// Looks up the capacity of incident `edge` (`O(log degree)`).
    #[inline]
    pub fn capacity_via(&self, edge: EdgeId) -> Option<f64> {
        self.slot_via(edge).map(|i| self.caps[i])
    }

    /// The local slot index of incident `edge`, if any.
    #[inline]
    pub fn slot_via(&self, edge: EdgeId) -> Option<usize> {
        self.incident.position_of(edge)
    }
}

/// A network topology on which protocols are executed.
///
/// Construction forces the graph's CSR index, captures per-slot capacities
/// and precomputes the `flip` permutation mapping every directed edge
/// endpoint slot to the mirrored slot at the other endpoint.
#[derive(Debug, Clone)]
pub struct Network {
    graph: Graph,
    /// Capacity of the edge at every CSR slot.
    caps: Vec<f64>,
    /// `flip[s]` is the slot of the same edge at the other endpoint.
    flip: Vec<u32>,
}

impl Network {
    /// Wraps a graph as a CONGEST network.
    pub fn new(graph: Graph) -> Self {
        let csr = graph.csr();
        let slots = csr.num_slots();
        let mut caps = Vec::with_capacity(slots);
        let mut flip = vec![0u32; slots];
        // Pair up the two slots of every edge in one linear pass: remember
        // the first slot seen per edge, mirror on the second encounter.
        let mut first_slot = vec![u32::MAX; graph.num_edges()];
        let mut s = 0u32;
        for v in graph.nodes() {
            for (e, _) in csr.incident(v) {
                caps.push(graph.capacity(e));
                let first = &mut first_slot[e.index()];
                if *first == u32::MAX {
                    *first = s;
                } else {
                    flip[s as usize] = *first;
                    flip[*first as usize] = s;
                }
                s += 1;
            }
        }
        Network { graph, caps, flip }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of directed edge endpoint slots (`2m`).
    pub fn num_slots(&self) -> usize {
        self.flip.len()
    }

    /// The local view of node `v` (borrowed CSR slices; no allocation).
    pub fn view(&self, v: NodeId) -> LocalView<'_> {
        let range = self.graph.csr().slot_range(v);
        LocalView {
            node: v,
            num_nodes: self.graph.num_nodes(),
            incident: self.graph.csr().incident(v),
            caps: &self.caps[range],
        }
    }
}

/// Write handle for the messages a node sends in the current round: a view
/// over the node's slice of the flat send arena. At most one message per
/// incident edge; violations are recorded and surfaced by the simulator as
/// [`SimulationError`]s after the node's step.
#[derive(Debug)]
pub struct Outbox<'a, M> {
    node: NodeId,
    incident: IncidentSlots<'a>,
    slots: &'a mut [Option<M>],
    /// Global slot index of local slot 0 (for the dirty list).
    base: u32,
    dirty: &'a mut Vec<u32>,
    violation: &'a mut Option<SimulationError>,
}

impl<'a, M> Outbox<'a, M> {
    /// Queues `msg` over `edge`. Records [`SimulationError::NotIncident`] if
    /// the edge is not incident to this node and
    /// [`SimulationError::DuplicateSend`] if a message was already queued on
    /// it this round.
    pub fn send(&mut self, edge: EdgeId, msg: M) {
        match self.incident.position_of(edge) {
            Some(i) => self.send_at(i, msg),
            None => self.record(SimulationError::NotIncident {
                node: self.node,
                edge,
            }),
        }
    }

    /// Queues `msg` on the incident edge at local slot `i` (the position in
    /// [`LocalView::incident_pairs`]). Avoids the edge-id lookup of
    /// [`Outbox::send`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree`.
    pub fn send_at(&mut self, i: usize, msg: M) {
        if self.slots[i].is_some() {
            self.record(SimulationError::DuplicateSend {
                node: self.node,
                edge: self.incident.get(i).0,
            });
            return;
        }
        self.slots[i] = Some(msg);
        self.dirty.push(self.base + i as u32);
    }

    /// Queues a clone of `msg` on every incident edge.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.incident.len() {
            self.send_at(i, msg.clone());
        }
    }

    /// The degree of the sending node.
    pub fn degree(&self) -> usize {
        self.incident.len()
    }

    fn record(&mut self, err: SimulationError) {
        if self.violation.is_none() {
            *self.violation = Some(err);
        }
    }
}

/// Read handle for the messages delivered to a node this round: a view over
/// the node's slice of the flat receive arena. Iteration follows the node's
/// incident-edge order (ascending edge id), not sender order.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    incident: IncidentSlots<'a>,
    slots: &'a [Option<M>],
}

impl<'a, M> Inbox<'a, M> {
    /// Iterates over the delivered `(arrival edge, message)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &'a M)> + '_ {
        self.incident
            .iter()
            .zip(self.slots)
            .filter_map(|((e, _), m)| m.as_ref().map(|m| (e, m)))
    }

    /// Number of delivered messages (`O(degree)`).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|m| m.is_some()).count()
    }

    /// Returns `true` if no message arrived this round (`O(degree)`).
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// The first delivered message in incident-edge order, if any.
    pub fn first(&self) -> Option<(EdgeId, &'a M)> {
        self.iter().next()
    }
}

/// A distributed algorithm in the CONGEST model, described as a per-node
/// state machine. Messages are emitted through the [`Outbox`] (at most one
/// per incident edge per round) and arrive through the [`Inbox`].
pub trait Protocol {
    /// Message type exchanged over edges.
    type Msg: Clone + MessageSize;
    /// Per-node state.
    type State;
    /// Per-node output produced at termination.
    type Output;

    /// Initializes the state of a node, queueing the messages it sends in
    /// the first round on `outbox`.
    fn init(&self, view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State;

    /// Executes one round at a node: `inbox` holds the messages delivered in
    /// this round; messages for the next round go to `outbox`.
    fn round(
        &self,
        view: &LocalView<'_>,
        state: &mut Self::State,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        round: u64,
    );

    /// Whether this node has locally terminated (it will still receive
    /// messages if neighbors keep sending, but a quiescent network with all
    /// nodes terminated ends the execution).
    fn is_terminated(&self, state: &Self::State) -> bool;

    /// Extracts the node's output once the execution has ended.
    fn output(&self, view: &LocalView<'_>, state: Self::State) -> Self::Output;
}

/// Result of executing a protocol.
#[derive(Debug, Clone)]
pub struct RunResult<T> {
    /// Output of every node, indexed by node id.
    pub outputs: Vec<T>,
    /// Rounds and messages used.
    pub cost: RoundCost,
    /// Whether the protocol reached quiescence (as opposed to the round cap).
    pub quiescent: bool,
}

/// One delivered message in an execution transcript: which edge carried it,
/// who received it, and in which round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeliveryEvent {
    /// The round in which the message was delivered (1-based).
    pub round: u64,
    /// The edge it travelled over.
    pub edge: EdgeId,
    /// The receiving endpoint.
    pub receiver: NodeId,
}

/// A canonical execution transcript: every delivery event, sorted by
/// `(round, edge, receiver)` so that two engines with different internal
/// delivery orders produce byte-identical transcripts for identical
/// executions.
pub type Transcript = Vec<DeliveryEvent>;

/// Error produced when a protocol breaks the sending rules or fails to
/// terminate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimulationError {
    /// A node attempted to send two messages over the same edge in one round.
    DuplicateSend {
        /// The offending node.
        node: NodeId,
        /// The edge on which two messages were queued.
        edge: EdgeId,
    },
    /// A node attempted to send over an edge that is not incident to it.
    NotIncident {
        /// The offending node.
        node: NodeId,
        /// The edge in question.
        edge: EdgeId,
    },
    /// The protocol did not reach quiescence within the round cap.
    RoundLimitExceeded {
        /// The configured cap.
        max_rounds: u64,
    },
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulationError::DuplicateSend { node, edge } => {
                write!(
                    f,
                    "node {node} sent two messages over edge {edge} in one round"
                )
            }
            SimulationError::NotIncident { node, edge } => {
                write!(
                    f,
                    "node {node} attempted to send over non-incident edge {edge}"
                )
            }
            SimulationError::RoundLimitExceeded { max_rounds } => {
                write!(f, "protocol did not terminate within {max_rounds} rounds")
            }
        }
    }
}

impl std::error::Error for SimulationError {}

/// Executes [`Protocol`]s on a [`Network`] with the flat double-buffered
/// message arenas described in the [module docs](self).
#[derive(Debug, Clone)]
pub struct Simulator {
    max_rounds: u64,
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator {
            max_rounds: 1_000_000,
        }
    }
}

impl Simulator {
    /// Creates a simulator with the default round cap (10^6).
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Sets the maximum number of rounds before the execution is aborted.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Runs `protocol` on `network` until quiescence (no messages in flight
    /// and every node locally terminated) or until the round cap is hit.
    ///
    /// # Errors
    ///
    /// Returns a [`SimulationError`] if the protocol violates the CONGEST
    /// sending rules or exceeds the round cap.
    pub fn run<P: Protocol>(
        &self,
        network: &Network,
        protocol: &P,
    ) -> Result<RunResult<P::Output>, SimulationError> {
        self.run_impl(network, protocol, None)
    }

    /// Like [`Simulator::run`], additionally recording the canonical
    /// [`Transcript`] of all delivered messages (used by the differential
    /// suites that compare engines).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Simulator::run`].
    pub fn run_traced<P: Protocol>(
        &self,
        network: &Network,
        protocol: &P,
    ) -> Result<(RunResult<P::Output>, Transcript), SimulationError> {
        let mut transcript = Vec::new();
        let run = self.run_impl(network, protocol, Some(&mut transcript))?;
        transcript.sort_unstable();
        Ok((run, transcript))
    }

    /// The round loop (see the [module docs](self)). It performs no heap
    /// allocation once its arenas are built.
    fn run_impl<P: Protocol>(
        &self,
        network: &Network,
        protocol: &P,
        mut trace: Option<&mut Vec<DeliveryEvent>>,
    ) -> Result<RunResult<P::Output>, SimulationError> {
        let n = network.num_nodes();
        let slots = network.num_slots();
        let csr = network.graph().csr();

        let mut send: Vec<Option<P::Msg>> = std::iter::repeat_with(|| None).take(slots).collect();
        let mut recv: Vec<Option<P::Msg>> = std::iter::repeat_with(|| None).take(slots).collect();
        let mut send_dirty: Vec<u32> = Vec::with_capacity(slots);
        let mut recv_dirty: Vec<u32> = Vec::with_capacity(slots);
        let mut states: Vec<P::State> = Vec::with_capacity(n);
        let mut violation: Option<SimulationError> = None;
        let mut cost = RoundCost::ZERO;

        for v in network.graph().nodes() {
            let view = network.view(v);
            let range = csr.slot_range(v);
            let mut outbox = Outbox {
                node: v,
                incident: view.incident,
                base: range.start as u32,
                slots: &mut send[range],
                dirty: &mut send_dirty,
                violation: &mut violation,
            };
            let state = protocol.init(&view, &mut outbox);
            if let Some(err) = violation.take() {
                return Err(err);
            }
            states.push(state);
        }

        let mut round: u64 = 0;
        loop {
            if send_dirty.is_empty() && states.iter().all(|s| protocol.is_terminated(s)) {
                break;
            }
            if round >= self.max_rounds {
                return Err(SimulationError::RoundLimitExceeded {
                    max_rounds: self.max_rounds,
                });
            }
            round += 1;

            // Deliver: move every queued message to the mirrored slot at the
            // other endpoint, visiting only touched slots.
            recv_dirty.clear();
            for &s in &send_dirty {
                let msg = send[s as usize].take().expect("dirty slot holds a message");
                bill(&mut cost, &msg);
                if let Some(tr) = trace.as_deref_mut() {
                    let (edge, receiver) = csr.slot(s as usize);
                    tr.push(DeliveryEvent {
                        round,
                        edge,
                        receiver,
                    });
                }
                let d = network.flip[s as usize];
                recv[d as usize] = Some(msg);
                recv_dirty.push(d);
            }
            send_dirty.clear();

            // Execute the round at every node.
            for v in network.graph().nodes() {
                let view = network.view(v);
                let range = csr.slot_range(v);
                let inbox = Inbox {
                    incident: view.incident,
                    slots: &recv[range.clone()],
                };
                let mut outbox = Outbox {
                    node: v,
                    incident: view.incident,
                    base: range.start as u32,
                    slots: &mut send[range],
                    dirty: &mut send_dirty,
                    violation: &mut violation,
                };
                protocol.round(&view, &mut states[v.index()], &inbox, &mut outbox, round);
                if let Some(err) = violation.take() {
                    return Err(err);
                }
            }

            // Clear the delivered slots for the next round.
            for &d in &recv_dirty {
                recv[d as usize] = None;
            }
        }
        cost.rounds = round;

        let outputs = network
            .graph()
            .nodes()
            .zip(states)
            .map(|(v, s)| protocol.output(&network.view(v), s))
            .collect();
        Ok(RunResult {
            outputs,
            cost,
            quiescent: true,
        })
    }
}

/// Bills one message leaving its sender.
fn bill<M: MessageSize>(cost: &mut RoundCost, msg: &M) {
    cost.messages += 1;
    cost.max_message_words = cost.max_message_words.max(msg.words());
}

/// Reference implementation of the simulator semantics that allocates fresh
/// per-node mailboxes in every round (the legacy `Vec<Vec<_>>` execution
/// shape) and delivers in plain slot order. It is deliberately simple — the
/// executable specification the arena engine of [`Simulator`] is diffed
/// against by the equivalence suites and benchmarked against by
/// `simulate_round`.
///
/// Baseline fidelity: quiescence is tracked with a counter (like the legacy
/// engine's O(n) outbox-length sum), but delivery scans every degree slot of
/// the freshly allocated boxes rather than draining message-only vectors, so
/// for *sparse* rounds this baseline does somewhat more scanning than the
/// deleted legacy engine did. The `simulate_round` benchmark avoids that
/// skew by saturating every slot each round (full message load), where the
/// per-round work of both shapes is dominated by the same `2m` messages.
///
/// # Errors
///
/// Same error conditions as [`Simulator::run`].
pub fn reference_run_traced<P: Protocol>(
    network: &Network,
    protocol: &P,
    max_rounds: u64,
) -> Result<(RunResult<P::Output>, Transcript), SimulationError> {
    let mut transcript = Vec::new();
    let result = reference_run_impl(network, protocol, max_rounds, Some(&mut transcript))?;
    transcript.sort_unstable();
    Ok((result, transcript))
}

/// [`reference_run_traced`] without transcript recording — the fair baseline
/// for the `simulate_round` benchmarks (no per-message trace bookkeeping).
///
/// # Errors
///
/// Same error conditions as [`Simulator::run`].
pub fn reference_run<P: Protocol>(
    network: &Network,
    protocol: &P,
    max_rounds: u64,
) -> Result<RunResult<P::Output>, SimulationError> {
    reference_run_impl(network, protocol, max_rounds, None)
}

fn reference_run_impl<P: Protocol>(
    network: &Network,
    protocol: &P,
    max_rounds: u64,
    mut trace: Option<&mut Vec<DeliveryEvent>>,
) -> Result<RunResult<P::Output>, SimulationError> {
    let n = network.num_nodes();
    let csr = network.graph().csr();
    let mut cost = RoundCost::ZERO;
    let mut violation: Option<SimulationError> = None;

    let fresh_boxes = |network: &Network| -> Vec<Vec<Option<P::Msg>>> {
        network
            .graph()
            .nodes()
            .map(|v| {
                std::iter::repeat_with(|| None)
                    .take(csr.degree(v))
                    .collect()
            })
            .collect()
    };

    // Per-node jagged mailboxes, reallocated every round like the legacy
    // engine reallocated its inboxes and outboxes.
    let mut send: Vec<Vec<Option<P::Msg>>> = fresh_boxes(network);
    let mut states: Vec<P::State> = Vec::with_capacity(n);
    // In-flight messages are counted as they are queued (the legacy engine's
    // cheap O(n) outbox-length sum), not by rescanning the boxes.
    let mut in_flight = 0usize;
    for v in network.graph().nodes() {
        let view = network.view(v);
        let range = csr.slot_range(v);
        let mut scratch_dirty = Vec::new();
        let mut outbox = Outbox {
            node: v,
            incident: view.incident,
            base: range.start as u32,
            slots: &mut send[v.index()],
            dirty: &mut scratch_dirty,
            violation: &mut violation,
        };
        let state = protocol.init(&view, &mut outbox);
        if let Some(err) = violation.take() {
            return Err(err);
        }
        in_flight += scratch_dirty.len();
        states.push(state);
    }

    let mut round: u64 = 0;
    loop {
        if in_flight == 0 && states.iter().all(|s| protocol.is_terminated(s)) {
            break;
        }
        if round >= max_rounds {
            return Err(SimulationError::RoundLimitExceeded { max_rounds });
        }
        round += 1;

        // Deliver into freshly allocated per-node inboxes, scanning all
        // slots in sender order.
        let mut recv: Vec<Vec<Option<P::Msg>>> = fresh_boxes(network);
        for v in network.graph().nodes() {
            let base = csr.slot_range(v).start;
            for (i, slot) in send[v.index()].iter_mut().enumerate() {
                if let Some(msg) = slot.take() {
                    bill(&mut cost, &msg);
                    let (edge, receiver) = csr.slot(base + i);
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.push(DeliveryEvent {
                            round,
                            edge,
                            receiver,
                        });
                    }
                    let d = network.flip[base + i] as usize;
                    let d_range = csr.slot_range(receiver);
                    recv[receiver.index()][d - d_range.start] = Some(msg);
                }
            }
        }

        let mut next_send: Vec<Vec<Option<P::Msg>>> = fresh_boxes(network);
        in_flight = 0;
        for v in network.graph().nodes() {
            let view = network.view(v);
            let range = csr.slot_range(v);
            let inbox = Inbox {
                incident: view.incident,
                slots: &recv[v.index()],
            };
            let mut scratch_dirty = Vec::new();
            let mut outbox = Outbox {
                node: v,
                incident: view.incident,
                base: range.start as u32,
                slots: &mut next_send[v.index()],
                dirty: &mut scratch_dirty,
                violation: &mut violation,
            };
            protocol.round(&view, &mut states[v.index()], &inbox, &mut outbox, round);
            if let Some(err) = violation.take() {
                return Err(err);
            }
            in_flight += scratch_dirty.len();
        }
        send = next_send;
    }
    cost.rounds = round;

    let outputs = network
        .graph()
        .nodes()
        .zip(states)
        .map(|(v, s)| protocol.output(&network.view(v), s))
        .collect();
    Ok(RunResult {
        outputs,
        cost,
        quiescent: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{BfsProtocol, MinIdFlood};
    use flowgraph::gen;

    /// The one-word message of the rule-breaking protocols below.
    #[derive(Clone, Debug)]
    struct Ping;

    impl MessageSize for Ping {}

    #[test]
    fn min_id_flood_converges_in_diameter_rounds() {
        let g = gen::path(10, 1.0);
        let network = Network::new(g);
        let result = Simulator::new().run(&network, &MinIdFlood).unwrap();
        assert!(result.outputs.iter().all(|&b| b == 0));
        assert!(result.quiescent);
        // Information must travel 9 hops; allow a couple of extra quiescence rounds.
        assert!(result.cost.rounds >= 9 && result.cost.rounds <= 12);
        assert!(result.cost.messages > 0);
        assert_eq!(result.cost.max_message_words, 1);
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = gen::path(10, 1.0);
        let network = Network::new(g);
        let err = Simulator::new()
            .with_max_rounds(2)
            .run(&network, &MinIdFlood)
            .unwrap_err();
        assert!(matches!(err, SimulationError::RoundLimitExceeded { .. }));
    }

    /// A protocol that illegally sends two messages over the same edge.
    struct Misbehaving;

    impl Protocol for Misbehaving {
        type Msg = Ping;
        type State = ();
        type Output = ();

        fn init(&self, view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
            if let Some((e, _)) = view.incident_pairs().first() {
                outbox.send(e, Ping);
                outbox.send(e, Ping);
            }
        }

        fn round(
            &self,
            _view: &LocalView<'_>,
            _state: &mut Self::State,
            _inbox: &Inbox<'_, Self::Msg>,
            _outbox: &mut Outbox<'_, Self::Msg>,
            _round: u64,
        ) {
        }

        fn is_terminated(&self, _state: &Self::State) -> bool {
            true
        }

        fn output(&self, _view: &LocalView<'_>, _state: Self::State) -> Self::Output {}
    }

    #[test]
    fn duplicate_sends_are_rejected() {
        let g = gen::path(3, 1.0);
        let network = Network::new(g);
        let err = Simulator::new().run(&network, &Misbehaving).unwrap_err();
        assert!(matches!(err, SimulationError::DuplicateSend { .. }));
    }

    /// A protocol that sends over an edge it is not incident to.
    struct OffNetwork;

    impl Protocol for OffNetwork {
        type Msg = Ping;
        type State = ();
        type Output = ();

        fn init(&self, _view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
            outbox.send(EdgeId(999), Ping);
        }

        fn round(
            &self,
            _view: &LocalView<'_>,
            _state: &mut Self::State,
            _inbox: &Inbox<'_, Self::Msg>,
            _outbox: &mut Outbox<'_, Self::Msg>,
            _round: u64,
        ) {
        }

        fn is_terminated(&self, _state: &Self::State) -> bool {
            true
        }

        fn output(&self, _view: &LocalView<'_>, _state: Self::State) -> Self::Output {}
    }

    #[test]
    fn non_incident_sends_are_rejected() {
        let g = gen::path(3, 1.0);
        let network = Network::new(g);
        let err = Simulator::new().run(&network, &OffNetwork).unwrap_err();
        assert!(matches!(err, SimulationError::NotIncident { .. }));
    }

    #[test]
    fn local_view_contents() {
        let g = gen::star(4, 2.0);
        let network = Network::new(g);
        let hub = network.view(NodeId(0));
        assert_eq!(hub.degree(), 3);
        assert_eq!(hub.num_nodes, 4);
        let leaf = network.view(NodeId(2));
        assert_eq!(leaf.degree(), 1);
        let (e, nb, cap) = leaf.incident().next().unwrap();
        assert_eq!(nb, NodeId(0));
        assert_eq!(cap, 2.0);
        assert_eq!(leaf.neighbor_via(e), Some(NodeId(0)));
        assert_eq!(leaf.capacity_via(e), Some(2.0));
        assert_eq!(leaf.neighbor_via(EdgeId(999)), None);
    }

    #[test]
    fn neighbor_via_is_correct_on_a_high_degree_star() {
        // Regression for the former O(degree) linear scan: with CSR views the
        // lookup is a binary search over the edge-id-sorted incident slice.
        // Verify correctness at every hub slot of a large star (where a
        // linear scan would be quadratic across the loop) and at the leaves.
        let n = 4096;
        let g = gen::star(n, 1.0);
        let network = Network::new(g);
        let hub = network.view(NodeId(0));
        assert_eq!(hub.degree(), n - 1);
        for (i, (e, w)) in hub.incident_pairs().iter().enumerate() {
            assert_eq!(w, NodeId((i + 1) as u32));
            assert_eq!(hub.neighbor_via(e), Some(w), "hub lookup for {e}");
        }
        assert_eq!(hub.neighbor_via(EdgeId(n as u32)), None);
        let leaf = network.view(NodeId((n - 1) as u32));
        let (e, _) = leaf.incident_pairs().get(0);
        assert_eq!(leaf.neighbor_via(e), Some(NodeId(0)));
    }

    /// Round 2: a sending-rule violation at low node 0 *and* a panic at high
    /// node 15. The round loop steps nodes in id order and stops at the first
    /// violation, so node 15 is never reached and the violation is reported.
    struct ViolatesThenPanics;

    impl Protocol for ViolatesThenPanics {
        type Msg = Ping;
        type State = ();
        type Output = ();

        fn init(&self, _view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
            outbox.broadcast(Ping);
        }

        fn round(
            &self,
            view: &LocalView<'_>,
            _state: &mut Self::State,
            _inbox: &Inbox<'_, Self::Msg>,
            outbox: &mut Outbox<'_, Self::Msg>,
            round: u64,
        ) {
            if round == 2 {
                if view.node == NodeId(0) {
                    if let Some((e, _)) = view.incident_pairs().first() {
                        outbox.send(e, Ping);
                        outbox.send(e, Ping);
                    }
                }
                assert!(view.node != NodeId(15), "panic at the last node");
            } else if round < 2 {
                outbox.broadcast(Ping);
            }
        }

        fn is_terminated(&self, _state: &Self::State) -> bool {
            true
        }

        fn output(&self, _view: &LocalView<'_>, _state: Self::State) -> Self::Output {}
    }

    #[test]
    fn earlier_violation_wins_over_later_panic_like_sequential() {
        let network = Network::new(gen::grid(4, 4, 1.0));
        let err = Simulator::new()
            .run(&network, &ViolatesThenPanics)
            .unwrap_err();
        assert!(matches!(err, SimulationError::DuplicateSend { .. }));
        let reference = reference_run(&network, &ViolatesThenPanics, 1_000_000).unwrap_err();
        assert_eq!(reference, err);
    }

    /// The traced arena run, the untraced arena run and the reference run
    /// of `protocol` agree on outputs and bill, and the two traced runs on
    /// their transcripts, byte for byte.
    fn assert_engines_agree<P>(network: &Network, protocol: &P, what: &str)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug,
    {
        let (arena, arena_t) = Simulator::new().run_traced(network, protocol).unwrap();
        let (reference, reference_t) = reference_run_traced(network, protocol, 1_000_000).unwrap();
        assert_eq!(arena.outputs, reference.outputs, "{what}");
        assert_eq!(arena.cost, reference.cost, "{what}");
        assert_eq!(arena_t, reference_t, "{what}");
        // Byte-identical transcripts, not merely equal.
        assert_eq!(
            format!("{arena_t:?}").into_bytes(),
            format!("{reference_t:?}").into_bytes(),
            "{what}"
        );
        // Recording a transcript changes neither outputs nor bill.
        let untraced = Simulator::new().run(network, protocol).unwrap();
        assert_eq!(untraced.outputs, arena.outputs, "{what}");
        assert_eq!(untraced.cost, arena.cost, "{what}");
    }

    #[test]
    fn arena_and_reference_engines_agree_on_flooding() {
        let mut graphs = vec![
            ("path".to_string(), gen::path(17, 1.0)),
            ("grid".to_string(), gen::grid(5, 6, 1.0)),
            ("star".to_string(), gen::star(12, 2.0)),
            ("cycle".to_string(), gen::cycle(9, 1.0)),
        ];
        for (n, seed) in [(30, 3), (24, 5)] {
            for fam in gen::Family::ALL {
                graphs.push((format!("{fam} n={n} seed={seed}"), fam.generate(n, seed)));
            }
        }
        for (name, g) in graphs {
            let network = Network::new(g);
            assert_engines_agree(&network, &MinIdFlood, &format!("MinIdFlood on {name}"));
            assert_engines_agree(
                &network,
                &BfsProtocol::new(NodeId(0)),
                &format!("BFS on {name}"),
            );
        }
    }

    /// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, x: u64) {
            for b in x.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Pins every observable of one flood: its outputs, its `RoundCost` and
    /// its sorted transcript. The hashed word stream keeps two literal zero
    /// words where it once hashed counters that only other communication
    /// models filled, so the constant is the one first pinned for this run.
    #[test]
    fn classic_flood_matches_its_pinned_digest() {
        let network = Network::new(gen::grid(4, 4, 1.0));
        let (run, transcript) = Simulator::new().run_traced(&network, &MinIdFlood).unwrap();
        let mut h = Fnv::new();
        h.word(run.outputs.len() as u64);
        run.outputs.iter().for_each(|&o| h.word(u64::from(o)));
        let cost = run.cost;
        for x in [cost.rounds, cost.messages, cost.max_message_words, 0] {
            h.word(x);
        }
        h.word(transcript.len() as u64);
        for ev in &transcript {
            h.word(ev.round);
            h.word(ev.edge.0.into());
            h.word(ev.receiver.0.into());
        }
        h.word(0);
        assert_eq!(h.0, 0x3e3a_52ed_3897_4b93, "digest {:#018x}", h.0);
    }
}
