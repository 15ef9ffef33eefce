//! Pluggable communication models: one protocol, four fabrics.
//!
//! The paper's round bounds live in the clean synchronous CONGEST model, but
//! a production routing system must survive dropped messages, crashed nodes
//! and different communication fabrics. [`CommModel`] is a parameter of the
//! simulator with four deterministic, seed-reproducible instantiations. The
//! first three run edge-addressed [`Protocol`]s through the one round loop
//! behind [`Simulator::run`] (see [`crate::engine`]), which branches only
//! where they differ; `BCAST(log n)` runs [`BcastProtocol`]s through
//! [`Simulator::run_bcast`]. With the allocation-per-round specification
//! [`crate::engine::reference_run`], those are the crate's three loops.
//!
//! 1. **[`CommModel::Classic`]** — per-edge CONGEST: [`Simulator::run`]
//!    itself, so `run_model` on it is byte-identical to `run` (flows,
//!    [`RoundCost`], canonical transcripts).
//! 2. **[`CommModel::Lossy`]** — CONGEST with an [`Adversary`]: a seeded
//!    ChaCha8 stream plus scripted schedules drops messages, delays them on
//!    FIFO links and crash-stops nodes mid-run. Every fault is recorded in a
//!    [`FaultLog`]; [`RoundCost::retransmissions`] accounts the recovery
//!    traffic of the [`crate::reliable::Reliable`] wrapper.
//! 3. **[`CommModel::Clique`]** — the Congested Clique: all-pairs reliable
//!    unicast of one `O(log n)`-bit word per *ordered node pair* per round.
//!    Edge-addressed protocols run unchanged (graph links are a subset of
//!    the clique's `n²` links), but parallel edges of the multigraph no
//!    longer widen a pair's bandwidth: queueing two messages for the same
//!    peer in one round is a [`SimulationError::CliquePairOverflow`].
//! 4. **[`CommModel::Bcast`]** — `BCAST(log n)`: in every round each node
//!    emits at most **one** broadcast word that every other node hears.
//!    Edge-addressed protocols cannot run here; implement [`BcastProtocol`]
//!    instead (see `congest::treeops::bcast_subtree_sums` for the
//!    tree-aggregation port) and execute it with [`Simulator::run_bcast`].
//!
//! # Quickstart
//!
//! ```
//! use congest::engine::{Network, Simulator};
//! use congest::model::{Adversary, CommModel};
//! use congest::primitives::BfsProtocol;
//! use flowgraph::{gen, NodeId};
//!
//! let network = Network::new(gen::grid(4, 4, 1.0));
//! let protocol = BfsProtocol::new(NodeId(0));
//!
//! // Classic CONGEST: byte-identical to `Simulator::run`.
//! let classic = Simulator::new()
//!     .run_model(&network, &CommModel::Classic, &protocol)
//!     .unwrap();
//!
//! // Lossy CONGEST at 10% drop rate: the retransmit-with-ack wrapper makes
//! // the same protocol finish anyway, with a fault log and an inflated but
//! // finite round bill.
//! let lossy = CommModel::Lossy(Adversary::lossy(7, 0.1));
//! let (run, faults) = Simulator::new()
//!     .run_model_reliable(&network, &lossy, &protocol)
//!     .unwrap();
//! assert!(run.quiescent);
//! assert_eq!(run.outputs.len(), classic.0.outputs.len());
//! assert!(faults.dropped() > 0 || run.cost.retransmissions == 0);
//! ```
//!
//! # Determinism
//!
//! Every model run is a pure function of `(network, protocol, model)`: the
//! adversary's randomness comes from its own ChaCha8 seed, consumed in the
//! deterministic send order of the round loop, so the same seed reproduces
//! the same drops, delays, fault log and round bill on every machine. The
//! differential harness in `testkit::conformance` leans on this to replay
//! one protocol across the whole model × adversary × thread matrix, and
//! `model_runs_match_pinned_digests` below pins the bits of adversarial and
//! clique runs, fault logs included.

use std::collections::VecDeque;

use flowgraph::{EdgeId, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cost::RoundCost;
use crate::engine::{
    DeliveryEvent, LocalView, MessageSize, Network, Protocol, RunResult, SimulationError,
    Simulator, Transcript,
};
use crate::reliable::Reliable;

/// The communication fabric a protocol executes on. See the [module
/// docs](self) for the four instantiations.
#[derive(Debug, Clone, Default)]
pub enum CommModel {
    /// Per-edge synchronous CONGEST — the classic model of the paper and the
    /// byte-identical default.
    #[default]
    Classic,
    /// CONGEST over lossy/faulty channels controlled by the [`Adversary`].
    Lossy(Adversary),
    /// The Congested Clique: reliable all-pairs unicast, one `O(log n)`-bit
    /// word per ordered node pair per round.
    Clique,
    /// `BCAST(log n)`: one broadcast word per node per round, heard by all.
    Bcast,
}

impl CommModel {
    /// Short stable name used in reports and failure messages.
    pub fn name(&self) -> &'static str {
        match self {
            CommModel::Classic => "classic",
            CommModel::Lossy(_) => "lossy",
            CommModel::Clique => "clique",
            CommModel::Bcast => "bcast",
        }
    }

    /// Whether messages on this model can be lost (and protocols therefore
    /// need the [`Reliable`] retransmit-with-ack wrapper to run unchanged).
    pub fn is_lossy(&self) -> bool {
        matches!(self, CommModel::Lossy(_))
    }

    /// The admissible message width on this model, in `O(log n)`-bit words,
    /// given the `base` budget of per-edge CONGEST. The lossy model grants
    /// one extra control word for the [`Reliable`] frame header; `BCAST`
    /// allows exactly one word per broadcast.
    pub fn width_budget(&self, base: u64) -> u64 {
        match self {
            CommModel::Classic | CommModel::Clique => base,
            CommModel::Lossy(_) => base + 1,
            CommModel::Bcast => 1,
        }
    }
}

/// A deterministic, seed-reproducible message/process adversary for
/// [`CommModel::Lossy`]. Random faults are drawn from a ChaCha8 stream;
/// scripted faults (edge drops, crash-stops) fire at exact rounds.
#[derive(Debug, Clone)]
pub struct Adversary {
    /// Seed of the ChaCha8 stream behind the probabilistic faults.
    pub seed: u64,
    /// Per-message probability that the message is silently dropped.
    pub drop_probability: f64,
    /// Per-message probability that delivery is delayed (on a FIFO link: a
    /// delayed message also delays everything queued behind it).
    pub delay_probability: f64,
    /// Maximum extra rounds a delayed message waits (uniform in
    /// `1..=max_delay`).
    pub max_delay: u64,
    /// Scripted crash-stops: node `v` halts at the start of round `r` — it
    /// stops stepping, its queued messages are lost and everything addressed
    /// to it from then on is dropped.
    pub crash_schedule: Vec<(u64, NodeId)>,
    /// Scripted edge faults: every message sent over edge `e` in round `r`
    /// is dropped.
    pub drop_schedule: Vec<(u64, EdgeId)>,
}

impl Default for Adversary {
    fn default() -> Self {
        Adversary::benign(0)
    }
}

impl Adversary {
    /// An adversary that never interferes: `Lossy(Adversary::benign(seed))`
    /// runs are byte-identical to [`CommModel::Classic`] runs.
    pub fn benign(seed: u64) -> Self {
        Adversary {
            seed,
            drop_probability: 0.0,
            delay_probability: 0.0,
            max_delay: 1,
            crash_schedule: Vec::new(),
            drop_schedule: Vec::new(),
        }
    }

    /// An adversary dropping each message independently with probability
    /// `drop_probability`.
    pub fn lossy(seed: u64, drop_probability: f64) -> Self {
        Adversary {
            drop_probability: drop_probability.clamp(0.0, 1.0),
            ..Adversary::benign(seed)
        }
    }

    /// Adds probabilistic delivery delays of up to `max_delay` extra rounds.
    #[must_use]
    pub fn with_delays(mut self, delay_probability: f64, max_delay: u64) -> Self {
        self.delay_probability = delay_probability.clamp(0.0, 1.0);
        self.max_delay = max_delay.max(1);
        self
    }

    /// Scripts a crash-stop of `node` at the start of round `round`.
    #[must_use]
    pub fn with_crash(mut self, round: u64, node: NodeId) -> Self {
        self.crash_schedule.push((round, node));
        self
    }

    /// Scripts a one-round blackout of `edge` in round `round`.
    #[must_use]
    pub fn with_edge_drop(mut self, round: u64, edge: EdgeId) -> Self {
        self.drop_schedule.push((round, edge));
        self
    }

    /// Whether this adversary can never interfere with an execution.
    pub fn is_benign(&self) -> bool {
        self.drop_probability == 0.0
            && self.delay_probability == 0.0
            && self.crash_schedule.is_empty()
            && self.drop_schedule.is_empty()
    }
}

/// One fault injected by the [`Adversary`] during an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEvent {
    /// A message was dropped (by the random stream, a scripted edge drop, or
    /// because an endpoint had crashed). `round` is the round the drop
    /// happened in — the send round for channel drops, the would-be delivery
    /// round for messages addressed to a crashed node.
    Dropped {
        /// Round of the drop.
        round: u64,
        /// The edge the message travelled on.
        edge: EdgeId,
        /// The endpoint that never received it.
        receiver: NodeId,
    },
    /// A message's delivery was postponed to round `until`.
    Delayed {
        /// The round the message was sent in.
        round: u64,
        /// The edge it travels on.
        edge: EdgeId,
        /// The receiving endpoint.
        receiver: NodeId,
        /// The earliest round it can now be delivered in.
        until: u64,
    },
    /// A node crash-stopped at the start of `round`.
    Crashed {
        /// The round the crash took effect in.
        round: u64,
        /// The halted node.
        node: NodeId,
    },
}

/// The adversary's ledger for one execution: every injected fault, in the
/// deterministic order the round loop encountered them. The differential
/// harness uses it to reconcile lossy transcripts with classic ones
/// (`sent = delivered + dropped`, exactly).
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    /// All injected faults in encounter order.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Number of dropped messages.
    pub fn dropped(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Dropped { .. }))
            .count() as u64
    }

    /// Number of delayed messages.
    pub fn delayed(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Delayed { .. }))
            .count() as u64
    }

    /// Number of crash-stopped nodes.
    pub fn crashes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Crashed { .. }))
            .count() as u64
    }

    /// Whether the adversary never interfered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Simulator {
    /// Runs `protocol` on `network` under the given communication model, in
    /// the one round loop behind [`Simulator::run`].
    ///
    /// [`CommModel::Classic`] is byte-identical to [`Simulator::run`];
    /// [`CommModel::Lossy`] executes the *raw* protocol against the
    /// adversary (use [`Simulator::run_model_reliable`] for protocols that
    /// need delivery guarantees — a benign adversary is byte-identical to
    /// classic either way); [`CommModel::Clique`] enforces the
    /// one-word-per-ordered-pair rule on top of the classic semantics.
    ///
    /// # Errors
    ///
    /// The classic [`SimulationError`] conditions, plus
    /// [`SimulationError::CliquePairOverflow`] under the clique and
    /// [`SimulationError::UnsupportedModel`] for edge-addressed protocols on
    /// [`CommModel::Bcast`].
    pub fn run_model<P: Protocol>(
        &self,
        network: &Network,
        model: &CommModel,
        protocol: &P,
    ) -> Result<(RunResult<P::Output>, FaultLog), SimulationError> {
        self.run_impl(network, model, protocol, None)
    }

    /// Like [`Simulator::run_model`], additionally recording the canonical
    /// delivery [`Transcript`] (sorted by `(round, edge, receiver)`; dropped
    /// messages appear in the [`FaultLog`], not the transcript).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Simulator::run_model`].
    pub fn run_model_traced<P: Protocol>(
        &self,
        network: &Network,
        model: &CommModel,
        protocol: &P,
    ) -> Result<(RunResult<P::Output>, Transcript, FaultLog), SimulationError> {
        let mut transcript = Vec::new();
        let (run, faults) = self.run_impl(network, model, protocol, Some(&mut transcript))?;
        transcript.sort_unstable();
        Ok((run, transcript, faults))
    }

    /// Runs `protocol` under `model` with delivery guarantees: on
    /// [`CommModel::Lossy`] the protocol is wrapped in the
    /// [`Reliable`] retransmit-with-ack adapter (outputs are the inner
    /// protocol's outputs; the recovery traffic shows up in
    /// [`RoundCost::messages`] and [`RoundCost::retransmissions`]); on the
    /// reliable fabrics it runs raw, so classic runs stay byte-identical to
    /// [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Simulator::run_model`].
    pub fn run_model_reliable<P: Protocol>(
        &self,
        network: &Network,
        model: &CommModel,
        protocol: &P,
    ) -> Result<(RunResult<P::Output>, FaultLog), SimulationError> {
        match model {
            // A benign adversary can never interfere, so the ARQ framing
            // would be pure overhead: run raw — byte-identical to classic.
            CommModel::Lossy(adv) if !adv.is_benign() => {
                self.run_model(network, model, &Reliable::new(protocol))
            }
            _ => self.run_model(network, model, protocol),
        }
    }

    /// Like [`Simulator::run_model_reliable`], additionally recording the
    /// canonical frame-level [`Transcript`] (under the lossy model the
    /// recorded deliveries are the [`Reliable`] adapter's frames — data,
    /// acks and retransmissions — not the inner payloads).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Simulator::run_model`].
    pub fn run_model_reliable_traced<P: Protocol>(
        &self,
        network: &Network,
        model: &CommModel,
        protocol: &P,
    ) -> Result<(RunResult<P::Output>, Transcript, FaultLog), SimulationError> {
        match model {
            CommModel::Lossy(adv) if !adv.is_benign() => {
                self.run_model_traced(network, model, &Reliable::new(protocol))
            }
            _ => self.run_model_traced(network, model, protocol),
        }
    }
}

/// The lossy model's side of one run of the round loop: the adversary's
/// ChaCha8 stream, the crashed nodes, one FIFO queue of `(due round,
/// message)` per receive slot, and the [`FaultLog`]. The round loop bills
/// each message as it leaves its sender, hands it to [`Self::send`], and
/// then calls [`Self::deliver`]; the queues grow on demand, so unlike the
/// classic path this one allocates during the run.
pub(crate) struct LossyLinks<'a, M> {
    adversary: &'a Adversary,
    rng: ChaCha8Rng,
    crashed: Vec<bool>,
    /// Owner node of every slot, for crash bookkeeping.
    slot_owner: Vec<u32>,
    queues: Vec<VecDeque<(u64, M)>>,
    queued: usize,
    faults: FaultLog,
}

impl<'a, M> LossyLinks<'a, M> {
    pub(crate) fn new(network: &Network, adversary: &'a Adversary) -> Self {
        let csr = network.graph().csr();
        let mut slot_owner = vec![0u32; network.num_slots()];
        for v in network.graph().nodes() {
            for s in csr.slot_range(v) {
                slot_owner[s] = v.0;
            }
        }
        LossyLinks {
            adversary,
            rng: ChaCha8Rng::seed_from_u64(adversary.seed),
            crashed: vec![false; network.num_nodes()],
            slot_owner,
            queues: std::iter::repeat_with(VecDeque::new)
                .take(network.num_slots())
                .collect(),
            queued: 0,
            faults: FaultLog::default(),
        }
    }

    /// Whether node `v` has crash-stopped (it no longer steps).
    pub(crate) fn is_crashed(&self, v: usize) -> bool {
        self.crashed[v]
    }

    /// Whether no message is waiting in any link queue.
    pub(crate) fn is_idle(&self) -> bool {
        self.queued == 0
    }

    /// Applies the crash-stops scripted for the start of `round`: the
    /// node's queued messages are lost with it.
    pub(crate) fn crash_scheduled(&mut self, round: u64) {
        for &(r, v) in &self.adversary.crash_schedule {
            if r == round && v.index() < self.crashed.len() && !self.crashed[v.index()] {
                self.crashed[v.index()] = true;
                self.faults
                    .events
                    .push(FaultEvent::Crashed { round, node: v });
            }
        }
    }

    /// The adversary rules on the message sent from slot `s` in `round`:
    /// drop it, or queue it on its link, possibly delayed. Messages are
    /// ruled on in send order, which fixes the order of the random draws.
    pub(crate) fn send(&mut self, network: &Network, round: u64, s: usize, msg: M) {
        let (edge, receiver) = network.graph().csr().slot(s);
        // A message whose sender crashed between queueing and the wire is
        // billed as sent (the node did emit it last round) and logged as
        // dropped, so the `sent = delivered + dropped` reconciliation holds
        // under crash adversaries too. Dropped messages draw no delay.
        let adv = self.adversary;
        let dropped = self.crashed[self.slot_owner[s] as usize]
            || adv
                .drop_schedule
                .iter()
                .any(|&(r, e)| r == round && e == edge)
            || (adv.drop_probability > 0.0 && self.rng.gen_bool(adv.drop_probability));
        if dropped {
            self.faults.events.push(FaultEvent::Dropped {
                round,
                edge,
                receiver,
            });
            return;
        }
        let mut due = round;
        if adv.delay_probability > 0.0 && self.rng.gen_bool(adv.delay_probability) {
            due = round + self.rng.gen_range(1..=adv.max_delay.max(1));
            self.faults.events.push(FaultEvent::Delayed {
                round,
                edge,
                receiver,
                until: due,
            });
        }
        self.queues[network.flip_slot(s)].push_back((due, msg));
        self.queued += 1;
    }

    /// Moves the head of every link queue whose due round has arrived into
    /// the receive arena, in slot order — at most one message per link per
    /// round, like the wire itself. Messages for crashed nodes are dropped.
    pub(crate) fn deliver(
        &mut self,
        network: &Network,
        round: u64,
        recv: &mut [Option<M>],
        recv_dirty: &mut Vec<u32>,
        mut trace: Option<&mut Vec<DeliveryEvent>>,
    ) {
        for (d, queue) in self.queues.iter_mut().enumerate() {
            if queue.front().is_none_or(|&(due, _)| due > round) {
                continue;
            }
            let (_, msg) = queue.pop_front().expect("front was just observed");
            self.queued -= 1;
            let edge = network.graph().csr().slot(d).0;
            let receiver = NodeId(self.slot_owner[d]);
            if self.crashed[receiver.index()] {
                self.faults.events.push(FaultEvent::Dropped {
                    round,
                    edge,
                    receiver,
                });
                continue;
            }
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(DeliveryEvent {
                    round,
                    edge,
                    receiver,
                });
            }
            recv[d] = Some(msg);
            recv_dirty.push(d as u32);
        }
    }

    pub(crate) fn into_faults(self) -> FaultLog {
        self.faults
    }
}

/// Enforces the clique's one-message-per-ordered-pair rule over the slots a
/// node dirtied this round.
pub(crate) fn check_clique_pairs(
    node: NodeId,
    new_dirty: &[u32],
    csr: &flowgraph::Csr,
    peers: &mut Vec<u32>,
) -> Result<(), SimulationError> {
    if new_dirty.len() < 2 {
        return Ok(());
    }
    peers.clear();
    peers.extend(new_dirty.iter().map(|&s| csr.slot(s as usize).1 .0));
    peers.sort_unstable();
    for w in peers.windows(2) {
        if w[0] == w[1] {
            return Err(SimulationError::CliquePairOverflow {
                node,
                peer: NodeId(w[0]),
            });
        }
    }
    Ok(())
}

/// Read handle on the broadcast words heard this round under
/// [`CommModel::Bcast`]: one optional word per node, indexed by sender id.
#[derive(Debug)]
pub struct BcastInbox<'a, W> {
    words: &'a [Option<W>],
}

impl<'a, W> BcastInbox<'a, W> {
    /// The word node `v` broadcast last round, if any.
    pub fn from(&self, v: NodeId) -> Option<&'a W> {
        self.words[v.index()].as_ref()
    }

    /// Iterates over `(sender, word)` pairs in sender-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &'a W)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter_map(|(v, w)| w.as_ref().map(|w| (NodeId(v as u32), w)))
    }

    /// Number of words heard this round.
    pub fn len(&self) -> usize {
        self.words.iter().filter(|w| w.is_some()).count()
    }

    /// Whether no node broadcast last round.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(Option::is_none)
    }
}

/// A distributed algorithm in the `BCAST(log n)` model: in every round each
/// node may emit **one** broadcast word of `O(log n)` bits, and hears the
/// words all other nodes emitted in the previous round.
pub trait BcastProtocol {
    /// The broadcast word (one `O(log n)`-bit word; the width checkers in
    /// `testkit::congestcheck` reject wider words).
    type Word: Clone + MessageSize;
    /// Per-node state.
    type State;
    /// Per-node output at termination.
    type Output;

    /// Initializes a node, optionally emitting its round-1 broadcast.
    fn init(&self, view: &LocalView<'_>) -> (Self::State, Option<Self::Word>);

    /// Executes one round: `heard` holds the words broadcast last round; the
    /// return value is this node's broadcast for the next round.
    fn round(
        &self,
        view: &LocalView<'_>,
        state: &mut Self::State,
        heard: &BcastInbox<'_, Self::Word>,
        round: u64,
    ) -> Option<Self::Word>;

    /// Whether this node has locally terminated.
    fn is_terminated(&self, state: &Self::State) -> bool;

    /// Extracts the node's output once the execution has ended.
    fn output(&self, view: &LocalView<'_>, state: Self::State) -> Self::Output;
}

impl Simulator {
    /// Executes a [`BcastProtocol`] under the `BCAST(log n)` model: per
    /// round, every node's single broadcast word (if any) is heard by all
    /// other nodes in the next round. One broadcast counts as one message in
    /// the returned [`RoundCost`]; the word width is recorded in
    /// `max_message_words` (the model admits exactly one word — checked by
    /// `testkit::congestcheck`, not enforced here, mirroring how the CONGEST
    /// engine treats widths).
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::RoundLimitExceeded`] if the protocol does
    /// not reach quiescence within the round cap.
    pub fn run_bcast<B: BcastProtocol>(
        &self,
        network: &Network,
        protocol: &B,
    ) -> Result<RunResult<B::Output>, SimulationError> {
        let n = network.num_nodes();
        let mut states: Vec<B::State> = Vec::with_capacity(n);
        let mut cur: Vec<Option<B::Word>> = Vec::with_capacity(n);
        let mut cost = RoundCost::ZERO;
        for v in network.graph().nodes() {
            let (state, word) = protocol.init(&network.view(v));
            if let Some(w) = &word {
                cost.messages += 1;
                cost.max_message_words = cost.max_message_words.max(w.words());
            }
            states.push(state);
            cur.push(word);
        }

        let mut next: Vec<Option<B::Word>> = Vec::with_capacity(n);
        let mut round: u64 = 0;
        loop {
            if cur.iter().all(Option::is_none) && states.iter().all(|s| protocol.is_terminated(s)) {
                break;
            }
            if round >= self.max_rounds() {
                return Err(SimulationError::RoundLimitExceeded {
                    max_rounds: self.max_rounds(),
                });
            }
            round += 1;

            next.clear();
            {
                let heard = BcastInbox { words: &cur };
                for v in network.graph().nodes() {
                    let word =
                        protocol.round(&network.view(v), &mut states[v.index()], &heard, round);
                    if let Some(w) = &word {
                        cost.messages += 1;
                        cost.max_message_words = cost.max_message_words.max(w.words());
                    }
                    next.push(word);
                }
            }
            std::mem::swap(&mut cur, &mut next);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{BfsProtocol, MinIdFlood};
    use flowgraph::gen;

    #[test]
    fn benign_lossy_run_is_byte_identical_to_classic() {
        for g in [gen::path(17, 1.0), gen::grid(5, 6, 1.0), gen::star(12, 2.0)] {
            let network = Network::new(g);
            let (classic, classic_t) = Simulator::new().run_traced(&network, &MinIdFlood).unwrap();
            for seed in [0u64, 7, 0xdead] {
                let lossy = CommModel::Lossy(Adversary::benign(seed));
                let (run, transcript, faults) = Simulator::new()
                    .run_model_traced(&network, &lossy, &MinIdFlood)
                    .unwrap();
                assert!(faults.is_empty());
                assert_eq!(run.outputs, classic.outputs, "seed {seed}");
                assert_eq!(run.cost, classic.cost, "seed {seed}");
                assert_eq!(run.cost.retransmissions, 0);
                assert_eq!(
                    format!("{transcript:?}").into_bytes(),
                    format!("{classic_t:?}").into_bytes(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn classic_and_clique_models_match_the_engine_on_simple_graphs() {
        let network = Network::new(gen::grid(4, 4, 1.0));
        let (classic, classic_t) = Simulator::new().run_traced(&network, &MinIdFlood).unwrap();
        for model in [CommModel::Classic, CommModel::Clique] {
            let (run, transcript, faults) = Simulator::new()
                .run_model_traced(&network, &model, &MinIdFlood)
                .unwrap();
            assert!(faults.is_empty(), "{}", model.name());
            assert_eq!(run.outputs, classic.outputs, "{}", model.name());
            assert_eq!(run.cost, classic.cost, "{}", model.name());
            assert_eq!(transcript, classic_t, "{}", model.name());
        }
    }

    #[test]
    fn clique_rejects_parallel_edge_pair_overflow() {
        // Two parallel edges between nodes 0 and 1: legal in per-edge
        // CONGEST (one message per edge), illegal in the clique (one word
        // per ordered pair).
        let mut g = flowgraph::Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        let network = Network::new(g);
        assert!(Simulator::new().run(&network, &MinIdFlood).is_ok());
        let err = Simulator::new()
            .run_model(&network, &CommModel::Clique, &MinIdFlood)
            .unwrap_err();
        assert!(
            matches!(err, SimulationError::CliquePairOverflow { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("ordered pair"));
    }

    #[test]
    fn reliable_wrapper_survives_heavy_drops() {
        let network = Network::new(gen::grid(5, 5, 1.0));
        let classic = Simulator::new().run(&network, &MinIdFlood).unwrap();
        for drop_p in [0.1, 0.2] {
            for seed in [1u64, 2, 3] {
                let lossy = CommModel::Lossy(Adversary::lossy(seed, drop_p));
                let (run, transcript, faults) = Simulator::new()
                    .run_model_reliable_traced(&network, &lossy, &MinIdFlood)
                    .unwrap();
                assert!(run.quiescent);
                assert_eq!(run.outputs, classic.outputs, "p={drop_p} seed={seed}");
                // Accounting closes exactly: every sent frame was either
                // delivered or logged as dropped.
                assert_eq!(
                    run.cost.messages,
                    transcript.len() as u64 + faults.dropped(),
                    "p={drop_p} seed={seed}"
                );
                assert!(
                    faults.dropped() > 0 && run.cost.retransmissions > 0,
                    "p={drop_p} seed={seed}: adversary never fired"
                );
                // Recovery inflates the bill but stays finite.
                assert!(run.cost.rounds > classic.cost.rounds);
            }
        }
    }

    #[test]
    fn reliable_wrapper_recovers_from_delays_and_scripted_drops() {
        let network = Network::new(gen::path(9, 1.0));
        let classic = Simulator::new().run(&network, &MinIdFlood).unwrap();
        let adv = Adversary::lossy(11, 0.05)
            .with_delays(0.3, 3)
            .with_edge_drop(1, flowgraph::EdgeId(0))
            .with_edge_drop(2, flowgraph::EdgeId(4));
        let lossy = CommModel::Lossy(adv);
        let (run, faults) = Simulator::new()
            .run_model_reliable(&network, &lossy, &MinIdFlood)
            .unwrap();
        assert_eq!(run.outputs, classic.outputs);
        assert!(faults.delayed() > 0);
        assert!(faults.dropped() >= 2, "scripted drops must be logged");
    }

    #[test]
    fn lossy_runs_are_seed_reproducible() {
        let network = Network::new(gen::grid(4, 4, 1.0));
        let lossy = CommModel::Lossy(Adversary::lossy(42, 0.15));
        let (a, at, af) = Simulator::new()
            .run_model_reliable_traced(&network, &lossy, &MinIdFlood)
            .unwrap();
        let (b, bt, bf) = Simulator::new()
            .run_model_reliable_traced(&network, &lossy, &MinIdFlood)
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.cost, b.cost);
        assert_eq!(at, bt);
        assert_eq!(af.events, bf.events);
    }

    #[test]
    fn crash_stop_freezes_a_node_and_is_logged() {
        // A 4x4 grid stays connected without node 5, so the flood still
        // converges everywhere else; the crashed node keeps whatever it knew.
        let network = Network::new(gen::grid(4, 4, 1.0));
        let crash_round = 1;
        let lossy = CommModel::Lossy(Adversary::benign(0).with_crash(crash_round, NodeId(5)));
        let (run, transcript, faults) = Simulator::new()
            .run_model_traced(&network, &lossy, &MinIdFlood)
            .unwrap();
        assert_eq!(faults.crashes(), 1);
        // The books close under crashes too: every billed message was either
        // delivered or logged as dropped (the crashed node's queued sends
        // and everything later addressed to it).
        assert_eq!(
            run.cost.messages,
            transcript.len() as u64 + faults.dropped()
        );
        assert!(faults.dropped() > 0, "node 5's queued sends die with it");
        assert!(faults.events.iter().any(|e| matches!(
            e,
            FaultEvent::Crashed {
                node: NodeId(5),
                ..
            }
        )));
        // Node 5 crashed before hearing anything beyond its own id announce.
        assert_eq!(run.outputs[5], 5);
        // Everyone else still learns 0 (node 0 is alive and the grid minus
        // node 5 is connected).
        for (v, &out) in run.outputs.iter().enumerate() {
            if v != 5 {
                assert_eq!(out, 0, "node {v}");
            }
        }
    }

    #[test]
    fn bfs_under_lossy_model_still_spans_the_graph() {
        let g = gen::grid(5, 5, 1.0);
        let dist = g.bfs_distances(NodeId(0));
        let network = Network::new(g);
        let lossy = CommModel::Lossy(Adversary::lossy(3, 0.2));
        let (run, _) = Simulator::new()
            .run_model_reliable(&network, &lossy, &BfsProtocol::new(NodeId(0)))
            .unwrap();
        // Drops may reshape the tree (a node can join via a longer path
        // first), but every node must join via an incident edge, and depths
        // can only exceed the true BFS distances.
        for (v, out) in run.outputs.iter().enumerate() {
            if v == 0 {
                assert!(out.is_none());
            } else {
                let (e, parent) = out.expect("every node joins eventually");
                let edge = network.graph().edge(e);
                assert!(edge.is_incident(NodeId(v as u32)));
                assert!(edge.is_incident(parent));
                let _ = dist;
            }
        }
    }

    #[test]
    fn bcast_model_rejects_edge_protocols() {
        let network = Network::new(gen::path(4, 1.0));
        let err = Simulator::new()
            .run_model(&network, &CommModel::Bcast, &MinIdFlood)
            .unwrap_err();
        assert!(matches!(err, SimulationError::UnsupportedModel { .. }));
    }

    /// BCAST leader election: every node broadcasts its id once; after one
    /// exchange everyone knows the minimum.
    struct BcastMinId;

    #[derive(Clone, Debug)]
    struct IdWord(u32);

    impl MessageSize for IdWord {}

    struct BcastMinState {
        best: u32,
        heard_all: bool,
    }

    impl BcastProtocol for BcastMinId {
        type Word = IdWord;
        type State = BcastMinState;
        type Output = u32;

        fn init(&self, view: &LocalView<'_>) -> (Self::State, Option<Self::Word>) {
            (
                BcastMinState {
                    best: view.node.0,
                    heard_all: false,
                },
                Some(IdWord(view.node.0)),
            )
        }

        fn round(
            &self,
            _view: &LocalView<'_>,
            state: &mut Self::State,
            heard: &BcastInbox<'_, Self::Word>,
            _round: u64,
        ) -> Option<Self::Word> {
            for (_, IdWord(id)) in heard.iter() {
                state.best = state.best.min(*id);
            }
            state.heard_all = true;
            None
        }

        fn is_terminated(&self, state: &Self::State) -> bool {
            state.heard_all
        }

        fn output(&self, _view: &LocalView<'_>, state: Self::State) -> Self::Output {
            state.best
        }
    }

    #[test]
    fn bcast_leader_election_takes_one_round_regardless_of_diameter() {
        // On a path of 30 nodes, flooding needs 29 rounds; BCAST(log n)
        // needs one. That is the regime difference the model exists for.
        let network = Network::new(gen::path(30, 1.0));
        let run = Simulator::new().run_bcast(&network, &BcastMinId).unwrap();
        assert!(run.outputs.iter().all(|&b| b == 0));
        assert_eq!(run.cost.rounds, 1);
        assert_eq!(run.cost.messages, 30, "one broadcast per node");
        assert_eq!(run.cost.max_message_words, 1);
    }

    #[test]
    fn width_budgets_follow_the_model() {
        assert_eq!(CommModel::Classic.width_budget(4), 4);
        assert_eq!(CommModel::Clique.width_budget(4), 4);
        assert_eq!(CommModel::Lossy(Adversary::benign(0)).width_budget(4), 5);
        assert_eq!(CommModel::Bcast.width_budget(4), 1);
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

    /// Digest of one model run: the outputs, the `RoundCost`, the sorted
    /// transcript and the fault log's events in encounter order.
    fn run_digest(
        outputs: &[u64],
        cost: RoundCost,
        transcript: &Transcript,
        faults: &FaultLog,
    ) -> u64 {
        let mut h = Fnv::new();
        h.word(outputs.len() as u64);
        outputs.iter().for_each(|&o| h.word(o));
        for x in [
            cost.rounds,
            cost.messages,
            cost.max_message_words,
            cost.retransmissions,
        ] {
            h.word(x);
        }
        h.word(transcript.len() as u64);
        for ev in transcript {
            h.word(ev.round);
            h.word(ev.edge.0.into());
            h.word(ev.receiver.0.into());
        }
        h.word(faults.events.len() as u64);
        for ev in &faults.events {
            match *ev {
                FaultEvent::Dropped {
                    round,
                    edge,
                    receiver,
                } => [0, round, edge.0.into(), receiver.0.into()]
                    .into_iter()
                    .for_each(|x| h.word(x)),
                FaultEvent::Delayed {
                    round,
                    edge,
                    receiver,
                    until,
                } => [1, round, edge.0.into(), receiver.0.into(), until]
                    .into_iter()
                    .for_each(|x| h.word(x)),
                FaultEvent::Crashed { round, node } => [2, round, node.0.into()]
                    .into_iter()
                    .for_each(|x| h.word(x)),
            }
        }
        h.0
    }

    fn flood_digest(network: &Network, model: &CommModel, reliable: bool) -> u64 {
        let sim = Simulator::new();
        let (run, transcript, faults) = if reliable {
            sim.run_model_reliable_traced(network, model, &MinIdFlood)
        } else {
            sim.run_model_traced(network, model, &MinIdFlood)
        }
        .unwrap();
        let outputs: Vec<u64> = run.outputs.iter().map(|&x| u64::from(x)).collect();
        run_digest(&outputs, run.cost, &transcript, &faults)
    }

    /// Pins every observable of adversarial and clique runs, fault log
    /// included, so that a change to the round loop that draws the
    /// adversary's stream or logs faults in another order shows up here.
    #[test]
    fn model_runs_match_pinned_digests() {
        let grid4 = Network::new(gen::grid(4, 4, 1.0));
        let grid5 = Network::new(gen::grid(5, 5, 1.0));
        let path9 = Network::new(gen::path(9, 1.0));
        let lossy = |adv: Adversary| CommModel::Lossy(adv);
        let bfs = {
            let (run, transcript, faults) = Simulator::new()
                .run_model_reliable_traced(
                    &grid5,
                    &lossy(Adversary::lossy(3, 0.2)),
                    &BfsProtocol::new(NodeId(0)),
                )
                .unwrap();
            let outputs: Vec<u64> = run
                .outputs
                .iter()
                .map(|o| o.map_or(u64::MAX, |(e, p)| u64::from(e.0) << 32 | u64::from(p.0)))
                .collect();
            run_digest(&outputs, run.cost, &transcript, &faults)
        };
        let cases = [
            (
                "raw flood, 20% drops, seed 1",
                flood_digest(&grid5, &lossy(Adversary::lossy(1, 0.2)), false),
                0x61f2_1c8d_59dd_8506,
            ),
            (
                "raw flood, 20% drops, seed 2",
                flood_digest(&grid5, &lossy(Adversary::lossy(2, 0.2)), false),
                0x3e93_ba7c_9f0f_aa23,
            ),
            (
                "reliable flood, delays and scripted edge drops",
                flood_digest(
                    &path9,
                    &lossy(
                        Adversary::lossy(11, 0.05)
                            .with_delays(0.3, 3)
                            .with_edge_drop(1, EdgeId(0))
                            .with_edge_drop(2, EdgeId(4)),
                    ),
                    true,
                ),
                0xfb6e_146a_e34b_8bbd,
            ),
            (
                "raw flood, crash-stop of node 5 in round 1",
                flood_digest(
                    &grid4,
                    &lossy(Adversary::benign(0).with_crash(1, NodeId(5))),
                    false,
                ),
                0xfab6_f7b3_30a0_45d1,
            ),
            (
                "raw flood, 10% drops and delays, crash-stop of node 6 in round 3",
                flood_digest(
                    &grid4,
                    &lossy(
                        Adversary::lossy(5, 0.1)
                            .with_delays(0.2, 2)
                            .with_crash(3, NodeId(6)),
                    ),
                    false,
                ),
                0xe184_d878_1658_1b77,
            ),
            (
                "reliable flood, 30% drops",
                flood_digest(&grid5, &lossy(Adversary::lossy(3, 0.3)), true),
                0x6563_136d_397b_6ec1,
            ),
            ("reliable BFS, 20% drops", bfs, 0xd0dc_0ad3_3d8b_407b),
            (
                "clique flood on a simple graph",
                flood_digest(&grid4, &CommModel::Clique, false),
                0x3e3a_52ed_3897_4b93,
            ),
        ];
        let wrong: Vec<String> = cases
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(name, got, want)| format!("{name}: {got:#018x} (pinned {want:#018x})"))
            .collect();
        assert!(wrong.is_empty(), "{wrong:#?}");
    }
}
