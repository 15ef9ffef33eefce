//! Differential conformance harness across engines, models and adversaries.
//!
//! One protocol, many executions: the harness replays the same protocol on
//! both engines (the arena round loop of [`Simulator::run`], traced and
//! untraced, and the allocation-per-round reference) and every communication
//! model (classic CONGEST, Congested Clique, lossy CONGEST under each
//! configured adversary, and — for the tree aggregations — `BCAST(log n)`),
//! then asserts the executions agree:
//!
//! * **reliable replays are byte-identical** — outputs, [`RoundCost`] and
//!   canonical transcripts match the classic baseline exactly, for every
//!   engine, model and benign adversary seed;
//! * **lossy replays agree modulo the drop log** — the adversary's
//!   [`FaultLog`](congest::model::FaultLog) reconciles the books exactly
//!   (`messages sent = deliveries + drops`), the run still terminates, and
//!   for delivery-order-independent protocols the outputs are byte-identical
//!   to classic despite the faults;
//! * **flows are byte-identical across the whole matrix** — the max-flow
//!   session answers the same bytes under every model, thread count and
//!   adversary, with the lossy round bill inflated by exactly the logged
//!   recovery traffic.
//!
//! # Quickstart
//!
//! ```
//! use congest::engine::Network;
//! use congest::primitives::MinIdFlood;
//! use flowgraph::gen;
//! use testkit::conformance::{check_protocol_matrix, ConformanceMatrix};
//!
//! let network = Network::new(gen::grid(5, 5, 1.0));
//! let report = check_protocol_matrix(&network, &MinIdFlood, &ConformanceMatrix::default())
//!     .expect("every fabric agrees");
//! assert!(report.replays >= 8);
//! ```
//!
//! The CI `conformance` job drives these checks across the model matrix with
//! a fixed seed set. `CONFORMANCE_THREADS` (comma-separated, default `1,4`)
//! sets the thread counts of [`check_flow_conformance`]'s thread check; the
//! protocol replays have no thread dimension, since the simulator has one
//! round loop.

use congest::engine::reference_run_traced;
use congest::model::{Adversary, CommModel};
use congest::primitives::build_bfs_tree;
use congest::treeops::{
    bcast_prefix_sums, bcast_subtree_sums, distributed_prefix_sums_on, distributed_subtree_sums_on,
    TreeDecomposition,
};
use congest::{Network, Protocol, RoundCost, Simulator};
use flowgraph::{Graph, NodeId, RootedTree};
use maxflow::{MaxFlowConfig, Parallelism, PreparedMaxFlow};

use crate::congestcheck::{check_model_width, CongestBudget};

/// The replay matrix: which thread counts, drop rates and adversary seeds a
/// conformance check sweeps.
#[derive(Debug, Clone)]
pub struct ConformanceMatrix {
    /// Thread counts for [`check_flow_conformance`]'s parallel-session
    /// replays (`CONFORMANCE_THREADS` env var overrides, comma-separated;
    /// default `1,4`).
    pub thread_counts: Vec<usize>,
    /// Drop probabilities for the lossy replays (`0.0` is asserted
    /// byte-identical to classic; positive rates go through the
    /// retransmit-with-ack adapter).
    pub drop_rates: Vec<f64>,
    /// Adversary seeds replayed at every drop rate.
    pub adversary_seeds: Vec<u64>,
    /// Whether lossy replays must reproduce the classic outputs bit for bit.
    /// True for delivery-order-independent protocols (aggregations, min-id
    /// flooding); set false for protocols whose outputs legitimately depend
    /// on message timing (e.g. BFS parent choices) — the accounting
    /// invariants are still enforced.
    pub lossy_outputs_equal: bool,
    /// Round cap for the adversarial replays.
    pub max_rounds: u64,
}

impl Default for ConformanceMatrix {
    fn default() -> Self {
        let thread_counts = std::env::var("CONFORMANCE_THREADS")
            .ok()
            .map(|s| {
                s.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .filter(|&t| t >= 1)
                    .collect::<Vec<usize>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1, 4]);
        ConformanceMatrix {
            thread_counts,
            drop_rates: vec![0.0, 0.1, 0.2],
            adversary_seeds: vec![1, 2],
            lossy_outputs_equal: true,
            max_rounds: 1_000_000,
        }
    }
}

/// A violated conformance invariant, described for the failure message.
#[derive(Debug, Clone)]
pub struct ConformanceViolation(String);

impl std::fmt::Display for ConformanceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConformanceViolation {}

fn violation(msg: impl Into<String>) -> ConformanceViolation {
    ConformanceViolation(msg.into())
}

/// Tallies from a passing conformance sweep.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Total executions compared against the classic baseline.
    pub replays: usize,
    /// Messages the adversaries dropped across all lossy replays.
    pub dropped: u64,
    /// Retransmissions the recovery wrapper billed across all lossy replays.
    pub retransmissions: u64,
    /// The worst lossy round bill observed (finite by construction — an
    /// unterminated replay is a violation, not a tally).
    pub max_lossy_rounds: u64,
    /// Whether the clique replay was skipped because the protocol queued two
    /// messages for one peer over parallel edges — legal in per-edge
    /// CONGEST, unrepresentable in the clique. This is the semantic gap
    /// between the two models, not a bug in either.
    pub clique_skipped: bool,
}

/// Replays `protocol` across every engine and model of `matrix` and checks
/// the agreements described in the [module docs](self).
///
/// # Errors
///
/// Returns the first [`ConformanceViolation`] encountered.
pub fn check_protocol_matrix<P>(
    network: &Network,
    protocol: &P,
    matrix: &ConformanceMatrix,
) -> Result<ConformanceReport, ConformanceViolation>
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let mut report = ConformanceReport::default();
    let sim = Simulator::new().with_max_rounds(matrix.max_rounds);
    let (baseline, baseline_t) = sim
        .run_traced(network, protocol)
        .map_err(|e| violation(format!("classic run failed: {e}")))?;

    // 1. The reference engine (executable spec) agrees byte for byte.
    let (reference, reference_t) = reference_run_traced(network, protocol, matrix.max_rounds)
        .map_err(|e| violation(format!("reference run failed: {e}")))?;
    if reference.outputs != baseline.outputs
        || reference.cost != baseline.cost
        || reference_t != baseline_t
    {
        return Err(violation("reference engine diverged from the arena engine"));
    }
    report.replays += 1;

    // 2. The untraced round loop, which the library's own callers use,
    //    agrees: recording a transcript changes neither outputs nor bill.
    let untraced = sim
        .run(network, protocol)
        .map_err(|e| violation(format!("untraced run failed: {e}")))?;
    if untraced.outputs != baseline.outputs || untraced.cost != baseline.cost {
        return Err(violation("untraced run diverged from the traced run"));
    }
    report.replays += 1;

    // 3. The classic and clique models agree byte for byte (for simple
    //    graphs the clique's pair rule coincides with the per-edge rule).
    for model in [CommModel::Classic, CommModel::Clique] {
        let outcome = sim.run_model_traced(network, &model, protocol);
        let (run, transcript, faults) = match outcome {
            Ok(ok) => ok,
            // Parallel edges make a protocol clique-unrepresentable: one
            // message per edge is legal in CONGEST but exceeds the pair
            // capacity of the clique. Record the gap and move on.
            Err(congest::engine::SimulationError::CliquePairOverflow { .. })
                if matches!(model, CommModel::Clique) =>
            {
                report.clique_skipped = true;
                continue;
            }
            Err(e) => return Err(violation(format!("{} model failed: {e}", model.name()))),
        };
        if !faults.is_empty() {
            return Err(violation(format!(
                "{} model logged faults without an adversary",
                model.name()
            )));
        }
        if run.outputs != baseline.outputs || run.cost != baseline.cost || transcript != baseline_t
        {
            return Err(violation(format!(
                "{} model diverged from the classic engine",
                model.name()
            )));
        }
        report.replays += 1;
    }

    // 4. Lossy replays: drop rate 0 is byte-identical; positive rates close
    //    their books against the fault log and (for order-independent
    //    protocols) reproduce the outputs.
    for &seed in &matrix.adversary_seeds {
        for &drop_p in &matrix.drop_rates {
            let model = CommModel::Lossy(Adversary::lossy(seed, drop_p));
            let (run, transcript, faults) = sim
                .run_model_reliable_traced(network, &model, protocol)
                .map_err(|e| {
                    violation(format!("lossy run (seed {seed}, p {drop_p}) failed: {e}"))
                })?;
            if drop_p == 0.0 {
                if run.outputs != baseline.outputs
                    || run.cost != baseline.cost
                    || transcript != baseline_t
                    || !faults.is_empty()
                {
                    return Err(violation(format!(
                        "lossy model at drop rate 0 (seed {seed}) diverged from classic"
                    )));
                }
            } else {
                if !run.quiescent {
                    return Err(violation(format!(
                        "lossy run (seed {seed}, p {drop_p}) did not reach quiescence"
                    )));
                }
                if run.cost.messages != transcript.len() as u64 + faults.dropped() {
                    return Err(violation(format!(
                        "lossy accounting leak (seed {seed}, p {drop_p}): {} sent != {} \
                         delivered + {} dropped",
                        run.cost.messages,
                        transcript.len(),
                        faults.dropped()
                    )));
                }
                if matrix.lossy_outputs_equal && run.outputs != baseline.outputs {
                    return Err(violation(format!(
                        "lossy outputs (seed {seed}, p {drop_p}) diverged from classic"
                    )));
                }
                if faults.dropped() > 0 && run.cost.retransmissions == 0 {
                    return Err(violation(format!(
                        "drops occurred (seed {seed}, p {drop_p}) but no retransmissions \
                         were billed — the recovery traffic is unaccounted"
                    )));
                }
                report.dropped += faults.dropped();
                report.retransmissions += run.cost.retransmissions;
                report.max_lossy_rounds = report.max_lossy_rounds.max(run.cost.rounds);
            }
            report.replays += 1;
        }
    }

    Ok(report)
}

/// Replays the Lemma 8.2 tree aggregations (subtree sums and root-to-node
/// prefix sums) under every model — classic, clique, each lossy adversary of
/// the matrix **and** `BCAST(log n)` — asserting bit-identical values
/// against the centralized oracle ([`RootedTree::subtree_sums`] /
/// [`RootedTree::prefix_sums_from_root`]) plus model-conformant message
/// widths.
///
/// `values` should be integer-valued so that f64 summation is exact
/// regardless of the delivery order a model induces.
///
/// # Errors
///
/// Returns the first [`ConformanceViolation`] encountered.
pub fn check_tree_aggregation_matrix(
    network: &Network,
    tree: &RootedTree,
    decomposition: &TreeDecomposition,
    values: &[f64],
    matrix: &ConformanceMatrix,
) -> Result<ConformanceReport, ConformanceViolation> {
    let mut report = ConformanceReport::default();
    let budget = CongestBudget::default();
    let bfs = build_bfs_tree(network, tree.root()).tree;
    let expected_up = tree.subtree_sums(values);
    let expected_down = tree.prefix_sums_from_root(values);

    let mut models = vec![CommModel::Classic, CommModel::Clique];
    for &seed in &matrix.adversary_seeds {
        for &drop_p in &matrix.drop_rates {
            models.push(CommModel::Lossy(Adversary::lossy(seed, drop_p)));
        }
    }

    let check = |got: &[f64], want: &[f64], what: &str| -> Result<(), ConformanceViolation> {
        for (v, (g, w)) in got.iter().zip(want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(violation(format!(
                    "{what}: node {v} computed {g}, oracle says {w}"
                )));
            }
        }
        Ok(())
    };

    for model in &models {
        let up = distributed_subtree_sums_on(model, network, tree, decomposition, &bfs, values);
        let down = distributed_prefix_sums_on(model, network, tree, decomposition, &bfs, values);
        check(&up.values, &expected_up, &format!("{} up", model.name()))?;
        check(
            &down.values,
            &expected_down,
            &format!("{} down", model.name()),
        )?;
        for cost in [&up.cost, &down.cost] {
            check_model_width(model, cost, &budget)
                .map_err(|e| violation(format!("{}: {e}", model.name())))?;
        }
        if model.is_lossy() {
            report.retransmissions += up.cost.retransmissions + down.cost.retransmissions;
            report.max_lossy_rounds = report
                .max_lossy_rounds
                .max(up.cost.rounds.max(down.cost.rounds));
        }
        report.replays += 2;
    }

    // BCAST(log n): no decomposition, no pipelining — one global word per
    // node, O(depth) rounds, exactly one word wide.
    let up = bcast_subtree_sums(network, tree, values);
    let down = bcast_prefix_sums(network, tree, values);
    check(&up.values, &expected_up, "bcast up")?;
    check(&down.values, &expected_down, "bcast down")?;
    for cost in [&up.cost, &down.cost] {
        check_model_width(&CommModel::Bcast, cost, &budget)
            .map_err(|e| violation(format!("bcast: {e}")))?;
        if cost.messages > network.num_nodes() as u64 {
            return Err(violation(format!(
                "bcast aggregation used {} broadcasts for {} nodes (at most one each)",
                cost.messages,
                network.num_nodes()
            )));
        }
    }
    report.replays += 2;

    Ok(report)
}

/// Tallies from a passing flow-level sweep.
#[derive(Debug, Clone, Default)]
pub struct FlowConformanceReport {
    /// Model/thread combinations whose flow matched the baseline bytes.
    pub replays: usize,
    /// The classic round bill.
    pub classic_rounds: u64,
    /// The worst lossy round bill observed.
    pub max_lossy_rounds: u64,
    /// Retransmissions billed across the lossy replays.
    pub retransmissions: u64,
}

/// Replays one `distributed_max_flow` query across the model × thread
/// matrix and asserts the *flows* are byte-identical everywhere — models
/// only change the round bill, never the answer — with lossy bills finite,
/// retransmission-inflated and internally consistent.
///
/// # Errors
///
/// Returns the first [`ConformanceViolation`] encountered.
pub fn check_flow_conformance(
    g: &Graph,
    config: &MaxFlowConfig,
    s: NodeId,
    t: NodeId,
    matrix: &ConformanceMatrix,
) -> Result<FlowConformanceReport, ConformanceViolation> {
    let mut report = FlowConformanceReport::default();
    let prepare_err = |e| violation(format!("prepare failed: {e}"));
    let mut session = PreparedMaxFlow::prepare(g, config).map_err(prepare_err)?;
    let baseline = session
        .distributed_max_flow(s, t)
        .map_err(|e| violation(format!("classic query failed: {e}")))?;
    let baseline_bits: Vec<u64> = baseline
        .result
        .flow
        .values()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    report.classic_rounds = baseline.rounds.total.rounds;

    let flow_bits = |result: &maxflow::MaxFlowResult| -> Vec<u64> {
        result.flow.values().iter().map(|x| x.to_bits()).collect()
    };

    // 1. Thread matrix: the parallel execution layer must not change a bit.
    for &threads in &matrix.thread_counts {
        let cfg = config
            .clone()
            .with_parallelism(Parallelism::with_threads(threads));
        let mut par_session = PreparedMaxFlow::prepare(g, &cfg).map_err(prepare_err)?;
        let run = par_session
            .max_flow(s, t)
            .map_err(|e| violation(format!("{threads}-thread query failed: {e}")))?;
        if flow_bits(&run) != baseline_bits {
            return Err(violation(format!(
                "{threads}-thread flow diverged from sequential bytes"
            )));
        }
        report.replays += 1;
    }

    // 2. Model matrix: same bytes, model-specific bills.
    let mut models = vec![CommModel::Clique];
    for &seed in &matrix.adversary_seeds {
        for &drop_p in &matrix.drop_rates {
            models.push(CommModel::Lossy(Adversary::lossy(seed, drop_p)));
        }
    }
    for model in &models {
        let run = session
            .distributed_max_flow_on(s, t, model)
            .map_err(|e| violation(format!("{} query failed: {e}", model.name())))?;
        if flow_bits(&run.result) != baseline_bits {
            return Err(violation(format!(
                "{} flow diverged from classic bytes",
                model.name()
            )));
        }
        let r = &run.rounds;
        let stage_sum = r.bfs_construction.rounds
            + r.approximator_construction.rounds
            + r.gradient_descent.rounds
            + r.repair.rounds;
        if r.total.rounds != stage_sum {
            return Err(violation(format!(
                "{}: total rounds {} != stage sum {stage_sum}",
                model.name(),
                r.total.rounds
            )));
        }
        match model {
            CommModel::Lossy(adv) if !adv.is_benign() => {
                if r.total.retransmissions == 0 {
                    return Err(violation(format!(
                        "lossy bill (seed {}, p {}) shows no retransmissions",
                        adv.seed, adv.drop_probability
                    )));
                }
                report.max_lossy_rounds = report.max_lossy_rounds.max(r.total.rounds);
                report.retransmissions += r.total.retransmissions;
            }
            _ => {
                if *r != baseline.rounds {
                    return Err(violation(format!(
                        "{} bill diverged from classic on a reliable fabric",
                        model.name()
                    )));
                }
            }
        }
        report.replays += 1;
    }

    // 3. BCAST joins through its tree-aggregation port: the repair tree's
    //    subtree sums must match the centralized oracle in one word per
    //    broadcast.
    let network = Network::new(g.clone());
    let values: Vec<f64> = (0..g.num_nodes()).map(|v| (v % 7) as f64).collect();
    let up = bcast_subtree_sums(&network, session.repair_tree(), &values);
    let expected = session.repair_tree().subtree_sums(&values);
    for (v, (got, want)) in up.values.iter().zip(&expected).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(violation(format!(
                "bcast repair aggregation: node {v} computed {got}, oracle says {want}"
            )));
        }
    }
    check_model_width(&CommModel::Bcast, &up.cost, &CongestBudget::default())
        .map_err(|e| violation(format!("bcast: {e}")))?;
    report.replays += 1;

    Ok(report)
}

/// A [`RoundCost`] sanity helper shared by the suites: every component of
/// `sum` must equal the component-wise sequential composition of `parts`.
pub fn assert_cost_composes(
    sum: &RoundCost,
    parts: &[RoundCost],
) -> Result<(), ConformanceViolation> {
    let composed: RoundCost = parts.iter().copied().sum();
    if *sum != composed {
        return Err(violation(format!(
            "cost {sum} is not the sequential composition of its parts ({composed})"
        )));
    }
    Ok(())
}
