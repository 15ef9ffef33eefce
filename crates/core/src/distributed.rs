//! Distributed execution with CONGEST round accounting (paper §3 and §9).
//!
//! The algorithm that runs is exactly the centralized pipeline of
//! [`crate::solver`]; what this module adds is the *round bill* of executing
//! it in the CONGEST model, assembled from measured quantities:
//!
//! * the BFS tree used for global aggregation is built by the genuine
//!   message-passing protocol of `congest::primitives` (its depth is the
//!   measured stand-in for the diameter `D`), executed on the
//!   zero-allocation arena engine of `congest::engine`;
//! * every virtual tree of the congestion approximator is decomposed into
//!   `Õ(√n)` low-depth components (Lemma 8.2) and the subtree-sum / downcast
//!   aggregations that the gradient descent performs on it (§9.1) are
//!   executed as real message-passing protocols once, giving the measured
//!   per-iteration cost, which is then multiplied by the number of gradient
//!   iterations actually performed;
//! * the construction costs (sparsifier, low-stretch trees, tree
//!   capacities) are charged per Lemma 5.1 / Lemma 6.1 / Theorem 3.1 with the
//!   measured BFS depth, `√n`, and the measured number of cluster-level
//!   decomposition rounds.
//!
//! All measured protocol state — the network arena, the BFS tree, and one
//! cached [`DecomposedTree`] handle per virtual tree (Lemma 8.2 says the
//! decomposition is sampled once per tree, not once per aggregation) — lives
//! in a cached plan owned by the [`PreparedMaxFlow`] session, so a
//! build-once / query-many caller pays the construction bill once and only
//! the per-iteration and repair-aggregation bills per query.
//! [`PreparedMaxFlow::distributed_bill`] exposes exactly that amortized
//! split.
//!
//! The paper's headline claim — `(D + √n)·n^{o(1)}·ε^{-3}` rounds, far below
//! the `Θ(n²)` of distributed push–relabel and the `Θ(m)` of centralizing the
//! input — is what experiments E1/E9 check against this accounting.

use congest::model::CommModel;
use congest::primitives::{build_bfs_tree, build_bfs_tree_on, pipelined_broadcast_cost};
use congest::treeops::{DecomposedTree, TreeDecomposition};
use congest::{Network, RoundCost};
use flowgraph::{Graph, GraphError, NodeId, RootedTree};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::session::PreparedMaxFlow;
use crate::solver::{MaxFlowConfig, MaxFlowResult};

/// Round costs of the individual phases of the distributed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundBreakdown {
    /// Building the global BFS tree (measured protocol run).
    pub bfs_construction: RoundCost,
    /// Building the congestion approximator: sparsifier, low-stretch trees,
    /// tree capacities and tree decompositions.
    pub approximator_construction: RoundCost,
    /// One gradient-descent iteration: R·b and Rᵀ·y on every virtual tree
    /// plus the global scalar aggregations (measured protocol runs).
    pub per_iteration: RoundCost,
    /// All gradient-descent iterations.
    pub gradient_descent: RoundCost,
    /// Computing the maximum-weight spanning tree and routing the residual
    /// demand over it (Algorithm 1, steps 5–6).
    pub repair: RoundCost,
    /// Grand total.
    pub total: RoundCost,
}

/// Result of the distributed approximate max-flow computation.
#[derive(Debug, Clone)]
pub struct DistributedMaxFlowResult {
    /// The flow itself (identical to the centralized result for the same
    /// seed) together with value and certified upper bound.
    pub result: MaxFlowResult,
    /// The CONGEST round bill (standalone accounting: construction charged to
    /// this call; see [`PreparedMaxFlow::distributed_bill`] for the amortized
    /// session view).
    pub rounds: RoundBreakdown,
    /// Depth of the measured BFS tree (a 2-approximation of the diameter D).
    pub bfs_depth: usize,
    /// Number of network nodes.
    pub num_nodes: usize,
    /// Number of network edges.
    pub num_edges: usize,
}

impl DistributedMaxFlowResult {
    /// The paper's comparison yardstick `D + √n` for this instance.
    pub fn d_plus_sqrt_n(&self) -> f64 {
        self.bfs_depth as f64 + (self.num_nodes as f64).sqrt()
    }

    /// Total rounds divided by `D + √n` (the `n^{o(1)}·ε^{-3}` factor the
    /// paper leaves on the table; experiment E9 tracks how it grows with n).
    pub fn overhead_factor(&self) -> f64 {
        self.rounds.total.rounds as f64 / self.d_plus_sqrt_n().max(1.0)
    }
}

/// The amortized CONGEST bill of a prepared session: what a network pays
/// *once* when the session is prepared, and what every subsequent query pays
/// on top (per-iteration aggregations plus one repair aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionBill {
    /// Building the global BFS tree (measured protocol run; charged once).
    pub bfs_construction: RoundCost,
    /// Building the congestion approximator: sparsifier, low-stretch trees,
    /// tree capacities and tree decompositions (charged once).
    pub approximator_construction: RoundCost,
    /// Computing the maximum-weight spanning tree used for residual repair
    /// (Kutten–Peleg, `Õ(√n + D)`; charged once — the per-call accounting of
    /// [`distributed_approx_max_flow`] charges it per query instead).
    pub repair_tree_construction: RoundCost,
    /// Everything charged once: the three construction items above.
    pub prepare_total: RoundCost,
    /// One gradient-descent iteration: R·b and Rᵀ·y on every virtual tree
    /// plus the global scalar aggregations (measured protocol runs).
    pub per_iteration: RoundCost,
    /// Routing the residual over the repair tree, once per query
    /// (Lemma 9.1, measured on the actual tree).
    pub per_query_repair: RoundCost,
    /// Depth of the measured BFS tree (a 2-approximation of the diameter D).
    pub bfs_depth: usize,
    /// Number of network nodes.
    pub num_nodes: usize,
}

impl SessionBill {
    /// Rounds charged to one query that performed `iterations` gradient
    /// iterations (construction excluded — it is in [`Self::prepare_total`]).
    pub fn query_rounds(&self, iterations: usize) -> RoundCost {
        self.per_iteration
            .repeat(iterations.max(1) as u64)
            .then(self.per_query_repair)
    }

    /// Total bill of preparing once and answering one query per entry of
    /// `iterations_per_query` — the number `examples/congest_round_audit.rs`
    /// compares against `queries × standalone_total`.
    pub fn amortized_total(&self, iterations_per_query: &[usize]) -> RoundCost {
        iterations_per_query
            .iter()
            .fold(self.prepare_total, |acc, &it| {
                acc.then(self.query_rounds(it))
            })
    }

    /// The paper's comparison yardstick `D + √n` for this instance.
    pub fn d_plus_sqrt_n(&self) -> f64 {
        self.bfs_depth as f64 + (self.num_nodes as f64).sqrt()
    }
}

/// The cached distributed-execution state of a session: the simulated
/// network, the measured BFS tree, and re-runnable [`DecomposedTree`] handles
/// for every virtual tree and for the repair tree.
#[derive(Debug)]
pub(crate) struct DistributedPlan {
    network: Network,
    bfs_tree: RootedTree,
    bfs_cost: RoundCost,
    bfs_depth: usize,
    construction: RoundCost,
    per_iteration: RoundCost,
    /// Kutten–Peleg MST construction rounds, `(D + √n)·log n`.
    repair_tree_construction: RoundCost,
    /// Cached decomposition handles of the virtual trees (Lemma 8.2),
    /// in ensemble order.
    virtual_trees: Vec<DecomposedTree>,
    /// Cached decomposition handle of the repair tree (Lemma 9.1).
    repair: DecomposedTree,
    /// Measured cost of one repair aggregation over [`Self::repair`]
    /// (deterministic for a fixed plan, so measured once).
    per_query_repair: RoundCost,
}

impl DistributedPlan {
    /// Runs the measured construction protocols once for a prepared session.
    fn build(session: &PreparedMaxFlow<'_>) -> DistributedPlan {
        let g = session.graph();
        let config = session.config();
        let n = g.num_nodes();
        let sqrt_n = (n as f64).sqrt().ceil() as u64;
        let network = Network::new(g.clone());

        // Phase 1: global BFS tree (real protocol), rooted at the canonical
        // aggregation root. Its depth is within a factor 2 of the diameter
        // from any root, which is all the accounting uses it for.
        let bfs = build_bfs_tree(&network, NodeId(0));
        let bfs_depth = bfs.tree.max_depth();

        // Phase 2: congestion approximator construction. Sparsifier
        // (Lemma 6.1) plus the low-stretch spanning trees: each cluster-level
        // decomposition round is simulated in O(D + √n) network rounds
        // (Lemma 5.1 / Theorem 3.1).
        let mut construction = capprox::sparsify::congest_cost(n, bfs_depth);
        let decomposition_rounds = session.ensemble_stats().decomposition_rounds as u64;
        construction.add_sequential(RoundCost::rounds(
            decomposition_rounds * (bfs_depth as u64 + sqrt_n),
        ));

        // Tree capacities (Lemma 8.3) and the per-iteration aggregations
        // (§9.1): sample each tree's Lemma 8.2 decomposition once, run the
        // real decomposed protocols once and remember the cost.
        let mut rng = ChaCha8Rng::seed_from_u64(config.racke.seed ^ 0x9e3779b97f4a7c15);
        let cut_probability = TreeDecomposition::recommended_probability(n);
        let unit_values = vec![1.0; n];
        let mut per_iteration = RoundCost::ZERO;
        let mut virtual_trees = Vec::with_capacity(session.approximator().trees().len());
        for cap_tree in session.approximator().trees() {
            let handle = DecomposedTree::sample(cap_tree.tree.clone(), cut_probability, &mut rng);
            let up = handle.subtree_sums(&network, &bfs.tree, &unit_values);
            let down = handle.prefix_sums(&network, &bfs.tree, &unit_values);
            // Computing |f'| / the tree capacities costs one aggregation per
            // tree during construction (Lemma 8.3).
            construction.add_sequential(up.cost);
            // Each gradient iteration needs the y-values (subtree sums) and
            // the potentials π (downcast) on every tree. The O(log n) trees
            // are evaluated concurrently (their messages are pipelined over
            // shared edges exactly like the k-value aggregations of
            // Lemma 5.1), so the per-iteration round cost is the maximum over
            // trees, not the sum.
            per_iteration.add_parallel(up.cost.then(down.cost));
            virtual_trees.push(handle);
        }
        // Global scalar aggregations per iteration (φ1, φ2, δ and the step
        // bookkeeping): a constant number of converge/broadcasts on the BFS
        // tree.
        per_iteration.add_sequential(pipelined_broadcast_cost(&bfs.tree, 4));

        // Repair tree: maximum-weight spanning tree (Kutten–Peleg,
        // Õ(√n + D)) plus a cached Lemma 9.1 decomposition handle for the
        // per-query residual aggregation; its deterministic cost is measured
        // here, once.
        let logn = (n.max(2) as f64).log2().ceil() as u64;
        let repair_tree_construction = RoundCost::rounds((bfs_depth as u64 + sqrt_n) * logn);
        let repair =
            DecomposedTree::sample(session.repair_tree().clone(), cut_probability, &mut rng);
        let per_query_repair = repair.subtree_sums(&network, &bfs.tree, &unit_values).cost;

        DistributedPlan {
            network,
            bfs_tree: bfs.tree,
            bfs_cost: bfs.cost,
            bfs_depth,
            construction,
            per_iteration,
            repair_tree_construction,
            virtual_trees,
            repair,
            per_query_repair,
        }
    }
}

impl<'g> PreparedMaxFlow<'g> {
    fn ensure_plan(&mut self) -> &DistributedPlan {
        if self.parts.plan.is_none() {
            self.parts.plan = Some(DistributedPlan::build(self));
        }
        self.parts.plan.as_ref().expect("plan was just built")
    }

    /// The amortized CONGEST bill of this session: construction costs charged
    /// once, per-iteration and per-query-repair costs charged per query.
    ///
    /// The measured protocols run on first use and are cached; subsequent
    /// calls reuse the cached figures (every protocol is deterministic for a
    /// fixed plan, which [`Self::remeasure_query_costs`] pins).
    pub fn distributed_bill(&mut self) -> SessionBill {
        let num_nodes = self.graph().num_nodes();
        let plan = self.ensure_plan();
        let prepare_total = plan
            .bfs_cost
            .then(plan.construction)
            .then(plan.repair_tree_construction);
        SessionBill {
            bfs_construction: plan.bfs_cost,
            approximator_construction: plan.construction,
            repair_tree_construction: plan.repair_tree_construction,
            prepare_total,
            per_iteration: plan.per_iteration,
            per_query_repair: plan.per_query_repair,
            bfs_depth: plan.bfs_depth,
            num_nodes,
        }
    }

    /// Re-runs the per-query protocols through the cached [`DecomposedTree`]
    /// handles — the subtree-sum ("y-values") and downcast (potential)
    /// aggregations on every virtual tree plus the global scalar broadcasts,
    /// and the residual-repair aggregation on the repair tree — and returns
    /// the freshly measured `(per_iteration, per_query_repair)` costs.
    ///
    /// The protocols are deterministic for a fixed plan, so this equals the
    /// cached [`SessionBill`] figures; the test suite uses it to pin that
    /// the cached handles really are re-runnable.
    pub fn remeasure_query_costs(&mut self) -> (RoundCost, RoundCost) {
        let plan = self.ensure_plan();
        let unit_values = vec![1.0; plan.network.num_nodes()];
        let mut per_iteration = RoundCost::ZERO;
        for handle in &plan.virtual_trees {
            let up = handle.subtree_sums(&plan.network, &plan.bfs_tree, &unit_values);
            let down = handle.prefix_sums(&plan.network, &plan.bfs_tree, &unit_values);
            per_iteration.add_parallel(up.cost.then(down.cost));
        }
        per_iteration.add_sequential(pipelined_broadcast_cost(&plan.bfs_tree, 4));
        let repair = plan
            .repair
            .subtree_sums(&plan.network, &plan.bfs_tree, &unit_values)
            .cost;
        (per_iteration, repair)
    }

    /// Runs one s–t query under an arbitrary communication model
    /// (`CommModel::Classic` is [`Self::distributed_max_flow`] exactly,
    /// cached plan and all).
    ///
    /// The flow itself is computed by the same centralized gradient descent
    /// for every model — it is **byte-identical** across models — while the
    /// measured protocols (BFS construction, the Lemma 8.2 aggregations of
    /// every virtual tree, the Lemma 9.1 repair aggregation) are re-executed
    /// on the model's fabric, through the retransmit-with-ack adapter on the
    /// lossy model. Under an interfering adversary the round bill is
    /// therefore retransmission-inflated (but finite, and reproducible for a
    /// fixed adversary seed); under the clique it is classic's bill with the
    /// pair-capacity rule enforced.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Self::max_flow`], plus
    /// [`GraphError::InvalidConfig`] for [`CommModel::Bcast`] (the plan's
    /// protocols are edge-addressed; the `BCAST(log n)` tree aggregations
    /// live in `congest::treeops::bcast_subtree_sums`).
    pub fn distributed_max_flow_on(
        &mut self,
        s: NodeId,
        t: NodeId,
        model: &CommModel,
    ) -> Result<DistributedMaxFlowResult, GraphError> {
        if matches!(model, CommModel::Classic) {
            return self.distributed_max_flow(s, t);
        }
        if matches!(model, CommModel::Bcast) {
            return Err(GraphError::InvalidConfig {
                parameter: "comm_model",
                reason: "the distributed plan's protocols are edge-addressed and cannot run \
                         on BCAST(log n); use congest::treeops::bcast_subtree_sums for the \
                         broadcast-model tree aggregations",
            });
        }
        if matches!(model, CommModel::Clique) {
            // The plan's BFS flood sends one announcement per incident edge;
            // on a multigraph two parallel edges target one peer, which the
            // clique's one-word-per-ordered-pair rule cannot carry. Reject
            // up front with a typed error instead of panicking mid-protocol.
            let mut peers: Vec<u32> = Vec::new();
            for v in self.graph().nodes() {
                peers.clear();
                peers.extend(self.graph().incident(v).iter().map(|(_, w)| w.0));
                peers.sort_unstable();
                if peers.windows(2).any(|w| w[0] == w[1]) {
                    return Err(GraphError::InvalidConfig {
                        parameter: "comm_model",
                        reason: "the graph has parallel edges; the congested clique carries \
                                 one word per ordered node pair per round, so the plan's \
                                 per-edge BFS flood cannot run on it",
                    });
                }
            }
        }
        let result = self.max_flow(s, t)?;
        let (num_nodes, num_edges) = (self.graph().num_nodes(), self.graph().num_edges());
        let decomposition_rounds = self.ensemble_stats().decomposition_rounds as u64;
        self.ensure_plan();
        let plan = self.parts.plan.as_ref().expect("plan was just built");

        // Re-measure every protocol of the plan on the model's fabric. The
        // cached Lemma 8.2 / 9.1 decomposition handles are reused, so the
        // protocols are the same — only the channel behaves differently.
        let n = num_nodes;
        let sqrt_n = (n as f64).sqrt().ceil() as u64;
        let bfs = build_bfs_tree_on(model, &plan.network, NodeId(0));
        let bfs_depth = bfs.tree.max_depth();
        let mut construction = capprox::sparsify::congest_cost(n, bfs_depth);
        construction.add_sequential(RoundCost::rounds(
            decomposition_rounds * (bfs_depth as u64 + sqrt_n),
        ));
        let unit_values = vec![1.0; n];
        let mut per_iteration = RoundCost::ZERO;
        for handle in &plan.virtual_trees {
            let up = handle.subtree_sums_on(model, &plan.network, &bfs.tree, &unit_values);
            let down = handle.prefix_sums_on(model, &plan.network, &bfs.tree, &unit_values);
            construction.add_sequential(up.cost);
            per_iteration.add_parallel(up.cost.then(down.cost));
        }
        per_iteration.add_sequential(pipelined_broadcast_cost(&bfs.tree, 4));
        let logn = (n.max(2) as f64).log2().ceil() as u64;
        let repair_tree_construction = RoundCost::rounds((bfs_depth as u64 + sqrt_n) * logn);
        let per_query_repair = plan
            .repair
            .subtree_sums_on(model, &plan.network, &bfs.tree, &unit_values)
            .cost;

        let gradient_descent = per_iteration.repeat(result.iterations.max(1) as u64);
        let mut repair = repair_tree_construction;
        repair.add_sequential(per_query_repair);
        let total = bfs
            .cost
            .then(construction)
            .then(gradient_descent)
            .then(repair);
        Ok(DistributedMaxFlowResult {
            rounds: RoundBreakdown {
                bfs_construction: bfs.cost,
                approximator_construction: construction,
                per_iteration,
                gradient_descent,
                repair,
                total,
            },
            bfs_depth,
            num_nodes,
            num_edges,
            result,
        })
    }

    /// Runs one s–t query and returns the flow together with the standalone
    /// CONGEST round accounting (construction charged to this call, exactly
    /// like [`distributed_approx_max_flow`]); use
    /// [`Self::distributed_bill`] for the amortized session accounting.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Self::max_flow`].
    pub fn distributed_max_flow(
        &mut self,
        s: NodeId,
        t: NodeId,
    ) -> Result<DistributedMaxFlowResult, GraphError> {
        let result = self.max_flow(s, t)?;
        let (num_nodes, num_edges) = (self.graph().num_nodes(), self.graph().num_edges());
        let plan = self.ensure_plan();
        let gradient_descent = plan.per_iteration.repeat(result.iterations.max(1) as u64);
        let mut repair = plan.repair_tree_construction;
        repair.add_sequential(plan.per_query_repair);
        let total = plan
            .bfs_cost
            .then(plan.construction)
            .then(gradient_descent)
            .then(repair);
        Ok(DistributedMaxFlowResult {
            rounds: RoundBreakdown {
                bfs_construction: plan.bfs_cost,
                approximator_construction: plan.construction,
                per_iteration: plan.per_iteration,
                gradient_descent,
                repair,
                total,
            },
            bfs_depth: plan.bfs_depth,
            num_nodes,
            num_edges,
            result,
        })
    }
}

/// Runs the full pipeline and returns the flow together with the CONGEST
/// round accounting.
///
/// Convenience wrapper equivalent to preparing a [`PreparedMaxFlow`] session
/// and calling [`PreparedMaxFlow::distributed_max_flow`] once — every
/// measured protocol re-runs per call. Hold a session to amortize them.
///
/// Since PR 3 the measured BFS tree is rooted at the canonical aggregation
/// root `NodeId(0)` (query-independent, so one plan serves every terminal
/// pair) instead of at `s`; for `s ≠ 0` the reported `bfs_depth` and
/// depth-derived round charges may differ from earlier releases, the flow
/// itself is unchanged.
///
/// # Errors
///
/// Same error conditions as [`crate::solver::approx_max_flow`].
pub fn distributed_approx_max_flow(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    config: &MaxFlowConfig,
) -> Result<DistributedMaxFlowResult, GraphError> {
    if g.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    if !g.is_connected() {
        return Err(GraphError::NotConnected);
    }
    PreparedMaxFlow::prepare(g, config)?.distributed_max_flow(s, t)
}

/// [`distributed_approx_max_flow`] executed under an arbitrary communication
/// model — the one-shot form of
/// [`PreparedMaxFlow::distributed_max_flow_on`]. The flow is byte-identical
/// across models; the round bill reflects the model's fabric (classic and
/// clique agree, a lossy adversary inflates it with retransmissions).
///
/// # Errors
///
/// Same error conditions as [`PreparedMaxFlow::distributed_max_flow_on`].
pub fn distributed_approx_max_flow_on(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    config: &MaxFlowConfig,
    model: &CommModel,
) -> Result<DistributedMaxFlowResult, GraphError> {
    if g.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    if !g.is_connected() {
        return Err(GraphError::NotConnected);
    }
    PreparedMaxFlow::prepare(g, config)?.distributed_max_flow_on(s, t, model)
}

/// Routes a demand over a rooted spanning tree while accounting the CONGEST
/// cost of doing so with the decomposition technique of Lemma 9.1 (used by
/// the trivial "single spanning tree" baseline in the experiments).
///
/// # Panics
///
/// Panics if the tree is not a spanning subtree of the network graph.
pub fn distributed_tree_routing_cost(
    g: &Graph,
    tree: &RootedTree,
    seed: u64,
) -> (RoundCost, usize) {
    let n = g.num_nodes();
    let network = Network::new(g.clone());
    let bfs = build_bfs_tree(&network, tree.root());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dec = TreeDecomposition::sample(
        tree,
        TreeDecomposition::recommended_probability(n),
        &mut rng,
    );
    let values = vec![1.0; n];
    let run = congest::treeops::distributed_subtree_sums(&network, tree, &dec, &bfs.tree, &values);
    (bfs.cost.then(run.cost), bfs.tree.max_depth())
}

#[cfg(test)]
mod tests {
    use super::*;
    use capprox::RackeConfig;
    use flowgraph::gen;

    fn config(trees: usize) -> MaxFlowConfig {
        MaxFlowConfig {
            epsilon: 0.3,
            racke: RackeConfig::default().with_num_trees(trees).with_seed(3),
            ..Default::default()
        }
    }

    #[test]
    fn produces_same_quality_flow_as_centralized() {
        let g = gen::grid(5, 5, 1.0);
        let (s, t) = (NodeId(0), NodeId(24));
        let dist = distributed_approx_max_flow(&g, s, t, &config(4)).unwrap();
        dist.result.flow.validate_st_flow(&g, s, t, 1e-6).unwrap();
        assert!(dist.result.value > 0.0);
        assert!(dist.result.value <= dist.result.upper_bound + 1e-9);
    }

    #[test]
    fn round_breakdown_is_consistent() {
        let g = gen::grid(5, 5, 1.0);
        let dist = distributed_approx_max_flow(&g, NodeId(0), NodeId(24), &config(3)).unwrap();
        let r = &dist.rounds;
        let summed = r
            .bfs_construction
            .then(r.approximator_construction)
            .then(r.gradient_descent)
            .then(r.repair);
        assert_eq!(r.total.rounds, summed.rounds);
        assert!(r.per_iteration.rounds > 0);
        assert!(r.gradient_descent.rounds >= r.per_iteration.rounds);
        assert!(dist.bfs_depth >= 8, "corner BFS on a 5x5 grid has depth 8");
        assert!(dist.overhead_factor() >= 1.0);
    }

    #[test]
    fn per_iteration_cost_is_d_plus_sqrt_n_ish() {
        // The defining property of the distributed implementation (§9.1):
        // one gradient iteration costs Õ(D + √n) rounds, NOT Õ(n) — even on a
        // path, where a naive convergecast over the spanning tree would pay
        // Θ(n) per iteration.
        let g = gen::path(200, 1.0);
        let (s, t) = gen::default_terminals(&g);
        let cfg = MaxFlowConfig {
            max_iterations_per_phase: 5,
            phases: Some(1),
            ..config(3)
        };
        let dist = distributed_approx_max_flow(&g, s, t, &cfg).unwrap();
        let n = g.num_nodes() as f64;
        let d = dist.bfs_depth as f64;
        let budget = 30.0 * (d + n.sqrt()) * (n.log2() + 1.0);
        assert!(
            (dist.rounds.per_iteration.rounds as f64) < budget,
            "per-iteration cost {} exceeds Õ(D + √n) budget {budget}",
            dist.rounds.per_iteration.rounds
        );
    }

    #[test]
    fn session_bill_amortizes_construction() {
        let g = gen::grid(6, 6, 1.0);
        // Small per-query iteration budget so the construction share is
        // visible in the amortization ratio.
        let cfg = config(3)
            .with_phases(Some(2))
            .with_max_iterations_per_phase(50);
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let bill = session.distributed_bill();
        assert_eq!(
            bill.prepare_total.rounds,
            bill.bfs_construction
                .then(bill.approximator_construction)
                .then(bill.repair_tree_construction)
                .rounds
        );
        assert!(bill.per_iteration.rounds > 0);
        assert!(bill.per_query_repair.rounds > 0);

        // The amortized bill of k queries: construction once, then k query
        // bills — exactly what `amortized_total` composes, and strictly less
        // than k standalone bills (which re-charge construction every time).
        let dist = session.distributed_max_flow(NodeId(0), NodeId(35)).unwrap();
        let iters = dist.result.iterations;
        let k = 16;
        let amortized = bill.amortized_total(&vec![iters; k]);
        let per_query = bill.query_rounds(iters);
        assert_eq!(
            amortized.rounds,
            bill.prepare_total.rounds + k as u64 * per_query.rounds
        );
        let standalone = dist.rounds.total.repeat(k as u64);
        assert!(
            amortized.rounds + (k as u64 - 1) * bill.prepare_total.rounds <= standalone.rounds,
            "standalone must re-charge construction {k} times: amortized {} vs standalone {}",
            amortized.rounds,
            standalone.rounds
        );

        // The standalone view of a session query matches the wrapper exactly.
        let wrapper = distributed_approx_max_flow(&g, NodeId(0), NodeId(35), &cfg).unwrap();
        assert_eq!(wrapper.rounds, dist.rounds);
        assert_eq!(wrapper.result.value.to_bits(), dist.result.value.to_bits());
    }

    #[test]
    fn cached_protocol_handles_rerun_deterministically() {
        let g = gen::grid(5, 5, 1.0);
        let mut session = PreparedMaxFlow::prepare(&g, &config(3)).unwrap();
        let bill = session.distributed_bill();
        let (per_iteration, per_query_repair) = session.remeasure_query_costs();
        assert_eq!(per_iteration, bill.per_iteration);
        assert_eq!(per_query_repair, bill.per_query_repair);
    }

    #[test]
    fn model_flows_are_byte_identical_and_lossy_bills_inflate() {
        use congest::model::Adversary;
        let g = gen::grid(5, 5, 1.0);
        let cfg = config(3)
            .with_phases(Some(1))
            .with_max_iterations_per_phase(20);
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let classic = session.distributed_max_flow(NodeId(0), NodeId(24)).unwrap();

        // The clique executes the same protocols over a reliable fabric: the
        // whole breakdown matches classic.
        let clique = session
            .distributed_max_flow_on(NodeId(0), NodeId(24), &CommModel::Clique)
            .unwrap();
        assert_eq!(
            clique.result.value.to_bits(),
            classic.result.value.to_bits()
        );
        assert_eq!(clique.rounds, classic.rounds);

        // A benign adversary is indistinguishable from classic.
        let benign = session
            .distributed_max_flow_on(
                NodeId(0),
                NodeId(24),
                &CommModel::Lossy(Adversary::benign(3)),
            )
            .unwrap();
        assert_eq!(benign.rounds, classic.rounds);

        // Real drop rates: identical flow, inflated but finite bill with
        // visible retransmissions.
        for drop_p in [0.1, 0.2] {
            let lossy = session
                .distributed_max_flow_on(
                    NodeId(0),
                    NodeId(24),
                    &CommModel::Lossy(Adversary::lossy(17, drop_p)),
                )
                .unwrap();
            assert_eq!(
                lossy.result.value.to_bits(),
                classic.result.value.to_bits(),
                "p={drop_p}"
            );
            let flow_bits: Vec<u64> = lossy
                .result
                .flow
                .values()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let classic_bits: Vec<u64> = classic
                .result
                .flow
                .values()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(flow_bits, classic_bits, "p={drop_p}");
            assert!(
                lossy.rounds.total.rounds > classic.rounds.total.rounds,
                "p={drop_p}: lossy bill must exceed classic's"
            );
            assert!(lossy.rounds.total.retransmissions > 0, "p={drop_p}");
            assert_eq!(classic.rounds.total.retransmissions, 0);
            // The wrapper's one-word frame header is the only width change.
            assert!(
                lossy.rounds.per_iteration.max_message_words
                    <= classic.rounds.per_iteration.max_message_words + 1
            );
        }

        // The one-shot wrapper agrees with the session for the same model.
        let lossy_model = CommModel::Lossy(Adversary::lossy(17, 0.2));
        let one_shot =
            distributed_approx_max_flow_on(&g, NodeId(0), NodeId(24), &cfg, &lossy_model).unwrap();
        let session_run = session
            .distributed_max_flow_on(NodeId(0), NodeId(24), &lossy_model)
            .unwrap();
        assert_eq!(one_shot.rounds, session_run.rounds);
        assert_eq!(
            one_shot.result.value.to_bits(),
            session_run.result.value.to_bits()
        );
    }

    #[test]
    fn clique_model_rejects_multigraphs_with_a_typed_error() {
        // Parallel edges are legal in per-edge CONGEST but exceed the
        // clique's one-word-per-ordered-pair rule; the session must return
        // the typed error, not panic inside the BFS flood.
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let mut session = PreparedMaxFlow::prepare(&g, &config(2)).unwrap();
        // The classic plan handles the multigraph fine...
        session.distributed_max_flow(NodeId(0), NodeId(2)).unwrap();
        // ...the clique rejects it up front.
        match session.distributed_max_flow_on(NodeId(0), NodeId(2), &CommModel::Clique) {
            Err(GraphError::InvalidConfig { parameter, reason }) => {
                assert_eq!(parameter, "comm_model");
                assert!(reason.contains("parallel edges"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The lossy model still runs it (per-edge fabric, parallel edges OK).
        session
            .distributed_max_flow_on(
                NodeId(0),
                NodeId(2),
                &CommModel::Lossy(congest::model::Adversary::lossy(1, 0.1)),
            )
            .unwrap();
    }

    #[test]
    fn bcast_model_is_rejected_with_a_pointer_to_the_port() {
        let g = gen::grid(4, 4, 1.0);
        let mut session = PreparedMaxFlow::prepare(&g, &config(2)).unwrap();
        match session.distributed_max_flow_on(NodeId(0), NodeId(15), &CommModel::Bcast) {
            Err(GraphError::InvalidConfig { parameter, reason }) => {
                assert_eq!(parameter, "comm_model");
                assert!(reason.contains("bcast_subtree_sums"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn tree_routing_cost_helper_runs() {
        let g = gen::path(40, 1.0);
        let tree = flowgraph::spanning::bfs_tree(&g, NodeId(0)).unwrap();
        let (cost, depth) = distributed_tree_routing_cost(&g, &tree, 1);
        assert!(cost.rounds > 0);
        assert_eq!(depth, 39);
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(matches!(
            distributed_approx_max_flow(&g, NodeId(0), NodeId(3), &config(2)),
            Err(GraphError::NotConnected)
        ));
    }
}
