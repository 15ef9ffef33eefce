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
//! All measured protocol state — the network arena, one cached
//! [`DecomposedTree`] handle per virtual tree (Lemma 8.2 says the
//! decomposition is sampled once per tree, not once per aggregation) and the
//! costs its protocols measured — lives in a cached plan owned by the
//! [`PreparedMaxFlow`] session, so a build-once / query-many caller pays the
//! construction bill once and only the per-iteration and repair-aggregation
//! bills per query. [`PreparedMaxFlow::distributed_bill`] exposes exactly
//! that amortized split.
//!
//! Every bill comes from the same two steps: the plan measures its protocols
//! once, when it is built, and the measured costs plus a query's iteration
//! count make its [`RoundBreakdown`].
//!
//! The paper's headline claim — `(D + √n)·n^{o(1)}·ε^{-3}` rounds, far below
//! the `Θ(n²)` of distributed push–relabel and the `Θ(m)` of centralizing the
//! input — is what experiments E1/E9 check against this accounting.

use congest::primitives::{build_bfs_tree, pipelined_broadcast_cost};
use congest::treeops::{DecomposedTree, TreeDecomposition};
use congest::{Network, RoundCost};
use flowgraph::{Graph, GraphError, NodeId};
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
/// network, re-runnable [`DecomposedTree`] handles for every virtual tree
/// and for the repair tree, and the costs their protocols measured.
#[derive(Debug)]
pub(crate) struct DistributedPlan {
    network: Network,
    /// Cached decomposition handles of the virtual trees (Lemma 8.2),
    /// in ensemble order.
    virtual_trees: Vec<DecomposedTree>,
    /// Cached decomposition handle of the repair tree (Lemma 9.1).
    repair: DecomposedTree,
    /// Cluster-level decomposition rounds of the ensemble build.
    decomposition_rounds: u64,
    /// What [`Self::measure`] read when the plan was built (every protocol
    /// is deterministic for a fixed plan, so measured once).
    costs: PlanCosts,
}

/// The measured round costs of a plan's protocols.
#[derive(Debug, Clone, Copy, Default)]
struct PlanCosts {
    bfs: RoundCost,
    bfs_depth: usize,
    construction: RoundCost,
    per_iteration: RoundCost,
    /// Kutten–Peleg MST construction rounds, `(D + √n)·log n`.
    repair_tree_construction: RoundCost,
    /// One repair aggregation over the plan's repair tree.
    per_query_repair: RoundCost,
}

impl DistributedPlan {
    /// Samples every tree's Lemma 8.2 decomposition once, then the repair
    /// tree's, and measures the plan's protocols. The approximator holds its
    /// trees in slot order only, so each is rebuilt as a
    /// [`flowgraph::RootedTree`] here, once per plan.
    fn build(session: &PreparedMaxFlow<'_>) -> DistributedPlan {
        let n = session.graph().num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(session.config().racke.seed ^ 0x9e3779b97f4a7c15);
        let cut_probability = TreeDecomposition::recommended_probability(n);
        let virtual_trees = session
            .approximator()
            .trees()
            .iter()
            .map(|t| DecomposedTree::sample(t.tree.to_rooted_tree(), cut_probability, &mut rng))
            .collect();
        let repair =
            DecomposedTree::sample(session.repair_tree().clone(), cut_probability, &mut rng);
        let mut plan = DistributedPlan {
            network: Network::new(session.graph().clone()),
            virtual_trees,
            repair,
            decomposition_rounds: session.ensemble_stats().decomposition_rounds as u64,
            costs: PlanCosts::default(),
        };
        plan.costs = plan.measure();
        plan
    }

    /// Runs every protocol of the plan through the cached decomposition
    /// handles and measures what each costs.
    fn measure(&self) -> PlanCosts {
        let n = self.network.num_nodes();
        let sqrt_n = (n as f64).sqrt().ceil() as u64;

        // Phase 1: global BFS tree (real protocol), rooted at the canonical
        // aggregation root. Its depth is within a factor 2 of the diameter
        // from any root, which is all the accounting uses it for.
        let bfs = build_bfs_tree(&self.network, NodeId(0));
        let bfs_depth = bfs.tree.max_depth();

        // Phase 2: congestion approximator construction. Sparsifier
        // (Lemma 6.1) plus the low-stretch spanning trees: each cluster-level
        // decomposition round is simulated in O(D + √n) network rounds
        // (Lemma 5.1 / Theorem 3.1).
        let mut construction = capprox::sparsify::congest_cost(n, bfs_depth);
        construction.add_sequential(RoundCost::rounds(
            self.decomposition_rounds * (bfs_depth as u64 + sqrt_n),
        ));

        // Tree capacities (Lemma 8.3) and the per-iteration aggregations
        // (§9.1), run once per tree through its cached decomposition.
        let unit_values = vec![1.0; n];
        let mut per_iteration = RoundCost::ZERO;
        for handle in &self.virtual_trees {
            let up = handle.subtree_sums(&self.network, &bfs.tree, &unit_values);
            let down = handle.prefix_sums(&self.network, &bfs.tree, &unit_values);
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
        }
        // Global scalar aggregations per iteration (φ1, φ2, δ and the step
        // bookkeeping): a constant number of converge/broadcasts on the BFS
        // tree.
        per_iteration.add_sequential(pipelined_broadcast_cost(&bfs.tree, 4));

        // Repair tree: maximum-weight spanning tree (Kutten–Peleg,
        // Õ(√n + D)) plus the per-query residual aggregation over its cached
        // Lemma 9.1 decomposition.
        let logn = (n.max(2) as f64).log2().ceil() as u64;
        let per_query_repair = self
            .repair
            .subtree_sums(&self.network, &bfs.tree, &unit_values)
            .cost;
        PlanCosts {
            bfs: bfs.cost,
            bfs_depth,
            construction,
            per_iteration,
            repair_tree_construction: RoundCost::rounds((bfs_depth as u64 + sqrt_n) * logn),
            per_query_repair,
        }
    }
}

impl PlanCosts {
    /// The standalone bill of one query that ran `iterations` gradient
    /// iterations: construction charged to the query, then the descent,
    /// then the repair tree and one repair aggregation.
    fn breakdown(&self, iterations: usize) -> RoundBreakdown {
        let gradient_descent = self.per_iteration.repeat(iterations.max(1) as u64);
        let mut repair = self.repair_tree_construction;
        repair.add_sequential(self.per_query_repair);
        RoundBreakdown {
            bfs_construction: self.bfs,
            approximator_construction: self.construction,
            per_iteration: self.per_iteration,
            gradient_descent,
            repair,
            total: self
                .bfs
                .then(self.construction)
                .then(gradient_descent)
                .then(repair),
        }
    }
}

impl<'g> PreparedMaxFlow<'g> {
    fn ensure_plan(&mut self) -> &DistributedPlan {
        if self.plan.is_none() {
            self.plan = Some(DistributedPlan::build(self));
        }
        self.plan.as_ref().expect("plan was just built")
    }

    /// The amortized CONGEST bill of this session: construction costs charged
    /// once, per-iteration and per-query-repair costs charged per query.
    ///
    /// The measured protocols run on first use and are cached; subsequent
    /// calls reuse the cached figures (every protocol is deterministic for a
    /// fixed plan, which [`Self::remeasure_query_costs`] pins).
    pub fn distributed_bill(&mut self) -> SessionBill {
        let num_nodes = self.graph().num_nodes();
        let costs = self.ensure_plan().costs;
        SessionBill {
            bfs_construction: costs.bfs,
            approximator_construction: costs.construction,
            repair_tree_construction: costs.repair_tree_construction,
            prepare_total: costs
                .bfs
                .then(costs.construction)
                .then(costs.repair_tree_construction),
            per_iteration: costs.per_iteration,
            per_query_repair: costs.per_query_repair,
            bfs_depth: costs.bfs_depth,
            num_nodes,
        }
    }

    /// Re-runs every protocol of the plan through the cached
    /// [`DecomposedTree`] handles — the BFS flood, the subtree-sum
    /// ("y-values") and downcast (potential) aggregations on every virtual
    /// tree plus the global scalar broadcasts, and the residual-repair
    /// aggregation on the repair tree — and returns the freshly measured
    /// `(per_iteration, per_query_repair)` costs.
    ///
    /// The protocols are deterministic for a fixed plan, so this equals the
    /// cached [`SessionBill`] figures; the test suite uses it to pin that
    /// the cached handles really are re-runnable.
    pub fn remeasure_query_costs(&mut self) -> (RoundCost, RoundCost) {
        let costs = self.ensure_plan().measure();
        (costs.per_iteration, costs.per_query_repair)
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
        let costs = self.ensure_plan().costs;
        Ok(DistributedMaxFlowResult {
            rounds: costs.breakdown(result.iterations),
            bfs_depth: costs.bfs_depth,
            num_nodes: self.graph().num_nodes(),
            num_edges: self.graph().num_edges(),
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
        // The round accounting never changes the answer: the flow is the
        // centralized query's, bit for bit.
        let centralized = PreparedMaxFlow::prepare(&g, &config(4))
            .unwrap()
            .max_flow(s, t)
            .unwrap();
        let bits = |r: &MaxFlowResult| -> Vec<u64> {
            r.flow.values().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&dist.result), bits(&centralized));
        assert_eq!(dist.result.value.to_bits(), centralized.value.to_bits());
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
    fn rejects_disconnected_graphs() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(matches!(
            distributed_approx_max_flow(&g, NodeId(0), NodeId(3), &config(2)),
            Err(GraphError::NotConnected)
        ));
    }
}
