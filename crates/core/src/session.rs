//! Build-once / query-many solver sessions.
//!
//! The paper's pipeline splits naturally into a *prepare* phase and a *query*
//! phase: the congestion approximator (the Räcke ensemble of Lemma 3.3), the
//! maximum-weight spanning tree used for residual repair and the CONGEST tree
//! decompositions (Lemma 8.2) depend only on the graph, while each max-flow
//! query is just `O(α²ε⁻³log²n)` cheap gradient iterations on top of them.
//! [`PreparedMaxFlow`] materializes that split: construction happens once in
//! [`PreparedMaxFlow::prepare`], after which any number of `(s, t)` or
//! demand-vector queries run against the cached structures — and, thanks to
//! the session-owned scratch buffers, with zero heap allocation per gradient
//! iteration in the steady state.
//!
//! A session holds its graph, borrowed or owned, next to everything derived
//! from it. [`PreparedMaxFlow::update_capacities`] moves both to new edge
//! capacities in one step: it prepares the updated graph with the session's
//! config, and on any error it changes nothing.
//!
//! The free functions [`crate::approx_max_flow`] / [`crate::route_demand`]
//! remain as thin convenience wrappers that prepare a throwaway session per
//! call; a session answers byte-identically to them for the same seed.

use std::borrow::Cow;
use std::collections::HashSet;

use capprox::{build_tree_ensemble, CongestionApproximator, EnsembleStats};
use flowgraph::{max_weight_spanning_tree, Demand, EdgeId, Graph, GraphError, NodeId, RootedTree};
use parallel::Parallelism;

use crate::almost_route::AlmostRouteScratch;
use crate::distributed::DistributedPlan;
use crate::solver::{
    max_flow_block_engine, route_demand_block_engine, MaxFlowConfig, MaxFlowResult, RoutingResult,
};

/// Lanes advanced in lockstep per blocked gradient engine call: every batched
/// entry point splits its queries into blocks of this many demands and walks
/// the operator structures once per block instead of once per query. The
/// value trades bandwidth amortization against per-lane scratch footprint;
/// results are byte-identical for every block size, so it is purely a
/// performance knob. Four lanes measured fastest on 10k-node instances;
/// past ~10^5 nodes the lane-major working set of the soft-max and random
/// slot-gather sweeps outgrows the cache hierarchy and two lanes win, so
/// the width adapts to the graph size.
const BLOCK_LANES: usize = 4;

/// Node count above which [`block_lanes`] narrows the block width.
const BLOCK_LANES_LARGE_N: usize = 1 << 17;

/// Lane width for a graph with `n` nodes (see [`BLOCK_LANES`]).
const fn block_lanes(n: usize) -> usize {
    if n >= BLOCK_LANES_LARGE_N {
        2
    } else {
        BLOCK_LANES
    }
}

/// A prepared max-flow solver session: the congestion approximator, repair
/// tree and scratch buffers are built once, then arbitrarily many queries are
/// answered against them.
///
/// The session holds its graph next to everything it derives from it,
/// borrowed from the caller ([`Self::prepare`]) or owned
/// ([`Self::prepare_owned`], for a server whose sessions outlive the request
/// that loaded them). [`Self::update_capacities`] moves the graph and the
/// derived structures to new capacities in one step, or leaves both as they
/// were, so they always describe the same graph version.
///
/// Queries take `&mut self` because they reuse the session's scratch buffers;
/// results are independent of query order and of how often the session has
/// been used, for every config (every query is answered byte-identically to
/// a fresh one-shot [`crate::approx_max_flow`] call with the same config).
///
/// The prepared structures themselves (graph, approximator, repair tree) are
/// immutable between updates and `Send + Sync`; only the scratch is
/// per-worker state. That is what lets [`Self::par_max_flow_batch`] run
/// independent `(s, t)` queries concurrently — each worker borrows the shared
/// structures and owns one scratch from the session's pool — while staying
/// byte-identical to the sequential [`Self::max_flow_batch`].
///
/// # Example
///
/// ```
/// use flowgraph::{gen, NodeId};
/// use maxflow::{MaxFlowConfig, Parallelism, PreparedMaxFlow};
///
/// let g = gen::grid(5, 5, 1.0);
/// let mut session = PreparedMaxFlow::prepare(&g, &MaxFlowConfig::default()).unwrap();
/// let a = session.max_flow(NodeId(0), NodeId(24)).unwrap();
/// let b = session.max_flow(NodeId(4), NodeId(20)).unwrap();
/// assert!(a.value > 0.0 && b.value > 0.0);
///
/// // Opt into parallel execution: 4 workers answer a batch concurrently,
/// // byte-identical to the sequential batch (and to threads = 1).
/// let cfg = MaxFlowConfig::default().with_parallelism(Parallelism::with_threads(4));
/// let mut par_session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
/// let pairs = [(NodeId(0), NodeId(24)), (NodeId(4), NodeId(20))];
/// let batch = par_session.par_max_flow_batch(&pairs).unwrap();
/// assert_eq!(batch[0].value.to_bits(), a.value.to_bits());
/// assert_eq!(batch[1].value.to_bits(), b.value.to_bits());
/// ```
#[derive(Debug)]
pub struct PreparedMaxFlow<'g> {
    graph: Cow<'g, Graph>,
    config: MaxFlowConfig,
    approximator: CongestionApproximator,
    ensemble_stats: EnsembleStats,
    repair_tree: RootedTree,
    /// Lane-major gradient scratch of the sequential entry points: empty
    /// after prepare, grown lazily by the first query to the widest block
    /// and reused.
    scratch: AlmostRouteScratch,
    /// Per-worker scratch buffers for [`Self::par_max_flow_batch`], grown
    /// lazily to the configured thread count and reused across batches.
    scratch_pool: Vec<AlmostRouteScratch>,
    pub(crate) plan: Option<DistributedPlan>,
}

/// Validates `config` and `graph`, then builds the congestion approximator
/// (the expensive part) and the maximum-weight spanning tree for residual
/// repair.
fn build_structures(
    graph: &Graph,
    config: &MaxFlowConfig,
) -> Result<(CongestionApproximator, EnsembleStats, RootedTree), GraphError> {
    config.validate()?;
    if graph.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    if !graph.is_connected() {
        return Err(GraphError::NotConnected);
    }
    if graph.num_edges() == 0 {
        // A connected graph without edges is a single node; there is
        // nothing to route and the gradient potential is undefined on an
        // empty edge set (see `almost_route::smax_and_weights_into`).
        return Err(GraphError::NoEdges);
    }
    // The scalable preparation path assembles the ensemble level by level
    // through the recursive j-tree hierarchy (Theorem 8.10); the default
    // path builds the Räcke ensemble directly on the graph.
    let (ensemble, hierarchy_stats) = match &config.hierarchy {
        Some(hierarchy) => {
            let (ensemble, stats) =
                capprox::build_hierarchical_ensemble(graph, hierarchy, &config.racke)?;
            (ensemble, Some(stats))
        }
        None => (build_tree_ensemble(graph, &config.racke)?, None),
    };
    let ensemble_stats = ensemble.stats.clone();
    let approximator = match hierarchy_stats {
        Some(stats) => CongestionApproximator::from_ensemble_with_hierarchy(ensemble, stats)?,
        None => CongestionApproximator::from_ensemble(ensemble)?,
    };
    let repair_tree = max_weight_spanning_tree(graph, NodeId(0))?;
    Ok((approximator, ensemble_stats, repair_tree))
}

impl<'g> PreparedMaxFlow<'g> {
    /// Builds the session for a borrowed graph: validates the config and the
    /// graph, and constructs the congestion approximator (the expensive part)
    /// and the maximum-weight spanning tree for residual repair. The
    /// per-query scratch buffers are sized by the first query that uses
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] for configurations that could
    /// never produce a meaningful run (see [`MaxFlowConfig::validate`]) and
    /// [`GraphError::Empty`] / [`GraphError::NotConnected`] /
    /// [`GraphError::NoEdges`] for degenerate graphs.
    pub fn prepare(graph: &'g Graph, config: &MaxFlowConfig) -> Result<Self, GraphError> {
        Self::with_graph(Cow::Borrowed(graph), config)
    }

    /// [`Self::prepare`] for a graph the session takes over, so that it
    /// borrows nothing.
    ///
    /// # Errors
    ///
    /// See [`Self::prepare`].
    pub fn prepare_owned(graph: Graph, config: &MaxFlowConfig) -> Result<Self, GraphError> {
        Self::with_graph(Cow::Owned(graph), config)
    }

    fn with_graph(graph: Cow<'g, Graph>, config: &MaxFlowConfig) -> Result<Self, GraphError> {
        let (approximator, ensemble_stats, repair_tree) = build_structures(&graph, config)?;
        Ok(PreparedMaxFlow {
            graph,
            config: config.clone(),
            approximator,
            ensemble_stats,
            repair_tree,
            scratch: AlmostRouteScratch::default(),
            scratch_pool: Vec::new(),
            plan: None,
        })
    }

    /// Sets the capacities of the listed edges and prepares the updated
    /// graph with the session's config, so that the session answers bit for
    /// bit like [`Self::prepare`] on the updated graph. The last write wins
    /// when an edge repeats, and a borrowed graph is copied first, so the
    /// caller's graph never changes. Returns the number of distinct edges
    /// the update named.
    ///
    /// An update costs one prepare of the whole graph.
    ///
    /// # Errors
    ///
    /// The update is all or nothing: on any error the session keeps its
    /// capacities and answers exactly as before. Errors are
    /// [`GraphError::EdgeOutOfRange`] for an edge the graph lacks,
    /// [`GraphError::InvalidWeight`] for a capacity that is not finite and
    /// positive, and whatever [`Self::prepare`] returns for the new
    /// capacities.
    pub fn update_capacities(&mut self, changes: &[(EdgeId, f64)]) -> Result<usize, GraphError> {
        if changes.is_empty() {
            return Ok(0);
        }
        let mut graph = Graph::clone(&self.graph);
        for &(edge, capacity) in changes {
            graph.set_capacity(edge, capacity)?;
        }
        let (approximator, ensemble_stats, repair_tree) = build_structures(&graph, &self.config)?;
        self.graph = Cow::Owned(graph);
        self.approximator = approximator;
        self.ensemble_stats = ensemble_stats;
        self.repair_tree = repair_tree;
        // The distributed plan was measured on the old capacities.
        self.plan = None;
        let named: HashSet<EdgeId> = changes.iter().map(|&(edge, _)| edge).collect();
        Ok(named.len())
    }

    /// Computes a `(1+ε)`-approximate maximum s–t flow using the prepared
    /// structures (Theorem 1.1, centralized execution).
    ///
    /// The query runs as a block of one lane through the same gradient
    /// engine as the batched entry points.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] for
    /// invalid terminals, and [`GraphError::NonFinite`] if the answer
    /// overflows `f64`.
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> Result<MaxFlowResult, GraphError> {
        let mut results = max_flow_block_engine(
            &self.graph,
            &self.approximator,
            &self.repair_tree,
            &[(s, t)],
            &self.config,
            &mut self.scratch,
        )?;
        results.pop().ok_or(GraphError::Internal {
            invariant: "one pair in, one answer out",
        })
    }

    /// Answers a batch of s–t queries through the blocked multi-demand
    /// gradient engine: the pairs are split into blocks of a few lanes and
    /// every gradient iteration of a block walks the operator structures
    /// (tree slots, edge lists, soft-max buffers) **once for all lanes**,
    /// which is what makes large-graph serving memory-bandwidth-efficient.
    ///
    /// The answers are byte-identical to calling [`Self::max_flow`] once per
    /// pair in order, for every config (and tested to be exactly that) — the
    /// blocked engine preserves each lane's floating-point sequence exactly,
    /// so a repeated pair answers like its first occurrence.
    ///
    /// # Errors
    ///
    /// Fails fast with the earliest offending pair's error; no partial
    /// results are returned.
    pub fn max_flow_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<MaxFlowResult>, GraphError> {
        self.blocked_batch(pairs, 1)
    }

    /// [`Self::max_flow_batch`] with the blocks of a batch fanned across the
    /// workers of the session's configured [`MaxFlowConfig::parallelism`]:
    /// worker `w` answers blocks `w, w + T, w + 2T, …` against the shared
    /// prepared structures using its own blocked scratch from the session
    /// pool, so no mutable state is shared between workers. Threads
    /// parallelize **across** blocks while the lanes of each block amortize
    /// the operator walks **within** it; results are **byte-identical** to
    /// the sequential batch (in order) for any thread count.
    ///
    /// Query fan-out and operator fan-out do not nest: batch workers run
    /// their blocks with sequential operator evaluations, so the thread
    /// count is `T`, not `T²`.
    ///
    /// # Errors
    ///
    /// On invalid pairs, returns the error of the earliest offending pair —
    /// the same error [`Self::max_flow_batch`] fails fast with (the parallel
    /// form may have computed later queries before reporting it).
    pub fn par_max_flow_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<MaxFlowResult>, GraphError> {
        let blocks = pairs.len().div_ceil(block_lanes(self.graph.num_nodes()));
        let workers = self.config.parallelism.threads().min(blocks.max(1));
        self.blocked_batch(pairs, workers)
    }

    /// Routes `k` independent demand vectors — a multi-commodity traffic
    /// matrix — through the blocked gradient engine in one call: the demands
    /// advance in lockstep, sharing every operator walk, and each commodity's
    /// flow is byte-identical to routing it alone with [`Self::route`].
    ///
    /// Each demand is routed on the *original* capacities (the commodities
    /// do not compete for capacity); superimpose the returned flows and scale
    /// by the combined congestion for a feasible concurrent routing.
    ///
    /// ```
    /// use flowgraph::{gen, Demand, NodeId};
    /// use maxflow::{MaxFlowConfig, PreparedMaxFlow};
    ///
    /// let g = gen::grid(5, 5, 1.0);
    /// let mut session = PreparedMaxFlow::prepare(&g, &MaxFlowConfig::default()).unwrap();
    /// // Three commodities, routed together in one blocked call.
    /// let matrix = [
    ///     Demand::st(&g, NodeId(0), NodeId(24), 1.0),
    ///     Demand::st(&g, NodeId(4), NodeId(20), 0.5),
    ///     Demand::st(&g, NodeId(2), NodeId(22), 0.25),
    /// ];
    /// let routed = session.route_many(&matrix).unwrap();
    /// assert_eq!(routed.len(), 3);
    /// for (b, r) in matrix.iter().zip(&routed) {
    ///     // Each flow meets its commodity's demand exactly.
    ///     let excess = r.flow.excess(&g);
    ///     for v in g.nodes() {
    ///         assert!((excess[v.index()] - b.get(v)).abs() < 1e-6);
    ///     }
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] for the earliest demand that
    /// does not cover exactly the graph's nodes,
    /// [`GraphError::NonFiniteDemand`] / [`GraphError::UnbalancedDemand`] for
    /// the earliest one that cannot be routed (see
    /// [`crate::solver::DEMAND_BALANCE_TOLERANCE`]), and
    /// [`GraphError::NonFinite`] if a total magnitude or an answer overflows
    /// `f64`.
    pub fn route_many(&mut self, demands: &[Demand]) -> Result<Vec<RoutingResult>, GraphError> {
        let mut results = Vec::with_capacity(demands.len());
        for chunk in demands.chunks(block_lanes(self.graph.num_nodes())) {
            let refs: Vec<&Demand> = chunk.iter().collect();
            results.extend(route_demand_block_engine(
                &self.graph,
                &self.approximator,
                &self.repair_tree,
                &refs,
                &self.config,
                &mut self.scratch,
            )?);
        }
        Ok(results)
    }

    /// The shared batched query driver behind [`Self::max_flow_batch`]
    /// (`workers == 1`) and [`Self::par_max_flow_batch`] (`workers > 1`):
    /// the pairs split into consecutive blocks of independent lanes.
    fn blocked_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        workers: usize,
    ) -> Result<Vec<MaxFlowResult>, GraphError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let blocks: Vec<&[(NodeId, NodeId)]> =
            pairs.chunks(block_lanes(self.graph.num_nodes())).collect();
        // Worker `w` answers blocks `w, w + T, w + 2T, …` with its own
        // scratch. A lone worker runs inline on the session scratch with the
        // configured operator parallelism; fanned-out workers evaluate their
        // operators sequentially, so query fan-out and operator fan-out do
        // not nest.
        let fanned_config;
        let (worker_config, tasks) = if workers <= 1 {
            (&self.config, vec![&mut self.scratch])
        } else {
            while self.scratch_pool.len() < workers {
                self.scratch_pool.push(AlmostRouteScratch::default());
            }
            fanned_config = self
                .config
                .clone()
                .with_parallelism(Parallelism::sequential());
            (
                &fanned_config,
                self.scratch_pool[..workers].iter_mut().collect(),
            )
        };
        let stride = tasks.len();
        let graph: &Graph = &self.graph;
        let approximator = &self.approximator;
        let repair_tree = &self.repair_tree;
        let blocks = &blocks;
        // Each worker's stripe: its answers by block index, or the index of
        // the block whose earliest lane failed. Blocks hold ascending pair
        // ranges and the engine fails fast on its earliest lane, so the
        // earliest failing block holds the batch's earliest error.
        type WorkerStripe = Result<Vec<(usize, Vec<MaxFlowResult>)>, (usize, GraphError)>;
        let partials: Vec<WorkerStripe> = parallel::join_workers(tasks, |w, scratch| {
            let mut mine = Vec::with_capacity(blocks.len().div_ceil(stride));
            for (bi, block) in blocks.iter().enumerate().skip(w).step_by(stride) {
                match max_flow_block_engine(
                    graph,
                    approximator,
                    repair_tree,
                    block,
                    worker_config,
                    scratch,
                ) {
                    Ok(results) => mine.push((bi, results)),
                    Err(err) => return Err((bi, err)),
                }
            }
            Ok(mine)
        });
        if let Some((_, err)) = partials
            .iter()
            .filter_map(|p| p.as_ref().err())
            .min_by_key(|(bi, _)| *bi)
        {
            return Err(err.clone());
        }
        let mut answered: Vec<(usize, Vec<MaxFlowResult>)> = Vec::with_capacity(blocks.len());
        for partial in partials {
            // The error scan above returned on any Err stripe; a stripe that
            // still fails here is a bookkeeping bug, reported as a typed
            // error so a daemon worker thread fails the request instead of
            // aborting the process.
            answered.extend(partial.map_err(|_| GraphError::Internal {
                invariant: "parallel batch stripe failed after the error scan",
            })?);
        }
        answered.sort_unstable_by_key(|&(bi, _)| bi);
        let out: Vec<MaxFlowResult> = answered.into_iter().flat_map(|(_, r)| r).collect();
        if out.len() != pairs.len() {
            return Err(GraphError::Internal {
                invariant: "batch left a query unanswered",
            });
        }
        Ok(out)
    }

    /// Routes an arbitrary balanced demand vector with near-optimal
    /// congestion (Algorithm 1 without the max-flow scaling), using the
    /// prepared structures; a one-lane [`Self::route_many`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `b` does not cover exactly
    /// the graph's nodes, [`GraphError::NonFiniteDemand`] /
    /// [`GraphError::UnbalancedDemand`] if it cannot be routed (see
    /// [`crate::solver::DEMAND_BALANCE_TOLERANCE`]), and
    /// [`GraphError::NonFinite`] if its total magnitude or the answer
    /// overflows `f64`.
    pub fn route(&mut self, b: &Demand) -> Result<RoutingResult, GraphError> {
        let mut routed = route_demand_block_engine(
            &self.graph,
            &self.approximator,
            &self.repair_tree,
            &[b],
            &self.config,
            &mut self.scratch,
        )?;
        routed.pop().ok_or(GraphError::Internal {
            invariant: "one demand in, one routing out",
        })
    }

    /// The graph at the session's current capacities.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The session's solver configuration.
    pub fn config(&self) -> &MaxFlowConfig {
        &self.config
    }

    /// The prepared congestion approximator.
    pub fn approximator(&self) -> &CongestionApproximator {
        &self.approximator
    }

    /// Construction statistics of the underlying tree ensemble.
    pub fn ensemble_stats(&self) -> &EnsembleStats {
        &self.ensemble_stats
    }

    /// The maximum-weight spanning tree used for residual repair.
    pub fn repair_tree(&self) -> &RootedTree {
        &self.repair_tree
    }
}

// A session must be shareable across threads for the distributed serving
// posture (worker pools borrowing one prepared session's structures); pin it
// at compile time so a future field can't silently revoke it.
const _: fn() = parallel::assert_send_sync::<PreparedMaxFlow<'static>>;

#[cfg(test)]
mod tests {
    use super::*;
    use capprox::RackeConfig;
    use flowgraph::gen;

    fn config() -> MaxFlowConfig {
        MaxFlowConfig::default()
            .with_epsilon(0.2)
            .with_racke(RackeConfig::default().with_num_trees(6).with_seed(11))
            .with_phases(Some(2))
            .with_max_iterations_per_phase(2_000)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn session_matches_one_shot_byte_for_byte() {
        let g = gen::grid(5, 5, 1.0);
        let cfg = config();
        let one_shot = crate::approx_max_flow(&g, NodeId(0), NodeId(24), &cfg).unwrap();
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let ses = session.max_flow(NodeId(0), NodeId(24)).unwrap();
        assert_eq!(one_shot.value.to_bits(), ses.value.to_bits());
        assert_eq!(one_shot.upper_bound.to_bits(), ses.upper_bound.to_bits());
        assert_eq!(one_shot.iterations, ses.iterations);
        assert_eq!(bits(one_shot.flow.values()), bits(ses.flow.values()));
    }

    #[test]
    fn repeated_queries_are_deterministic() {
        // The scratch reuse must not leak state between queries: asking the
        // same question twice (with another query in between) gives the same
        // bytes.
        let g = gen::Family::Random.generate(30, 5);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let first = session.max_flow(NodeId(0), NodeId(29)).unwrap();
        let _interleaved = session.max_flow(NodeId(3), NodeId(17)).unwrap();
        let second = session.max_flow(NodeId(0), NodeId(29)).unwrap();
        assert_eq!(first.value.to_bits(), second.value.to_bits());
        assert_eq!(bits(first.flow.values()), bits(second.flow.values()));
    }

    #[test]
    fn batch_equals_query_loop() {
        // A repeated pair shares the batch with its first occurrence, under
        // either step rule.
        let g = gen::grid(4, 4, 1.0);
        let pairs = [
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(12)),
            (NodeId(0), NodeId(15)),
        ];
        for warm_start in [false, true] {
            let cfg = config().with_warm_start(warm_start);
            let mut batch_session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
            let batch = batch_session.max_flow_batch(&pairs).unwrap();
            let mut loop_session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
            for (b, &(s, t)) in batch.iter().zip(&pairs) {
                let l = loop_session.max_flow(s, t).unwrap();
                assert_eq!(b.value.to_bits(), l.value.to_bits(), "{warm_start}");
                assert_eq!(bits(b.flow.values()), bits(l.flow.values()));
            }
        }
    }

    #[test]
    fn par_batch_equals_sequential_batch_byte_for_byte() {
        let g = gen::Family::Random.generate(24, 9);
        let pairs = [
            (NodeId(0), NodeId(23)),
            (NodeId(5), NodeId(11)),
            (NodeId(23), NodeId(0)),
            (NodeId(2), NodeId(19)),
            (NodeId(7), NodeId(13)),
        ];
        let mut seq_session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let seq = seq_session.max_flow_batch(&pairs).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let cfg = config().with_parallelism(Parallelism::with_threads(threads));
            let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
            let par = session.par_max_flow_batch(&pairs).unwrap();
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                assert_eq!(p.value.to_bits(), s.value.to_bits(), "{threads} threads");
                assert_eq!(bits(p.flow.values()), bits(s.flow.values()));
                assert_eq!(p.iterations, s.iterations);
            }
            // A second batch through the warm pool is also byte-identical.
            let again = session.par_max_flow_batch(&pairs).unwrap();
            for (p, s) in again.iter().zip(&seq) {
                assert_eq!(p.value.to_bits(), s.value.to_bits());
            }
        }
    }

    #[test]
    fn par_batch_reports_earliest_pair_error() {
        let g = gen::grid(4, 4, 1.0);
        let cfg = config().with_parallelism(Parallelism::with_threads(4));
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let pairs = [
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(99)), // out of range: the earliest error
            (NodeId(7), NodeId(7)),  // self loop, later in the batch
        ];
        assert!(matches!(
            session.par_max_flow_batch(&pairs),
            Err(GraphError::NodeOutOfRange { node: 99, .. })
        ));
    }

    /// Bit patterns of a session's answer to one pair.
    fn answer_bits(session: &mut PreparedMaxFlow, s: u32, t: u32) -> (u64, u64, Vec<u64>) {
        let r = session.max_flow(NodeId(s), NodeId(t)).unwrap();
        (
            r.value.to_bits(),
            r.upper_bound.to_bits(),
            bits(r.flow.values()),
        )
    }

    fn capacities(g: &Graph) -> Vec<u64> {
        g.edge_ids().map(|e| g.capacity(e).to_bits()).collect()
    }

    #[test]
    fn update_capacities_matches_fresh_prepare_on_a_path() {
        let g = gen::path(12, 4.0);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let e = g.edge_ids().nth(5).unwrap();
        assert_eq!(session.update_capacities(&[(e, 2.0)]).unwrap(), 1);
        let mut updated = g.clone();
        updated.set_capacity(e, 2.0).unwrap();
        let mut fresh = PreparedMaxFlow::prepare(&updated, &config()).unwrap();
        assert_eq!(
            answer_bits(&mut session, 0, 11),
            answer_bits(&mut fresh, 0, 11)
        );
        // The bottleneck the update created is certified by the bracket.
        let a = session.max_flow(NodeId(0), NodeId(11)).unwrap();
        assert!(a.value <= 2.0 + 1e-9 && a.upper_bound >= 2.0 - 1e-9);
    }

    #[test]
    fn update_capacities_rejects_invalid_changes_and_leaves_the_session_untouched() {
        let g = gen::grid(4, 4, 1.0);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let before = answer_bits(&mut session, 0, 15);
        let e = EdgeId(0);
        for (changes, expected_invalid_weight) in [
            (vec![(e, 2.0), (EdgeId(999), 1.0)], false),
            (vec![(e, 2.0), (EdgeId(1), 0.0)], true),
            (vec![(e, -1.0)], true),
            (vec![(e, f64::NAN)], true),
            (vec![(e, f64::INFINITY)], true),
        ] {
            match session.update_capacities(&changes) {
                Err(GraphError::InvalidWeight { .. }) => assert!(expected_invalid_weight),
                Err(GraphError::EdgeOutOfRange { edge: 999, .. }) => {
                    assert!(!expected_invalid_weight)
                }
                other => panic!("{changes:?}: expected a typed refusal, got {other:?}"),
            }
            // The session still reads the caller's graph, at its
            // capacities.
            assert!(std::ptr::eq(session.graph(), &g));
            assert_eq!(answer_bits(&mut session, 0, 15), before);
        }
    }

    #[test]
    fn update_capacities_keeps_a_repeated_edges_last_write() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 4.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let update = session
            .update_capacities(&[(EdgeId(0), 5.0), (EdgeId(1), 9.0), (EdgeId(0), 6.0)])
            .unwrap();
        assert_eq!(update, 2);
        assert_eq!(session.graph().capacity(EdgeId(0)), 6.0);
        assert_eq!(session.graph().capacity(EdgeId(1)), 9.0);
        // An empty update names no edge and changes nothing.
        assert_eq!(session.update_capacities(&[]).unwrap(), 0);
        assert_eq!(capacities(session.graph()), bits(&[6.0, 9.0]));
    }

    #[test]
    fn update_capacities_never_modifies_a_borrowed_graph() {
        let g = gen::path(8, 4.0);
        let original = capacities(&g);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        session.update_capacities(&[(EdgeId(3), 1.0)]).unwrap();
        assert_eq!(capacities(&g), original);
        assert!(!std::ptr::eq(session.graph(), &g));
        assert_eq!(session.graph().capacity(EdgeId(3)), 1.0);
        // An owned session updates its own graph.
        let mut owned = PreparedMaxFlow::prepare_owned(g.clone(), &config()).unwrap();
        owned.update_capacities(&[(EdgeId(3), 1.0)]).unwrap();
        assert_eq!(capacities(owned.graph()), capacities(session.graph()));
        assert_eq!(
            answer_bits(&mut owned, 0, 7),
            answer_bits(&mut session, 0, 7)
        );
    }

    #[test]
    fn update_capacities_past_the_patch_bound_rebuilds_like_a_fresh_prepare() {
        // Twenty of a 40-node path's 39 edges change in one update.
        let g = gen::path(40, 4.0);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let changes: Vec<(EdgeId, f64)> =
            (0..20).map(|i| (EdgeId(i), 1.0 + f64::from(i))).collect();
        assert_eq!(session.update_capacities(&changes).unwrap(), 20);
        let mut updated = g.clone();
        for &(e, cap) in &changes {
            updated.set_capacity(e, cap).unwrap();
        }
        let mut fresh = PreparedMaxFlow::prepare(&updated, &config()).unwrap();
        assert_eq!(
            answer_bits(&mut session, 0, 39),
            answer_bits(&mut fresh, 0, 39)
        );
        assert_eq!(
            answer_bits(&mut session, 5, 30),
            answer_bits(&mut fresh, 5, 30)
        );
    }

    #[test]
    fn a_refused_update_keeps_the_old_capacities_and_answers() {
        // Capacities spanning 1e-300 to 1e307 on a 7-cycle: preparing them
        // fails on a tree load that cancels below zero, and the refusal may
        // leave no trace.
        let g = gen::cycle(7, 1.0);
        let cfg = MaxFlowConfig::default()
            .with_epsilon(0.5)
            .with_racke(RackeConfig::default().with_num_trees(2).with_seed(2))
            .with_phases(Some(2));
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let before = answer_bits(&mut session, 0, 3);
        let extremes: Vec<(EdgeId, f64)> = [1e-300, 1e-10, 1e10, 1e-300, 1e307, 1e10, 1e300]
            .into_iter()
            .enumerate()
            .map(|(i, cap)| (EdgeId(i as u32), cap))
            .collect();
        if session.update_capacities(&extremes).is_err() {
            assert_eq!(capacities(session.graph()), capacities(&g));
            assert_eq!(answer_bits(&mut session, 0, 3), before);
        }
        // Either way the session takes the next update.
        assert_eq!(session.update_capacities(&[(EdgeId(2), 3.0)]).unwrap(), 1);
        assert!(session.max_flow(NodeId(0), NodeId(3)).is_ok());
    }

    #[test]
    fn partial_answers_are_discarded_and_the_session_survives() {
        // The partial-answer path: with two workers striping the blocks,
        // worker 0's blocks (0, 2) complete with real answers while worker
        // 1's block 1 holds the invalid pair. The completed stripes' partial
        // answers must be discarded behind a typed error — never a panic and
        // never a half-filled result vector — and the session must stay
        // fully usable (warm pool, scratch, and determinism intact).
        let g = gen::grid(4, 4, 1.0);
        let cfg = config().with_parallelism(Parallelism::with_threads(2));
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        // block_lanes is 4 at this size: three blocks of four lanes. The
        // single bad pair lands in block 1 (lane 6).
        let good = [
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(12)),
            (NodeId(1), NodeId(14)),
            (NodeId(2), NodeId(13)),
            (NodeId(4), NodeId(11)),
            (NodeId(5), NodeId(10)),
            (NodeId(6), NodeId(9)),
            (NodeId(7), NodeId(8)),
            (NodeId(0), NodeId(10)),
            (NodeId(5), NodeId(15)),
            (NodeId(3), NodeId(9)),
            (NodeId(1), NodeId(11)),
        ];
        let mut poisoned = good;
        poisoned[6] = (NodeId(6), NodeId(77)); // out of range, block 1
        match session.par_max_flow_batch(&poisoned) {
            Err(GraphError::NodeOutOfRange { node: 77, .. }) => {}
            other => panic!("expected NodeOutOfRange for node 77, got {other:?}"),
        }
        // The failed batch left no residue: the same session answers the
        // all-valid batch byte-identically to a fresh sequential session.
        let after = session.par_max_flow_batch(&good).unwrap();
        let mut fresh = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let reference = fresh.max_flow_batch(&good).unwrap();
        assert_eq!(after.len(), reference.len());
        for (a, r) in after.iter().zip(&reference) {
            assert_eq!(a.value.to_bits(), r.value.to_bits());
            assert_eq!(bits(a.flow.values()), bits(r.flow.values()));
        }
    }

    #[test]
    fn invalid_configs_are_rejected_at_prepare() {
        let g = gen::grid(3, 3, 1.0);
        for (cfg, parameter) in [
            (config().with_epsilon(0.0), "epsilon"),
            (config().with_epsilon(-1.0), "epsilon"),
            (config().with_epsilon(f64::NAN), "epsilon"),
            (
                config().with_max_iterations_per_phase(0),
                "max_iterations_per_phase",
            ),
            (config().with_phases(Some(0)), "phases"),
            (
                config().with_racke(RackeConfig::default().with_num_trees(0)),
                "racke.num_trees",
            ),
            (config().with_alpha(Some(f64::NAN)), "alpha"),
            (config().with_alpha(Some(0.0)), "alpha"),
        ] {
            match PreparedMaxFlow::prepare(&g, &cfg) {
                Err(GraphError::InvalidConfig { parameter: p, .. }) => {
                    assert_eq!(p, parameter);
                }
                other => panic!("{parameter}: expected InvalidConfig, got {other:?}"),
            }
            // The one-shot wrapper delegates to prepare and rejects too.
            assert!(matches!(
                crate::approx_max_flow(&g, NodeId(0), NodeId(8), &cfg),
                Err(GraphError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn route_matches_free_function() {
        let g = gen::grid(4, 4, 1.0);
        let cfg = config();
        let b = Demand::st(&g, NodeId(0), NodeId(15), 1.5);
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let ses = session.route(&b).unwrap();
        let free = crate::route_demand(&g, session.approximator(), &b, &cfg).unwrap();
        assert_eq!(bits(ses.flow.values()), bits(free.flow.values()));
        assert_eq!(ses.iterations, free.iterations);
    }

    #[test]
    fn misuse_is_reported_as_errors() {
        let g = gen::path(5, 1.0);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        assert!(matches!(
            session.max_flow(NodeId(0), NodeId(9)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            session.max_flow(NodeId(2), NodeId(2)),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            session.route(&Demand::zeros(3)),
            Err(GraphError::DemandMismatch {
                expected: 5,
                actual: 3
            })
        ));
        let mut disconnected = Graph::with_nodes(4);
        disconnected.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(matches!(
            PreparedMaxFlow::prepare(&disconnected, &config()),
            Err(GraphError::NotConnected)
        ));
        assert!(matches!(
            PreparedMaxFlow::prepare(&Graph::with_nodes(0), &config()),
            Err(GraphError::Empty)
        ));
        // A single node is connected but edgeless: the potential `smax` would
        // be evaluated over an empty vector, so it is rejected up front.
        assert!(matches!(
            PreparedMaxFlow::prepare(&Graph::with_nodes(1), &config()),
            Err(GraphError::NoEdges)
        ));
    }

    #[test]
    fn warm_start_on_is_history_free() {
        // `warm_start` selects only the step rule: a repeated or reversed
        // pair answers bit for bit like the same query on a fresh session,
        // and every answer stays feasible and bracketed.
        let g = gen::grid(5, 5, 1.0);
        let cfg = config().with_warm_start(true);
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        for (s, t) in [(0, 24), (0, 24), (24, 0), (0, 24)].map(|(s, t)| (NodeId(s), NodeId(t))) {
            let got = session.max_flow(s, t).unwrap();
            let fresh = PreparedMaxFlow::prepare(&g, &cfg)
                .unwrap()
                .max_flow(s, t)
                .unwrap();
            assert_eq!(got.value.to_bits(), fresh.value.to_bits());
            assert_eq!(got.iterations, fresh.iterations);
            assert_eq!(bits(got.flow.values()), bits(fresh.flow.values()));
            let value = got.flow.validate_st_flow(&g, s, t, 1e-6).unwrap();
            assert!((value - got.value).abs() < 1e-6 * (1.0 + value.abs()));
            assert!(got.value > 0.0 && got.value <= got.upper_bound + 1e-9);
        }
    }

    #[test]
    fn warm_start_off_is_byte_identical_and_history_free() {
        let g = gen::Family::Random.generate(24, 7);
        let mut plain = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let mut explicit_off =
            PreparedMaxFlow::prepare(&g, &config().with_warm_start(false)).unwrap();
        let a1 = plain.max_flow(NodeId(0), NodeId(23)).unwrap();
        let a2 = plain.max_flow(NodeId(0), NodeId(23)).unwrap();
        let b1 = explicit_off.max_flow(NodeId(0), NodeId(23)).unwrap();
        // History-free: the repeat matches the first answer bit for bit, and
        // the explicit-off session matches the default session.
        assert_eq!(a1.value.to_bits(), a2.value.to_bits());
        assert_eq!(bits(a1.flow.values()), bits(a2.flow.values()));
        assert_eq!(a1.value.to_bits(), b1.value.to_bits());
        assert_eq!(bits(a1.flow.values()), bits(b1.flow.values()));
        assert_eq!(a1.iterations, b1.iterations);
    }

    #[test]
    fn accessors_expose_prepared_structures() {
        let g = gen::grid(4, 4, 1.0);
        let session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        assert_eq!(session.graph().num_nodes(), 16);
        assert_eq!(session.approximator().num_nodes(), 16);
        assert_eq!(session.ensemble_stats().num_trees, 6);
        assert_eq!(session.repair_tree().num_nodes(), 16);
        assert!((session.config().epsilon - 0.2).abs() < 1e-12);
    }
}
