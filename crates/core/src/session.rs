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
//! The free functions [`crate::approx_max_flow`] / [`crate::route_demand`]
//! remain as thin convenience wrappers that prepare a throwaway session per
//! call; a session answers byte-identically to them for the same seed.

use capprox::{
    build_tree_ensemble, CapacityChange, CapacityUpdateStats, CongestionApproximator, EnsembleStats,
};
use flowgraph::{max_weight_spanning_tree, Demand, Graph, GraphError, NodeId, RootedTree};
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
/// Queries take `&mut self` because they reuse the session's scratch buffers;
/// results are independent of query order and of how often the session has
/// been used, for every config (every query is answered byte-identically to
/// a fresh one-shot [`crate::approx_max_flow`] call with the same config).
///
/// The prepared structures themselves (graph, approximator, repair tree) are
/// immutable and `Send + Sync`; only the scratch is per-worker state. That is
/// what lets [`Self::par_max_flow_batch`] run independent `(s, t)` queries
/// concurrently — each worker borrows the shared structures and owns one
/// scratch from the session's pool — while staying byte-identical to the
/// sequential [`Self::max_flow_batch`].
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
    graph: &'g Graph,
    pub(crate) parts: PreparedParts,
}

/// The owned prepared state of a session, detached from the graph borrow:
/// everything [`PreparedMaxFlow`] derives from the graph (approximator,
/// repair tree, scratch pools, distributed plan), without the `&Graph`
/// itself.
///
/// A [`PreparedMaxFlow`] is exactly `(&Graph, PreparedParts)` — split with
/// [`PreparedMaxFlow::into_parts`], rejoin with
/// [`PreparedMaxFlow::from_parts`]. The split is what lets a long-lived
/// server *own* a mutable graph alongside its prepared state without a
/// self-referential struct: between requests the server holds
/// `(Graph, PreparedParts)`; to answer a batch it borrows the graph and
/// rejoins the parts into a session; to apply capacity updates it mutates
/// the graph and calls [`Self::refresh_after_capacity_update`].
///
/// Round-tripping through `into_parts`/`from_parts` preserves every byte of
/// session state (scratch buffers, distributed plan), and answers never
/// depend on the scratch's contents anyway, so they are byte-identical to an
/// undisturbed session.
#[derive(Debug)]
pub struct PreparedParts {
    config: MaxFlowConfig,
    approximator: CongestionApproximator,
    ensemble_stats: EnsembleStats,
    repair_tree: RootedTree,
    /// Lane-major gradient scratch of the sequential entry points: empty
    /// after prepare, grown lazily by the first query to the widest block
    /// and reused.
    scratch: AlmostRouteScratch,
    /// Per-worker scratch buffers for
    /// [`PreparedMaxFlow::par_max_flow_batch`], grown lazily to the
    /// configured thread count and reused across batches.
    scratch_pool: Vec<AlmostRouteScratch>,
    pub(crate) plan: Option<DistributedPlan>,
}

impl PreparedParts {
    /// Builds the prepared state for `graph`: validates the config and the
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
    pub fn build(graph: &Graph, config: &MaxFlowConfig) -> Result<Self, GraphError> {
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
        // The scalable preparation path assembles the ensemble level by
        // level through the recursive j-tree hierarchy (Theorem 8.10); the
        // default path builds the Räcke ensemble directly on the graph.
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
        Ok(PreparedParts {
            config: config.clone(),
            approximator,
            ensemble_stats,
            repair_tree,
            scratch: AlmostRouteScratch::default(),
            scratch_pool: Vec::new(),
            plan: None,
        })
    }

    /// Node count of the graph these parts were prepared for.
    pub fn num_nodes(&self) -> usize {
        self.approximator.num_nodes()
    }

    /// The solver configuration the parts were built with.
    pub fn config(&self) -> &MaxFlowConfig {
        &self.config
    }

    /// The prepared congestion approximator.
    pub fn approximator(&self) -> &CongestionApproximator {
        &self.approximator
    }

    /// Re-prepares the parts in place after a batch of edge-capacity changes
    /// on the graph, without rebuilding the tree ensemble: the approximator's
    /// cut capacities are patched incrementally along the changed edges' tree
    /// paths ([`CongestionApproximator::update_capacities`] — work
    /// proportional to the paths, not to the graph), the repair tree is
    /// re-grown against the new capacities (it is a maximum-*weight*
    /// spanning tree, so its shape may legitimately change), and the
    /// capacity-dependent distributed plan is dropped.
    ///
    /// `graph` must already hold the new capacities (apply
    /// [`Graph::set_capacity`] first) and be the same graph the parts were
    /// prepared for, topologically: same nodes, same edges, only capacities
    /// changed.
    ///
    /// After a successful refresh, queries through a rejoined
    /// [`PreparedMaxFlow`] answer byte-identically to a session freshly
    /// prepared from an ensemble with the *same tree topologies* at the new
    /// capacities — but **not** necessarily to a full
    /// [`PreparedMaxFlow::prepare`], which re-samples the ensemble and may
    /// draw different trees. Both are valid `(1+ε)` certificates; the
    /// equivalence suites pin the former.
    ///
    /// # Errors
    ///
    /// Propagates [`CongestionApproximator::update_capacities`] errors, after
    /// which the parts may be partially patched and **must be discarded and
    /// rebuilt** with [`Self::build`] — the caller's full-rebuild fallback.
    pub fn refresh_after_capacity_update(
        &mut self,
        graph: &Graph,
        changes: &[CapacityChange],
    ) -> Result<CapacityUpdateStats, GraphError> {
        let stats = self.approximator.update_capacities(graph, changes)?;
        self.repair_tree = max_weight_spanning_tree(graph, NodeId(0))?;
        // The distributed plan's congestion accounting was measured against
        // the old capacities.
        self.plan = None;
        Ok(stats)
    }
}

impl<'g> PreparedMaxFlow<'g> {
    /// Builds the session: [`PreparedParts::build`] plus the graph borrow.
    ///
    /// # Errors
    ///
    /// See [`PreparedParts::build`].
    pub fn prepare(graph: &'g Graph, config: &MaxFlowConfig) -> Result<Self, GraphError> {
        Ok(PreparedMaxFlow {
            graph,
            parts: PreparedParts::build(graph, config)?,
        })
    }

    /// Rejoins owned [`PreparedParts`] with the graph they were prepared for
    /// (the inverse of [`Self::into_parts`]).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] when `graph`'s node count does
    /// not match the parts' — the strongest structural check available
    /// without storing a full graph fingerprint; pairing parts with the
    /// wrong same-sized graph is on the caller (a server keys parts by graph
    /// fingerprint for exactly this reason).
    pub fn from_parts(graph: &'g Graph, parts: PreparedParts) -> Result<Self, GraphError> {
        if parts.num_nodes() != graph.num_nodes() {
            return Err(GraphError::DemandMismatch {
                expected: parts.num_nodes(),
                actual: graph.num_nodes(),
            });
        }
        Ok(PreparedMaxFlow { graph, parts })
    }

    /// Releases the graph borrow and returns the owned prepared state,
    /// preserving every byte of it (scratch buffers, plan).
    pub fn into_parts(self) -> PreparedParts {
        self.parts
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
        let parts = &mut self.parts;
        let mut results = max_flow_block_engine(
            self.graph,
            &parts.approximator,
            &parts.repair_tree,
            &[(s, t)],
            &parts.config,
            &mut parts.scratch,
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
        let workers = self.parts.config.parallelism.threads().min(blocks.max(1));
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
                self.graph,
                &self.parts.approximator,
                &self.parts.repair_tree,
                &refs,
                &self.parts.config,
                &mut self.parts.scratch,
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
            (&self.parts.config, vec![&mut self.parts.scratch])
        } else {
            while self.parts.scratch_pool.len() < workers {
                self.parts.scratch_pool.push(AlmostRouteScratch::default());
            }
            fanned_config = self
                .parts
                .config
                .clone()
                .with_parallelism(Parallelism::sequential());
            (
                &fanned_config,
                self.parts.scratch_pool[..workers].iter_mut().collect(),
            )
        };
        let stride = tasks.len();
        let graph = self.graph;
        let approximator = &self.parts.approximator;
        let repair_tree = &self.parts.repair_tree;
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
            self.graph,
            &self.parts.approximator,
            &self.parts.repair_tree,
            &[b],
            &self.parts.config,
            &mut self.parts.scratch,
        )?;
        routed.pop().ok_or(GraphError::Internal {
            invariant: "one demand in, one routing out",
        })
    }

    /// The graph this session was prepared for.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The session's solver configuration.
    pub fn config(&self) -> &MaxFlowConfig {
        &self.parts.config
    }

    /// The prepared congestion approximator.
    pub fn approximator(&self) -> &CongestionApproximator {
        &self.parts.approximator
    }

    /// Construction statistics of the underlying tree ensemble.
    pub fn ensemble_stats(&self) -> &EnsembleStats {
        &self.parts.ensemble_stats
    }

    /// The maximum-weight spanning tree used for residual repair.
    pub fn repair_tree(&self) -> &RootedTree {
        &self.parts.repair_tree
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

    #[test]
    fn parts_round_trip_preserves_session_state_bitwise() {
        // into_parts/from_parts is the daemon's steady-state loop; splitting
        // and rejoining between every query must not perturb a bit, under
        // the adaptive step rule too.
        let g = gen::Family::Random.generate(26, 7);
        let cfg = config().with_warm_start(true);
        let mut undisturbed = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let mut parts = PreparedParts::build(&g, &cfg).unwrap();
        let queries = [
            (NodeId(0), NodeId(25)),
            (NodeId(3), NodeId(17)),
            (NodeId(0), NodeId(25)), // repeat
        ];
        for &(s, t) in &queries {
            let expected = undisturbed.max_flow(s, t).unwrap();
            let mut session = PreparedMaxFlow::from_parts(&g, parts).unwrap();
            let got = session.max_flow(s, t).unwrap();
            parts = session.into_parts();
            assert_eq!(expected.value.to_bits(), got.value.to_bits());
            assert_eq!(expected.iterations, got.iterations);
            assert_eq!(bits(expected.flow.values()), bits(got.flow.values()));
        }
    }

    #[test]
    fn from_parts_rejects_a_mismatched_graph() {
        let g = gen::grid(4, 4, 1.0);
        let parts = PreparedParts::build(&g, &config()).unwrap();
        let other = gen::grid(3, 3, 1.0);
        assert!(matches!(
            PreparedMaxFlow::from_parts(&other, parts),
            Err(GraphError::DemandMismatch {
                expected: 16,
                actual: 9
            })
        ));
    }

    #[test]
    fn refresh_after_capacity_update_matches_fresh_prepare_on_a_path() {
        // A path has exactly one spanning tree, so the re-sampled ensemble of
        // a fresh prepare() and the kept ensemble of the incremental refresh
        // have identical topologies — and with integer capacities the cut
        // sums are exact, so the two sessions must answer BITWISE equal.
        // (General graphs re-sample different trees; the capprox suites pin
        // the same-topology equivalence there.)
        let mut g = gen::path(12, 4.0);
        let mut parts = PreparedParts::build(&g, &config()).unwrap();
        let e = g.edge_ids().nth(5).unwrap();
        g.set_capacity(e, 2.0).unwrap();
        let stats = parts
            .refresh_after_capacity_update(
                &g,
                &[capprox::CapacityChange {
                    edge: e,
                    old: 4.0,
                    new: 2.0,
                }],
            )
            .unwrap();
        assert!(stats.trees_touched >= 1 && stats.slots_patched >= 1);
        let mut refreshed = PreparedMaxFlow::from_parts(&g, parts).unwrap();
        let mut fresh = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let a = refreshed.max_flow(NodeId(0), NodeId(11)).unwrap();
        let b = fresh.max_flow(NodeId(0), NodeId(11)).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(bits(a.flow.values()), bits(b.flow.values()));
        // The bottleneck the update created is certified by the bracket.
        assert!(a.value <= 2.0 + 1e-9 && a.upper_bound >= 2.0 - 1e-9);
    }

    #[test]
    fn refresh_rejects_stale_graph_capacities() {
        // The graph must already hold the new capacities; refresh with a
        // stale graph is the misuse the typed error (and the daemon's full-
        // rebuild fallback) exists for.
        let g = gen::grid(4, 4, 1.0);
        let mut parts = PreparedParts::build(&g, &config()).unwrap();
        let e = g.edge_ids().next().unwrap();
        assert!(matches!(
            parts.refresh_after_capacity_update(
                &g,
                &[capprox::CapacityChange {
                    edge: e,
                    old: 1.0,
                    new: 5.0,
                }],
            ),
            Err(GraphError::InvalidConfig {
                parameter: "changes",
                ..
            })
        ));
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
