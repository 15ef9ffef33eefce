//! The top-level max-flow algorithm (paper §9, Algorithm 1).
//!
//! Max flow is reduced to congestion minimization: to ship `F` units from `s`
//! to `t`, route the demand `b = F·(χ_t − χ_s)` with as little edge
//! congestion as possible. Algorithm 1 calls `AlmostRoute` a logarithmic
//! number of times on the residual demand (each call halves what is left),
//! then routes the final residual exactly over a maximum-weight spanning
//! tree. Scaling the result down by its maximum congestion yields a feasible
//! flow; choosing `F` to be the smallest cut of the congestion approximator
//! separating `s` and `t` (a genuine cut of `G`, hence an upper bound on the
//! max flow) makes the scaled value a `(1+ε)`-approximation.

use capprox::{CongestionApproximator, HierarchyConfig, RackeConfig};
use flowgraph::{max_weight_spanning_tree, Demand, FlowVec, Graph, GraphError, NodeId, RootedTree};
use parallel::Parallelism;

use crate::almost_route::{almost_route_block_with_norms, AlmostRouteConfig, AlmostRouteScratch};

/// Configuration for the approximate max-flow solver.
#[derive(Debug, Clone)]
pub struct MaxFlowConfig {
    /// Target approximation parameter ε.
    pub epsilon: f64,
    /// Configuration of the congestion-approximator construction.
    pub racke: RackeConfig,
    /// Override for the approximator quality α used by the gradient descent
    /// (`None` = the approximator's provable bound).
    pub alpha: Option<f64>,
    /// Cap on gradient iterations per `AlmostRoute` call.
    pub max_iterations_per_phase: usize,
    /// Number of `AlmostRoute` phases (Algorithm 1 uses `log m + 1`; `None`
    /// selects exactly that).
    pub phases: Option<usize>,
    /// Selects the descent's step rule: `true` runs every `AlmostRoute`
    /// phase with adaptive steps ([`crate::AlmostRouteConfig::adaptive_steps`]:
    /// grow the step while the potential keeps decreasing, halve it and
    /// retry when a step overshoots), `false` (the default) with
    /// Algorithm 2's fixed `δ/(1+4α²)` step. Either way every answer depends
    /// only on the graph, its capacities, this config and the query. See
    /// [`MaxFlowConfig::with_warm_start`].
    pub warm_start: bool,
    /// Worker pool for the parallel execution paths: per-iteration operator
    /// evaluations inside a query and query fan-out in
    /// [`crate::PreparedMaxFlow::par_max_flow_batch`]. Strictly a performance
    /// knob — every entry point is byte-identical to
    /// [`Parallelism::sequential`] for any thread count. Machine-specific,
    /// so [`MaxFlowConfig::to_json`] never writes it: a config read back
    /// with [`MaxFlowConfig::from_json`] runs sequentially until the
    /// deployment opts back in.
    pub parallelism: Parallelism,
    /// Build the congestion approximator through the recursive j-tree
    /// hierarchy of Theorem 8.10 instead of the direct Räcke construction —
    /// the million-node preparation path (see `capprox::hierarchy`). `None`
    /// (the default) keeps the direct build.
    pub hierarchy: Option<HierarchyConfig>,
}

impl Default for MaxFlowConfig {
    fn default() -> Self {
        MaxFlowConfig {
            epsilon: 0.1,
            racke: RackeConfig::default(),
            alpha: None,
            max_iterations_per_phase: 5_000,
            phases: None,
            warm_start: false,
            parallelism: Parallelism::sequential(),
            hierarchy: None,
        }
    }
}

impl MaxFlowConfig {
    /// Replaces the target approximation parameter ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Replaces the RNG seed used by the approximator construction.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.racke = self.racke.clone().with_seed(seed);
        self
    }

    /// Replaces the congestion-approximator construction configuration.
    #[must_use]
    pub fn with_racke(mut self, racke: RackeConfig) -> Self {
        self.racke = racke;
        self
    }

    /// Overrides the approximator quality α assumed by the gradient descent
    /// (`None` restores the provable bound).
    #[must_use]
    pub fn with_alpha(mut self, alpha: Option<f64>) -> Self {
        self.alpha = alpha;
        self
    }

    /// Replaces the cap on gradient iterations per `AlmostRoute` phase.
    #[must_use]
    pub fn with_max_iterations_per_phase(mut self, cap: usize) -> Self {
        self.max_iterations_per_phase = cap;
        self
    }

    /// Replaces the number of `AlmostRoute` phases (`None` restores the
    /// `log m + 1` schedule of Algorithm 1).
    #[must_use]
    pub fn with_phases(mut self, phases: Option<usize>) -> Self {
        self.phases = phases;
        self
    }

    /// Selects the adaptive step rule (`true`) or Algorithm 2's fixed step
    /// (`false`, the default) for every query; see
    /// [`MaxFlowConfig::warm_start`]. The field keeps the name of the
    /// warm-start answer reuse it once also switched on; it selects only the
    /// step rule now, and sessions keep no history, so a repeated query
    /// answers bit for bit like the first.
    ///
    /// ```
    /// use flowgraph::{gen, NodeId};
    /// use maxflow::{MaxFlowConfig, PreparedMaxFlow};
    ///
    /// let g = gen::grid(5, 5, 1.0);
    /// let cfg = MaxFlowConfig::default().with_warm_start(true);
    /// assert!(cfg.warm_start);
    ///
    /// let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
    /// let first = session.max_flow(NodeId(0), NodeId(24)).unwrap();
    /// assert!(first.value > 0.0 && first.value <= first.upper_bound + 1e-9);
    /// let again = session.max_flow(NodeId(0), NodeId(24)).unwrap();
    /// assert_eq!(again.value.to_bits(), first.value.to_bits());
    /// assert_eq!(again.iterations, first.iterations);
    /// ```
    #[must_use]
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Replaces the worker pool used by the parallel execution paths.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables (or disables with `None`) the recursive hierarchy preparation
    /// path: the congestion approximator is assembled level by level through
    /// j-trees instead of directly on the full graph, which is what makes
    /// `prepare` affordable at millions of nodes.
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: Option<HierarchyConfig>) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Rejects configurations that can never produce a meaningful run —
    /// non-positive or NaN `epsilon`, a zero iteration budget, zero phases,
    /// an empty tree ensemble, a negative or non-finite MWU step, a
    /// low-stretch growth factor that is non-finite or below 2, or a
    /// non-finite / sub-unit α override — before they turn into endless
    /// loops, NaN flows or silently adjusted parameters deep inside the
    /// build or the descent.
    /// Called by every solver entry point that takes the config.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), GraphError> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(GraphError::InvalidConfig {
                parameter: "epsilon",
                reason: "must be a finite number > 0",
            });
        }
        if self.max_iterations_per_phase == 0 {
            return Err(GraphError::InvalidConfig {
                parameter: "max_iterations_per_phase",
                reason: "must be at least 1",
            });
        }
        if self.phases == Some(0) {
            return Err(GraphError::InvalidConfig {
                parameter: "phases",
                reason: "must be at least 1 (or None for the log m + 1 schedule)",
            });
        }
        if self.racke.num_trees == Some(0) {
            return Err(GraphError::InvalidConfig {
                parameter: "racke.num_trees",
                reason: "must be at least 1 (or None for the O(log n) schedule)",
            });
        }
        if !self.racke.mwu_step.is_finite() || self.racke.mwu_step < 0.0 {
            return Err(GraphError::InvalidConfig {
                parameter: "racke.mwu_step",
                reason: "must be a finite number >= 0 (0 keeps every tree's edge lengths)",
            });
        }
        if !self.racke.lowstretch_z.is_finite() || self.racke.lowstretch_z < 2.0 {
            return Err(GraphError::InvalidConfig {
                parameter: "racke.lowstretch_z",
                reason: "must be a finite number >= 2 (the low-stretch length-class growth factor)",
            });
        }
        if let Some(alpha) = self.alpha {
            if !alpha.is_finite() || alpha <= 0.0 {
                return Err(GraphError::InvalidConfig {
                    parameter: "alpha",
                    reason: "must be a finite number > 0 (or None for the provable bound)",
                });
            }
        }
        if let Some(quality) = self.racke.target_quality {
            if !quality.is_finite() || quality < 1.0 {
                return Err(GraphError::InvalidConfig {
                    parameter: "racke.target_quality",
                    reason: "must be a finite number >= 1 (or None to keep the full schedule)",
                });
            }
        }
        if let Some(hierarchy) = &self.hierarchy {
            hierarchy.validate()?;
        }
        Ok(())
    }
}

/// Largest accepted imbalance of a demand, relative to its total magnitude:
/// the routing entry points accept `b` when
/// `|Σ_v b_v| ≤ DEMAND_BALANCE_TOLERANCE · Σ_v |b_v|`.
///
/// A flow's excess always sums to zero, so only a balanced demand can be
/// met exactly; the relative slack absorbs the rounding of demands that are
/// balanced in exact arithmetic (summing `n` doubles errs by at most about
/// `n · 1.1e-16` of the magnitude, well below the tolerance up to millions
/// of nodes). Anything larger is rejected with
/// [`GraphError::UnbalancedDemand`].
pub const DEMAND_BALANCE_TOLERANCE: f64 = 1e-9;

/// Checks that `b` is routable: every entry finite
/// ([`GraphError::NonFiniteDemand`]), the total magnitude `Σ_v |b_v|` finite
/// ([`GraphError::NonFinite`]; against an infinite magnitude the relative
/// balance test could never fail) and the entries summing to zero within
/// [`DEMAND_BALANCE_TOLERANCE`] ([`GraphError::UnbalancedDemand`]).
fn validate_demand(b: &Demand) -> Result<(), GraphError> {
    if let Some((node, &value)) = b.values().iter().enumerate().find(|(_, x)| !x.is_finite()) {
        return Err(GraphError::NonFiniteDemand { node, value });
    }
    let imbalance = b.total();
    let magnitude: f64 = b.values().iter().map(|x| x.abs()).sum();
    if !magnitude.is_finite() {
        return Err(GraphError::NonFinite {
            quantity: "the demand's total magnitude",
        });
    }
    if imbalance.abs() > DEMAND_BALANCE_TOLERANCE * magnitude {
        return Err(GraphError::UnbalancedDemand {
            imbalance,
            magnitude,
        });
    }
    Ok(())
}

/// Fails with [`GraphError::NonFinite`] naming `quantity` unless every value
/// is finite.
fn ensure_finite(values: &[f64], quantity: &'static str) -> Result<(), GraphError> {
    if values.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(GraphError::NonFinite { quantity })
    }
}

/// Result of routing a demand with near-optimal congestion (Algorithm 1
/// without the final scaling).
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// A flow with `Bf = b` exactly (the residual is repaired on a tree).
    pub flow: FlowVec,
    /// Maximum edge congestion of that flow.
    pub congestion: f64,
    /// Total gradient iterations over all phases.
    pub iterations: usize,
    /// Number of `AlmostRoute` phases executed.
    pub phases: usize,
}

/// Result of the approximate max-flow computation.
#[derive(Debug, Clone)]
pub struct MaxFlowResult {
    /// A feasible s–t flow (capacities respected, conservation exact).
    pub flow: FlowVec,
    /// Value of that flow.
    pub value: f64,
    /// A certified upper bound on the maximum flow: the capacity of an actual
    /// s–t cut of `G` (the best cut known to the congestion approximator).
    pub upper_bound: f64,
    /// Total gradient-descent iterations.
    pub iterations: usize,
    /// Number of `AlmostRoute` phases.
    pub phases: usize,
    /// Statistics of the congestion approximator that was used.
    pub approximator: capprox::ApproximatorStats,
}

impl MaxFlowResult {
    /// The certified approximation ratio `value / upper_bound ∈ (0, 1]`: the
    /// computed flow is at least this fraction of the (unknown) maximum flow.
    pub fn certified_ratio(&self) -> f64 {
        if self.upper_bound <= 0.0 {
            1.0
        } else {
            (self.value / self.upper_bound).min(1.0)
        }
    }
}

/// Routes the demand `b` exactly (Algorithm 1 without the max-flow scaling):
/// repeated `AlmostRoute` phases on the residual followed by an exact repair
/// over a maximum-weight spanning tree.
///
/// Convenience wrapper that rebuilds the repair tree and scratch buffers per
/// call; prefer [`crate::PreparedMaxFlow::route`] when issuing several
/// queries against one graph.
///
/// # Errors
///
/// Returns [`GraphError::DemandMismatch`] if `b` does not match the graph's
/// node count, [`GraphError::NonFiniteDemand`] /
/// [`GraphError::UnbalancedDemand`] if it cannot be routed (see
/// [`DEMAND_BALANCE_TOLERANCE`]), [`GraphError::NonFinite`] if its total
/// magnitude or the answer overflows `f64`, and [`GraphError::Empty`] /
/// [`GraphError::NotConnected`] for degenerate graphs.
pub fn route_demand(
    g: &Graph,
    r: &CongestionApproximator,
    b: &Demand,
    config: &MaxFlowConfig,
) -> Result<RoutingResult, GraphError> {
    config.validate()?;
    if g.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    if g.num_edges() == 0 {
        // The soft-max potential is undefined over an empty edge set (see
        // `almost_route::smax_and_weights_into`); reject before the descent
        // ever evaluates it.
        return Err(GraphError::NoEdges);
    }
    if b.len() != g.num_nodes() {
        return Err(GraphError::DemandMismatch {
            expected: g.num_nodes(),
            actual: b.len(),
        });
    }
    let repair_tree = max_weight_spanning_tree(g, NodeId(0))?;
    let mut scratch = AlmostRouteScratch::default();
    let mut routed = route_demand_block_engine(g, r, &repair_tree, &[b], config, &mut scratch)?;
    routed.pop().ok_or(GraphError::Internal {
        invariant: "one demand in, one routing out",
    })
}

/// The routing engine behind [`route_demand`],
/// [`crate::PreparedMaxFlow::route`] and
/// [`crate::PreparedMaxFlow::route_many`] (and, through
/// [`max_flow_block_engine`], every max-flow query): routes `k` demands in
/// lockstep through the blocked gradient driver, advancing the phase
/// schedule per lane (a lane whose residual drops below its stop norm leaves
/// the batch and stops paying for sweeps). A single demand is a block of one
/// lane, and `results[l]` is byte-identical to routing `demands[l]` alone.
///
/// The repair tree and the gradient scratch are supplied by the caller, so a
/// session amortizes both.
///
/// Fails fast on the earliest (by lane index) invalid demand — wrong length,
/// a non-finite entry or total magnitude, or an imbalance beyond
/// [`DEMAND_BALANCE_TOLERANCE`]; per-lane validation happens before any
/// gradient work, so an error never discards finished lanes. An answer whose
/// flow or congestion is not finite (the descent overflowed `f64`) fails the
/// call with [`GraphError::NonFinite`]; that check scans each answer once,
/// after the descent.
pub(crate) fn route_demand_block_engine(
    g: &Graph,
    r: &CongestionApproximator,
    repair_tree: &RootedTree,
    demands: &[&Demand],
    config: &MaxFlowConfig,
    scratch: &mut AlmostRouteScratch,
) -> Result<Vec<RoutingResult>, GraphError> {
    if g.num_nodes() == 0 {
        return Err(GraphError::Empty);
    }
    for b in demands {
        if b.len() != g.num_nodes() {
            return Err(GraphError::DemandMismatch {
                expected: g.num_nodes(),
                actual: b.len(),
            });
        }
        validate_demand(b)?;
    }
    let k = demands.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    let m2 = g.num_edges().max(2);
    let phases = config
        .phases
        .unwrap_or((m2 as f64).log2().ceil() as usize + 1);
    let ar_config = AlmostRouteConfig {
        // Algorithm 1 calls AlmostRoute with ε = 1/2 in every phase; the
        // outer ε only controls the final scaling accuracy. We pass the outer
        // ε through when it is smaller to tighten the last phases.
        epsilon: config.epsilon.min(0.5),
        alpha: config.alpha,
        max_iterations: config.max_iterations_per_phase,
        adaptive_steps: config.warm_start,
        parallelism: config.parallelism,
    };

    let mut totals: Vec<FlowVec> = vec![FlowVec::zeros(g.num_edges()); k];
    let mut iterations = vec![0usize; k];
    let mut executed_phases = vec![0usize; k];
    let mut residuals: Vec<Demand> = vec![Demand::zeros(g.num_nodes()); k];
    let mut stop_norms = vec![0.0f64; k];
    let mut active: Vec<usize> = (0..k).collect();

    for phase in 0..phases {
        if active.is_empty() {
            break;
        }
        for &l in &active {
            demands[l].residual_into(g, &totals[l], &mut residuals[l]);
        }
        // One blocked sweep computes every active lane's residual norm. The
        // phase-0 residual of the zero flow is the demand itself, so its
        // norm is the lane's initial norm, and the stop norms come for free:
        // once the residual is this small relative to the original demand,
        // the exact tree repair contributes only a negligible amount of
        // congestion, so further AlmostRoute phases would be wasted work.
        let refs: Vec<&Demand> = active.iter().map(|&l| &residuals[l]).collect();
        let norms = scratch
            .congestion_lower_bounds(g, r, &refs, &config.parallelism)
            .to_vec();
        if phase == 0 {
            for (j, &l) in active.iter().enumerate() {
                let initial = norms[j].max(f64::MIN_POSITIVE);
                stop_norms[l] = initial * (config.epsilon * 1e-2).max(1e-6);
            }
        }
        let mut still = Vec::with_capacity(active.len());
        let mut still_norms = Vec::with_capacity(active.len());
        for (j, &l) in active.iter().enumerate() {
            if norms[j] <= stop_norms[l] {
                continue;
            }
            still.push(l);
            still_norms.push(norms[j]);
        }
        active = still;
        if active.is_empty() {
            break;
        }
        let refs: Vec<&Demand> = active.iter().map(|&l| &residuals[l]).collect();
        let ars = almost_route_block_with_norms(g, r, &refs, &still_norms, &ar_config, scratch);
        for (j, &l) in active.iter().enumerate() {
            iterations[l] += ars[j].iterations;
            executed_phases[l] += 1;
            totals[l].add_assign(&ars[j].flow);
        }
    }

    // Steps 5–6 of Algorithm 1: repair each lane's remaining residual
    // exactly on the maximum-weight spanning tree.
    let mut results = Vec::with_capacity(k);
    for (l, total) in totals.into_iter().enumerate() {
        demands[l].residual_into(g, &total, &mut residuals[l]);
        let repair = repair_tree.route_demand_on_graph(g, &residuals[l])?;
        let mut flow = total;
        flow.add_assign(&repair);
        let congestion = flow.max_congestion(g);
        ensure_finite(flow.values(), "the routed flow")?;
        ensure_finite(&[congestion], "the routing's congestion")?;
        results.push(RoutingResult {
            flow,
            congestion,
            iterations: iterations[l],
            phases: executed_phases[l],
        });
    }
    Ok(results)
}

/// Computes a `(1+ε)`-approximate maximum s–t flow (Theorem 1.1, centralized
/// execution).
///
/// The returned flow is always feasible; `upper_bound` certifies how close to
/// optimal it is (`value ≤ maxflow ≤ upper_bound`).
///
/// Convenience wrapper equivalent to
/// `PreparedMaxFlow::prepare(g, config)?.max_flow(s, t)` — it rebuilds the
/// congestion approximator and repair tree on every call. Prefer
/// [`crate::PreparedMaxFlow`] when several queries hit one graph.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] / [`GraphError::NotConnected`] for degenerate
/// graphs, [`GraphError::NodeOutOfRange`] for invalid terminals and
/// [`GraphError::NonFinite`] if the answer overflows `f64`.
pub fn approx_max_flow(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    config: &MaxFlowConfig,
) -> Result<MaxFlowResult, GraphError> {
    crate::PreparedMaxFlow::prepare(g, config)?.max_flow(s, t)
}

/// The max-flow query's safety net: routing the unit demand over the best
/// single tree of the ensemble and scaling it to feasibility is another
/// feasible flow; keep whichever is better. This
/// keeps the result sane even if the gradient descent was stopped early by
/// the iteration cap. One pass computes each tree's routing congestion
/// exactly once — through the sparse s–t path walk
/// (`st_tree_routing_congestion`, `O(tree depth)` instead of `O(n)` per
/// tree, bit-identical to the dense scan because the off-path nodes
/// contribute exact zeros to the max) — tracking both the minimum (the
/// certified congestion bound) and the first tree attaining it.
fn apply_tree_safety_net(
    g: &Graph,
    r: &CongestionApproximator,
    s: NodeId,
    t: NodeId,
    unit: &Demand,
    flow: FlowVec,
    value: f64,
) -> Result<(FlowVec, f64), GraphError> {
    let mut tree_congestion = f64::INFINITY;
    let mut best_tree = None;
    for tree in r.trees() {
        let c = tree.st_tree_routing_congestion(g, s, t, 1.0);
        tree_congestion = tree_congestion.min(c);
        match best_tree {
            // Strictly-less via `partial_cmp` rather than `c < best_c` so a
            // NaN routing congestion (malformed capacities) can never
            // displace a real one.
            Some((_, best_c)) if c.partial_cmp(&best_c) != Some(std::cmp::Ordering::Less) => {}
            _ => best_tree = Some((tree, c)),
        }
    }
    if tree_congestion.is_finite() && tree_congestion > 0.0 {
        let tree_value = 1.0 / tree_congestion;
        if tree_value > value {
            if let Some((best, _)) = best_tree {
                let mut tree_flow = best.tree.route_demand_on_graph(g, unit)?;
                tree_flow.scale(tree_value);
                return Ok((tree_flow, tree_value));
            }
        }
    }
    Ok((flow, value))
}

/// The query engine behind [`approx_max_flow`] and every
/// [`crate::PreparedMaxFlow`] max-flow entry point: answers `k`
/// terminal pairs in lockstep through [`route_demand_block_engine`]. A single
/// query is a block of one lane, and `results[l]` is byte-identical to
/// answering `pairs[l]` alone. The graph is assumed non-empty and connected
/// (validated when the session is prepared); terminals are validated here,
/// per query.
///
/// Fails fast on the earliest (by lane index) invalid pair; all per-lane
/// validation happens before any gradient work. An answer whose flow, value
/// or upper bound is not finite fails the call with [`GraphError::NonFinite`]
/// (one scan per answer, after the descent).
pub(crate) fn max_flow_block_engine(
    g: &Graph,
    r: &CongestionApproximator,
    repair_tree: &RootedTree,
    pairs: &[(NodeId, NodeId)],
    config: &MaxFlowConfig,
    scratch: &mut AlmostRouteScratch,
) -> Result<Vec<MaxFlowResult>, GraphError> {
    let k = pairs.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    for &(s, t) in pairs {
        for v in [s, t] {
            if v.index() >= g.num_nodes() {
                return Err(GraphError::NodeOutOfRange {
                    node: v.index(),
                    num_nodes: g.num_nodes(),
                });
            }
        }
        if s == t {
            return Err(GraphError::SelfLoop { node: s.index() });
        }
    }

    // Target flow value per lane: the smallest s-t cut among the
    // approximator's rows, from one blocked sweep over the unit demands.
    // Every row is an actual cut of G, so this is a certified upper bound on
    // the maximum flow (max-flow min-cut).
    let units: Vec<Demand> = pairs
        .iter()
        .map(|&(s, t)| Demand::st(g, s, t, 1.0))
        .collect();
    let unit_refs: Vec<&Demand> = units.iter().collect();
    let unit_congestions = scratch
        .congestion_lower_bounds(g, r, &unit_refs, &config.parallelism)
        .to_vec();
    for &c in &unit_congestions {
        if c <= 0.0 {
            // No cut of the ensemble separates s and t — impossible for
            // spanning trees of a connected graph, treat as malformed input.
            return Err(GraphError::NotConnected);
        }
    }
    // The singleton cuts around s and t are always available to every node
    // locally (they are just the incident capacities), so a target never
    // needs to exceed them.
    let targets: Vec<f64> = pairs
        .iter()
        .zip(&unit_congestions)
        .map(|(&(s, t), &c)| {
            let degree_cut = g.weighted_degree(s).min(g.weighted_degree(t));
            (1.0 / c).min(degree_cut)
        })
        .collect();

    let demands: Vec<Demand> = pairs
        .iter()
        .zip(&targets)
        .map(|(&(s, t), &target)| Demand::st(g, s, t, target))
        .collect();
    let demand_refs: Vec<&Demand> = demands.iter().collect();
    let routings = route_demand_block_engine(g, r, repair_tree, &demand_refs, config, scratch)?;

    let mut results = Vec::with_capacity(k);
    for (l, routing) in routings.into_iter().enumerate() {
        let (s, t) = pairs[l];
        // Scale down to feasibility. If the congestion is below 1 the flow
        // is already feasible and ships the full upper bound (then it is
        // exactly optimal, since value ≤ maxflow ≤ upper bound = value).
        let rho = routing.congestion.max(1.0);
        let mut flow = routing.flow;
        flow.scale(1.0 / rho);
        let value = targets[l] / rho;
        let (flow, value) = apply_tree_safety_net(g, r, s, t, &units[l], flow, value)?;
        ensure_finite(flow.values(), "the max-flow answer's flow")?;
        ensure_finite(&[value], "the max-flow value")?;
        ensure_finite(&[targets[l]], "the max-flow upper bound")?;
        results.push(MaxFlowResult {
            flow,
            value,
            upper_bound: targets[l],
            iterations: routing.iterations,
            phases: routing.phases,
            approximator: r.stats(),
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::gen;

    fn solve(g: &Graph, s: NodeId, t: NodeId, eps: f64) -> MaxFlowResult {
        let config = MaxFlowConfig {
            epsilon: eps,
            racke: RackeConfig::default().with_num_trees(8).with_seed(1),
            ..Default::default()
        };
        approx_max_flow(g, s, t, &config).unwrap()
    }

    #[test]
    fn flow_is_always_feasible_and_bracketed() {
        for fam in gen::Family::ALL {
            let g = fam.generate(30, 5);
            let (s, t) = gen::default_terminals(&g);
            let result = solve(&g, s, t, 0.2);
            let value = result
                .flow
                .validate_st_flow(&g, s, t, 1e-6)
                .unwrap_or_else(|e| panic!("family {fam}: infeasible flow: {e}"));
            assert!(
                (value - result.value).abs() < 1e-6 * (1.0 + value.abs()),
                "family {fam}"
            );
            assert!(
                result.value <= result.upper_bound + 1e-9,
                "family {fam}: value above certified upper bound"
            );
            assert!(result.value > 0.0, "family {fam}: zero flow");
        }
    }

    #[test]
    fn path_graph_is_solved_exactly() {
        // On a path the max flow equals the bottleneck capacity and a tree
        // routing attains it, so the result must be (numerically) exact.
        let mut g = Graph::with_nodes(5);
        let caps = [4.0, 2.0, 5.0, 3.0];
        for (i, &c) in caps.iter().enumerate() {
            g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), c)
                .unwrap();
        }
        let result = solve(&g, NodeId(0), NodeId(4), 0.1);
        assert!((result.value - 2.0).abs() < 1e-6, "value {}", result.value);
        assert!((result.upper_bound - 2.0).abs() < 1e-6);
        assert!(result.certified_ratio() > 0.999);
    }

    #[test]
    fn barbell_bridge_is_the_bottleneck() {
        let g = gen::barbell(5, 2, 10.0, 3.0);
        let (s, t) = gen::default_terminals(&g);
        let result = solve(&g, s, t, 0.1);
        // The bridge has capacity 3; the solver must certify that.
        assert!((result.upper_bound - 3.0).abs() < 1e-9);
        assert!(result.value <= 3.0 + 1e-9);
        assert!(
            result.certified_ratio() > 0.8,
            "certified ratio {} too small",
            result.certified_ratio()
        );
    }

    #[test]
    fn grid_flow_reasonable_quality() {
        let g = gen::grid(5, 5, 1.0);
        let result = solve(&g, NodeId(0), NodeId(24), 0.2);
        // Corner-to-corner max flow on a unit 5x5 grid is 2 (degree bound).
        assert!(result.value <= 2.0 + 1e-9);
        assert!(
            result.value >= 1.2,
            "value {} too far below the optimum 2.0",
            result.value
        );
        assert!(result.iterations > 0);
    }

    #[test]
    fn route_demand_meets_demand_exactly() {
        let g = gen::grid(4, 4, 1.0);
        let r =
            CongestionApproximator::build(&g, &RackeConfig::default().with_num_trees(4)).unwrap();
        let b = Demand::st(&g, NodeId(0), NodeId(15), 1.5);
        let routing = route_demand(&g, &r, &b, &MaxFlowConfig::default()).unwrap();
        let ex = routing.flow.excess(&g);
        for v in g.nodes() {
            assert!(
                (ex[v.index()] - b.get(v)).abs() < 1e-6,
                "excess mismatch at {v}"
            );
        }
        assert!(routing.congestion > 0.0);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = gen::path(4, 1.0);
        let config = MaxFlowConfig::default();
        assert!(approx_max_flow(&g, NodeId(0), NodeId(0), &config).is_err());
        assert!(approx_max_flow(&g, NodeId(0), NodeId(9), &config).is_err());
        let mut disconnected = Graph::with_nodes(4);
        disconnected.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(approx_max_flow(&disconnected, NodeId(0), NodeId(3), &config).is_err());
    }

    #[test]
    fn certified_ratio_is_within_unit_interval() {
        let g = gen::layered_st(3, 3, (1.0, 4.0), 3);
        let (s, t) = gen::default_terminals(&g);
        let result = solve(&g, s, t, 0.3);
        let ratio = result.certified_ratio();
        assert!(ratio > 0.0 && ratio <= 1.0);
    }
}
