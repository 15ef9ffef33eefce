//! Per-layer numbers of the traced run, timed from outside around calls
//! into each layer's public functions on the workload's own graph and
//! prepared session.

use capprox::{
    build_hierarchical_ensemble, build_jtree_top_loaded, build_tree_ensemble, sparsify,
    CongestionApproximator, OperatorScratch, RackeConfig, SparsifyConfig,
};
use flowgraph::{max_weight_spanning_tree, Demand, Graph, NodeId};
use lowstretch::{low_stretch_spanning_tree, LowStretchConfig};
use maxflow::almost_route::smax_and_weights_into;
use maxflow::{
    almost_route_with, AlmostRouteConfig, AlmostRouteScratch, MaxFlowConfig, PreparedMaxFlow,
};

use crate::{time_us, timed, Report};

/// Value of the best single-tree routing of an s–t pair: the largest flow
/// any one ensemble tree ships without exceeding capacity (the solver's
/// safety net).
pub fn best_tree_value(g: &Graph, r: &CongestionApproximator, (s, t): (NodeId, NodeId)) -> f64 {
    let congestion = r
        .trees()
        .iter()
        .map(|tree| tree.st_tree_routing_congestion(g, s, t, 1.0))
        .fold(f64::INFINITY, f64::min);
    1.0 / congestion
}

/// The certified upper bound a query on `(s, t)` targets: the smallest
/// s–t cut among the approximator's rows, capped by the terminals' degree
/// cuts (as the solver computes it).
pub fn cut_bound(g: &Graph, r: &CongestionApproximator, (s, t): (NodeId, NodeId)) -> f64 {
    let unit = Demand::st(g, s, t, 1.0);
    let unit_congestion = r.congestion_lower_bound(&unit);
    (1.0 / unit_congestion).min(g.weighted_degree(s).min(g.weighted_degree(t)))
}

/// Query-layer numbers for one s–t pair: the approximator kernels at the
/// session's lane width, the soft-max at the descent's working scale, one
/// `almost_route_with` replay of the query's first phase (capped at
/// `replay_cap` iterations when given), tree repair and the safety net.
pub fn query_layers(
    g: &Graph,
    session: &PreparedMaxFlow,
    (s, t): (NodeId, NodeId),
    cfg: &MaxFlowConfig,
    lanes: usize,
    replay_cap: Option<usize>,
    report: &mut Report,
) {
    let r = session.approximator();
    let (n, rows) = (g.num_nodes(), r.num_rows());
    let unit = Demand::st(g, s, t, 1.0);
    let mut op = OperatorScratch::for_nodes(n);

    // Replay the first phase of the query as the solver runs it.
    let epsilon = cfg.epsilon.min(0.5);
    let target = cut_bound(g, r, (s, t));
    let demand = Demand::st(g, s, t, target);
    let ar_config = AlmostRouteConfig {
        epsilon,
        alpha: cfg.alpha,
        max_iterations: replay_cap.unwrap_or(cfg.max_iterations_per_phase),
        adaptive_steps: cfg.warm_start,
        parallelism: cfg.parallelism,
    };
    let mut scratch = AlmostRouteScratch::for_instance(g, r);
    let (replay, replay_s) = timed(|| almost_route_with(g, r, &demand, &ar_config, &mut scratch));
    let evaluations = (replay.iterations + replay.scaling_steps).max(1);
    let eval_us = replay_s * 1e6 / evaluations as f64;

    let mut y = vec![0.0; rows];
    let apply_us = time_us(|| r.apply_into(&unit, &mut y, &mut op));
    // The soft-max costs what its inputs make it cost: entries far below
    // the peak underflow through subnormals, which is slow. It is timed on
    // the row vector the replay ended on, `2α · scale · R(b − Bf)` in the
    // descent's working scale (the scale that brought the potential to
    // 16·ln(n)/ε, grown by 17/16 per scaling step), and, for reference, on
    // the start-of-descent vector: the unit demand's rows rescaled to peak
    // at 16·ln(n)/ε.
    let n_ln = (n.max(2) as f64).ln();
    let peak = 16.0 * n_ln / epsilon.clamp(1e-3, 1.0);
    let alpha = cfg
        .alpha
        .unwrap_or_else(|| r.provable_alpha().clamp(1.0, 6.0))
        .max(1.0);
    let scale = peak / (2.0 * alpha * r.congestion_lower_bound(&demand))
        * (17.0f64 / 16.0).powi(replay.scaling_steps as i32);
    let mut y_work = vec![0.0; rows];
    r.apply_into(&demand.residual(g, &replay.flow), &mut y_work, &mut op)
        .expect("demand matches the graph");
    for v in &mut y_work {
        *v *= 2.0 * alpha * scale;
    }
    let mut weights = vec![0.0; rows];
    let smax_us = time_us(|| smax_and_weights_into(&y_work, &mut weights));
    let largest = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for v in &mut y {
        *v *= peak / largest;
    }
    let smax_start_us = time_us(|| smax_and_weights_into(&y, &mut weights));
    let mut potentials = vec![0.0; n];
    let transpose_us = time_us(|| r.apply_transpose_into(&y_work, &mut potentials, &mut op));

    // Blocked kernels: `lanes` copies of the demand, node-major with the
    // lanes contiguous per node.
    let b_block: Vec<f64> = unit
        .values()
        .iter()
        .flat_map(|&x| std::iter::repeat_n(x, lanes))
        .collect();
    let mut y_block = vec![0.0; rows * lanes];
    let apply_block_us = time_us(|| r.apply_block_into(&b_block, lanes, &mut y_block, &mut op));
    let mut p_block = vec![0.0; n * lanes];
    let transpose_block_us =
        time_us(|| r.apply_transpose_block_into(&y_block, lanes, &mut p_block, &mut op));

    let kernels_us = apply_us + transpose_us + smax_us;
    if kernels_us > eval_us {
        eprintln!(
            "certbench: warning: kernel sum {kernels_us:.1} us exceeds one evaluation \
             ({eval_us:.1} us); the layer attribution is off"
        );
    }

    let repair_us = time_us(|| session.repair_tree().route_demand_on_graph(g, &unit));
    let safety_net_us = time_us(|| {
        let best = r
            .trees()
            .iter()
            .map(|tree| (tree, tree.st_tree_routing_congestion(g, s, t, 1.0)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("ensembles are non-empty");
        best.0.tree.route_demand_on_graph(g, &unit)
    });

    report.set("capprox.apply_us", apply_us);
    report.set("capprox.apply_transpose_us", transpose_us);
    report.set("capprox.apply_block_us", apply_block_us);
    report.set("capprox.apply_transpose_block_us", transpose_block_us);
    report.set("capprox.rows", rows as f64);
    report.set("capprox.trees", r.trees().len() as f64);
    report.set("almost_route.smax_us", smax_us);
    report.set("almost_route.smax_start_us", smax_start_us);
    report.set("almost_route.eval_us", eval_us);
    report.set(
        "almost_route.unattributed_share",
        1.0 - kernels_us / eval_us,
    );
    report.set("almost_route.scaling_steps", replay.scaling_steps as f64);
    report.set(
        "almost_route.cap_hit_share",
        f64::from(u8::from(replay.hit_iteration_cap)),
    );
    report.set("solver.repair_us", repair_us);
    report.set("solver.safety_net_us", safety_net_us);
}

/// Prepare-layer numbers: each function `prepare` calls at the top level,
/// timed once on the workload's graph with the parameters `prepare` passes.
/// A direct build runs the Räcke ensemble on the graph; the hierarchy runs
/// a one-tree guide ensemble, a j-tree and (on levels with more than `4n`
/// edges) a sparsifier per level, then lifts a bottom ensemble.
pub fn prepare_layers(g: &Graph, cfg: &MaxFlowConfig, report: &mut Report) {
    let lengths: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
    let racke = &cfg.racke;
    let guide_seed = match &cfg.hierarchy {
        // Chain 0, level 0 of `build_hierarchical_ensemble`.
        Some(h) => h
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(h.seed),
        None => racke.seed,
    };
    let ls_config = LowStretchConfig {
        z: Some(racke.lowstretch_z),
        radius_factor: 0.25,
        seed: guide_seed,
    };
    let (_, tree_s) = timed(|| low_stretch_spanning_tree(g, &lengths, &ls_config));
    let (_, repair_tree_s) = timed(|| max_weight_spanning_tree(g, NodeId(0)));
    report.set("lowstretch.tree_s", tree_s);
    report.set("session.repair_tree_s", repair_tree_s);
    report.set(
        "flowgraph.bytes_per_edge",
        g.memory_bytes().bytes_per_edge(g.num_edges()),
    );

    let Some(h) = &cfg.hierarchy else {
        let (_, ensemble_s) = timed(|| build_tree_ensemble(g, racke));
        report.set("capprox.ensemble_s", ensemble_s);
        return;
    };
    let guide_config = RackeConfig {
        num_trees: Some(1),
        seed: guide_seed,
        target_quality: None,
        ..racke.clone()
    };
    let (guide, ensemble_s) = timed(|| build_tree_ensemble(g, &guide_config));
    let guide = guide.expect("benchmark graph is connected");
    let j = ((g.num_nodes() as f64 / h.beta).ceil() as usize).max(1);
    let (_, jtree_s) = timed(|| build_jtree_top_loaded(g, &guide.trees[0], j));
    drop(guide);
    // Timed standalone on the input graph; `sparsified_levels` says how many
    // levels the hierarchy actually sparsified.
    let sparsify_config = SparsifyConfig {
        epsilon: h.sparsify_epsilon,
        oversampling: 2.0,
        seed: guide_seed,
    };
    let (_, sparsify_s) = timed(|| sparsify(g, &sparsify_config));
    let (built, hierarchy_s) = timed(|| build_hierarchical_ensemble(g, h, racke));
    let (_, stats) = built.expect("benchmark graph is connected");
    let sparsified = stats
        .chains
        .iter()
        .flat_map(|c| &c.levels)
        .filter(|level| level.sparsify_epsilon > 0.0)
        .count();
    report.set("capprox.ensemble_s", ensemble_s);
    report.set("capprox.jtree_s", jtree_s);
    report.set("capprox.sparsify_s", sparsify_s);
    report.set("capprox.sparsified_levels", sparsified as f64);
    report.set("capprox.hierarchy_s", hierarchy_s);
    report.set("capprox.hierarchy_levels", stats.num_levels() as f64);
}
