//! `prepare_100k`: a 10⁵-node fat-tree prepared through the recursive
//! j-tree hierarchy, over and over. It answers no queries; each prepared
//! session is validated by the certificate its trees give for one seeded
//! host pair.

use std::time::Instant;

use capprox::{HierarchyConfig, RackeConfig};
use flowgraph::Graph;
use maxflow::{MaxFlowConfig, PreparedMaxFlow};
use testkit::families::streaming;

use crate::layers::{best_tree_value, cut_bound};
use crate::{check_bracket, exact_max_flow, layers, percentile, timed, Args, Report, Rng};

/// Leaves of the fat-tree, and hosts per leaf: 316 · 317 + 8 = 100,180
/// nodes.
const LEAVES: usize = 316;

/// Prepares per run at the least, whatever `--seconds` says.
const MIN_PREPARES: usize = 3;

/// The million-node serving config: two hierarchy chains of two lifted
/// trees each, recursing down to 4,096 nodes (two levels at 10⁵ nodes).
fn config() -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_racke(RackeConfig::default().with_seed(1))
        .with_hierarchy(Some(
            HierarchyConfig::default()
                .with_direct_threshold(4_096)
                .with_chains(2)
                .with_trees_per_chain(Some(2))
                .with_seed(1),
        ))
}

/// Checks a prepared session: its rows are trees × nodes, and for the pair
/// the best tree routing and the smallest row cut bracket the exact value.
/// `Ok(certified)` tells whether the trees alone certify the pair at ε.
fn check_session(
    g: &Graph,
    session: &PreparedMaxFlow,
    pair: (flowgraph::NodeId, flowgraph::NodeId),
    exact: f64,
    epsilon: f64,
) -> Result<bool, String> {
    let r = session.approximator();
    if r.num_rows() != r.trees().len() * g.num_nodes() {
        return Err(format!(
            "{} rows for {} trees over {} nodes",
            r.num_rows(),
            r.trees().len(),
            g.num_nodes()
        ));
    }
    let value = best_tree_value(g, r, pair);
    let upper = cut_bound(g, r, pair);
    check_bracket(
        &format!("{}-{}", pair.0.index(), pair.1.index()),
        value,
        upper,
        exact,
    )?;
    Ok(value * (1.0 + epsilon) >= upper)
}

pub fn prepare_100k(args: &Args) -> Report {
    let g = streaming::fat_tree(LEAVES, 8, LEAVES, 10.0, 40.0).expect("100k fat-tree fits u32 ids");
    let cfg = config();
    let mut rng = Rng::new(args.seed);
    let pair = rng.distinct_pair((LEAVES * LEAVES) as u32);
    let exact = exact_max_flow(&g, pair);
    // One untimed prepare first: the allocator raises its thresholds on the
    // first large frees, which makes the first prepare the slowest.
    drop(PreparedMaxFlow::prepare(&g, &cfg));

    let mut report = Report::default();
    let mut latencies = Vec::new();
    let mut certified = 0;
    let mut session = None;
    let started = Instant::now();
    while latencies.len() < MIN_PREPARES || started.elapsed() < args.budget() {
        // Free the previous session first: one live session at a time.
        drop(session.take());
        let (prepared, dt) = timed(|| PreparedMaxFlow::prepare(&g, &cfg));
        latencies.push(dt);
        let outcome = prepared
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|s| check_session(&g, s, pair, exact, cfg.epsilon));
        if report.record(outcome) {
            certified += 1;
        }
        session = prepared.ok();
    }
    let setup_s = percentile(&latencies, 0.5);
    report.set_end_to_end(&latencies, certified, latencies.iter().sum(), setup_s);
    if args.trace {
        report.set("session.prepare_s", setup_s);
        report.set(
            "solver.tree_certified_share",
            certified as f64 / latencies.len() as f64,
        );
        if let Some(session) = &session {
            // A short capped replay: the per-evaluation cost at 10⁵ nodes
            // without a full descent.
            layers::query_layers(&g, session, pair, &cfg, 4, Some(8), &mut report);
        }
        drop(session);
        layers::prepare_layers(&g, &cfg, &mut report);
    }
    report
}
