//! The in-process query workloads: `fattree_single` answers one s–t pair
//! at a time through `PreparedMaxFlow::max_flow`, `grid_batch` answers
//! blocks of pairs through the blocked engine (`max_flow_batch`).

use std::time::Instant;

use flowgraph::{Graph, NodeId};
use maxflow::{MaxFlowConfig, MaxFlowResult, PreparedMaxFlow};
use testkit::families::streaming;

use crate::{check_st_answer, exact_max_flow, layers, mean, percentile, timed, Args, Report, Rng};

/// Sessions prepared per run; the median is `setup_s`.
const SETUP_REPS: usize = 61;

/// Terminal pairs of the 16×16 grid (node `16·row + col`) that, with the
/// default config, each run one `AlmostRoute` phase to its 5,000-iteration
/// cap and certify. Random grid pairs take anywhere from 1 to 10 capped
/// phases, so a seeded draw from arbitrary pairs would make a run's
/// throughput depend on the draw far more than on the code; drawing from
/// pairs of equal work keeps runs comparable.
const GRID_POOL: &[(u32, u32)] = &[
    (80, 95),
    (160, 175),
    (176, 191),
    (192, 207),
    (208, 223),
    (224, 239),
    (123, 139),
    (98, 99),
    (88, 104),
    (140, 156),
    (84, 100),
    (182, 198),
    (51, 52),
    (121, 137),
    (140, 157),
    (199, 216),
    (211, 228),
    (81, 98),
    (196, 213),
    (210, 227),
];

/// Pairs answered together by one `max_flow_batch` call: one block of the
/// blocked engine at this graph size.
const GRID_BATCH: usize = 4;

/// Prepares `SETUP_REPS` sessions and keeps the last; returns it with the
/// median prepare time in seconds.
fn prepare<'g>(g: &'g Graph, cfg: &MaxFlowConfig) -> (PreparedMaxFlow<'g>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let (s, dt) = timed(|| PreparedMaxFlow::prepare(g, cfg).expect("benchmark graph is valid"));
        times.push(dt);
        session = Some(s);
    }
    (
        session.expect("at least one prepare"),
        percentile(&times, 0.5),
    )
}

/// One answered query, kept for the per-layer numbers.
struct Answer {
    pair: (NodeId, NodeId),
    result: MaxFlowResult,
}

/// Everything a query workload measured.
struct QueryRun {
    latencies: Vec<f64>,
    /// Wall time spent inside query calls.
    busy_s: f64,
    certified: u64,
    answers: Vec<Answer>,
}

impl QueryRun {
    fn new() -> Self {
        QueryRun {
            latencies: Vec::new(),
            busy_s: 0.0,
            certified: 0,
            answers: Vec::new(),
        }
    }

    /// Validates one answer (outside the timed region) and counts it.
    fn absorb(
        &mut self,
        report: &mut Report,
        g: &Graph,
        pair: (NodeId, NodeId),
        exact: f64,
        epsilon: f64,
        answer: Result<MaxFlowResult, flowgraph::GraphError>,
    ) {
        let outcome = match &answer {
            Ok(r) => check_st_answer(g, pair, &r.flow, r.value, r.upper_bound, exact, epsilon),
            Err(e) => Err(format!("{}-{}: {e}", pair.0.index(), pair.1.index())),
        };
        if report.record(outcome) {
            self.certified += 1;
        }
        if let Ok(result) = answer {
            self.answers.push(Answer { pair, result });
        }
    }
}

/// 1,000-node fat-tree, one caller, one pair at a time.
pub fn fattree_single(args: &Args) -> Report {
    let g = streaming::fat_tree(16, 8, 61, 10.0, 40.0).expect("1k fat-tree fits u32 ids");
    let hosts = 16 * 61;
    let cfg = MaxFlowConfig::default();
    let mut rng = Rng::new(args.seed);
    // More pairs than a run can answer (a query takes about five seconds),
    // each with its exact value, all before timing starts.
    let pairs: Vec<((NodeId, NodeId), f64)> = (0..(args.seconds / 2.0).ceil() as usize + 4)
        .map(|_| {
            let pair = rng.distinct_pair(hosts);
            (pair, exact_max_flow(&g, pair))
        })
        .collect();
    let (mut session, setup_s) = prepare(&g, &cfg);

    let mut report = Report::default();
    let mut run = QueryRun::new();
    let started = Instant::now();
    for &(pair, exact) in pairs.iter().cycle() {
        if started.elapsed() >= args.budget() {
            break;
        }
        let (answer, dt) = timed(|| session.max_flow(pair.0, pair.1));
        run.latencies.push(dt);
        run.busy_s += dt;
        run.absorb(&mut report, &g, pair, exact, cfg.epsilon, answer);
    }
    finish(args, &g, &cfg, &session, run, setup_s, 4, report)
}

/// 16×16 unit grid, blocks of pairs through the blocked engine.
pub fn grid_batch(args: &Args) -> Report {
    let g = streaming::grid(16, 16, 1.0).expect("16x16 grid fits u32 ids");
    let cfg = MaxFlowConfig::default();
    let mut rng = Rng::new(args.seed);
    let exact: Vec<f64> = GRID_POOL
        .iter()
        .map(|&(a, b)| exact_max_flow(&g, (NodeId(a), NodeId(b))))
        .collect();
    // Seeded batches drawn from the pool, each pair in a seeded
    // orientation; a run answers about one batch every five seconds.
    let batches: Vec<Vec<((NodeId, NodeId), f64)>> = (0..(args.seconds / 2.0).ceil() as usize + 4)
        .map(|_| {
            (0..GRID_BATCH)
                .map(|_| {
                    let i = rng.below(GRID_POOL.len() as u64) as usize;
                    let (a, b) = GRID_POOL[i];
                    let pair = if rng.below(2) == 0 { (a, b) } else { (b, a) };
                    ((NodeId(pair.0), NodeId(pair.1)), exact[i])
                })
                .collect()
        })
        .collect();
    let (mut session, setup_s) = prepare(&g, &cfg);

    let mut report = Report::default();
    let mut run = QueryRun::new();
    let started = Instant::now();
    for batch in batches.iter().cycle() {
        if started.elapsed() >= args.budget() {
            break;
        }
        let pairs: Vec<(NodeId, NodeId)> = batch.iter().map(|&(p, _)| p).collect();
        let (answers, dt) = timed(|| session.max_flow_batch(&pairs));
        run.busy_s += dt;
        match answers {
            Ok(results) => {
                for (&(pair, exact), result) in batch.iter().zip(results) {
                    // Every pair of a batch waits for the whole batch.
                    run.latencies.push(dt);
                    run.absorb(&mut report, &g, pair, exact, cfg.epsilon, Ok(result));
                }
            }
            Err(e) => {
                for &(pair, exact) in batch {
                    run.absorb(&mut report, &g, pair, exact, cfg.epsilon, Err(e.clone()));
                }
            }
        }
    }
    finish(args, &g, &cfg, &session, run, setup_s, GRID_BATCH, report)
}

/// Sets the end-to-end metrics, or the per-layer ones on a traced run.
#[allow(clippy::too_many_arguments)]
fn finish(
    args: &Args,
    g: &Graph,
    cfg: &MaxFlowConfig,
    session: &PreparedMaxFlow,
    run: QueryRun,
    setup_s: f64,
    lanes: usize,
    mut report: Report,
) -> Report {
    report.set_end_to_end(&run.latencies, run.certified, run.busy_s, setup_s);
    if !args.trace {
        return report;
    }
    report.set("session.query_ms", percentile(&run.latencies, 0.5) * 1e3);
    report.set("session.prepare_s", setup_s);
    let answers = &run.answers;
    let per_answer = |f: &dyn Fn(&Answer) -> f64| answers.iter().map(f).collect::<Vec<_>>();
    report.set(
        "almost_route.iterations",
        mean(&per_answer(&|a| a.result.iterations as f64)),
    );
    report.set(
        "solver.phases",
        mean(&per_answer(&|a| a.result.phases as f64)),
    );
    report.set(
        "solver.certified_ratio_p50",
        percentile(&per_answer(&|a| a.result.certified_ratio()), 0.5),
    );
    let tree_certified = per_answer(&|a| {
        let tree_value = layers::best_tree_value(g, session.approximator(), a.pair);
        f64::from(u8::from(
            tree_value * (1.0 + cfg.epsilon) >= a.result.upper_bound,
        ))
    });
    report.set("solver.tree_certified_share", mean(&tree_certified));
    let pair = answers.first().map_or((NodeId(0), NodeId(1)), |a| a.pair);
    layers::query_layers(g, session, pair, cfg, lanes, None, &mut report);
    layers::prepare_layers(g, cfg, &mut report);
    report
}
