//! `certbench` — the certified-answer benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path certbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload answers seeded queries (or, for `prepare_100k`, prepares a
//! session) for `--seconds` seconds of measured time and validates every
//! answer against an exact Dinic value computed before timing starts. Only
//! validated answers that certify themselves (`value · (1+ε) ≥ upper_bound`
//! at the configured ε) count as served. With `--trace 0` the last stdout
//! line carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics, timed from outside around calls into each layer's
//! public functions. The line before it records the host, the commit and
//! the seed. See `README.md` next to this file for the workloads.

mod flowd;
mod layers;
mod prepare;
mod query;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use flowgraph::{FlowVec, Graph, NodeId};
use service::json::Value;

/// A seed kept out of every run made while the benchmark and the changes it
/// measures are written; later claims are confirmed on it.
const HELD_OUT_SEED: u64 = 9001;

const WORKLOADS: &[&str] = &[
    "fattree_single",
    "grid_batch",
    "flowd_mixed",
    "prepare_100k",
];

/// End-to-end metrics: every workload reports all of them from an untraced
/// run.
const END_TO_END: &[(&str, &str)] = &[
    ("certified_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("capprox.apply_us", "us"),
    ("capprox.apply_transpose_us", "us"),
    ("capprox.apply_block_us", "us"),
    ("capprox.apply_transpose_block_us", "us"),
    ("capprox.rows", "count"),
    ("almost_route.smax_us", "us"),
    ("almost_route.smax_start_us", "us"),
    ("almost_route.eval_us", "us"),
    ("almost_route.unattributed_share", "share"),
    ("almost_route.iterations", "count"),
    ("almost_route.scaling_steps", "count"),
    ("almost_route.cap_hit_share", "share"),
    ("solver.tree_certified_share", "share"),
    ("solver.phases", "count"),
    ("solver.repair_us", "us"),
    ("solver.safety_net_us", "us"),
    ("solver.certified_ratio_p50", "ratio"),
    ("session.query_ms", "ms"),
    ("session.prepare_s", "s"),
    ("capprox.sparsify_s", "s"),
    ("capprox.sparsified_levels", "count"),
    ("lowstretch.tree_s", "s"),
    ("capprox.jtree_s", "s"),
    ("capprox.hierarchy_s", "s"),
    ("capprox.ensemble_s", "s"),
    ("session.repair_tree_s", "s"),
    ("capprox.hierarchy_levels", "count"),
    ("capprox.trees", "count"),
    ("flowgraph.bytes_per_edge", "bytes"),
    ("service.rtt_us.max_flow", "us"),
    ("service.rtt_us.route", "us"),
    ("service.engine_us.max_flow", "us"),
    ("service.engine_us.route", "us"),
    ("service.overhead_us.max_flow", "us"),
    ("service.overhead_us.route", "us"),
    ("service.json_parse_us", "us"),
    ("service.json_write_us", "us"),
    ("service.protocol_parse_us", "us"),
    ("service.frame_us", "us"),
    ("service.request_bytes", "bytes"),
    ("service.reply_bytes", "bytes"),
    ("service.coalesced_batches", "count"),
    ("service.max_batch", "count"),
    ("service.incremental_share", "share"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (answers asked for, or sessions prepared).
    pub attempted: u64,
    /// Attempts that errored, did not certify, or failed validation.
    pub failed: u64,
    /// Descriptions of answers that failed validation (not merely
    /// uncertified); any entry makes the run incorrect.
    pub invalid: Vec<String>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one answer that passed or failed [`check_st_answer`].
    pub fn record(&mut self, outcome: Result<bool, String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(true) => true,
            Ok(false) => {
                self.failed += 1;
                false
            }
            Err(reason) => {
                self.failed += 1;
                self.invalid.push(reason);
                false
            }
        }
    }

    /// Sets the end-to-end metrics from per-operation latencies (seconds),
    /// the number of certified answers among them and the wall time they
    /// took together.
    pub fn set_end_to_end(&mut self, latencies: &[f64], certified: u64, busy_s: f64, setup_s: f64) {
        self.samples = latencies.len();
        self.set("certified_per_s", certified as f64 / busy_s);
        self.set("latency_p50_ms", percentile(latencies, 0.5) * 1e3);
        self.set("latency_p90_ms", percentile(latencies, 0.9) * 1e3);
        self.set("setup_s", setup_s);
        self.set("peak_rss_mb", peak_rss_mb());
    }
}

/// splitmix64: small, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Two distinct node ids below `n`.
    pub fn distinct_pair(&mut self, n: u32) -> (NodeId, NodeId) {
        let s = self.below(u64::from(n)) as u32;
        let t = (s + 1 + self.below(u64::from(n) - 1) as u32) % n;
        (NodeId(s), NodeId(t))
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median wall time of one call to `f`, in microseconds: at least five
/// timed calls after one warm-up, and more until 0.2 s have been spent.
pub fn time_us<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < Duration::from_millis(200) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    percentile(&samples, 0.5)
}

/// Wall time of one call to `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Validates an s–t max-flow answer. `Err` names why the answer is invalid:
/// the flow breaks a capacity or conservation, its value differs from the
/// reported one, or `[value, upper_bound]` does not bracket the exact
/// maximum flow. `Ok(certified)` tells whether `value · (1+ε)` reaches
/// `upper_bound`.
pub fn check_st_answer(
    g: &Graph,
    (s, t): (NodeId, NodeId),
    flow: &FlowVec,
    value: f64,
    upper_bound: f64,
    exact: f64,
    epsilon: f64,
) -> Result<bool, String> {
    const TOL: f64 = 1e-6;
    let pair = format!("{}-{}", s.index(), t.index());
    let shipped = flow
        .validate_st_flow(g, s, t, TOL)
        .map_err(|e| format!("{pair}: infeasible flow ({e})"))?;
    if (shipped - value).abs() > TOL * (1.0 + value.abs()) {
        return Err(format!("{pair}: flow ships {shipped}, reply says {value}"));
    }
    check_bracket(&pair, value, upper_bound, exact)?;
    Ok(value * (1.0 + epsilon) >= upper_bound)
}

/// `value ≤ exact ≤ upper_bound`, up to rounding.
pub fn check_bracket(pair: &str, value: f64, upper_bound: f64, exact: f64) -> Result<(), String> {
    let slack = 1e-6 * (1.0 + exact.abs());
    if value > exact + slack || upper_bound < exact - slack {
        return Err(format!(
            "{pair}: [{value}, {upper_bound}] does not bracket the exact {exact}"
        ));
    }
    Ok(())
}

/// Exact maximum flow by Dinic's algorithm.
pub fn exact_max_flow(g: &Graph, (s, t): (NodeId, NodeId)) -> f64 {
    baselines::dinic::max_flow(g, s, t)
        .expect("benchmark terminals are valid nodes of a connected graph")
        .value
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured when run from the root of a git checkout,
/// else "unknown". Git may not look above the working directory, so the
/// benchmark reads nothing outside its checkout.
fn commit() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("certbench: {e}");
            eprintln!(
                "usage: certbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "fattree_single" => query::fattree_single(&args),
        "grid_batch" => query::grid_batch(&args),
        "flowd_mixed" => flowd::flowd_mixed(&args),
        _ => prepare::prepare_100k(&args),
    };

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut report = report;
    let metrics: Vec<(&str, Value)> = wanted
        .iter()
        .map(|&(name, unit)| {
            let mut value = report.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                report.invalid.push(format!("metric {name} is {value}"));
                value = 0.0;
            }
            eprintln!("certbench: {name:<34} {value:>16.6} {unit}");
            let entry = Value::obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ]);
            (name, entry)
        })
        .collect();
    if report.attempted == 0 {
        report.invalid.push("no operation completed".into());
    }
    for reason in &report.invalid {
        eprintln!("certbench: INVALID {reason}");
    }
    let correct = report.invalid.is_empty();
    let record = Value::obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::index(args.seed)),
        ("held_out_seed", Value::index(HELD_OUT_SEED)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Num(args.seconds)),
        (
            "host_cpus",
            Value::index(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model", Value::Str(cpu_model())),
        ("commit", Value::Str(commit())),
        (
            "failed_share",
            Value::Num(report.failed as f64 / report.attempted.max(1) as f64),
        ),
        ("latency_samples", Value::index(report.samples as u64)),
    ]);
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::index(report.attempted)),
        ("failed", Value::index(report.failed)),
        ("metrics", Value::obj(metrics)),
    ]);
    for line in [record, result] {
        println!("{}", line.to_json().expect("every number is finite"));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
