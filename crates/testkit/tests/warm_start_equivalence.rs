//! Differential suite for warm-started duals (`MaxFlowConfig::warm_start`).
//!
//! Two properties are pinned across the seeded workload families:
//!
//! 1. **Off means off**: with the knob disabled (the default), sessions are
//!    history-free — repeated and interleaved queries answer byte-identically
//!    to a fresh PR-3-style session and to the one-shot wrapper, so enabling
//!    the feature elsewhere can never perturb existing callers.
//! 2. **On stays certified**: with the knob enabled, every answer — cold,
//!    warm-repeat, and reversed-pair — remains a feasible `s`–`t` flow inside
//!    the `(1 ± ε)`-style oracle band against the exact Dinic optimum, and
//!    the certified upper bound still bounds the optimum. Warm starts may
//!    change the descent trajectory, never the contract.

use capprox::RackeConfig;
use maxflow::{approx_max_flow, MaxFlowConfig, Parallelism, PreparedMaxFlow};
use proptest::prelude::*;
use testkit::{families, OracleConfig};

fn config(seed: u64, eps: f64) -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(eps)
        .with_racke(RackeConfig::default().with_num_trees(4).with_seed(seed))
        .with_phases(Some(2))
        .with_max_iterations_per_phase(1_000)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn disabled_warm_start_is_byte_identical_and_history_free(
        n in 12usize..30,
        seed in 0u64..10_000,
    ) {
        for inst in families::oracle_families(n, seed) {
            let cfg = config(seed ^ 0x5a, 0.3);
            let explicit_off = cfg.clone().with_warm_start(false);
            // Repeats are exactly where a leaked warm cache would show up.
            let pairs = [
                (inst.s, inst.t),
                (inst.s, inst.t),
                (inst.t, inst.s),
                (inst.s, inst.t),
            ];
            let mut default_session =
                PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            let mut off_session =
                PreparedMaxFlow::prepare(&inst.graph, &explicit_off).expect("connected");
            let default_batch = default_session.max_flow_batch(&pairs).expect("valid pairs");
            let off_batch = off_session.max_flow_batch(&pairs).expect("valid pairs");
            let one_shot = approx_max_flow(&inst.graph, inst.s, inst.t, &cfg)
                .expect("families are connected");
            for (d, o) in default_batch.iter().zip(&off_batch) {
                prop_assert_eq!(d.value.to_bits(), o.value.to_bits(), "family {}", inst.name);
                prop_assert_eq!(
                    bits(d.flow.values()), bits(o.flow.values()),
                    "family {} flow differs", inst.name
                );
            }
            // History-free: the repeat of (s, t) equals the first answer bit
            // for bit, and both equal the stateless one-shot wrapper.
            prop_assert_eq!(
                bits(default_batch[0].flow.values()), bits(default_batch[1].flow.values()),
                "family {}: a repeated query diverged without warm starts", inst.name
            );
            prop_assert_eq!(
                one_shot.value.to_bits(), default_batch[0].value.to_bits(),
                "family {}", inst.name
            );
            prop_assert_eq!(
                bits(one_shot.flow.values()), bits(default_batch[0].flow.values()),
                "family {} flow differs from the one-shot wrapper", inst.name
            );
        }
    }

    #[test]
    fn warm_started_queries_stay_certified(
        n in 12usize..30,
        seed in 0u64..10_000,
    ) {
        // At the tiny proptest budgets the absolute (1 - ε) floor is out of
        // reach on some random instances with or without warm starts (the
        // asymptotic guarantee assumes O(ε⁻³) iterations), so this test
        // pins the budget-independent contract: every warm answer is a
        // feasible flow bracketed by the optimum and the certificate, and
        // warm re-use never degrades the answer materially below the
        // knob-off answer at the same budget. The absolute oracle band is
        // pinned by `warm_start_holds_the_oracle_band_at_the_full_budget`
        // below at the oracle suite's verified budget.
        let eps = 0.25;
        let tol = 1e-6;
        for inst in families::oracle_families(n, seed) {
            let cfg = config(seed ^ 0xc3, eps).with_warm_start(true);
            let exact = baselines::dinic::max_flow(&inst.graph, inst.s, inst.t)
                .expect("families are connected");
            let off = approx_max_flow(&inst.graph, inst.s, inst.t, &cfg.clone().with_warm_start(false))
                .expect("families are connected");
            let mut session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            // Cold, warm-repeat (cache hit, scaled re-use), warm-repeat
            // again, and the reversed pair (negated re-use).
            let pairs = [
                (inst.s, inst.t),
                (inst.s, inst.t),
                (inst.s, inst.t),
                (inst.t, inst.s),
            ];
            for (i, &(s, t)) in pairs.iter().enumerate() {
                let r = session.max_flow(s, t).expect("valid terminals");
                let validated = r
                    .flow
                    .validate_st_flow(&inst.graph, s, t, tol)
                    .unwrap_or_else(|e| {
                        panic!("family {} query {i}: infeasible warm flow: {e}", inst.name)
                    });
                prop_assert!(
                    (validated - r.value).abs() <= tol * (1.0 + r.value.abs()),
                    "family {} query {i}: reported {} vs validated {}",
                    inst.name, r.value, validated
                );
                prop_assert!(
                    r.value <= exact.value + tol,
                    "family {} query {i}: value {} exceeds the optimum {}",
                    inst.name, r.value, exact.value
                );
                prop_assert!(
                    exact.value <= r.upper_bound + tol,
                    "family {} query {i}: certificate {} fails to bound the optimum {}",
                    inst.name, r.upper_bound, exact.value
                );
                // Forward queries (cold or warm) must not land materially
                // below the knob-off answer for the same budget.
                if s == inst.s {
                    prop_assert!(
                        r.value >= 0.9 * off.value - tol,
                        "family {} query {i}: warm value {} degraded below 0.9x the \
                         knob-off value {}",
                        inst.name, r.value, off.value
                    );
                }
            }
            // The parallel batch entry point runs warm batches through the
            // same wave schedule as the sequential one (waves are barriers,
            // so every warm flow is ready regardless of worker scheduling)
            // and must agree bit for bit — fresh sessions on both sides so
            // only the entry point differs.
            let par_cfg = cfg.clone().with_parallelism(Parallelism::with_threads(4));
            let mut par_session =
                PreparedMaxFlow::prepare(&inst.graph, &par_cfg).expect("connected");
            let par = par_session.par_max_flow_batch(&pairs).expect("valid pairs");
            let mut seq_session =
                PreparedMaxFlow::prepare(&inst.graph, &par_cfg).expect("connected");
            let seq = seq_session.max_flow_batch(&pairs).expect("valid pairs");
            for (p, q) in par.iter().zip(&seq) {
                prop_assert_eq!(
                    bits(p.flow.values()), bits(q.flow.values()),
                    "family {}: warm parallel batch diverged from sequential", inst.name
                );
            }
        }
    }
}

/// The full `(1 ± ε)`-style oracle band under warm starts, at the oracle
/// suite's verified budget and seeds (deterministic — can never flake):
/// cold, warm-repeat and reversed-pair answers all land between the quality
/// floor and the exact optimum, with a valid certificate.
#[test]
fn warm_start_holds_the_oracle_band_at_the_full_budget() {
    let oracle = OracleConfig::default();
    let cfg = oracle.solver_config().with_warm_start(true);
    let tol = oracle.tol;
    for inst in families::oracle_families(25, 7) {
        let exact = baselines::dinic::max_flow(&inst.graph, inst.s, inst.t)
            .expect("families are connected");
        let floor = oracle.quality_floor() * exact.value;
        let mut session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
        let pairs = [(inst.s, inst.t), (inst.s, inst.t), (inst.t, inst.s)];
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let r = session.max_flow(s, t).expect("valid terminals");
            r.flow
                .validate_st_flow(&inst.graph, s, t, tol)
                .unwrap_or_else(|e| {
                    panic!("family {} query {i}: infeasible warm flow: {e}", inst.name)
                });
            // The graph is undirected, so the reversed optimum equals the
            // forward optimum and the same band applies to every query.
            assert!(
                r.value <= exact.value + tol,
                "family {} query {i}: value {} exceeds the optimum {}",
                inst.name,
                r.value,
                exact.value
            );
            assert!(
                r.value >= floor - tol,
                "family {} query {i}: value {} below the (1-ε-slack) floor {}",
                inst.name,
                r.value,
                floor
            );
            assert!(
                exact.value <= r.upper_bound + tol,
                "family {} query {i}: certificate {} fails to bound the optimum {}",
                inst.name,
                r.upper_bound,
                exact.value
            );
        }
    }
}
