//! Differential suite for the blocked multi-demand gradient engine behind
//! `max_flow_batch` / `par_max_flow_batch` / `route_many`.
//!
//! The engine advances up to 8 demands in lockstep through shared operator
//! walks, so the whole batched serving path rests on one invariant: **lane
//! grouping must never change a single bit of any answer**. Pinned here
//! across seeded families:
//!
//! 1. **Batches are the query loop**: batches of every size — through the
//!    sequential and the parallel entry point, with the direct and the
//!    hierarchical approximator, under either step rule
//!    (`MaxFlowConfig::warm_start`) — answer byte-identically to calling
//!    `max_flow` once per pair, repeated and reversed pairs included.
//! 2. **`route_many` is `route` per lane**, and batched answers hold the
//!    `(1 ± ε)` oracle band at the oracle suite's verified budget.

use capprox::{HierarchyConfig, RackeConfig};
use flowgraph::{Demand, Graph, NodeId};
use maxflow::{MaxFlowConfig, MaxFlowResult, Parallelism, PreparedMaxFlow};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use testkit::{families, OracleConfig};

fn config(seed: u64) -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(0.3)
        .with_racke(RackeConfig::default().with_num_trees(4).with_seed(seed))
        .with_phases(Some(2))
        .with_max_iterations_per_phase(600)
}

fn hier_config(seed: u64) -> HierarchyConfig {
    HierarchyConfig::default()
        .with_direct_threshold(16)
        .with_chains(2)
        .with_trees_per_chain(Some(2))
        .with_seed(seed)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic query mix with repeats and reversals (where an answer that
/// leaked session or batch history would show), seeded so failures
/// reproduce.
fn query_pairs(g: &Graph, k: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as u64;
    let mut state = seed | 1;
    let mut step = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(k);
    for i in 0..k {
        if i >= 2 && i % 3 == 2 {
            // Revisit an earlier pair, half the time reversed.
            let (s, t) = pairs[(step() as usize) % i];
            pairs.push(if step() % 2 == 0 { (s, t) } else { (t, s) });
        } else {
            let s = step() % n;
            let mut t = step() % n;
            if t == s {
                t = (t + 1) % n;
            }
            pairs.push((NodeId(s as u32), NodeId(t as u32)));
        }
    }
    pairs
}

fn assert_batches_bit_identical(
    a: &[MaxFlowResult],
    b: &[MaxFlowResult],
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: length mismatch", context);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(
            x.value.to_bits(),
            y.value.to_bits(),
            "{}: value differs at query {}",
            context,
            i
        );
        prop_assert_eq!(
            x.upper_bound.to_bits(),
            y.upper_bound.to_bits(),
            "{}: upper bound differs at query {}",
            context,
            i
        );
        prop_assert_eq!(
            x.iterations,
            y.iterations,
            "{}: iterations differ at query {}",
            context,
            i
        );
        prop_assert_eq!(
            bits(x.flow.values()),
            bits(y.flow.values()),
            "{}: flow differs at query {}",
            context,
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property 1 at every batch size that exercises a distinct lane shape
    /// (a partial block (1, 2, 7) and many full blocks (64)), under both
    /// step rules.
    #[test]
    fn cold_batches_match_the_query_loop_at_every_size(
        n in 16usize..28,
        seed in 0u64..10_000,
    ) {
        let inst = &families::oracle_families(n, seed)[1]; // grid
        let pairs = query_pairs(&inst.graph, 64, seed);
        for warm_start in [false, true] {
            let cfg = config(seed ^ 0x11).with_warm_start(warm_start);
            let par_cfg = cfg.clone().with_parallelism(Parallelism::with_threads(4));
            let mut loop_session =
                PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            let reference: Vec<MaxFlowResult> = pairs
                .iter()
                .map(|&(s, t)| loop_session.max_flow(s, t).expect("valid pair"))
                .collect();
            let mut seq_session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            let mut par_session =
                PreparedMaxFlow::prepare(&inst.graph, &par_cfg).expect("connected");
            for k in [1usize, 2, 7, 64] {
                let head = &pairs[..k];
                let context = format!("warm_start={warm_start} k={k}");
                let batch = seq_session.max_flow_batch(head).expect("valid pairs");
                assert_batches_bit_identical(&batch, &reference[..k], &format!("seq {context}"))?;
                let par = par_session.par_max_flow_batch(head).expect("valid pairs");
                assert_batches_bit_identical(&par, &reference[..k], &format!("par {context}"))?;
            }
        }
    }

    /// Property 1 with the hierarchical approximator: the blocked engine
    /// sees the hierarchy only through the operator interface, so the same
    /// identity must hold.
    #[test]
    fn cold_batches_match_under_the_hierarchy(
        n in 16usize..28,
        seed in 0u64..10_000,
    ) {
        let inst = &families::oracle_families(n, seed)[2]; // expander
        let cfg = config(seed ^ 0x29).with_hierarchy(Some(hier_config(seed ^ 0x29)));
        let pairs = query_pairs(&inst.graph, 7, seed);
        let mut loop_session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
        let reference: Vec<MaxFlowResult> = pairs
            .iter()
            .map(|&(s, t)| loop_session.max_flow(s, t).expect("valid pair"))
            .collect();
        let mut batch_session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
        let batch = batch_session.max_flow_batch(&pairs).expect("valid pairs");
        assert_batches_bit_identical(&batch, &reference, "hierarchy batch")?;
        let par_cfg = cfg.clone().with_parallelism(Parallelism::with_threads(4));
        let mut par_session = PreparedMaxFlow::prepare(&inst.graph, &par_cfg).expect("connected");
        let par = par_session.par_max_flow_batch(&pairs).expect("valid pairs");
        assert_batches_bit_identical(&par, &reference, "hierarchy par batch")?;
    }

    /// Property 2 (identity half): `route_many` answers each commodity
    /// byte-identically to routing it alone.
    #[test]
    fn route_many_matches_independent_route_calls(
        n in 16usize..28,
        seed in 0u64..10_000,
    ) {
        let inst = &families::oracle_families(n, seed)[3]; // gnp
        let cfg = config(seed ^ 0x53);
        let pairs = query_pairs(&inst.graph, 7, seed);
        let demands: Vec<Demand> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| Demand::st(&inst.graph, s, t, 1.0 + 0.5 * i as f64))
            .collect();
        let mut many_session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
        let many = many_session.route_many(&demands).expect("valid demands");
        let mut loop_session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
        for (l, (b, m)) in demands.iter().zip(&many).enumerate() {
            let single = loop_session.route(b).expect("valid demand");
            prop_assert_eq!(m.iterations, single.iterations, "commodity {}", l);
            prop_assert_eq!(m.phases, single.phases, "commodity {}", l);
            prop_assert_eq!(
                m.congestion.to_bits(), single.congestion.to_bits(),
                "commodity {}: congestion differs", l
            );
            prop_assert_eq!(
                bits(m.flow.values()), bits(single.flow.values()),
                "commodity {}: flow differs", l
            );
        }
    }
}

/// Property 2 (quality half): at the oracle suite's verified budget and
/// seeds, the blocked batch path holds the same `(1 ± ε)` oracle band as the
/// single-query path — deterministic, can never flake.
#[test]
fn batched_answers_hold_the_oracle_band_at_the_full_budget() {
    let oracle = OracleConfig::default();
    let cfg = oracle.solver_config();
    let tol = oracle.tol;
    for inst in families::oracle_families(25, 7) {
        let exact = baselines::dinic::max_flow(&inst.graph, inst.s, inst.t)
            .expect("families are connected");
        let floor = oracle.quality_floor() * exact.value;
        let mut session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
        // A repeated and a reversed query share blocks with the cold one.
        let pairs = [(inst.s, inst.t), (inst.t, inst.s), (inst.s, inst.t)];
        let batch = session.max_flow_batch(&pairs).expect("valid pairs");
        for (i, (r, &(s, t))) in batch.iter().zip(&pairs).enumerate() {
            r.flow
                .validate_st_flow(&inst.graph, s, t, tol)
                .unwrap_or_else(|e| {
                    panic!(
                        "family {} query {i}: infeasible batched flow: {e}",
                        inst.name
                    )
                });
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
