//! Differential suite for the deterministic parallel execution layer.
//!
//! The contract under test: **for any thread count, every parallel entry
//! point produces byte-identical results to `threads = 1`.** Two layers are
//! pinned across the seeded workload families at threads ∈ {1, 2, 4, 8}:
//!
//! 1. `capprox` — the fanned-out operator evaluations `R·b`
//!    (`apply_block_into_par`) and `Rᵀ·y` (`apply_transpose_block_into_par`),
//!    at one and at three lanes, match the sequential operators bit for bit
//!    (the `Rᵀ` reduction folds tree contributions in fixed tree order, so
//!    even the floating-point error is identical).
//! 2. `maxflow` — `PreparedMaxFlow::par_max_flow_batch` (query fan-out) and
//!    single queries under a parallel config (operator fan-out inside the
//!    gradient loop) match the sequential session bit for bit.

use capprox::{CongestionApproximator, OperatorScratch, RackeConfig};
use flowgraph::NodeId;
use maxflow::{MaxFlowConfig, Parallelism, PreparedMaxFlow};
use proptest::prelude::*;
use testkit::families;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn config(seed: u64) -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(0.3)
        .with_racke(RackeConfig::default().with_num_trees(4).with_seed(seed))
        .with_phases(Some(2))
        .with_max_iterations_per_phase(400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_operators_match_sequential_bits(
        n in 12usize..36,
        seed in 0u64..10_000,
    ) {
        for inst in families::oracle_families(n, seed) {
            let r = CongestionApproximator::build(
                &inst.graph,
                &RackeConfig::default().with_num_trees(5).with_seed(seed),
            )
            .expect("families are connected");
            let mut rng = flowgraph::gen::rng(seed ^ 0xabc);
            for k in [1usize, 3] {
                // `k` lane-major demands and price vectors.
                let b_block: Vec<f64> = (0..r.num_nodes() * k)
                    .map(|_| rand::Rng::gen_range(&mut rng, -2.0..2.0))
                    .collect();
                let y_block: Vec<f64> = (0..r.num_rows() * k)
                    .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                    .collect();
                let mut scratch = OperatorScratch::default();
                let mut seq_rows = vec![0.0; r.num_rows() * k];
                r.apply_block_into(&b_block, k, &mut seq_rows, &mut scratch)
                    .expect("dimensions match");
                let mut seq_pot = vec![0.0; r.num_nodes() * k];
                r.apply_transpose_block_into(&y_block, k, &mut seq_pot, &mut scratch)
                    .expect("dimensions match");
                for threads in THREAD_COUNTS {
                    let par = Parallelism::with_threads(threads);
                    let mut scratch = OperatorScratch::default();
                    let mut rows = vec![0.0; r.num_rows() * k];
                    r.apply_block_into_par(&b_block, k, &mut rows, &mut scratch, &par)
                        .expect("dimensions match");
                    prop_assert_eq!(
                        bits(&rows), bits(&seq_rows),
                        "family {} apply k={} at {} threads", inst.name, k, threads
                    );
                    let mut pot = vec![0.0; r.num_nodes() * k];
                    r.apply_transpose_block_into_par(&y_block, k, &mut pot, &mut scratch, &par)
                        .expect("dimensions match");
                    prop_assert_eq!(
                        bits(&pot), bits(&seq_pot),
                        "family {} apply_transpose k={} at {} threads", inst.name, k, threads
                    );
                }
            }
        }
    }

    #[test]
    fn par_batch_and_parallel_queries_match_sequential_bits(
        n in 12usize..28,
        seed in 0u64..10_000,
    ) {
        for inst in families::oracle_families(n, seed) {
            let last = NodeId((inst.graph.num_nodes() - 1) as u32);
            let pairs = [
                (inst.s, inst.t),
                (inst.t, inst.s),
                (NodeId(0), last),
                (inst.s, inst.t),
                (last, NodeId(0)),
            ];
            let mut seq_session = PreparedMaxFlow::prepare(&inst.graph, &config(seed))
                .expect("families are connected");
            let seq = seq_session.max_flow_batch(&pairs).expect("valid pairs");
            for threads in THREAD_COUNTS {
                let cfg = config(seed).with_parallelism(Parallelism::with_threads(threads));
                let mut session = PreparedMaxFlow::prepare(&inst.graph, &cfg)
                    .expect("families are connected");
                // Query fan-out: whole batch, in order, bit for bit.
                let batch = session.par_max_flow_batch(&pairs).expect("valid pairs");
                prop_assert_eq!(batch.len(), seq.len());
                for (p, s) in batch.iter().zip(&seq) {
                    prop_assert_eq!(
                        p.value.to_bits(), s.value.to_bits(),
                        "family {} batch value at {} threads", inst.name, threads
                    );
                    prop_assert_eq!(
                        bits(p.flow.values()), bits(s.flow.values()),
                        "family {} batch flow at {} threads", inst.name, threads
                    );
                    prop_assert_eq!(p.iterations, s.iterations, "family {}", inst.name);
                }
                // Operator fan-out inside a single query's gradient loop.
                let single = session.max_flow(inst.s, inst.t).expect("valid terminals");
                prop_assert_eq!(
                    single.value.to_bits(), seq[0].value.to_bits(),
                    "family {} single query at {} threads", inst.name, threads
                );
                prop_assert_eq!(bits(single.flow.values()), bits(seq[0].flow.values()));
            }
        }
    }
}
