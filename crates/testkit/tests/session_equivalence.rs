//! Differential suite for the build-once / query-many session API.
//!
//! Four equivalences are pinned across the seeded workload families:
//!
//! 1. A [`PreparedMaxFlow`] session answers **byte-identically** to the
//!    one-shot `approx_max_flow` wrapper for the same seed — the session's
//!    cached approximator, repair tree and reused scratch buffers must not
//!    perturb a single bit of the result.
//! 2. `max_flow_batch` equals the per-query loop, bit for bit and in order.
//! 3. `route` on a session equals the free `route_demand` for arbitrary
//!    balanced demands.
//! 4. A session after `update_capacities` answers `max_flow` and `route`
//!    bit for bit like a session prepared on the updated graph: an answer
//!    depends on the graph's current capacities, not on how it got them.

use capprox::RackeConfig;
use flowgraph::{Demand, EdgeId, NodeId};
use maxflow::{approx_max_flow, route_demand, MaxFlowConfig, PreparedMaxFlow};
use proptest::prelude::*;
use testkit::families;

fn config(seed: u64, eps: f64) -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(eps)
        .with_racke(RackeConfig::default().with_num_trees(4).with_seed(seed))
        .with_phases(Some(2))
        .with_max_iterations_per_phase(600)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn session_answers_byte_identically_to_one_shot(
        n in 12usize..36,
        seed in 0u64..10_000,
        eps_pick in 0usize..3,
    ) {
        let eps = [0.5, 0.25, 0.1][eps_pick];
        for inst in families::oracle_families(n, seed) {
            let cfg = config(seed, eps);
            let one_shot = approx_max_flow(&inst.graph, inst.s, inst.t, &cfg)
                .expect("families are connected");
            let mut session = PreparedMaxFlow::prepare(&inst.graph, &cfg)
                .expect("families are connected");
            let ses = session.max_flow(inst.s, inst.t).expect("valid terminals");
            prop_assert_eq!(
                one_shot.value.to_bits(), ses.value.to_bits(),
                "family {} value differs", inst.name
            );
            prop_assert_eq!(
                one_shot.upper_bound.to_bits(), ses.upper_bound.to_bits(),
                "family {} upper bound differs", inst.name
            );
            prop_assert_eq!(one_shot.iterations, ses.iterations, "family {}", inst.name);
            prop_assert_eq!(one_shot.phases, ses.phases, "family {}", inst.name);
            prop_assert_eq!(
                bits(one_shot.flow.values()), bits(ses.flow.values()),
                "family {} flow differs", inst.name
            );
            // A repeat of the same query through the warm scratch is also
            // byte-identical.
            let again = session.max_flow(inst.s, inst.t).expect("valid terminals");
            prop_assert_eq!(bits(ses.flow.values()), bits(again.flow.values()));
        }
    }

    #[test]
    fn batch_equals_per_query_loop(
        n in 12usize..30,
        seed in 0u64..10_000,
    ) {
        for inst in families::oracle_families(n, seed) {
            let cfg = config(seed ^ 0xb5, 0.3);
            let last = NodeId((inst.graph.num_nodes() - 1) as u32);
            let pairs = [
                (inst.s, inst.t),
                (inst.t, inst.s),
                (NodeId(0), last),
                (inst.s, inst.t),
            ];
            let mut batch_session =
                PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            let batch = batch_session.max_flow_batch(&pairs).expect("valid pairs");
            prop_assert_eq!(batch.len(), pairs.len());
            let mut loop_session =
                PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            for (b, &(s, t)) in batch.iter().zip(&pairs) {
                let l = loop_session.max_flow(s, t).expect("valid pair");
                prop_assert_eq!(b.value.to_bits(), l.value.to_bits(), "family {}", inst.name);
                prop_assert_eq!(
                    bits(b.flow.values()), bits(l.flow.values()),
                    "family {} flow differs", inst.name
                );
            }
        }
    }

    #[test]
    fn session_route_equals_free_route_demand(
        n in 12usize..30,
        seed in 0u64..10_000,
        amount in 1u32..50,
    ) {
        for inst in families::oracle_families(n, seed) {
            let cfg = config(seed ^ 0x77, 0.4);
            let b = Demand::st(&inst.graph, inst.s, inst.t, f64::from(amount) / 10.0);
            let mut session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            let ses = session.route(&b).expect("demand covers the graph");
            let free = route_demand(&inst.graph, session.approximator(), &b, &cfg)
                .expect("demand covers the graph");
            prop_assert_eq!(ses.iterations, free.iterations, "family {}", inst.name);
            prop_assert_eq!(ses.phases, free.phases, "family {}", inst.name);
            prop_assert_eq!(
                ses.congestion.to_bits(), free.congestion.to_bits(),
                "family {}", inst.name
            );
            prop_assert_eq!(
                bits(ses.flow.values()), bits(free.flow.values()),
                "family {} flow differs", inst.name
            );
        }
    }

    #[test]
    fn updated_session_answers_like_a_fresh_prepare(
        n in 12usize..30,
        seed in 0u64..10_000,
        pick in 0usize..10_000,
    ) {
        for inst in families::oracle_families(n, seed) {
            let cfg = config(seed ^ 0x5e, 0.3);
            // 1..=m distinct edges at capacities that are not dyadic, so
            // cut sums round; sent as two updates, the first half empty for
            // a single edge.
            let m = inst.graph.num_edges();
            let count = 1 + pick % m;
            let changes: Vec<(EdgeId, f64)> = (0..count)
                .map(|k| (EdgeId(((pick + k) % m) as u32), k as f64 / 7.0 + 0.1))
                .collect();
            let mut updated = inst.graph.clone();
            for &(e, cap) in &changes {
                updated.set_capacity(e, cap).expect("valid change");
            }
            let mut session = PreparedMaxFlow::prepare(&inst.graph, &cfg).expect("connected");
            let (first, second) = changes.split_at(count / 2);
            prop_assert_eq!(session.update_capacities(first), Ok(first.len()));
            prop_assert_eq!(session.update_capacities(second), Ok(second.len()));
            prop_assert!(session.graph() == &updated, "family {}", inst.name);
            let mut fresh = PreparedMaxFlow::prepare(&updated, &cfg).expect("connected");

            let ses = session.max_flow(inst.s, inst.t).expect("valid terminals");
            let new = fresh.max_flow(inst.s, inst.t).expect("valid terminals");
            prop_assert_eq!(
                ses.value.to_bits(), new.value.to_bits(),
                "family {}, {} changed edges: value differs", inst.name, count
            );
            prop_assert_eq!(
                ses.upper_bound.to_bits(), new.upper_bound.to_bits(),
                "family {}, {} changed edges: upper bound differs", inst.name, count
            );
            prop_assert_eq!(ses.iterations, new.iterations, "family {}", inst.name);
            prop_assert_eq!(ses.phases, new.phases, "family {}", inst.name);
            prop_assert_eq!(
                bits(ses.flow.values()), bits(new.flow.values()),
                "family {} flow differs", inst.name
            );

            let b = Demand::st(&updated, inst.s, inst.t, 1.5);
            let ses = session.route(&b).expect("demand covers the graph");
            let new = fresh.route(&b).expect("demand covers the graph");
            prop_assert_eq!(
                ses.congestion.to_bits(), new.congestion.to_bits(),
                "family {}, {} changed edges: congestion differs", inst.name, count
            );
            prop_assert_eq!(ses.iterations, new.iterations, "family {}", inst.name);
            prop_assert_eq!(ses.phases, new.phases, "family {}", inst.name);
            prop_assert_eq!(
                bits(ses.flow.values()), bits(new.flow.values()),
                "family {} routed flow differs", inst.name
            );
        }
    }
}
