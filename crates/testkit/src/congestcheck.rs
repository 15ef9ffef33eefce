//! CONGEST invariant checkers.
//!
//! Theorem 1.1 of the paper promises `(D + √n)·n^{o(1)}·ε^{-3}` rounds with
//! `O(log n)`-bit messages. These checkers pin the *shape* of the measured
//! round accounting to that promise: each pipeline stage must fit inside a
//! `c·(D + √n)·log^k n` budget, the total must be the sum of its stages, and
//! no message may exceed a constant number of `O(log n)`-bit words.

use congest::RoundCost;
use maxflow::DistributedMaxFlowResult;

/// Budget constants for the shape checks. The defaults are deliberately
/// generous (they encode asymptotic *shape*, not tuned constants) but tight
/// enough that an accidental `Θ(n)`-per-iteration or `Θ(n²)`-total regression
/// trips them on the suite's instance sizes.
#[derive(Debug, Clone)]
pub struct CongestBudget {
    /// Leading constant multiplying every `(D + √n)·log^k n` budget.
    pub c: f64,
    /// Polylog exponent for the per-iteration and repair budgets.
    pub per_iteration_log_exp: i32,
    /// Polylog exponent for the approximator-construction budget (it builds
    /// `O(log n)` trees, each with its own decomposition cascade).
    pub construction_log_exp: i32,
    /// Maximum admissible message payload in `O(log n)`-bit words.
    pub max_message_words: u64,
}

impl Default for CongestBudget {
    fn default() -> Self {
        CongestBudget {
            c: 8.0,
            per_iteration_log_exp: 2,
            construction_log_exp: 3,
            max_message_words: 4,
        }
    }
}

impl CongestBudget {
    /// The `c·(D + √n)·log^k n` budget for the given instance parameters.
    pub fn stage_budget(&self, n: usize, bfs_depth: usize, log_exp: i32) -> f64 {
        let n = n.max(2) as f64;
        let d_plus_sqrt_n = bfs_depth as f64 + n.sqrt();
        self.c * d_plus_sqrt_n * n.log2().powi(log_exp)
    }
}

/// Measurements from a passing invariant check.
#[derive(Debug, Clone)]
pub struct CongestReport {
    /// `D + √n` for the instance.
    pub d_plus_sqrt_n: f64,
    /// Measured per-iteration rounds.
    pub per_iteration_rounds: u64,
    /// The per-iteration budget it was held against.
    pub per_iteration_budget: f64,
    /// Measured total rounds.
    pub total_rounds: u64,
    /// Largest message payload observed anywhere in the pipeline, in words.
    pub max_message_words: u64,
}

/// A violated CONGEST invariant.
#[derive(Debug, Clone)]
pub struct CongestViolation(String);

impl std::fmt::Display for CongestViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CongestViolation {}

fn stage_max_words(stages: &[(&'static str, RoundCost)]) -> (u64, &'static str) {
    let mut worst = (0u64, "none");
    for &(name, cost) in stages {
        if cost.max_message_words > worst.0 {
            worst = (cost.max_message_words, name);
        }
    }
    worst
}

/// Checks the round-accounting shape of one distributed run:
///
/// 1. BFS construction finishes in `O(D + log n)` rounds,
/// 2. one gradient iteration costs `Õ(D + √n)` rounds,
/// 3. approximator construction costs `Õ(D + √n)` rounds (higher polylog),
/// 4. gradient descent totals at most `iterations · per_iteration` (+slack),
/// 5. the reported total is exactly the sum of its stages,
/// 6. every stage's messages carry `O(log n)` bits (≤ a constant word count).
pub fn check_congest_invariants(
    dist: &DistributedMaxFlowResult,
    budget: &CongestBudget,
) -> Result<CongestReport, CongestViolation> {
    let n = dist.num_nodes;
    let depth = dist.bfs_depth;
    let rounds = &dist.rounds;

    let bfs_budget = budget.c * (depth as f64 + (n.max(2) as f64).log2() + 1.0);
    if (rounds.bfs_construction.rounds as f64) > bfs_budget {
        return Err(CongestViolation(format!(
            "BFS construction took {} rounds, budget O(D + log n) = {bfs_budget:.0} (D = {depth}, n = {n})",
            rounds.bfs_construction.rounds
        )));
    }

    let per_iter_budget = budget.stage_budget(n, depth, budget.per_iteration_log_exp);
    if (rounds.per_iteration.rounds as f64) > per_iter_budget {
        return Err(CongestViolation(format!(
            "per-iteration cost {} rounds exceeds the Õ(D + √n) budget {per_iter_budget:.0} (D = {depth}, n = {n})",
            rounds.per_iteration.rounds
        )));
    }

    let construction_budget = budget.stage_budget(n, depth, budget.construction_log_exp);
    if (rounds.approximator_construction.rounds as f64) > construction_budget {
        return Err(CongestViolation(format!(
            "approximator construction {} rounds exceeds its Õ(D + √n) budget {construction_budget:.0} (D = {depth}, n = {n})",
            rounds.approximator_construction.rounds
        )));
    }

    let iterations = dist.result.iterations as u64;
    let descent_budget =
        iterations.saturating_mul(rounds.per_iteration.rounds.max(1)) as f64 + per_iter_budget;
    if (rounds.gradient_descent.rounds as f64) > descent_budget {
        return Err(CongestViolation(format!(
            "gradient descent {} rounds exceeds iterations × per-iteration = {descent_budget:.0} ({} iterations × {} rounds)",
            rounds.gradient_descent.rounds, iterations, rounds.per_iteration.rounds
        )));
    }

    let repair_budget = budget.stage_budget(n, depth, budget.per_iteration_log_exp);
    if (rounds.repair.rounds as f64) > repair_budget {
        return Err(CongestViolation(format!(
            "residual repair {} rounds exceeds its Õ(D + √n) budget {repair_budget:.0}",
            rounds.repair.rounds
        )));
    }

    let stage_sum = rounds.bfs_construction.rounds
        + rounds.approximator_construction.rounds
        + rounds.gradient_descent.rounds
        + rounds.repair.rounds;
    if rounds.total.rounds != stage_sum {
        return Err(CongestViolation(format!(
            "total rounds {} is not the sum of its stages {stage_sum}",
            rounds.total.rounds
        )));
    }

    let stages = [
        ("bfs_construction", rounds.bfs_construction),
        (
            "approximator_construction",
            rounds.approximator_construction,
        ),
        ("per_iteration", rounds.per_iteration),
        ("gradient_descent", rounds.gradient_descent),
        ("repair", rounds.repair),
    ];
    let (worst_words, worst_stage) = stage_max_words(&stages);
    if worst_words > budget.max_message_words {
        return Err(CongestViolation(format!(
            "stage {worst_stage} sent a {worst_words}-word message; the CONGEST model allows O(log n) bits (≤ {} words)",
            budget.max_message_words
        )));
    }

    Ok(CongestReport {
        d_plus_sqrt_n: dist.d_plus_sqrt_n(),
        per_iteration_rounds: rounds.per_iteration.rounds,
        per_iteration_budget: per_iter_budget,
        total_rounds: rounds.total.rounds,
        max_message_words: worst_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::congest_families;
    use crate::oracle::OracleConfig;

    fn small_run_sized(name: &str, n: usize) -> DistributedMaxFlowResult {
        let inst = congest_families(n, 5)
            .into_iter()
            .find(|i| i.name == name)
            .expect("family exists");
        let config = OracleConfig {
            max_iterations_per_phase: 50,
            phases: 1,
            ..OracleConfig::default()
        };
        maxflow::distributed_approx_max_flow(&inst.graph, inst.s, inst.t, &config.solver_config())
            .expect("connected instance")
    }

    fn small_run(name: &str) -> DistributedMaxFlowResult {
        small_run_sized(name, 36)
    }

    #[test]
    fn invariants_hold_on_grid_and_expander() {
        for name in ["grid", "expander"] {
            let dist = small_run(name);
            let report = check_congest_invariants(&dist, &CongestBudget::default())
                .unwrap_or_else(|e| panic!("family {name}: {e}"));
            assert!(report.per_iteration_rounds as f64 <= report.per_iteration_budget);
        }
    }

    #[test]
    fn a_linear_per_iteration_cost_is_rejected() {
        // n must be large enough that n² clears the generous polylog budget.
        let mut dist = small_run_sized("expander", 100);
        // Forge a Θ(n²)-style regression: per-iteration rounds worth n².
        let n = dist.num_nodes as u64;
        dist.rounds.per_iteration = RoundCost::rounds(n * n);
        let err = check_congest_invariants(&dist, &CongestBudget::default())
            .expect_err("forged per-iteration cost must trip the budget");
        assert!(err.to_string().contains("per-iteration"));
    }

    #[test]
    fn an_oversized_message_is_rejected() {
        let mut dist = small_run("grid");
        // Forge a node that ships a whole adjacency list in one message.
        dist.rounds.gradient_descent.max_message_words = 1_000;
        let err = check_congest_invariants(&dist, &CongestBudget::default())
            .expect_err("kilo-word messages violate the CONGEST bandwidth bound");
        assert!(err.to_string().contains("word"));
    }
}
