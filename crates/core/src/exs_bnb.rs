//! Branch-and-bound exhaustive search — an extension over Algorithm 1.
//!
//! Plain EXS visits all `L^N` assignments. Two monotonicity facts prune the
//! tree without losing optimality:
//!
//! * **Thermal bound** — `T∞ = R·ψ` with `R > 0` element-wise, so every
//!   core's temperature is monotone in every core's power. If a partial
//!   assignment is infeasible *even with all unassigned cores at the lowest
//!   level*, no completion is feasible.
//! * **Throughput bound** — if the partial speed sum plus `v_max` for every
//!   unassigned core cannot beat the incumbent, the subtree is dominated.
//!
//! The result is exactly EXS's optimum (asserted by tests), typically at a
//! small fraction of the node visits — the gap the `table5_runtime`/bench
//! suite quantifies. This is the kind of follow-up the paper's conclusion
//! gestures at ("fundamental principles … readily used for other thermal
//! related research").

use crate::{AlgoError, Result, Solution, ACCEPT_EPS, FEASIBILITY_EPS};
use mosc_sched::{Platform, Schedule};

/// Tree nodes expanded (mirrors [`BnbStats::visited`], batched per run).
static NODES_VISITED: mosc_obs::Counter = mosc_obs::Counter::new("exs_bnb.nodes_visited");
/// Subtrees cut by the thermal bound.
static PRUNED_THERMAL: mosc_obs::Counter = mosc_obs::Counter::new("exs_bnb.nodes_pruned_thermal");
/// Subtrees cut by the throughput bound.
static PRUNED_THROUGHPUT: mosc_obs::Counter =
    mosc_obs::Counter::new("exs_bnb.nodes_pruned_throughput");

/// Statistics from a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BnbStats {
    /// Tree nodes expanded (partial assignments visited).
    pub visited: u64,
    /// Subtrees cut by the thermal bound.
    pub thermal_prunes: u64,
    /// Subtrees cut by the throughput bound.
    pub throughput_prunes: u64,
}

/// Branch-and-bound EXS, the engine behind the [`crate::solve`](crate::solve())
/// dispatcher's [`crate::SolverKind::ExsBnb`]: the optimal constant
/// assignment and search statistics, with an optional wall-clock deadline.
///
/// # Errors
/// [`AlgoError::Infeasible`] when even all-lowest violates `T_max`;
/// [`AlgoError::DeadlineExceeded`] when the search runs past `deadline`;
/// propagated evaluation failures otherwise.
pub(crate) fn solve_inner(
    platform: &Platform,
    deadline: Option<std::time::Instant>,
) -> Result<(Solution, BnbStats)> {
    let _span = mosc_obs::span("exs_bnb.solve");
    debug_assert!(
        crate::checks::platform_ok(platform),
        "EXS-BnB input platform fails static analysis"
    );
    let n = platform.n_cores();
    let modes = platform.modes();
    let levels = modes.levels().to_vec();
    let t_max = platform.t_max();
    let r = platform.thermal().response_matrix().map_err(mosc_sched::SchedError::from)?;
    let psi: Vec<f64> = levels.iter().map(|&v| platform.power().psi(v)).collect();
    let psi_min = psi[0];
    let v_max = *levels.last().expect("non-empty table");

    // Precompute each core's column once; `temps_floor` starts from the
    // everything-at-lowest baseline so the thermal bound is one vector read.
    let mut temps_floor = vec![0.0f64; n];
    for j in 0..n {
        for (i, t) in temps_floor.iter_mut().enumerate() {
            *t += r[(i, j)] * psi_min;
        }
    }
    if temps_floor.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > t_max + ACCEPT_EPS {
        return Err(AlgoError::Infeasible {
            lowest_peak: temps_floor.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            t_max,
        });
    }

    // `temps` always reflects: assigned cores at their level, unassigned at
    // the lowest level (= the optimistic thermal floor of the subtree).
    let mut search = Search {
        n,
        levels: &levels,
        psi: &psi,
        r: &r,
        t_max,
        v_max,
        deadline,
        assign: vec![0usize; n],
        temps: temps_floor,
        best_sum: f64::NEG_INFINITY,
        best_assign: vec![0; n],
        stats: BnbStats::default(),
        expired: false,
    };
    search.dfs(0);
    let Search { best_assign, stats, expired, .. } = search;

    NODES_VISITED.add(stats.visited);
    PRUNED_THERMAL.add(stats.thermal_prunes);
    PRUNED_THROUGHPUT.add(stats.throughput_prunes);
    if expired {
        return Err(AlgoError::DeadlineExceeded);
    }
    mosc_obs::event(
        "exs_bnb.done",
        &[
            ("visited", stats.visited.into()),
            ("thermal_prunes", stats.thermal_prunes.into()),
            ("throughput_prunes", stats.throughput_prunes.into()),
        ],
    );

    let voltages: Vec<f64> = best_assign.iter().map(|&l| levels[l]).collect();
    let schedule = Schedule::constant(&voltages, crate::exs::DEFAULT_PERIOD)?;
    let peak = platform.peak(&schedule)?.temp;
    let solution = Solution {
        algorithm: "EXS-BnB",
        throughput: schedule.throughput(),
        feasible: peak <= t_max + FEASIBILITY_EPS,
        peak,
        schedule,
        m: 1,
    };
    debug_assert!(
        crate::checks::solution_ok(platform, &solution, true),
        "EXS-BnB result fails static analysis"
    );
    Ok((solution, stats))
}

/// How many node visits pass between deadline polls; a power of two so the
/// modulo is a mask.
const DEADLINE_STRIDE: u64 = 4096;

/// The depth-first search state. Bundling it keeps the recursion signature
/// readable and gives the deadline poll one place to live.
struct Search<'a> {
    /// Core count.
    n: usize,
    /// DVFS level table (V).
    levels: &'a [f64],
    /// ψ per level.
    psi: &'a [f64],
    /// Thermal response matrix `R`.
    r: &'a mosc_linalg::Matrix,
    /// Temperature threshold (K above ambient).
    t_max: f64,
    /// Fastest level, for the optimistic throughput bound.
    v_max: f64,
    /// Abort the walk once the clock passes this point.
    deadline: Option<std::time::Instant>,
    /// Current partial assignment (levels per core).
    assign: Vec<usize>,
    /// Assigned cores at their level, unassigned at the lowest level.
    temps: Vec<f64>,
    /// Incumbent speed sum.
    best_sum: f64,
    /// Incumbent assignment.
    best_assign: Vec<usize>,
    /// Visit/prune tallies.
    stats: BnbStats,
    /// Set once the deadline fires; unwinds the recursion.
    expired: bool,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize) {
        if self.expired {
            return;
        }
        self.stats.visited += 1;
        // `== 1` polls on the very first visit, so an already-expired
        // deadline aborts before any work; after that, every stride.
        if self.stats.visited % DEADLINE_STRIDE == 1
            && self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
        {
            self.expired = true;
            return;
        }
        // Thermal bound: the floor completion is the coolest this subtree
        // can ever be.
        let peak = self.temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if peak > self.t_max + ACCEPT_EPS {
            self.stats.thermal_prunes += 1;
            return;
        }
        // Throughput bound.
        let fixed_sum: f64 = self.assign[..depth].iter().map(|&l| self.levels[l]).sum();
        let optimistic = fixed_sum + (self.n - depth) as f64 * self.v_max;
        if optimistic <= self.best_sum + 1e-12 {
            self.stats.throughput_prunes += 1;
            return;
        }
        if depth == self.n {
            // Feasible leaf (thermal bound above is exact here).
            if fixed_sum > self.best_sum {
                self.best_sum = fixed_sum;
                self.best_assign.copy_from_slice(&self.assign);
            }
            return;
        }
        // Try the highest levels first: better incumbents earlier ⇒ more
        // throughput prunes.
        for l in (0..self.levels.len()).rev() {
            let delta = self.psi[l] - self.psi[0];
            for (i, t) in self.temps.iter_mut().enumerate() {
                *t += self.r[(i, depth)] * delta;
            }
            self.assign[depth] = l;
            self.dfs(depth + 1);
            for (i, t) in self.temps.iter_mut().enumerate() {
                *t -= self.r[(i, depth)] * delta;
            }
        }
        self.assign[depth] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::PlatformSpec;

    #[test]
    fn bnb_matches_plain_exs_optimum() {
        for (rows, cols, levels) in [(1usize, 3usize, 3usize), (2, 3, 3), (1, 3, 5)] {
            let p = Platform::build(&PlatformSpec::paper(rows, cols, levels, 55.0)).unwrap();
            let plain = crate::exs::solve(&p).unwrap();
            let (bnb, stats) = solve_inner(&p, None).unwrap();
            assert!(
                (plain.throughput - bnb.throughput).abs() < 1e-12,
                "{rows}x{cols}/{levels}: plain {} vs bnb {}",
                plain.throughput,
                bnb.throughput
            );
            assert!(stats.visited > 0);
        }
    }

    #[test]
    fn bnb_prunes_meaningfully_on_constrained_platforms() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 4, 55.0)).unwrap();
        let (_, stats) = solve_inner(&p, None).unwrap();
        let full_tree: u64 = {
            // Nodes of the complete 4-ary tree of depth 9.
            let mut total = 0u64;
            let mut layer = 1u64;
            for _ in 0..=9 {
                total += layer;
                layer *= 4;
            }
            total
        };
        assert!(
            stats.visited * 4 < full_tree,
            "expected >4x pruning: visited {} of {}",
            stats.visited,
            full_tree
        );
        assert!(stats.thermal_prunes + stats.throughput_prunes > 0);
    }

    #[test]
    fn bnb_infeasible_platform_errors() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 2, 36.0)).unwrap();
        assert!(matches!(solve_inner(&p, None), Err(AlgoError::Infeasible { .. })));
    }

    #[test]
    fn bnb_unconstrained_platform_all_max() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 5, 65.0)).unwrap();
        let (sol, stats) = solve_inner(&p, None).unwrap();
        assert!((sol.throughput - 1.3).abs() < 1e-12);
        // Descending order means the very first leaf is optimal and the
        // throughput bound kills everything else.
        assert!(stats.visited < 40, "visited {}", stats.visited);
    }
}
