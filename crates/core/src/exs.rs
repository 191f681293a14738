//! EXS — exhaustive search over constant per-core level assignments
//! (Algorithm 1 of the paper).
//!
//! Every one of the `L^N` assignments is checked for `max(T∞) ≤ T_max` and
//! the feasible assignment with the largest speed sum wins. Two engineering
//! touches keep this honest but fast:
//!
//! * the steady state is *linear* in the per-core power vector
//!   (`T∞ = R·ψ`), so candidates are evaluated by accumulating precomputed
//!   response-matrix columns instead of solving a linear system each —
//!   with an odometer walk that only updates the column that changed;
//! * the outermost core's level partitions the space across scoped threads
//!   (`std::thread::scope`), which matters for the 9-core × 5-level sweeps
//!   of Table V.
//!
//! The search cost still grows as `L^N` — reproducing the paper's
//! computation-time blow-up (Table V) is the point, not a defect.

use crate::{Result, Solution, ACCEPT_EPS, FEASIBILITY_EPS};
use mosc_sched::{Platform, Schedule};

/// Level assignments evaluated across all partitions. Each worker
/// accumulates locally and adds its batch once at the end, so the hot
/// odometer loop never touches a shared atomic.
static ASSIGNMENTS: mosc_obs::Counter = mosc_obs::Counter::new("exs.assignments");

/// Period given to the (constant-speed) winning schedule.
pub const DEFAULT_PERIOD: f64 = 0.1;

/// Runs EXS on `platform` using all available threads.
///
/// # Errors
/// Propagates evaluation failures; returns [`crate::AlgoError::Infeasible`]
/// when not even the all-lowest assignment is safe.
pub fn solve(platform: &Platform) -> Result<Solution> {
    solve_inner(platform, crate::thread_count(0), None).map(|(s, _)| s)
}

/// The EXS engine behind both [`solve`] and the
/// [`crate::solve`](crate::solve()) dispatcher: an explicit thread count, an
/// optional wall-clock deadline, and the evaluated-assignment count for
/// [`crate::SolverStats`].
///
/// # Errors
/// Propagates evaluation failures; flags infeasibility; returns
/// [`crate::AlgoError::DeadlineExceeded`] when the enumeration runs past
/// `deadline`.
pub(crate) fn solve_inner(
    platform: &Platform,
    threads: usize,
    deadline: Option<std::time::Instant>,
) -> Result<(Solution, u64)> {
    let _span = mosc_obs::span("exs.solve");
    debug_assert!(crate::checks::platform_ok(platform), "EXS input platform fails static analysis");
    let n = platform.n_cores();
    let modes = platform.modes();
    let levels = modes.levels();
    let t_max = platform.t_max();
    let r = platform.thermal().response_matrix().map_err(mosc_sched::SchedError::from)?;
    // ψ per level, shared by all cores (homogeneous power model).
    let psi: Vec<f64> = levels.iter().map(|&v| platform.power().psi(v)).collect();

    // Partition on the first core's level.
    let threads = threads.max(1).min(levels.len());
    let mut best: Option<(f64, Vec<usize>)> = None;
    let chunks: Vec<Vec<usize>> =
        (0..threads).map(|t| (0..levels.len()).filter(|l| l % threads == t).collect()).collect();

    let results: Vec<Partition> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let r = &r;
                let psi = &psi;
                scope.spawn(move || search_partition(n, levels, chunk, r, psi, t_max, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("search thread panicked")).collect()
    });

    let mut evaluated = 0u64;
    let mut expired = false;
    for res in results {
        evaluated += res.evaluated;
        expired |= res.expired;
        if let Some(found) = res.best {
            if best.as_ref().is_none_or(|(b, _)| found.0 > *b) {
                best = Some(found);
            }
        }
    }
    if expired {
        return Err(crate::AlgoError::DeadlineExceeded);
    }

    let Some((_, assignment)) = best else {
        let lowest_peak = platform.steady_peak(&vec![modes.lowest(); n])?;
        return Err(crate::AlgoError::Infeasible { lowest_peak, t_max });
    };

    let voltages: Vec<f64> = assignment.iter().map(|&l| levels[l]).collect();
    let schedule = Schedule::constant(&voltages, DEFAULT_PERIOD)?;
    let peak = platform.peak(&schedule)?.temp;
    let solution = Solution {
        algorithm: "EXS",
        throughput: schedule.throughput(),
        feasible: peak <= t_max + FEASIBILITY_EPS,
        peak,
        schedule,
        m: 1,
    };
    debug_assert!(
        crate::checks::solution_ok(platform, &solution, true),
        "EXS result fails static analysis"
    );
    Ok((solution, evaluated))
}

/// Outcome of one partition's enumeration.
struct Partition {
    /// Best feasible `(speed_sum, assignment)` seen, if any.
    best: Option<(f64, Vec<usize>)>,
    /// Assignments evaluated before finishing or expiring.
    evaluated: u64,
    /// `true` when the walk aborted on the deadline.
    expired: bool,
}

/// How many odometer steps pass between deadline polls. A power of two so
/// the check compiles to a mask; coarse enough that the clock read never
/// shows up in the profile, fine enough that overruns stay in the
/// sub-millisecond range on the Table-V platforms.
const DEADLINE_STRIDE: u64 = 4096;

/// Enumerates all assignments whose first-core level is in `first_levels`,
/// returning the best feasible `(speed_sum, assignment)`.
fn search_partition(
    n: usize,
    levels: &[f64],
    first_levels: &[usize],
    r: &mosc_linalg::Matrix,
    psi: &[f64],
    t_max: f64,
    deadline: Option<std::time::Instant>,
) -> Partition {
    let n_levels = levels.len();
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut temps = vec![0.0f64; n];
    let mut evaluated = 0u64;
    for &first in first_levels {
        // Poll once per first-core level as well as every stride: a
        // partition's subtree can be smaller than the stride.
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            ASSIGNMENTS.add(evaluated);
            return Partition { best, evaluated, expired: true };
        }
        // Assignment state: levels per core; core 0 fixed to `first`.
        let mut idx = vec![0usize; n];
        idx[0] = first;
        // Initialize temps for the all-(first, 0, 0, …) assignment.
        for t in temps.iter_mut() {
            *t = 0.0;
        }
        for (j, &lev) in idx.iter().enumerate() {
            accumulate(&mut temps, r, j, psi[lev]);
        }
        loop {
            // Evaluate the current assignment.
            evaluated += 1;
            if evaluated.is_multiple_of(DEADLINE_STRIDE)
                && deadline.is_some_and(|d| std::time::Instant::now() >= d)
            {
                ASSIGNMENTS.add(evaluated);
                return Partition { best, evaluated, expired: true };
            }
            let peak = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if peak <= t_max + ACCEPT_EPS {
                let speed_sum: f64 = idx.iter().map(|&l| levels[l]).sum();
                if best.as_ref().is_none_or(|(b, _)| speed_sum > *b) {
                    best = Some((speed_sum, idx.clone()));
                }
            }
            // Odometer over cores 1..n (core 0 is the partition key),
            // updating only the changed core's thermal contribution.
            let mut k = n;
            let mut advanced = false;
            while k > 1 {
                k -= 1;
                if idx[k] + 1 < n_levels {
                    accumulate(&mut temps, r, k, psi[idx[k] + 1] - psi[idx[k]]);
                    idx[k] += 1;
                    advanced = true;
                    break;
                }
                // Wrap this digit back to level 0.
                accumulate(&mut temps, r, k, psi[0] - psi[idx[k]]);
                idx[k] = 0;
            }
            if !advanced {
                break;
            }
        }
    }
    ASSIGNMENTS.add(evaluated);
    Partition { best, evaluated, expired: false }
}

/// Adds `delta_psi` on core `j` into the temperature accumulator.
#[inline]
fn accumulate(temps: &mut [f64], r: &mosc_linalg::Matrix, j: usize, delta_psi: f64) {
    if delta_psi == 0.0 {
        return;
    }
    for (i, t) in temps.iter_mut().enumerate() {
        *t += r[(i, j)] * delta_psi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::PlatformSpec;

    #[test]
    fn exs_beats_or_matches_lns() {
        for (rows, cols) in [(1, 2), (1, 3), (2, 3)] {
            let p = Platform::build(&PlatformSpec::paper(rows, cols, 3, 55.0)).unwrap();
            let exs = solve(&p).unwrap();
            let lns = crate::lns::solve(&p).unwrap();
            assert!(
                exs.throughput >= lns.throughput - 1e-9,
                "{rows}x{cols}: EXS {} < LNS {}",
                exs.throughput,
                lns.throughput
            );
            assert!(exs.feasible);
        }
    }

    #[test]
    fn exs_finds_all_max_when_unconstrained() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 65.0)).unwrap();
        let sol = solve(&p).unwrap();
        assert!((sol.throughput - 1.3).abs() < 1e-9);
    }

    #[test]
    fn exs_matches_brute_force_reference() {
        // Independent re-implementation: evaluate every assignment via the
        // full steady-state solver and compare.
        let p = Platform::build(&PlatformSpec::paper(1, 3, 3, 55.0)).unwrap();
        let sol = solve(&p).unwrap();

        let levels = p.modes().levels().to_vec();
        let mut best = f64::NEG_INFINITY;
        let mut best_assign = vec![];
        for a in p.modes().assignments(3) {
            let peak = p.steady_peak(&a).unwrap();
            if peak <= p.t_max() + 1e-9 {
                let s: f64 = a.iter().sum();
                if s > best {
                    best = s;
                    best_assign = a;
                }
            }
        }
        let _ = levels;
        assert!(
            (sol.throughput - best / 3.0).abs() < 1e-9,
            "EXS {} vs reference {} ({best_assign:?})",
            sol.throughput,
            best / 3.0
        );
    }

    #[test]
    fn exs_single_thread_matches_parallel() {
        let p = Platform::build(&PlatformSpec::paper(2, 3, 3, 55.0)).unwrap();
        let (seq, seq_evaluated) = solve_inner(&p, 1, None).unwrap();
        let (par, par_evaluated) = solve_inner(&p, 8, None).unwrap();
        assert!((seq.throughput - par.throughput).abs() < 1e-12);
        // Both cover the complete 3^6 space regardless of partitioning.
        assert_eq!(seq_evaluated, 729);
        assert_eq!(par_evaluated, 729);
    }

    #[test]
    fn exs_infeasible_platform_errors() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 2, 36.0)).unwrap();
        match solve(&p) {
            Err(crate::AlgoError::Infeasible { lowest_peak, t_max }) => {
                assert!(lowest_peak > t_max);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn exs_respects_tmax() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 4, 55.0)).unwrap();
        let sol = solve(&p).unwrap();
        assert!(sol.feasible);
        assert!(sol.peak <= p.t_max() + 1e-6);
        // And uses only table levels.
        for core in sol.schedule.cores() {
            for seg in core.segments() {
                assert!(p.modes().levels().iter().any(|&l| (l - seg.voltage).abs() < 1e-9));
            }
        }
    }
}
