//! AO — Algorithm 2: m-Oscillating throughput maximization under a peak
//! temperature constraint.
//!
//! The pipeline, exactly as Section V lays it out:
//!
//! 1. **Ideal point** — per-core continuous voltages with `T∞ = T_max·1`
//!    ([`crate::continuous`]).
//! 2. **Neighboring modes** — each core's ideal voltage becomes the pair of
//!    adjacent discrete levels and the time ratio preserving its work
//!    (eq. 11); Theorems 3–4 say no other level choice does better. A core
//!    whose ideal voltage clamps at a level is parameterized with
//!    `ratio_high = 1` over the pair `(next lower level, level)` so the TPT
//!    pass can still trade its time if needed.
//! 3. **m sweep** — oscillating all cores `m` times per period lowers the
//!    stable peak (Theorem 5) but each DVFS round trip stalls the core for
//!    `τ` and costs `δ = (v_H+v_L)τ/(v_H−v_L)` seconds of compensation, so
//!    `m` is bounded by `M = min_i ⌊t_{i,L}/(δ_i+τ)⌋`. Once several factors
//!    are feasible a larger `m` only adds compensation, so the sweep keeps
//!    the smallest feasible `m` (ties broken by net throughput); when no
//!    factor is feasible on its own it falls back to the lowest-peak `m` and
//!    lets the TPT pass close the gap. Each candidate is one exact
//!    Theorem-1 evaluation, swept in ascending-`m` order on the calling
//!    thread.
//! 4. **TPT ratio adjustment** — while the peak still exceeds `T_max`,
//!    convert one `t_unit` of high-voltage time to low on the core with the
//!    best temperature-per-throughput tradeoff index
//!    `TPT_j = ΔT_i / ((v_{j,H} − v_{j,L})·t_unit)`, where `i` is the
//!    hottest core. Each round makes one exact peak evaluation, which gives
//!    both the feasibility test and `i`; the `n` values `ΔT_i` come from
//!    per-core modal superposition ([`StepUpResponse`]): the stable
//!    period-end temperature of a step-up schedule is a sum of one
//!    closed-form term per core, so moving only core `j`'s switch changes
//!    `T_i` by an `O(N)` dot product over the modes. Superposition only
//!    ranks the trials — the feasibility test of every round, the overshoot
//!    bisection and the returned schedule's peak stay on the exact path.

use crate::{continuous, AlgoError, Result, Solution, ACCEPT_EPS, FEASIBILITY_EPS};
use mosc_linalg::Vector;
use mosc_power::PowerLike;
use mosc_sched::{Platform, Schedule, StepUpResponse};

/// Oscillation factors evaluated by the m sweep across all AO runs.
static M_CANDIDATES: mosc_obs::Counter = mosc_obs::Counter::new("ao.m_candidates");
/// TPT adjustment loop rounds — one stable-peak evaluation each, counting
/// the final round that confirms the constraint holds.
static TPT_ROUNDS: mosc_obs::Counter = mosc_obs::Counter::new("ao.tpt_rounds");

/// Tuning knobs for Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct AoOptions {
    /// Base schedule period `t_p` (seconds) before oscillation.
    pub base_period: f64,
    /// Hard cap on the oscillation factor (relevant when `τ = 0` leaves `M`
    /// unbounded).
    pub max_m: usize,
    /// Stop the m sweep after this many consecutive non-improving factors
    /// (the peak-vs-m curve is unimodal once overhead is accounted).
    pub m_patience: usize,
    /// `t_unit = compressed_period / t_unit_divisor` for the TPT pass.
    pub t_unit_divisor: usize,
}

impl Default for AoOptions {
    fn default() -> Self {
        Self { base_period: 0.1, max_m: 4096, m_patience: 8, t_unit_divisor: 200 }
    }
}

impl AoOptions {
    fn validate(&self) -> Result<()> {
        if !(self.base_period.is_finite() && self.base_period > 0.0) {
            return Err(AlgoError::InvalidOptions { what: "base_period must be positive" });
        }
        if self.max_m == 0 {
            return Err(AlgoError::InvalidOptions { what: "max_m must be at least 1" });
        }
        if self.t_unit_divisor < 2 {
            return Err(AlgoError::InvalidOptions { what: "t_unit_divisor must be at least 2" });
        }
        Ok(())
    }
}

/// Per-core two-mode parameterization carried through the algorithm:
/// `v_low` for `(1 − ratio_high)` of the period, `v_high` for the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePair {
    /// Lower level (V).
    pub v_low: f64,
    /// Upper level (V).
    pub v_high: f64,
    /// Fraction of the period at `v_high` (before overhead compensation).
    pub ratio_high: f64,
}

impl CorePair {
    /// `true` when high/low differ and time can be traded between them.
    #[must_use]
    pub fn adjustable(&self) -> bool {
        self.v_high > self.v_low + 1e-12
    }
}

/// Runs AO with default options.
///
/// # Errors
/// See [`solve_with`].
pub fn solve(platform: &Platform) -> Result<Solution> {
    solve_with(platform, &AoOptions::default())
}

/// Runs AO on `platform`.
///
/// # Errors
/// * [`AlgoError::Infeasible`] when even all-lowest violates `T_max`.
/// * [`AlgoError::InvalidOptions`] for bad options.
/// * Propagated evaluation failures.
pub fn solve_with(platform: &Platform, opts: &AoOptions) -> Result<Solution> {
    let _span = mosc_obs::span("ao.solve");
    opts.validate()?;
    debug_assert!(crate::checks::platform_ok(platform), "AO input platform fails static analysis");
    let n = platform.n_cores();
    let t_max = platform.t_max();
    let modes = platform.modes();

    // Feasibility floor.
    let lowest_peak = platform.steady_peak(&vec![modes.lowest(); n])?;
    if lowest_peak > t_max + ACCEPT_EPS {
        return Err(AlgoError::Infeasible { lowest_peak, t_max });
    }

    // Steps 1–2: ideal voltages → neighboring pairs.
    let ideal = continuous::solve(platform)?;
    let pairs = build_pairs(platform, &ideal.voltages);

    // Step 3: m sweep under the overhead bound.
    let (m_opt, pairs_adj) = sweep_m(platform, &pairs, opts)?;

    // Step 4: TPT ratio adjustment until the constraint holds.
    let t_c = opts.base_period / m_opt as f64;
    let t_unit = t_c / opts.t_unit_divisor as f64;
    let (_, schedule) = adjust_to_tmax(platform, &pairs_adj, t_c, t_unit)?;

    let peak = platform.peak(&schedule)?.temp;
    let solution = Solution {
        algorithm: "AO",
        throughput: schedule.throughput_with_overhead(platform.overhead()),
        feasible: peak <= t_max + FEASIBILITY_EPS,
        peak,
        schedule,
        m: m_opt,
    };
    debug_assert!(
        crate::checks::solution_ok(platform, &solution, true),
        "AO result fails static analysis"
    );
    Ok(solution)
}

/// Algorithm 2's TPT pass (lines 14–21): starting from `pairs` on period
/// `t_c`, repeatedly convert `t_unit` of high time to low on the core with
/// the best temperature-performance tradeoff index until the stable peak
/// respects `T_max`. Returns the final pairs and schedule.
///
/// Each round makes exactly one exact [`Platform::peak`], which is both the
/// feasibility test and the source of the hot core `i`. The `n` trials are
/// then ranked by per-core modal superposition ([`StepUpResponse`]): core
/// `j`'s swap changes the modal stable state by a closed-form vector, kept
/// across rounds and refreshed only when `j`'s ratio moves, and cools core
/// `i` by that vector's `O(N)` dot product with row `i` of `from_modal`. A
/// round costs `O(n·N)` on top of the one exact evaluation, and only the
/// accepted trial's schedule is built. The trial ranking is the only place the
/// closed form enters: the feasibility test of every round, the overshoot
/// bisection and the returned schedule's peak all stay on the exact path.
///
/// **Tie rule** ([`rank_tpt`]): indices within [`TPT_TIE_RTOL`] (relative)
/// of the best one count as equal, and the lowest core index among them
/// wins — symmetric platforms have exact ties between mirrored cores.
///
/// Exposed publicly because the Section-III motivation experiment exercises
/// it at fixed periods (Table III's 20/10/5 ms rows) without the m sweep.
///
/// # Errors
/// [`AlgoError::Infeasible`] when even all-low on every adjustable core
/// stays hot, or convergence fails for a degenerate `t_unit`.
pub fn adjust_to_tmax(
    platform: &Platform,
    pairs: &[CorePair],
    t_c: f64,
    t_unit: f64,
) -> Result<(Vec<CorePair>, Schedule)> {
    let _span = mosc_obs::span("ao.tpt_adjust");
    if !(t_c > 0.0 && t_unit > 0.0 && t_unit < t_c) {
        return Err(AlgoError::InvalidOptions { what: "need 0 < t_unit < t_c" });
    }
    let n = platform.n_cores();
    let t_max = platform.t_max();
    let power = platform.power();
    let response = StepUpResponse::new(platform.thermal(), t_c)?;
    // Modal effect of core j's next t_unit swap, or `None` when it has no
    // high time left to trade.
    let next_swap = |j: usize, p: &CorePair| -> Option<Vector> {
        let new_ratio = p.ratio_high - t_unit / t_c;
        if !p.adjustable() || new_ratio < -1e-12 {
            return None;
        }
        let (psi_low, psi_high) = (power.psi_core(j, p.v_low), power.psi_core(j, p.v_high));
        Some(response.ratio_shift(j, psi_low, psi_high, p.ratio_high, new_ratio))
    };
    let mut pairs_adj = pairs.to_vec();
    let mut schedule = schedule_from_pairs(&pairs_adj, t_c)?;
    // Filled on the first hot round; a core's entry changes only with its
    // ratio.
    let mut swaps: Vec<Option<Vector>> = Vec::new();
    let max_iters = 4 * n * (t_c / t_unit).ceil() as usize;
    let mut iters = 0;
    let mut last_reduced: Option<usize> = None;
    loop {
        TPT_ROUNDS.incr();
        let peak = platform.peak(&schedule)?;
        if peak.temp <= t_max + ACCEPT_EPS {
            break;
        }
        iters += 1;
        if iters > max_iters {
            return Err(AlgoError::InvalidOptions {
                what: "TPT adjustment failed to converge (t_unit too coarse?)",
            });
        }
        if swaps.is_empty() {
            swaps = pairs_adj.iter().enumerate().map(|(j, p)| next_swap(j, p)).collect();
        }
        // TPT_j: how much core j's swap cools the hot core per unit of
        // throughput lost.
        let tpt: Vec<Option<f64>> = swaps
            .iter()
            .zip(&pairs_adj)
            .map(|(swap, p)| {
                let reduction = -response.core_temp(peak.core, swap.as_ref()?);
                (reduction > 0.0).then(|| reduction / ((p.v_high - p.v_low) * t_unit))
            })
            .collect();
        match rank_tpt(&tpt) {
            Some(j) => {
                pairs_adj[j].ratio_high = (pairs_adj[j].ratio_high - t_unit / t_c).max(0.0);
                swaps[j] = next_swap(j, &pairs_adj[j]);
                last_reduced = Some(j);
            }
            None => {
                // No single swap cools the hot core: fall back to lowering
                // everything adjustable one unit (still converges to the
                // feasible all-low floor).
                let mut any = false;
                for p in pairs_adj.iter_mut() {
                    if p.adjustable() && p.ratio_high > 0.0 {
                        p.ratio_high = (p.ratio_high - t_unit / t_c).max(0.0);
                        any = true;
                    }
                }
                if !any {
                    let lowest_peak = platform.steady_peak(&vec![platform.modes().lowest(); n])?;
                    return Err(AlgoError::Infeasible { lowest_peak, t_max });
                }
                swaps.clear();
                last_reduced = None;
            }
        }
        schedule = schedule_from_pairs(&pairs_adj, t_c)?;
    }

    // The last discrete step typically overshoots by up to one t_unit of
    // throughput; bisect the overshoot back while staying feasible.
    if let Some(j) = last_reduced {
        let mut lo = pairs_adj[j].ratio_high; // feasible
        let mut hi = (lo + t_unit / t_c).min(1.0); // infeasible (pre-step)
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            let mut trial_pairs = pairs_adj.clone();
            trial_pairs[j].ratio_high = mid;
            let trial = schedule_from_pairs(&trial_pairs, t_c)?;
            if platform.peak(&trial)?.temp <= t_max + ACCEPT_EPS {
                lo = mid;
                pairs_adj = trial_pairs;
                schedule = trial;
            } else {
                hi = mid;
            }
        }
    }
    mosc_obs::event("ao.tpt_done", &[("rounds", iters.into())]);
    Ok((pairs_adj, schedule))
}

/// Relative tolerance under which two TPT indices count as tied (see
/// [`rank_tpt`]). Mirrored cores of a symmetric platform tie exactly; the
/// closed form reproduces such ties to about ten ulps (`~2e-15`), a full
/// evaluation of each trial to about `1e-13`. `1e-12` absorbs both and is
/// still orders of magnitude below any genuine gap between TPT indices.
pub const TPT_TIE_RTOL: f64 = 1e-12;

/// The TPT pass's rank step: the index of the best candidate in `tpt`
/// (`None` entries cannot trade), or `None` when no core can. Candidates
/// within [`TPT_TIE_RTOL`] (relative) of the largest index are tied, and
/// the lowest core index among them wins.
#[must_use]
pub fn rank_tpt(tpt: &[Option<f64>]) -> Option<usize> {
    let best = tpt.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max);
    tpt.iter().position(|t| t.is_some_and(|t| t >= best - TPT_TIE_RTOL * best.abs()))
}

/// Builds the per-core level pairs from the ideal voltages.
pub fn build_pairs(platform: &Platform, ideal_voltages: &[f64]) -> Vec<CorePair> {
    let modes = platform.modes();
    ideal_voltages
        .iter()
        .map(|&v| {
            let nb = modes.neighbors(v);
            if nb.is_single_mode() {
                // Exact level hit (or clamp): re-express over (lower, level)
                // with ratio 1 so the TPT pass can still trade time, unless
                // the level is already the lowest.
                let level = nb.equivalent_voltage();
                let below = modes.levels().iter().copied().rfind(|&l| l < level - 1e-12);
                match below {
                    Some(lo) => CorePair { v_low: lo, v_high: level, ratio_high: 1.0 },
                    None => CorePair { v_low: level, v_high: level, ratio_high: 1.0 },
                }
            } else {
                CorePair { v_low: nb.v_low, v_high: nb.v_high, ratio_high: nb.ratio_high }
            }
        })
        .collect()
}

/// The chip-wide oscillation bound `M = min_i M_i` (only truly-oscillating
/// cores constrain it).
pub fn chip_max_m(platform: &Platform, pairs: &[CorePair], opts: &AoOptions) -> usize {
    let overhead = platform.overhead();
    let mut m = opts.max_m;
    for p in pairs {
        let oscillating = p.adjustable() && p.ratio_high > 1e-12 && p.ratio_high < 1.0 - 1e-12;
        if !oscillating {
            continue;
        }
        let t_low = (1.0 - p.ratio_high) * opts.base_period;
        m = m.min(overhead.max_m(p.v_low, p.v_high, t_low).max(1));
    }
    m.max(1)
}

/// Applies the per-repetition overhead compensation `δ` to the ratios for a
/// given oscillation factor.
fn adjusted_pairs(
    pairs: &[CorePair],
    platform: &Platform,
    m: usize,
    opts: &AoOptions,
) -> Vec<CorePair> {
    let overhead = platform.overhead();
    let t_c = opts.base_period / m as f64;
    pairs
        .iter()
        .map(|p| {
            let oscillating = p.adjustable() && p.ratio_high > 1e-12 && p.ratio_high < 1.0 - 1e-12;
            if !oscillating || overhead.is_zero() {
                return *p;
            }
            let delta = overhead.delta(p.v_low, p.v_high).unwrap_or(0.0);
            let ratio = (p.ratio_high + delta / t_c).min(1.0);
            CorePair { ratio_high: ratio, ..*p }
        })
        .collect()
}

/// Builds the two-mode step-up schedule for the compressed period.
pub fn schedule_from_pairs(pairs: &[CorePair], t_c: f64) -> Result<Schedule> {
    let v_low: Vec<f64> = pairs.iter().map(|p| p.v_low).collect();
    let v_high: Vec<f64> = pairs.iter().map(|p| p.v_high).collect();
    let ratio: Vec<f64> = pairs.iter().map(|p| p.ratio_high.clamp(0.0, 1.0)).collect();
    Ok(Schedule::two_mode(&v_low, &v_high, &ratio, t_c)?)
}

/// Sweeps the oscillation factor (Algorithm 2 lines 8–13). Returns the
/// smallest feasible factor (ties in net throughput keep the smaller `m`,
/// since extra oscillation only adds δ compensation) or, when no factor is
/// feasible on its own, the lowest-peak factor for the TPT pass to finish —
/// together with its δ-compensated pairs. When the compensation already
/// saturates at `m = 1`, no factor can oscillate at all: the result is
/// `m = 1` with every oscillating core held at its lower level.
///
/// # Errors
/// Propagated evaluation failures.
pub fn sweep_m(
    platform: &Platform,
    pairs: &[CorePair],
    opts: &AoOptions,
) -> Result<(usize, Vec<CorePair>)> {
    let _span = mosc_obs::span("ao.sweep_m");
    // When no core actually oscillates the schedule is m-invariant.
    if !pairs.iter().any(pairs_oscillating) {
        mosc_obs::event("ao.m_selected", &[("m", 1u64.into()), ("stop", "no_oscillation".into())]);
        return Ok((1, pairs.to_vec()));
    }
    let m_cap = chip_max_m(platform, pairs, opts);
    let t_max = platform.t_max();
    // Best feasible candidate: highest net throughput, first (smallest) m on
    // ties. Fallback: lowest stable peak.
    let mut best_feasible: Option<(usize, f64, f64)> = None;
    let mut best_peak: Option<(usize, f64)> = None;
    let mut since_improvement = 0;
    let mut stop: &'static str = "cap";
    for m in 1..=m_cap {
        // The compensation consuming a core's entire low interval means
        // larger m is pointless (and δ undefined), so saturation ends the
        // sweep.
        let adjusted = adjusted_pairs(pairs, platform, m, opts);
        if pairs
            .iter()
            .zip(&adjusted)
            .any(|(base, adj)| pairs_oscillating(base) && adj.ratio_high >= 1.0 - 1e-12)
        {
            stop = "overhead_saturated";
            break;
        }
        let schedule = schedule_from_pairs(&adjusted, opts.base_period / m as f64)?;
        let peak = platform.peak(&schedule)?.temp;
        M_CANDIDATES.incr();
        let mut improved = false;
        if peak <= t_max + ACCEPT_EPS {
            let net = schedule.throughput_with_overhead(platform.overhead());
            if best_feasible.is_none_or(|(_, b, _)| net > b + 1e-12) {
                best_feasible = Some((m, net, peak));
                improved = true;
            }
        }
        if best_peak.is_none_or(|(_, b)| peak < b - 1e-9) {
            best_peak = Some((m, peak));
            // Peak progress only counts while chasing first feasibility;
            // afterwards only net-throughput gains keep the sweep alive.
            improved = improved || best_feasible.is_none();
        }
        if improved {
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if since_improvement >= opts.m_patience {
                stop = "patience";
                break;
            }
        }
    }
    let (m, peak, selected) = match (best_feasible, best_peak) {
        (Some((m, _, p)), _) => (m, p, "smallest_feasible"),
        (None, Some((m, p))) => (m, p, "lowest_peak"),
        (None, None) => {
            // Saturated at m = 1, so nothing was evaluated: δ would fill a
            // core's whole low interval. Drop oscillation instead and let
            // the TPT pass cool the rest down to the all-low floor.
            mosc_obs::event(
                "ao.m_selected",
                &[("m", 1u64.into()), ("m_cap", m_cap.into()), ("stop", stop.into())],
            );
            let held_low = pairs
                .iter()
                .map(|p| if pairs_oscillating(p) { CorePair { ratio_high: 0.0, ..*p } } else { *p })
                .collect();
            return Ok((1, held_low));
        }
    };
    mosc_obs::event(
        "ao.m_selected",
        &[
            ("m", m.into()),
            ("m_cap", m_cap.into()),
            ("peak", peak.into()),
            ("stop", stop.into()),
            ("selected", selected.into()),
        ],
    );
    Ok((m, adjusted_pairs(pairs, platform, m, opts)))
}

fn pairs_oscillating(p: &CorePair) -> bool {
    p.ratio_high > 1e-12 && p.ratio_high < 1.0 - 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::PlatformSpec;

    fn quick_opts() -> AoOptions {
        AoOptions { base_period: 0.05, max_m: 64, m_patience: 4, t_unit_divisor: 50 }
    }

    #[test]
    fn sweep_prefers_smallest_feasible_m() {
        // Nonzero τ (the paper's 5 µs default): once a factor is feasible,
        // larger ones only add δ compensation, so the sweep must not pass
        // the smallest feasible m. Scaling the ideal ratios down leaves
        // thermal headroom in the continuous mixture, so feasibility is
        // reached at a finite m without any TPT adjustment.
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).unwrap();
        assert!(p.overhead().tau > 0.0, "paper default must carry overhead");
        let opts = quick_opts();
        let ideal = crate::continuous::solve(&p).unwrap();
        let mut pairs = build_pairs(&p, &ideal.voltages);
        for pair in &mut pairs {
            pair.ratio_high *= 0.6;
        }
        let (m_sel, _) = sweep_m(&p, &pairs, &opts).unwrap();
        let m_cap = chip_max_m(&p, &pairs, &opts);
        let smallest_feasible = (1..=m_cap).find(|&m| {
            let adjusted = adjusted_pairs(&pairs, &p, m, &opts);
            let s = schedule_from_pairs(&adjusted, opts.base_period / m as f64).unwrap();
            p.peak(&s).unwrap().temp <= p.t_max() + ACCEPT_EPS
        });
        let mf = smallest_feasible.expect("some m must be feasible with 0.6x ratios");
        assert!(m_sel <= mf, "selected m {m_sel} exceeds smallest feasible {mf}");
    }

    #[test]
    fn ao_is_feasible_and_beats_lns() {
        for (rows, cols) in [(1, 3), (2, 3)] {
            let p = Platform::build(&PlatformSpec::paper(rows, cols, 2, 55.0)).unwrap();
            let ao = solve_with(&p, &quick_opts()).unwrap();
            let lns = crate::lns::solve(&p).unwrap();
            assert!(ao.feasible, "{rows}x{cols}");
            assert!(
                ao.throughput >= lns.throughput - 1e-9,
                "{rows}x{cols}: AO {} < LNS {}",
                ao.throughput,
                lns.throughput
            );
        }
    }

    #[test]
    fn ao_beats_exs_on_constrained_two_level_platform() {
        // The paper's headline: with only 2 levels, oscillation recovers the
        // throughput that constant-speed assignment loses.
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).unwrap();
        let ao = solve_with(&p, &quick_opts()).unwrap();
        let exs = crate::exs::solve(&p).unwrap();
        assert!(
            ao.throughput > exs.throughput + 0.02,
            "AO {} should clearly beat EXS {}",
            ao.throughput,
            exs.throughput
        );
        assert!(ao.feasible);
    }

    #[test]
    fn ao_respects_tmax() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 2, 55.0)).unwrap();
        let ao = solve_with(&p, &quick_opts()).unwrap();
        assert!(ao.peak <= p.t_max() + 1e-6, "peak {} exceeds {}", ao.peak, p.t_max());
        // The schedule it returns is step-up (exact peak accounting).
        assert!(ao.schedule.is_step_up());
    }

    #[test]
    fn ao_throughput_close_to_continuous_ideal() {
        // With oscillation the two-level schedule should approach the ideal
        // continuous throughput from below, far above LNS.
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).unwrap();
        let ideal = crate::continuous::solve(&p).unwrap();
        let ao = solve_with(&p, &quick_opts()).unwrap();
        assert!(ao.throughput <= ideal.throughput + 1e-6);
        assert!(
            ao.throughput > 0.8 * ideal.throughput,
            "AO {} too far below ideal {}",
            ao.throughput,
            ideal.throughput
        );
    }

    #[test]
    fn ao_unconstrained_platform_runs_all_max() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 65.0)).unwrap();
        let ao = solve_with(&p, &quick_opts()).unwrap();
        assert!((ao.throughput - 1.3).abs() < 1e-6, "throughput {}", ao.throughput);
        assert_eq!(ao.m, 1, "no oscillation needed when unconstrained");
    }

    #[test]
    fn ao_infeasible_platform_errors() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 2, 36.0)).unwrap();
        assert!(matches!(solve_with(&p, &quick_opts()), Err(AlgoError::Infeasible { .. })));
    }

    #[test]
    fn option_validation() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
        let bad = AoOptions { base_period: 0.0, ..AoOptions::default() };
        assert!(matches!(solve_with(&p, &bad), Err(AlgoError::InvalidOptions { .. })));
        let bad = AoOptions { max_m: 0, ..AoOptions::default() };
        assert!(matches!(solve_with(&p, &bad), Err(AlgoError::InvalidOptions { .. })));
        let bad = AoOptions { t_unit_divisor: 1, ..AoOptions::default() };
        assert!(matches!(solve_with(&p, &bad), Err(AlgoError::InvalidOptions { .. })));
    }

    #[test]
    fn overhead_bounds_m() {
        // A large τ should force a small m.
        let mut spec = PlatformSpec::paper(1, 3, 2, 55.0);
        spec.overhead = mosc_power::TransitionOverhead::new(1e-3).unwrap();
        let p = Platform::build(&spec).unwrap();
        let ao = solve_with(&p, &quick_opts()).unwrap();
        let spec_small = PlatformSpec::paper(1, 3, 2, 55.0);
        let p_small = Platform::build(&spec_small).unwrap();
        let ao_small = solve_with(&p_small, &quick_opts()).unwrap();
        assert!(
            ao.m <= ao_small.m,
            "large overhead m {} must not exceed small overhead m {}",
            ao.m,
            ao_small.m
        );
        assert!(ao.feasible);
    }

    #[test]
    fn more_oscillation_allows_higher_throughput() {
        // Compare AO restricted to m = 1 against free m: oscillation should
        // strictly help on a constrained two-level platform.
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).unwrap();
        let free = solve_with(&p, &quick_opts()).unwrap();
        let pinned = solve_with(&p, &AoOptions { max_m: 1, ..quick_opts() }).unwrap();
        assert!(
            free.throughput >= pinned.throughput - 1e-9,
            "free-m {} < m=1 {}",
            free.throughput,
            pinned.throughput
        );
        assert!(free.m >= 1);
    }

    #[test]
    fn rank_tpt_ties_pick_the_lowest_index() {
        let t = 3.748_042_646_241_73e3;
        // Mirrored cores agree to a few ulps: tied, the lowest index wins.
        let nudged = t * (1.0 + 8.0 * f64::EPSILON);
        assert_eq!(rank_tpt(&[None, Some(nudged), Some(t), Some(nudged)]), Some(1));
        assert_eq!(rank_tpt(&[Some(t), Some(nudged)]), Some(0));
        assert_eq!(rank_tpt(&[Some(nudged), Some(t)]), Some(0));
    }

    #[test]
    fn rank_tpt_picks_a_strictly_better_core() {
        let t = 3.748_042_646_241_73e3;
        assert_eq!(rank_tpt(&[Some(t), Some(t * (1.0 + 1e-9)), Some(t)]), Some(1));
        assert_eq!(rank_tpt(&[Some(0.5 * t), None, Some(t)]), Some(2));
        assert_eq!(rank_tpt(&[None, None]), None);
        assert_eq!(rank_tpt(&[]), None);
    }

    #[test]
    fn build_pairs_reexpresses_clamped_cores() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 3, 65.0)).unwrap();
        // Ideal voltages clamp at 1.3 on this cool platform.
        let pairs = build_pairs(&p, &[1.3, 0.6]);
        assert_eq!(pairs[0].v_high, 1.3);
        assert!((pairs[0].ratio_high - 1.0).abs() < 1e-12);
        assert!(pairs[0].v_low < 1.3); // adjustable downward
                                       // Lowest level is not adjustable.
        assert_eq!(pairs[1].v_low, pairs[1].v_high);
        assert!(!pairs[1].adjustable());
    }
}
