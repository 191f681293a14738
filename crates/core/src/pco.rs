//! PCO — phase-conscious oscillation.
//!
//! AO constrains every candidate to be a step-up schedule so its peak is one
//! exact evaluation (Theorem 1). The price is that every core's high-voltage
//! interval ends at the same instant — maximal temporal overlap of the hot
//! phases. PCO (Section VI-C) starts from AO's result and additionally
//! searches a cyclic **phase shift** per core, interleaving the hot intervals
//! spatially; it then refills the freed thermal headroom by growing
//! high-voltage ratios. Shifted schedules are no longer step-up, so every
//! evaluation uses the sampled-peak path — which is exactly why PCO's
//! computation time exceeds AO's in Table V. The phase search tries one
//! core's candidate offsets in order on the calling thread. A trial only
//! matters if it beats the best peak so far (a phase offset) or fits under
//! `T_max` (a refill candidate), so each one hands its evaluation that
//! bound as a cutoff and is abandoned at the first sample above it.

use crate::ao::{self, AoOptions};
use crate::{Result, Solution, ACCEPT_EPS, FEASIBILITY_EPS};
use mosc_sched::eval::{self};
use mosc_sched::{Platform, Schedule};

/// Candidate phase offsets evaluated (one sampled-peak each).
static PHASES_TRIED: mosc_obs::Counter = mosc_obs::Counter::new("pco.phases_tried");
/// Headroom-refill steps accepted (high-share grown by one `t_unit`).
static REFILL_STEPS: mosc_obs::Counter = mosc_obs::Counter::new("pco.refill_steps");
/// Phase trials and refill candidates whose evaluation stopped at a sample
/// above their cutoff.
static TRIALS_CUT: mosc_obs::Counter = mosc_obs::Counter::new("pco.trials_cut");

/// Tuning knobs for PCO.
#[derive(Debug, Clone, Copy)]
pub struct PcoOptions {
    /// The underlying AO options.
    pub ao: AoOptions,
    /// Number of candidate phase offsets per core (granularity `t_c/k`).
    pub phase_steps: usize,
    /// Samples per period for the sampled-peak evaluation.
    pub samples: usize,
    /// Refill step as a fraction of the period (`Δr = 1/refill_divisor`).
    pub refill_divisor: usize,
}

impl Default for PcoOptions {
    fn default() -> Self {
        Self { ao: AoOptions::default(), phase_steps: 8, samples: 300, refill_divisor: 100 }
    }
}

/// Runs PCO with default options.
///
/// # Errors
/// See [`solve_with`].
pub fn solve(platform: &Platform) -> Result<Solution> {
    solve_with(platform, &PcoOptions::default())
}

/// Runs PCO on `platform`.
///
/// # Errors
/// Propagates AO failures and evaluation failures.
pub fn solve_with(platform: &Platform, opts: &PcoOptions) -> Result<Solution> {
    let _span = mosc_obs::span("pco.solve");
    debug_assert!(crate::checks::platform_ok(platform), "PCO input platform fails static analysis");
    let ao_sol = ao::solve_with(platform, &opts.ao)?;
    refine(platform, &ao_sol, opts)
}

/// PCO's stages after AO: phase search, headroom refill and the sampled
/// safety valve, starting from the AO answer `ao_sol` on `platform`.
///
/// # Errors
/// Propagates evaluation failures.
pub fn refine(platform: &Platform, ao_sol: &Solution, opts: &PcoOptions) -> Result<Solution> {
    let t_max = platform.t_max();
    let mut schedule = ao_sol.schedule.clone();
    let t_c = schedule.period();

    // The sampled peak of `s` when it is at most `cutoff`; `None` (counted
    // as a cut trial) when one of its samples is above.
    let peak_within = |s: &Schedule, cutoff: f64| -> Result<Option<f64>> {
        let report = eval::peak_temperature_within(
            platform.thermal(),
            platform.power(),
            s,
            opts.samples,
            cutoff,
        )?;
        if report.is_none() {
            TRIALS_CUT.incr();
        }
        Ok(report.map(|r| r.temp))
    };

    // Phase search: greedily shift each core to the offset minimizing the
    // sampled peak; the first offset in order wins ties.
    let phase_span = mosc_obs::span("pco.phase_search");
    let mut peak = eval::peak_temperature(
        platform.thermal(),
        platform.power(),
        &schedule,
        Some(opts.samples),
    )?
    .temp;
    let mut shifted_cores = 0usize;
    let mut phase_cut = 0usize;
    for core in 0..platform.n_cores() {
        if schedule.core(core).segments().len() < 2 {
            continue; // constant cores have no phase
        }
        let mut best_offset = 0.0;
        let mut best_peak = peak;
        for k in 1..opts.phase_steps {
            let offset = t_c * k as f64 / opts.phase_steps as f64;
            PHASES_TRIED.incr();
            match peak_within(&schedule.with_shifted_core(core, offset), best_peak - 1e-12)? {
                Some(p) if p < best_peak - 1e-12 => {
                    best_peak = p;
                    best_offset = offset;
                }
                Some(_) => {}
                None => phase_cut += 1,
            }
        }
        if best_offset > 0.0 {
            schedule = schedule.with_shifted_core(core, best_offset);
            peak = best_peak;
            shifted_cores += 1;
        }
    }
    drop(phase_span);
    mosc_obs::event(
        "pco.phase_selected",
        &[
            ("shifted_cores", shifted_cores.into()),
            ("peak", peak.into()),
            ("cut", phase_cut.into()),
        ],
    );

    let refill_span = mosc_obs::span("pco.refill");
    let t_unit = t_c / opts.refill_divisor as f64;
    let max_iters = platform.n_cores() * opts.refill_divisor * 2;
    let (mut schedule, steps, refill_cut) =
        refill(platform, schedule, t_unit, max_iters, peak_within)?;
    drop(refill_span);
    mosc_obs::event("pco.refill_done", &[("steps", steps.into()), ("cut", refill_cut.into())]);

    // Final safety valve: if sampling missed a hot spot at coarse settings,
    // re-check at double resolution and shrink back if needed.
    let mut final_peak = eval::peak_temperature(
        platform.thermal(),
        platform.power(),
        &schedule,
        Some(opts.samples * 2),
    )?
    .temp;
    let mut guard = 0;
    while final_peak > t_max + ACCEPT_EPS && guard < max_iters {
        guard += 1;
        let Some(cand) = shrink_hottest_high_share(platform, &schedule, t_unit)? else {
            break;
        };
        schedule = cand;
        final_peak = eval::peak_temperature(
            platform.thermal(),
            platform.power(),
            &schedule,
            Some(opts.samples * 2),
        )?
        .temp;
    }

    let solution = Solution {
        algorithm: "PCO",
        throughput: schedule.throughput_with_overhead(platform.overhead()),
        feasible: final_peak <= t_max + FEASIBILITY_EPS,
        peak: final_peak,
        schedule,
        m: ao_sol.m,
    };
    // Phase-shifted schedules legitimately leave the step-up family, so the
    // step-up lint stays a warning here.
    debug_assert!(
        crate::checks::solution_ok(platform, &solution, false),
        "PCO result fails static analysis"
    );
    Ok(solution)
}

/// Headroom refill: grows the high-voltage share of whichever core keeps
/// the chip coolest by one `t_unit`, until no single step fits under `T_max`
/// or `max_passes` passes ran. `peak_within(s, cutoff)` is the sampled peak
/// of `s`, or `None` once it is known to exceed `cutoff`; candidates pass
/// `T_max + ACCEPT_EPS`. Returns the refilled schedule, the number of steps
/// accepted and the number of candidates cut.
fn refill(
    platform: &Platform,
    mut schedule: Schedule,
    t_unit: f64,
    max_passes: usize,
    peak_within: impl Fn(&Schedule, f64) -> Result<Option<f64>>,
) -> Result<(Schedule, usize, usize)> {
    let t_max = platform.t_max();
    let mut steps = 0;
    let mut cut = 0;
    for _ in 0..max_passes {
        let mut best: Option<(f64, f64, Schedule)> = None; // (peak, gain, schedule)
        for core in 0..platform.n_cores() {
            let Some(cand) = grow_high_share(&schedule, core, t_unit) else {
                continue;
            };
            let Some(p) = peak_within(&cand, t_max + ACCEPT_EPS)? else {
                cut += 1;
                continue;
            };
            if p <= t_max + ACCEPT_EPS {
                let gain = cand.throughput() - schedule.throughput();
                let better = match &best {
                    None => true,
                    Some((bp, bg, _)) => gain > *bg + 1e-15 || (gain >= *bg - 1e-15 && p < *bp),
                };
                if better && gain > 0.0 {
                    best = Some((p, gain, cand));
                }
            }
        }
        let Some((_, _, cand)) = best else {
            break;
        };
        schedule = cand;
        steps += 1;
        REFILL_STEPS.incr();
    }
    Ok((schedule, steps, cut))
}

/// Moves `t_unit` seconds from the lowest-voltage segment of `core` to its
/// highest-voltage segment. Returns `None` when the core has no two distinct
/// levels or the low segment is exhausted.
fn grow_high_share(schedule: &Schedule, core: usize, t_unit: f64) -> Option<Schedule> {
    transfer_time(schedule, core, t_unit, true)
}

/// The reverse move on the schedule's hottest core (used by the safety valve).
fn shrink_hottest_high_share(
    platform: &Platform,
    schedule: &Schedule,
    t_unit: f64,
) -> Result<Option<Schedule>> {
    let report = eval::peak_temperature(platform.thermal(), platform.power(), schedule, Some(200))?;
    // Try the hottest core first, then the others.
    let n = schedule.n_cores();
    for offset in 0..n {
        let core = (report.core + offset) % n;
        if let Some(cand) = transfer_time(schedule, core, t_unit, false) {
            return Ok(Some(cand));
        }
    }
    Ok(None)
}

/// Transfers `t_unit` between the extreme-voltage segments of one core
/// (`to_high = true` grows the high segment).
fn transfer_time(schedule: &Schedule, core: usize, t_unit: f64, to_high: bool) -> Option<Schedule> {
    let segs = schedule.core(core).segments();
    if segs.len() < 2 {
        return None;
    }
    let (mut lo_idx, mut hi_idx) = (0usize, 0usize);
    for (i, s) in segs.iter().enumerate() {
        if s.voltage < segs[lo_idx].voltage {
            lo_idx = i;
        }
        if s.voltage > segs[hi_idx].voltage {
            hi_idx = i;
        }
    }
    if segs[hi_idx].voltage <= segs[lo_idx].voltage + 1e-12 {
        return None;
    }
    let (from, to) = if to_high { (lo_idx, hi_idx) } else { (hi_idx, lo_idx) };
    if segs[from].duration < t_unit + 1e-12 {
        return None;
    }
    let mut new_segs = segs.to_vec();
    new_segs[from].duration -= t_unit;
    new_segs[to].duration += t_unit;
    let new_core = mosc_sched::CoreSchedule::new(new_segs).ok()?;
    schedule.with_core(core, new_core).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::PlatformSpec;

    fn quick_opts() -> PcoOptions {
        PcoOptions {
            ao: AoOptions { base_period: 0.05, max_m: 32, m_patience: 3, t_unit_divisor: 40 },
            phase_steps: 4,
            samples: 150,
            refill_divisor: 40,
        }
    }

    #[test]
    fn pco_is_feasible_and_at_least_ao() {
        let p = Platform::build(&PlatformSpec::paper(1, 3, 2, 55.0)).unwrap();
        let ao_sol = ao::solve_with(&p, &quick_opts().ao).unwrap();
        let pco_sol = solve_with(&p, &quick_opts()).unwrap();
        assert!(pco_sol.feasible, "PCO must satisfy T_max");
        // PCO should never be meaningfully worse than AO.
        assert!(
            pco_sol.throughput >= ao_sol.throughput - 0.02,
            "PCO {} well below AO {}",
            pco_sol.throughput,
            ao_sol.throughput
        );
    }

    #[test]
    fn pco_respects_tmax_on_constrained_platform() {
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).unwrap();
        let sol = solve_with(&p, &quick_opts()).unwrap();
        assert!(sol.feasible, "peak {} vs {}", sol.peak, p.t_max());
    }

    #[test]
    fn pco_unconstrained_platform_runs_all_max() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 65.0)).unwrap();
        let sol = solve_with(&p, &quick_opts()).unwrap();
        assert!((sol.throughput - 1.3).abs() < 1e-6);
    }

    #[test]
    fn refill_counts_accepted_steps_not_passes() {
        let p = Platform::build(&PlatformSpec::paper(1, 3, 2, 55.0)).unwrap();
        let opts = quick_opts();
        let ao_sol = ao::solve_with(&p, &opts.ao).unwrap();
        let peak = |s: &Schedule, cutoff: f64| -> Result<Option<f64>> {
            let r = eval::peak_temperature_within(p.thermal(), p.power(), s, opts.samples, cutoff)?;
            Ok(r.map(|r| r.temp))
        };
        let t_unit = ao_sol.schedule.period() / opts.refill_divisor as f64;

        // AO's answer leaves no step's worth of headroom: the one pass that
        // finds nothing to accept is not a step.
        let (same, steps, _) = refill(&p, ao_sol.schedule.clone(), t_unit, 100, peak).unwrap();
        assert_eq!(steps, 0, "a pass that accepts nothing counts nothing");
        assert_eq!(same.throughput(), ao_sol.schedule.throughput());

        // Free headroom on core 0, then give it back one step at a time.
        let mut cooled = ao_sol.schedule.clone();
        for _ in 0..3 {
            cooled = transfer_time(&cooled, 0, t_unit, false).unwrap();
        }
        let (_, none, _) = refill(&p, cooled.clone(), t_unit, 0, peak).unwrap();
        assert_eq!(none, 0);
        let (one, steps, _) = refill(&p, cooled.clone(), t_unit, 1, peak).unwrap();
        assert_eq!(steps, 1);
        assert!(one.throughput() > cooled.throughput());
        let (all, steps, _) = refill(&p, cooled.clone(), t_unit, 100, peak).unwrap();
        assert!((1..100).contains(&steps), "refill ran {steps} steps");
        assert!(all.throughput() >= one.throughput());
    }

    #[test]
    fn transfer_time_moves_between_extremes() {
        let s = Schedule::two_mode(&[0.6], &[1.3], &[0.5], 0.1).unwrap();
        let grown = grow_high_share(&s, 0, 0.01).unwrap();
        assert!(grown.throughput() > s.throughput());
        let shrunk = transfer_time(&s, 0, 0.01, false).unwrap();
        assert!(shrunk.throughput() < s.throughput());
        // Constant core: nothing to transfer.
        let c = Schedule::constant(&[1.0], 0.1).unwrap();
        assert!(grow_high_share(&c, 0, 0.01).is_none());
        // Exhausted segment: cannot overdraw.
        let tight = Schedule::two_mode(&[0.6], &[1.3], &[0.999], 0.1).unwrap();
        assert!(grow_high_share(&tight, 0, 0.01).is_none());
    }
}
