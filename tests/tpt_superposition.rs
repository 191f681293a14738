//! AO's TPT pass ranks its trials by per-core modal superposition
//! ([`StepUpResponse`]) instead of evaluating every trial schedule. These
//! properties pin the closed form to the exact period-map path, and whole
//! AO/PCO answers to a reference TPT pass that ranks every trial by a full
//! `SteadyState::compute` under the same tie rule ([`ao::rank_tpt`]).

use mosc::algorithms::ao::{self, AoOptions, CorePair};
use mosc::algorithms::pco::{self, PcoOptions};
use mosc::algorithms::{continuous, AlgoError, Solution, ACCEPT_EPS, FEASIBILITY_EPS};
use mosc::linalg::Vector;
use mosc::power::{CorePowerTable, PowerLike, PowerModel};
use mosc::prelude::*;
use mosc::sched::eval::SteadyState;
use mosc::sched::StepUpResponse;
use mosc_testutil::{propcheck_cases, Rng64};

/// Power drawn by one core only: by linearity its stable state is exactly
/// that core's superposition term.
struct Isolated<'a, P: PowerLike> {
    power: &'a P,
    core: usize,
}

impl<P: PowerLike> PowerLike for Isolated<'_, P> {
    fn psi_core(&self, core: usize, v: f64) -> f64 {
        if core == self.core {
            self.power.psi_core(core, v)
        } else {
            0.0
        }
    }

    fn beta_core(&self, core: usize) -> f64 {
        self.power.beta_core(core)
    }
}

/// Random δ-compensated two-mode pairs, the shape AO serves: each core takes
/// an adjacent level pair (or holds one level), a random high share, and
/// the per-repetition compensation `δ/t_c` for a random oscillation factor.
/// Returns the pairs and the compressed period `t_c`.
fn random_pairs(rng: &mut Rng64, n: usize, levels: &[f64]) -> (Vec<CorePair>, f64) {
    let overhead = TransitionOverhead::paper_default();
    let m = rng.gen_range(1..=64usize);
    let t_c = 0.1 / m as f64;
    let pairs = (0..n)
        .map(|_| {
            let lo = rng.gen_range(0..levels.len());
            let hi = (lo + rng.gen_range(0..=1usize)).min(levels.len() - 1);
            let (v_low, v_high) = (levels[lo], levels[hi]);
            let mut ratio_high = rng.gen_range(0.0..=1.0);
            if let Some(delta) = overhead.delta(v_low, v_high) {
                ratio_high = (ratio_high + delta / t_c).min(1.0);
            }
            CorePair { v_low, v_high, ratio_high }
        })
        .collect();
    (pairs, t_c)
}

/// Relative tolerance against `SteadyState::compute`: 1e-12, plus the
/// exact path's own rounding. The period map takes `1 − decay` of a product
/// of up to `n + 1` interval decays, which for the slowest mode sits within
/// `λ_min·t_c` of 1, so that mode carries a relative error up to about
/// `(n + 1)·ε / (λ_min·t_c)` — `~1e-11` at `t_c` = 1.5 ms on a 3×3 grid. The
/// closed form takes the same quantity through `expm1` and does not lose it.
fn tolerance(model: &ThermalModel, t_c: f64) -> f64 {
    let conditioning = (model.n_cores() + 1) as f64 * f64::EPSILON;
    1e-12 + conditioning / (model.modal_rates().min() * t_c)
}

fn assert_close(closed: &Vector, exact: &Vector, rtol: f64, what: &str) {
    let scale = exact.norm_inf();
    let err = closed.max_abs_diff(exact);
    assert!(
        err <= rtol * scale,
        "{what}: |closed − exact| = {err:e}, scale {scale:e}, rtol {rtol:e}"
    );
}

/// Every per-core term, their sum, and one `ratio_shift` per core (seen at
/// every core through `core_temp`) against
/// `SteadyState::compute` on the same schedule.
fn check_terms<P: PowerLike>(
    rng: &mut Rng64,
    model: &ThermalModel,
    power: &P,
    pairs: &[CorePair],
    t_c: f64,
) {
    let rtol = tolerance(model, t_c);
    let schedule = ao::schedule_from_pairs(pairs, t_c).unwrap();
    let response = StepUpResponse::new(model, t_c).unwrap();
    let mut total = Vector::zeros(model.n_nodes());
    for (j, p) in pairs.iter().enumerate() {
        let (psi_low, psi_high) = (power.psi_core(j, p.v_low), power.psi_core(j, p.v_high));
        let term = response.core_term(j, psi_low, psi_high, p.ratio_high);
        let alone = Isolated { power, core: j };
        let exact = SteadyState::compute(model, &alone, &schedule).unwrap();
        let closed = model.from_modal(&term).unwrap();
        assert_close(&closed, exact.t_start(), rtol, &format!("core {j} term"));
        total = &total + &term;

        // Core j alone moves its share; every core's temperature shifts by
        // the difference of two isolated stable states.
        let to = (p.ratio_high - rng.gen_range(0.0..=0.1)).max(0.0);
        let mut moved = pairs.to_vec();
        moved[j].ratio_high = to;
        let moved_schedule = ao::schedule_from_pairs(&moved, t_c).unwrap();
        let after = SteadyState::compute(model, &alone, &moved_schedule).unwrap();
        let scale = exact.t_start().norm_inf();
        let swap = response.ratio_shift(j, psi_low, psi_high, p.ratio_high, to);
        for at in 0..model.n_cores() {
            let shift = response.core_temp(at, &swap);
            let exact_shift = after.t_start()[at] - exact.t_start()[at];
            assert!(
                (shift - exact_shift).abs() <= 2.0 * rtol * scale,
                "core {j} shift at {at}: closed {shift:e} vs exact {exact_shift:e}"
            );
        }
    }
    let exact = SteadyState::compute(model, power, &schedule).unwrap();
    assert_close(&model.from_modal(&total).unwrap(), exact.t_start(), rtol, "sum of terms");
}

#[test]
fn core_terms_match_the_period_map_on_paper_platforms() {
    propcheck_cases("tpt terms: paper platforms", 12, |rng| {
        let (rows, cols) = (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize));
        let p = Platform::build(&PlatformSpec::paper(rows, cols, rng.gen_range(2..=5usize), 60.0))
            .unwrap();
        let (pairs, t_c) = random_pairs(rng, p.n_cores(), p.modes().levels());
        check_terms(rng, p.thermal(), p.power(), &pairs, t_c);
    });
}

#[test]
fn core_terms_match_the_period_map_on_a_heterogeneous_table() {
    propcheck_cases("tpt terms: heterogeneous power", 6, |rng| {
        let nominal = mosc::power::Params65nm::params().power;
        let models: Vec<PowerModel> = (0..6)
            .map(|_| {
                PowerModel::new(
                    nominal.alpha * rng.gen_range(0.7..=1.3),
                    nominal.beta * rng.gen_range(0.5..=1.5),
                    nominal.gamma * rng.gen_range(0.7..=1.3),
                )
                .unwrap()
            })
            .collect();
        let power = CorePowerTable::from_models(models).unwrap();
        let floorplan = Floorplan::grid(2, 3, 4.0e-3, 4.0e-3).unwrap();
        let network = RcNetwork::build(&floorplan, &RcConfig::default()).unwrap();
        let model = ThermalModel::with_betas(network, &power.betas()).unwrap();
        let levels = PlatformSpec::paper(2, 3, 5, 60.0).modes;
        let (pairs, t_c) = random_pairs(rng, 6, levels.levels());
        check_terms(rng, &model, &power, &pairs, t_c);
    });
}

#[test]
fn core_terms_match_the_period_map_on_a_two_layer_stack() {
    let spec = PlatformSpec { layers: 2, ..PlatformSpec::paper(1, 2, 5, 65.0) };
    let p = Platform::build(&spec).unwrap();
    propcheck_cases("tpt terms: 3-D stack", 6, |rng| {
        let (pairs, t_c) = random_pairs(rng, p.n_cores(), p.modes().levels());
        check_terms(rng, p.thermal(), p.power(), &pairs, t_c);
    });
}

/// The TPT pass as it ranked before superposition: every trial schedule is
/// built and evaluated in full, and the hot core's temperature comes from
/// its own `SteadyState`. Ties follow [`ao::rank_tpt`], like the served pass.
/// Returns the schedule and the number of rounds that moved time.
fn reference_adjust(
    platform: &Platform,
    pairs: &[CorePair],
    t_c: f64,
    t_unit: f64,
) -> Result<(Schedule, usize), AlgoError> {
    let (thermal, power) = (platform.thermal(), platform.power());
    let temp_of = |s: &Schedule, core: usize| -> Result<f64, AlgoError> {
        Ok(SteadyState::compute(thermal, power, s)?.t_start()[core])
    };
    let t_max = platform.t_max();
    let mut pairs = pairs.to_vec();
    let mut schedule = ao::schedule_from_pairs(&pairs, t_c)?;
    let mut last_reduced = None;
    let mut rounds = 0;
    loop {
        let peak = platform.peak(&schedule)?;
        if peak.temp <= t_max + ACCEPT_EPS {
            break;
        }
        rounds += 1;
        let hot_temp = temp_of(&schedule, peak.core)?;
        let mut tpt = Vec::with_capacity(pairs.len());
        for (j, p) in pairs.iter().enumerate() {
            let new_ratio = p.ratio_high - t_unit / t_c;
            if !p.adjustable() || new_ratio < -1e-12 {
                tpt.push(None);
                continue;
            }
            let mut trial = pairs.clone();
            trial[j].ratio_high = new_ratio.max(0.0);
            let reduction = hot_temp - temp_of(&ao::schedule_from_pairs(&trial, t_c)?, peak.core)?;
            tpt.push((reduction > 0.0).then(|| reduction / ((p.v_high - p.v_low) * t_unit)));
        }
        match ao::rank_tpt(&tpt) {
            Some(j) => {
                pairs[j].ratio_high = (pairs[j].ratio_high - t_unit / t_c).max(0.0);
                last_reduced = Some(j);
            }
            None => {
                let mut any = false;
                for p in pairs.iter_mut().filter(|p| p.adjustable() && p.ratio_high > 0.0) {
                    p.ratio_high = (p.ratio_high - t_unit / t_c).max(0.0);
                    any = true;
                }
                assert!(any, "the reference pass ran out of adjustable time");
                last_reduced = None;
            }
        }
        schedule = ao::schedule_from_pairs(&pairs, t_c)?;
    }
    if let Some(j) = last_reduced {
        let mut lo = pairs[j].ratio_high;
        let mut hi = (lo + t_unit / t_c).min(1.0);
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            let mut trial = pairs.clone();
            trial[j].ratio_high = mid;
            let s = ao::schedule_from_pairs(&trial, t_c)?;
            if platform.peak(&s)?.temp <= t_max + ACCEPT_EPS {
                lo = mid;
                pairs = trial;
                schedule = s;
            } else {
                hi = mid;
            }
        }
    }
    Ok((schedule, rounds))
}

/// `ao::solve_with` with [`reference_adjust`] as its TPT pass; also returns
/// the TPT round count.
fn reference_ao(platform: &Platform, opts: &AoOptions) -> Result<(Solution, usize), AlgoError> {
    let n = platform.n_cores();
    let lowest_peak = platform.steady_peak(&vec![platform.modes().lowest(); n])?;
    if lowest_peak > platform.t_max() + ACCEPT_EPS {
        return Err(AlgoError::Infeasible { lowest_peak, t_max: platform.t_max() });
    }
    let ideal = continuous::solve(platform)?;
    let pairs = ao::build_pairs(platform, &ideal.voltages);
    let (m, pairs) = ao::sweep_m(platform, &pairs, opts)?;
    let t_c = opts.base_period / m as f64;
    let (schedule, rounds) =
        reference_adjust(platform, &pairs, t_c, t_c / opts.t_unit_divisor as f64)?;
    let peak = platform.peak(&schedule)?.temp;
    let solution = Solution {
        algorithm: "AO",
        throughput: schedule.throughput_with_overhead(platform.overhead()),
        feasible: peak <= platform.t_max() + FEASIBILITY_EPS,
        peak,
        schedule,
        m,
    };
    Ok((solution, rounds))
}

fn assert_same_answer(what: &str, served: &Solution, reference: &Solution) {
    assert_eq!(served.feasible, reference.feasible, "{what}: feasibility");
    assert_eq!(served.m, reference.m, "{what}: m");
    assert!(
        (served.throughput - reference.throughput).abs() <= 1e-9,
        "{what}: throughput {} vs reference {}",
        served.throughput,
        reference.throughput
    );
    assert!(
        (served.peak - reference.peak).abs() <= 1e-9,
        "{what}: peak {} vs reference {}",
        served.peak,
        reference.peak
    );
}

fn random_platform(rng: &mut Rng64) -> (String, Platform) {
    let (rows, cols) = (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize));
    let levels = rng.gen_range(2..=5usize);
    let t_max_c = rng.gen_range(50.0..=75.0);
    let mut spec = PlatformSpec::paper(rows, cols, levels, t_max_c);
    match rng.gen_range(0..4usize) {
        0 => spec.rc = RcConfig::budget_cooler(),
        1 => spec = PlatformSpec { layers: 2, ..PlatformSpec::paper(1, cols, levels, t_max_c) },
        _ => {}
    }
    let name =
        format!("{}x{}x{} {levels} levels {t_max_c:.2} C", spec.layers, spec.rows, spec.cols);
    (name, Platform::build(&spec).unwrap())
}

#[test]
fn ao_answers_match_the_full_evaluation_ranking() {
    let opts = AoOptions::default();
    let mut adjusted = 0;
    propcheck_cases("tpt ranking: AO answers", 24, |rng| {
        let (name, p) = random_platform(rng);
        match (ao::solve_with(&p, &opts), reference_ao(&p, &opts)) {
            (Ok(served), Ok((reference, rounds))) => {
                assert_same_answer(&name, &served, &reference);
                adjusted += usize::from(rounds > 0);
            }
            (Err(AlgoError::Infeasible { .. }), Err(AlgoError::Infeasible { .. })) => {}
            (served, reference) => {
                panic!("{name}: served {served:?} vs reference {reference:?}")
            }
        }
    });
    // The comparison only bites where the TPT pass moved time.
    assert!(adjusted >= 8, "only {adjusted} of 24 platforms needed TPT rounds");
}

#[test]
fn pco_answers_match_the_full_evaluation_ranking() {
    let opts = PcoOptions::default();
    propcheck_cases("tpt ranking: PCO answers", 4, |rng| {
        let (name, p) = random_platform(rng);
        let Ok((reference_start, _)) = reference_ao(&p, &opts.ao) else {
            assert!(pco::solve_with(&p, &opts).is_err(), "{name}: PCO solved, reference did not");
            return;
        };
        let served = pco::solve_with(&p, &opts).unwrap();
        let reference = pco::refine(&p, &reference_start, &opts).unwrap();
        assert_same_answer(&name, &served, &reference);
    });
}
