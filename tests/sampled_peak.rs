//! The in-place sampled peak equals its full-vector definition, bit for bit.
//!
//! `SteadyState::peak_sampled` walks the stable trace in one reused buffer,
//! projects only the core rows of each sample and keeps a running maximum;
//! `peak_refined`'s golden-section polish evaluates one core's row per
//! point. Both are checked against references built from the public
//! full-vector API — `SteadyState::trace(..).peak()` and a polish over
//! `at_time(..)[core]` — on random phase-shifted two-mode schedules with
//! repeated blocks: temperature bits, core and time must all be equal.

use mosc::power::{CorePowerTable, PowerLike, PowerModel};
use mosc::prelude::*;
use mosc::sched::eval::{self, PeakReport, SteadyState};
use mosc::sched::PeriodMap;
use mosc_testutil::{propcheck_cases, Rng64};

/// The boundary slack `mosc-sched` uses when splitting the polish window
/// and locating times in intervals.
const EPS: f64 = 1e-9;

const SAMPLES: [usize; 3] = [20, 300, 600];

/// A random two-mode schedule on `n` cores: each core takes two levels and
/// a high share, some cores are cyclically shifted by a random fraction of
/// the block, and the block repeats 1–5 times.
fn random_shifted(rng: &mut Rng64, n: usize, levels: &[f64]) -> Schedule {
    let mut low = Vec::with_capacity(n);
    let mut high = Vec::with_capacity(n);
    let mut ratios = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = rng.gen_range(0..levels.len() - 1);
        let hi = rng.gen_range(lo + 1..levels.len());
        low.push(levels[lo]);
        high.push(levels[hi]);
        ratios.push(rng.gen_range(0.05..=0.95));
    }
    let block = rng.gen_range(0.002..=0.02);
    let mut s = Schedule::two_mode(&low, &high, &ratios, block).unwrap();
    for core in 0..n {
        if rng.below(3) != 0 {
            s = s.with_shifted_core(core, block * rng.gen_range(0.05..=0.95));
        }
    }
    s.repeated(rng.gen_range(1..=5usize))
}

/// `Trace::peak` over the materialized stable trace, as a report.
fn reference_sampled(ss: &SteadyState, model: &ThermalModel, samples: usize) -> PeakReport {
    let p = ss.trace(model, samples).unwrap().peak().unwrap();
    PeakReport { temp: p.temp, core: p.core, time: p.time, exact: false }
}

/// `SteadyState::peak_refined`'s search, every point read as
/// `at_time(..)[core]` from a full node vector.
fn reference_refined<P: PowerLike>(
    ss: &SteadyState,
    model: &ThermalModel,
    power: &P,
    schedule: &Schedule,
    samples: usize,
    tol: f64,
) -> PeakReport {
    let pm = PeriodMap::build(model, power, schedule).unwrap();
    let intervals: Vec<(f64, f64)> = pm.intervals().iter().map(|iv| (iv.start, iv.len)).collect();
    let period: f64 = pm.intervals().iter().map(|iv| iv.len).sum();

    let coarse = reference_sampled(ss, model, samples);
    let window = period / samples.max(1) as f64;
    let lo = (coarse.time - window).max(0.0);
    let hi = (coarse.time + window).min(period);
    let core = coarse.core;
    let f = |t: f64| ss.at_time(model, t).unwrap()[core];

    let mut cuts = vec![lo];
    for &(start, len) in &intervals {
        for b in [start, start + len] {
            if b > lo + EPS && b < hi - EPS {
                cuts.push(b);
            }
        }
    }
    cuts.push(hi);
    cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cuts.dedup_by(|a, b| (*a - *b).abs() < EPS);

    let mut best = coarse;
    for &c in &cuts {
        let v = f(c);
        if v > best.temp {
            best = PeakReport { temp: v, core, time: c, exact: false };
        }
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    for w in cuts.windows(2) {
        let (mut lo, mut hi) = (w[0], w[1]);
        let mut a = hi - INV_PHI * (hi - lo);
        let mut b = lo + INV_PHI * (hi - lo);
        let mut fa = f(a);
        let mut fb = f(b);
        let mut guard = 0;
        while hi - lo > tol && guard < 200 {
            guard += 1;
            if fa >= fb {
                hi = b;
                b = a;
                fb = fa;
                a = hi - INV_PHI * (hi - lo);
                fa = f(a);
            } else {
                lo = a;
                a = b;
                fa = fb;
                b = lo + INV_PHI * (hi - lo);
                fb = f(b);
            }
        }
        let t_best = 0.5 * (lo + hi);
        let refined = f(t_best);
        if refined > best.temp {
            best = PeakReport { temp: refined, core, time: t_best, exact: false };
        }
    }
    best
}

fn assert_same(got: PeakReport, want: PeakReport, what: &str) {
    assert_eq!(got.temp.to_bits(), want.temp.to_bits(), "{what}: temp {got:?} vs {want:?}");
    assert_eq!(got.core, want.core, "{what}: core {got:?} vs {want:?}");
    assert_eq!(got.time.to_bits(), want.time.to_bits(), "{what}: time {got:?} vs {want:?}");
    assert_eq!(got.exact, want.exact, "{what}");
}

fn check<P: PowerLike>(rng: &mut Rng64, model: &ThermalModel, power: &P, levels: &[f64]) {
    let schedule = random_shifted(rng, model.n_cores(), levels);
    let ss = SteadyState::compute(model, power, &schedule).unwrap();
    for samples in SAMPLES {
        let fused = ss.peak_sampled(model, samples).unwrap();
        assert_same(fused, reference_sampled(&ss, model, samples), "peak_sampled");

        let tol = schedule.block_period() / samples as f64 * 1e-3;
        let want = reference_refined(&ss, model, power, &schedule, samples, tol);
        assert_same(ss.peak_refined(model, samples, tol).unwrap(), want, "peak_refined");
        if !schedule.block_is_step_up() {
            let served = eval::peak_temperature(model, power, &schedule, Some(samples)).unwrap();
            assert_same(served, want, "peak_temperature");
        }
    }
}

#[test]
fn sampled_peaks_match_the_full_vector_path() {
    for (rows, cols) in [(1, 2), (2, 2), (1, 3)] {
        let p = Platform::build(&PlatformSpec::paper(rows, cols, 5, 60.0)).unwrap();
        propcheck_cases(&format!("sampled peak: {rows}x{cols}"), 6, |rng| {
            check(rng, p.thermal(), p.power(), p.modes().levels());
        });
    }
}

#[test]
fn sampled_peaks_match_on_a_heterogeneous_table() {
    propcheck_cases("sampled peak: heterogeneous power", 6, |rng| {
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
        check(rng, &model, &power, levels.levels());
    });
}

#[test]
fn sampled_peaks_match_on_a_two_layer_stack() {
    let spec = PlatformSpec { layers: 2, ..PlatformSpec::paper(1, 2, 5, 65.0) };
    let p = Platform::build(&spec).unwrap();
    propcheck_cases("sampled peak: 3-D stack", 6, |rng| {
        check(rng, p.thermal(), p.power(), p.modes().levels());
    });
}
