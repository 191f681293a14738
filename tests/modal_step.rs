//! The modal interval step equals the dense propagator it replaced.
//!
//! `ThermalModel::advance` and `eval::transient_trace` step eq. (3),
//! `T = e^{A·l}(T₀ − T∞) + T∞`, in the model's eigenbasis. Both are checked
//! against the dense reference `ThermalModel::propagator(l)` applied in node
//! coordinates, on paper platforms from 1×2 to 3×3, a heterogeneous
//! per-core-β model and a two-layer stack.

use mosc::linalg::Vector;
use mosc::power::{CorePowerTable, PowerLike, PowerModel};
use mosc::prelude::*;
use mosc::sched::eval::transient_trace;
use mosc_testutil::{propcheck_cases, Rng64};

/// Relative tolerance of the modal step against the dense reference.
const REL_TOL: f64 = 1e-9;

/// The boundary slack `mosc-sched` uses to skip empty state intervals.
const EPS: f64 = 1e-9;

/// One dense reference step: `Φ(dt)·(t0 − T∞) + T∞`.
fn dense_step(model: &ThermalModel, t0: &Vector, psi: &[f64], dt: f64) -> Vector {
    let t_inf = model.steady_state(psi).unwrap();
    let phi = model.propagator(dt).unwrap();
    &phi.matvec(&(t0 - &t_inf)).unwrap() + &t_inf
}

fn assert_close(modal: &Vector, dense: &Vector, what: &str) {
    let scale = dense.norm_inf().max(1.0);
    let diff = modal.max_abs_diff(dense);
    assert!(diff <= REL_TOL * scale, "{what}: |modal − dense| = {diff:e} at scale {scale}");
}

/// A random power profile on `n` cores, each at a level drawn from `levels`.
fn random_psi<P: PowerLike + ?Sized>(
    rng: &mut Rng64,
    power: &P,
    n: usize,
    levels: &[f64],
) -> Vec<f64> {
    let voltages: Vec<f64> = (0..n).map(|_| levels[rng.gen_range(0..levels.len())]).collect();
    power.psi_profile_of(&voltages)
}

/// `advance` against the dense step at `dt = 0` and log-uniform `dt` in
/// `[1e-6, 1e4]`, from a random warm start.
fn check_advance<P: PowerLike + ?Sized>(
    rng: &mut Rng64,
    model: &ThermalModel,
    power: &P,
    levels: &[f64],
) {
    let psi = random_psi(rng, power, model.n_cores(), levels);
    let t0 = Vector::from_fn(model.n_nodes(), |_| rng.gen_range(0.0..=40.0));
    let mut dts = vec![0.0];
    dts.extend((0..12).map(|_| 10f64.powf(rng.gen_range(-6.0..=4.0))));
    for dt in dts {
        let modal = model.advance(&t0, &psi, dt).unwrap();
        assert_close(&modal, &dense_step(model, &t0, &psi, dt), &format!("advance dt={dt:e}"));
    }
}

/// `transient_trace` against a stepwise dense replay of the same sample
/// grid, on a random two-mode schedule with one core phase-shifted.
fn check_trace<P: PowerLike + ?Sized>(
    rng: &mut Rng64,
    model: &ThermalModel,
    power: &P,
    levels: &[f64],
) {
    let n = model.n_cores();
    let low: Vec<f64> = (0..n).map(|_| levels[0]).collect();
    let high: Vec<f64> = (0..n).map(|_| levels[rng.gen_range(1..levels.len())]).collect();
    let ratios: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..=0.9)).collect();
    let period = rng.gen_range(0.005..=0.05);
    let schedule = Schedule::two_mode(&low, &high, &ratios, period)
        .unwrap()
        .with_shifted_core(n - 1, 0.3 * period);
    let (n_periods, samples) = (6, 10);
    let t0 = Vector::from_fn(model.n_nodes(), |_| rng.gen_range(0.0..=20.0));
    let trace = transient_trace(model, power, &schedule, &t0, n_periods, samples).unwrap();

    let dt_target = schedule.period() / samples as f64;
    let mut expected = vec![t0.clone()];
    let mut cur = t0;
    for _ in 0..n_periods {
        for (voltages, len) in schedule.state_intervals() {
            if len <= EPS {
                continue;
            }
            let psi = power.psi_profile_of(&voltages);
            let n_steps = (len / dt_target).ceil().max(1.0) as usize;
            let h = len / n_steps as f64;
            for _ in 0..n_steps {
                cur = dense_step(model, &cur, &psi, h);
                expected.push(cur.clone());
            }
        }
    }
    assert_eq!(trace.len(), expected.len(), "sample count");
    for (i, (modal, dense)) in trace.temps().iter().zip(&expected).enumerate() {
        assert_close(modal, dense, &format!("trace sample {i}"));
    }
}

fn check<P: PowerLike + ?Sized>(rng: &mut Rng64, model: &ThermalModel, power: &P, levels: &[f64]) {
    check_advance(rng, model, power, levels);
    check_trace(rng, model, power, levels);
}

#[test]
fn modal_steps_match_the_dense_propagator_on_paper_platforms() {
    for (rows, cols) in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)] {
        let p = Platform::build(&PlatformSpec::paper(rows, cols, 4, 65.0)).unwrap();
        propcheck_cases(&format!("modal step: {rows}x{cols}"), 4, |rng| {
            check(rng, p.thermal(), p.power(), p.modes().levels());
        });
    }
}

#[test]
fn modal_steps_match_the_dense_propagator_on_a_heterogeneous_model() {
    propcheck_cases("modal step: per-core beta", 4, |rng| {
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
        let levels = PlatformSpec::paper(2, 3, 4, 65.0).modes;
        check(rng, &model, &power, levels.levels());
    });
}

#[test]
fn modal_steps_match_the_dense_propagator_on_a_two_layer_stack() {
    let spec = PlatformSpec { layers: 2, ..PlatformSpec::paper(2, 2, 4, 65.0) };
    let p = Platform::build(&spec).unwrap();
    propcheck_cases("modal step: 3-D stack", 4, |rng| {
        check(rng, p.thermal(), p.power(), p.modes().levels());
    });
}

#[test]
fn advance_rejects_negative_and_non_finite_intervals() {
    let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
    let model = p.thermal();
    let t0 = Vector::zeros(model.n_nodes());
    let psi = p.psi_profile(&[1.3, 0.6]);
    assert!(model.advance(&t0, &psi, -1.0).is_err());
    assert!(model.advance(&t0, &psi, f64::NAN).is_err());
    assert!(model.advance(&t0, &psi, f64::INFINITY).is_err());
    assert!(model.advance(&Vector::zeros(1), &psi, 0.1).is_err());
}
