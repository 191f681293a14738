//! Thermal evaluation of periodic schedules: steady state, traces, peaks.
//!
//! Implements eqs. (3) and (4) of the paper. A periodic schedule with state
//! intervals `I_q` (length `l_q`, voltage vector `v_q`) advances the
//! temperature affinely across each interval:
//!
//! ```text
//! T(t_q) = Φ_q·T(t_{q−1}) + (I − Φ_q)·T_q^∞,     Φ_q = e^{A·l_q}
//! ```
//!
//! Composing one period gives `T(t_p) = K·T(0) + r` with `K = Π Φ_q`; the
//! thermal stable status is the fixed point `T_ss(0) = (I − K)⁻¹·r`
//! (`I − K` is invertible because every eigenvalue of `A` is negative, so
//! `‖K‖ < 1`).
//!
//! Since all `Φ_q` are exponentials of the same `A`, the whole composition
//! diagonalizes in `A`'s eigenbasis: [`SteadyState::compute`] routes through
//! the [`crate::period_map`] kernel, which composes the period map
//! elementwise in modal coordinates (no `expm`, no dense products, no LU)
//! and exponentiates repeated blocks by binary squaring. The historical
//! interval-by-interval dense path is retained as [`compute_dense`] for
//! property tests and the bench comparison.

use crate::period_map::{self, PeriodMap};
use crate::schedule::EPS;
use crate::{Result, SchedError, Schedule};
use mosc_linalg::{Lu, Matrix, Vector};
use mosc_power::PowerLike;
use mosc_thermal::{ThermalModel, Trace};
use std::collections::hash_map::{Entry, HashMap};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Periodic fixed points computed ([`SteadyState::compute`] and the exact
/// step-up branch of [`peak_temperature`]): one period-map composition plus
/// its elementwise fixed point each.
static STEADY_STATE_CALLS: mosc_obs::Counter = mosc_obs::Counter::new("steady_state.calls");
/// Peak-temperature evaluations ([`peak_temperature`]) — the unit of work
/// every solver's inner loop is measured in.
static PEAK_EVAL_CALLS: mosc_obs::Counter = mosc_obs::Counter::new("peak_eval.calls");
/// Of the peak evaluations, how many took the exact Theorem-1 step-up path
/// (the rest fell back to sampling + golden-section refinement).
static PEAK_EVAL_EXACT: mosc_obs::Counter = mosc_obs::Counter::new("peak_eval.exact_path");

/// Default number of samples per period for the sampling-based peak search
/// on non-step-up schedules.
pub const DEFAULT_SAMPLES_PER_PERIOD: usize = 400;

/// One block state interval of the stable status, in modal coordinates.
#[derive(Debug, Clone)]
struct IntervalState {
    /// Start time within the block (s).
    start: f64,
    /// Interval length (s).
    len: f64,
    /// Modal steady state of the interval's power profile.
    y_inf: Arc<Vector>,
    /// Modal temperatures at the interval start (stable status).
    y_at_start: Vector,
}

impl IntervalState {
    /// Writes the stable modal state `dt` into the interval into `y`:
    /// `e^{−λ·dt}∘(y_start − y∞) + y∞`, with `λ` the model's
    /// [`ThermalModel::modal_rates`] (the factors of `modal_decay(dt)`).
    fn modal_at(&self, rates: &Vector, dt: f64, y: &mut [f64]) {
        let modes = rates.iter().zip(self.y_at_start.iter()).zip(self.y_inf.iter());
        for (yk, ((&lam, &y0), &yi)) in y.iter_mut().zip(modes) {
            *yk = (-lam * dt).exp() * (y0 - yi) + yi;
        }
    }
}

/// The periodic thermal stable status of a schedule on a model: the
/// start-of-period temperature fixed point plus the per-interval modal data
/// needed to reconstruct the trace anywhere inside the repeating block (the
/// stable trace of a repeated schedule is block-periodic).
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// Start-of-period node temperatures in the stable status.
    t_start: Vector,
    /// Per-interval modal data for one repeating block.
    intervals: Vec<IntervalState>,
    /// Node temperatures at each interval end (stable status), aligned with
    /// `intervals`.
    at_ends: Vec<Vector>,
    /// Repetition factor carried from the schedule.
    repetitions: usize,
    n_cores: usize,
}

impl SteadyState {
    /// Computes the stable status of `schedule` on `model` with `power`
    /// (either the chip-uniform [`mosc_power::PowerModel`] or a per-core
    /// [`mosc_power::CorePowerTable`]; with the latter, the model's per-core
    /// β values must have been built to match).
    ///
    /// Runs entirely through the [`crate::period_map`] modal kernel: cost is
    /// `O(d·n²)` in the block's interval count `d` and *independent* of the
    /// schedule's repetition factor up to an `O(n·log m)` squaring term —
    /// compare [`compute_dense`].
    ///
    /// # Errors
    /// Core-count mismatches or (for pathological models) solver failures.
    pub fn compute<P: PowerLike + ?Sized>(
        model: &ThermalModel,
        power: &P,
        schedule: &Schedule,
    ) -> Result<Self> {
        let (pm, y0) = stable_start_modal(model, power, schedule)?;
        let t_start = period_map::from_modal(model, &y0)?;

        let mut intervals = Vec::with_capacity(pm.intervals().len());
        let mut at_ends = Vec::with_capacity(pm.intervals().len());
        let mut y = y0;
        for iv in pm.intervals() {
            let y_at_start = y.clone();
            y = Vector::from_fn(y.len(), |k| iv.decay[k] * (y[k] - iv.y_inf[k]) + iv.y_inf[k]);
            at_ends.push(period_map::from_modal(model, &y)?);
            intervals.push(IntervalState {
                start: iv.start,
                len: iv.len,
                y_inf: Arc::clone(&iv.y_inf),
                y_at_start,
            });
        }
        Ok(Self {
            t_start,
            intervals,
            at_ends,
            repetitions: pm.repetitions(),
            n_cores: model.n_cores(),
        })
    }

    /// Duration of the repeating block covered by the per-interval data.
    fn block_period(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.len).sum()
    }

    /// Start-of-period temperatures (all nodes).
    #[must_use]
    pub fn t_start(&self) -> &Vector {
        &self.t_start
    }

    /// Temperatures at the end of each state interval.
    #[must_use]
    pub fn at_interval_ends(&self) -> &[Vector] {
        &self.at_ends
    }

    /// Largest core temperature observed at any interval boundary (start of
    /// period included). For step-up schedules this *is* the peak
    /// (Theorem 1); for arbitrary schedules it is a lower bound.
    #[must_use]
    pub fn peak_at_boundaries(&self) -> PeakReport {
        let mut best = PeakReport { temp: f64::NEG_INFINITY, core: 0, time: 0.0, exact: false };
        let period = self.block_period();
        let consider = |t: &Vector, time: f64, best: &mut PeakReport| {
            for c in 0..self.n_cores {
                if t[c] > best.temp {
                    *best = PeakReport { temp: t[c], core: c, time, exact: false };
                }
            }
        };
        consider(&self.t_start, 0.0, &mut best);
        for (iv, t) in self.intervals.iter().zip(&self.at_ends) {
            consider(t, (iv.start + iv.len).min(period), &mut best);
        }
        best
    }

    /// Samples the stable-status trace at (at least) `samples` points over
    /// one repeating block (= the full period for unrepeated schedules; the
    /// stable trace of a repeated schedule is block-periodic), always
    /// including interval boundaries. Each sample costs one elementwise
    /// modal step plus one basis change — no propagator builds.
    ///
    /// # Errors
    /// Solver failures only (cannot occur for a constructed model).
    pub fn trace(&self, model: &ThermalModel, samples: usize) -> Result<Trace> {
        let mut trace = Trace::with_capacity(self.n_cores, samples + self.intervals.len() + 2);
        trace.push(0.0, self.t_start.clone());
        let ControlFlow::Continue(()) =
            self.walk(model, samples, 0..self.intervals.len(), |_, time, y| {
                trace.push(time, period_map::from_modal(model, y)?);
                Ok(ControlFlow::<Infallible>::Continue(()))
            })?;
        Ok(trace)
    }

    /// The sample walk behind [`SteadyState::trace`] and
    /// [`SteadyState::peak_sampled`]: steps each block interval named by
    /// `order` in `ceil(len / dt_target)` equal steps of `h`, advancing one
    /// reused modal buffer by `y ← d∘(y − y∞) + y∞` with `d = e^{−λ·h}`, and
    /// hands `visit` every sample after the period start (interval index,
    /// time, modal state) until it breaks. Each interval restarts from its
    /// own stable start state, so a sample's bits do not depend on the order
    /// the intervals are stepped in. Allocates per walk and per interval,
    /// never per sample.
    fn walk<B>(
        &self,
        model: &ThermalModel,
        samples: usize,
        order: impl IntoIterator<Item = usize>,
        mut visit: impl FnMut(usize, f64, &Vector) -> Result<ControlFlow<B>>,
    ) -> Result<ControlFlow<B>> {
        let dt_target = self.block_period() / samples.max(1) as f64;
        let mut y = Vector::zeros(model.n_nodes());
        for i in order {
            let iv = &self.intervals[i];
            let n_steps = (iv.len / dt_target).ceil().max(1.0) as usize;
            let h = iv.len / n_steps as f64;
            let d = model.modal_decay(h)?;
            y.as_mut_slice().copy_from_slice(iv.y_at_start.as_slice());
            for s in 1..=n_steps {
                let modes = d.iter().zip(iv.y_inf.iter());
                for (yk, (&dk, &ik)) in y.as_mut_slice().iter_mut().zip(modes) {
                    *yk = dk * (*yk - ik) + ik;
                }
                if let ControlFlow::Break(b) = visit(i, iv.start + h * s as f64, &y)? {
                    return Ok(ControlFlow::Break(b));
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Peak core temperature over the sampled stable-status trace:
    /// bit-identical to `self.trace(model, samples)?.peak()`, but each sample
    /// projects only the core rows of the basis change and feeds a running
    /// maximum, so no trace is stored and nothing is allocated per sample.
    ///
    /// # Errors
    /// Solver failures only (cannot occur for a constructed model).
    pub fn peak_sampled(&self, model: &ThermalModel, samples: usize) -> Result<PeakReport> {
        Ok(self
            .peak_sampled_within(model, samples, f64::INFINITY)?
            .expect("no sample exceeds an infinite cutoff"))
    }

    /// [`SteadyState::peak_sampled`], abandoned at the first sample hotter
    /// than `cutoff`: `None` then, which proves the sampled peak (and so the
    /// refined one) is above `cutoff`; otherwise the same report, bit for
    /// bit.
    ///
    /// The period start is checked first, then the block interval whose end
    /// is hottest in the stable status is stepped, then the others in
    /// order — a sample that rules the schedule out usually comes early.
    /// The maximum is still the first hottest sample in trace order (strict
    /// `>`): each interval keeps its own running maximum, and those are
    /// folded in interval order after the period start's.
    fn peak_sampled_within(
        &self,
        model: &ThermalModel,
        samples: usize,
        cutoff: f64,
    ) -> Result<Option<PeakReport>> {
        let mut start: Option<PeakReport> = None;
        for core in 0..self.n_cores {
            let temp = self.t_start[core];
            if temp > cutoff {
                return Ok(None);
            }
            if start.is_none_or(|b| temp > b.temp) {
                start = Some(PeakReport { temp, core, time: 0.0, exact: false });
            }
        }
        let mut hot = None;
        let mut hot_temp = f64::NEG_INFINITY;
        for (i, t) in self.at_ends.iter().enumerate() {
            for c in 0..self.n_cores {
                if t[c] > hot_temp {
                    (hot, hot_temp) = (Some(i), t[c]);
                }
            }
        }
        let order = hot.into_iter().chain((0..self.intervals.len()).filter(|&i| Some(i) != hot));
        let mut interval_best: Vec<Option<PeakReport>> = vec![None; self.intervals.len()];
        let flow = self.walk(model, samples, order, |i, time, y| {
            period_map::count_projection();
            let best = &mut interval_best[i];
            for core in 0..self.n_cores {
                let temp = model.node_from_modal(core, y.as_slice());
                if temp > cutoff {
                    return Ok(ControlFlow::Break(()));
                }
                if temp > best.map_or(f64::NEG_INFINITY, |b| b.temp) {
                    *best = Some(PeakReport { temp, core, time, exact: false });
                }
            }
            Ok(ControlFlow::Continue(()))
        })?;
        if flow.is_break() {
            return Ok(None);
        }
        let mut best = start.expect("a platform has at least one core");
        for b in interval_best.into_iter().flatten() {
            if b.temp > best.temp {
                best = b;
            }
        }
        Ok(Some(best))
    }

    /// The block interval enclosing time `t` and the offset into it, with
    /// times beyond the first block folded modulo the block period; `None`
    /// past the last interval (within `EPS` of the block end).
    fn locate(&self, t: f64) -> Result<Option<(&IntervalState, f64)>> {
        let block = self.block_period();
        let period = block * self.repetitions as f64;
        if !(0.0..=period + EPS).contains(&t) {
            return Err(SchedError::Invalid {
                what: format!("time {t} outside the period [0, {period}]"),
            });
        }
        let t = if t > block + EPS { t % block } else { t };
        Ok(self
            .intervals
            .iter()
            .find(|iv| t <= iv.start + iv.len + EPS)
            .map(|iv| (iv, (t - iv.start).max(0.0))))
    }

    /// Temperature vector at an arbitrary time within the period (stable
    /// status): one elementwise modal step from the enclosing interval's
    /// start plus a basis change — no propagator build.
    ///
    /// Times beyond the first block (repeated schedules) are folded modulo
    /// the block period, which the stable trace is periodic in.
    ///
    /// # Errors
    /// Rejects times outside `[0, period]`; propagates solver failures.
    pub fn at_time(&self, model: &ThermalModel, t: f64) -> Result<Vector> {
        match self.locate(t)? {
            Some((iv, dt)) => {
                let mut y = Vector::zeros(model.n_nodes());
                iv.modal_at(model.modal_rates(), dt, y.as_mut_slice());
                period_map::from_modal(model, &y)
            }
            None => Ok(self.at_ends.last().expect("non-empty schedule").clone()),
        }
    }

    /// One core's stable temperature at time `t`, bit-identical to
    /// `self.at_time(model, t)?[core]`: the modal state is written into the
    /// caller's buffer `y` and only `core`'s row of the basis change is
    /// summed.
    fn core_at_time(
        &self,
        model: &ThermalModel,
        core: usize,
        t: f64,
        y: &mut [f64],
    ) -> Result<f64> {
        match self.locate(t)? {
            Some((iv, dt)) => {
                iv.modal_at(model.modal_rates(), dt, y);
                period_map::count_projection();
                Ok(model.node_from_modal(core, y))
            }
            None => Ok(self.at_ends.last().expect("non-empty schedule")[core]),
        }
    }

    /// Sampled peak refined by golden-section search around the hottest
    /// sample. Within one state interval each core's temperature is a sum of
    /// decaying exponentials toward `T∞` and is unimodal between samples at
    /// any reasonable sampling density — but the `±1` sample window around
    /// the hottest sample can straddle a state-interval boundary, where the
    /// temperature kinks and is *not* unimodal. The window is therefore
    /// split at every interior interval boundary, each boundary point is
    /// evaluated explicitly (a kink maximum sits exactly there), and the
    /// golden-section search runs per sub-bracket.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn peak_refined(
        &self,
        model: &ThermalModel,
        samples: usize,
        tol: f64,
    ) -> Result<PeakReport> {
        let coarse = self.peak_sampled(model, samples)?;
        self.polish(model, coarse, samples, tol)
    }

    /// The golden-section half of [`SteadyState::peak_refined`], around the
    /// sampled peak `coarse` of a `samples`-point walk.
    fn polish(
        &self,
        model: &ThermalModel,
        coarse: PeakReport,
        samples: usize,
        tol: f64,
    ) -> Result<PeakReport> {
        let period = self.block_period();
        let window = period / samples.max(1) as f64;
        let lo = (coarse.time - window).max(0.0);
        let hi = (coarse.time + window).min(period);
        let core = coarse.core;
        let mut y = vec![0.0; model.n_nodes()];
        let mut f = |t: f64| self.core_at_time(model, core, t, &mut y);

        // Split the window at the state-interval boundaries inside it.
        let mut cuts = Vec::with_capacity(2 + 2 * self.intervals.len());
        cuts.push(lo);
        for iv in &self.intervals {
            for b in [iv.start, iv.start + iv.len] {
                if b > lo + EPS && b < hi - EPS {
                    cuts.push(b);
                }
            }
        }
        cuts.push(hi);
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        cuts.dedup_by(|a, b| (*a - *b).abs() < EPS);

        let mut best = coarse;
        // Boundary points first: a kink maximum is exactly there and no
        // interior search would converge onto it.
        for &c in &cuts {
            let v = f(c)?;
            if v > best.temp {
                best = PeakReport { temp: v, core, time: c, exact: false };
            }
        }
        // Golden-section maximization inside each sub-bracket, where the
        // temperature is a smooth sum of exponentials and unimodal.
        const INV_PHI: f64 = 0.618_033_988_749_894_9;
        for w in cuts.windows(2) {
            let (mut lo, mut hi) = (w[0], w[1]);
            let mut a = hi - INV_PHI * (hi - lo);
            let mut b = lo + INV_PHI * (hi - lo);
            let mut fa = f(a)?;
            let mut fb = f(b)?;
            let mut guard = 0;
            while hi - lo > tol && guard < 200 {
                guard += 1;
                if fa >= fb {
                    hi = b;
                    b = a;
                    fb = fa;
                    a = hi - INV_PHI * (hi - lo);
                    fa = f(a)?;
                } else {
                    lo = a;
                    a = b;
                    fa = fb;
                    b = lo + INV_PHI * (hi - lo);
                    fb = f(b)?;
                }
            }
            let t_best = 0.5 * (lo + hi);
            let refined = f(t_best)?;
            if refined > best.temp {
                best = PeakReport { temp: refined, core, time: t_best, exact: false };
            }
        }
        Ok(best)
    }
}

/// The modal stable state at the period start, with the period map it came
/// from — the shared first half of [`SteadyState::compute`] and the exact
/// step-up peak, counted once on `steady_state.calls`.
fn stable_start_modal<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    schedule: &Schedule,
) -> Result<(PeriodMap, Vector)> {
    STEADY_STATE_CALLS.incr();
    let pm = PeriodMap::build(model, power, schedule)?;
    let y0 = pm.steady_start()?;
    Ok((pm, y0))
}

/// Where and how hot the peak is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakReport {
    /// Peak core temperature, relative to ambient (K).
    pub temp: f64,
    /// Core attaining the peak.
    pub core: usize,
    /// Time within the period at which the peak occurs (s).
    pub time: f64,
    /// `true` when produced by the exact Theorem-1 path (step-up schedules),
    /// `false` for sampled estimates.
    pub exact: bool,
}

/// Peak temperature of `schedule` in the thermal stable status.
///
/// Step-up schedules take the exact Theorem-1 fast path (the peak is the
/// period-end = period-start stable temperature). Arbitrary schedules fall
/// back to dense sampling with `samples` points per period
/// ([`DEFAULT_SAMPLES_PER_PERIOD`] when `None`), polished by
/// [`SteadyState::peak_refined`].
///
/// # Errors
/// Core-count mismatches or solver failures.
pub fn peak_temperature<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    schedule: &Schedule,
    samples: Option<usize>,
) -> Result<PeakReport> {
    let samples = samples.unwrap_or(DEFAULT_SAMPLES_PER_PERIOD);
    Ok(peak_temperature_within(model, power, schedule, samples, f64::INFINITY)?
        .expect("no sample exceeds an infinite cutoff"))
}

/// [`peak_temperature`] for a caller that only needs the answer when it is
/// at most `cutoff`: `Some(r)` is bit-identical to
/// `peak_temperature(model, power, schedule, Some(samples))`, and `None`
/// means one of that evaluation's own coarse samples (the period start
/// included) was above `cutoff` — the polish only raises the coarse
/// maximum, so the peak is above `cutoff` too. A schedule ruled out early
/// skips the rest of its walk and the polish.
///
/// Step-up schedules take the exact path and always answer `Some`.
///
/// # Errors
/// Core-count mismatches or solver failures.
pub fn peak_temperature_within<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    schedule: &Schedule,
    samples: usize,
    cutoff: f64,
) -> Result<Option<PeakReport>> {
    PEAK_EVAL_CALLS.incr();
    // Theorem 1 applies per repeating block: the stable trace is
    // block-periodic, so a step-up *block* peaks at the block boundary even
    // when the repeated full-period schedule is not globally step-up. Only
    // the period-start vector is read, so the interval-end basis changes of
    // a full `SteadyState` are skipped: one `from_modal` per evaluation.
    if schedule.block_is_step_up() {
        PEAK_EVAL_EXACT.incr();
        let (_, y0) = stable_start_modal(model, power, schedule)?;
        let t = period_map::from_modal(model, &y0)?;
        let mut best = PeakReport { temp: f64::NEG_INFINITY, core: 0, time: 0.0, exact: true };
        for c in 0..model.n_cores() {
            if t[c] > best.temp {
                best = PeakReport { temp: t[c], core: c, time: 0.0, exact: true };
            }
        }
        Ok(Some(best))
    } else {
        // Sample, then polish the winning sample with a golden-section local
        // search — one extra core's trajectory, so nearly free.
        let ss = SteadyState::compute(model, power, schedule)?;
        let Some(coarse) = ss.peak_sampled_within(model, samples, cutoff)? else {
            return Ok(None);
        };
        let tol = schedule.block_period() / samples as f64 * 1e-3;
        ss.polish(model, coarse, samples, tol).map(Some)
    }
}

/// Interval-by-interval dense reference for [`SteadyState::compute`]: walks
/// every materialized state interval of the *full* period (all repetitions),
/// composing `K = Π Φ_q` with dense products and solving `(I − K)·T = r` by
/// LU — `O(m·d·n³)` for a block of `d` intervals repeated `m` times. Each
/// distinct interval length's dense [`ThermalModel::propagator`] is built
/// once per call. Returns the start-of-period fixed point and the
/// temperatures at every interval end. Retained as the property-test oracle
/// and the "before" side of the period-map bench comparison.
///
/// # Errors
/// Core-count mismatches or solver failures.
pub fn compute_dense<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    schedule: &Schedule,
) -> Result<(Vector, Vec<Vector>)> {
    if schedule.n_cores() != model.n_cores() {
        return Err(SchedError::CoreCountMismatch {
            schedule: schedule.n_cores(),
            model: model.n_cores(),
        });
    }
    let n = model.n_nodes();
    let ivs = schedule.state_intervals();

    // Per-interval steady states and propagators; compose the period map.
    let mut phis: HashMap<u64, Matrix> = HashMap::new();
    let mut k = Matrix::identity(n);
    let mut r = Vector::zeros(n);
    let mut interval_data = Vec::with_capacity(ivs.len());
    for (voltages, len) in &ivs {
        let psi = power.psi_profile_of(voltages);
        let t_inf = model.steady_state(&psi)?;
        let phi = match phis.entry(len.to_bits()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(model.propagator(*len)?),
        };
        // r ← Φ·r + (I − Φ)·T∞;  K ← Φ·K
        let phir = phi.matvec(&r)?;
        let phit = phi.matvec(&t_inf)?;
        r = &(&phir + &t_inf) - &phit;
        k = phi.matmul(&k)?;
        interval_data.push((*len, t_inf));
    }

    // Fixed point (I − K)·T_ss(0) = r.
    let i_minus_k = &Matrix::identity(n) - &k;
    let t_start = Lu::new(&i_minus_k)?.solve_vec(&r)?;

    // Temperatures at interval ends.
    let mut at_ends = Vec::with_capacity(interval_data.len());
    let mut cur = t_start.clone();
    for (len, t_inf) in &interval_data {
        let phi = &phis[&len.to_bits()];
        let diff = &cur - t_inf;
        cur = &phi.matvec(&diff)? + t_inf;
        at_ends.push(cur.clone());
    }
    Ok((t_start, at_ends))
}

/// Energy drawn per period in the thermal stable status (J): the
/// temperature-independent part `Σ_q Σ_i ψ(v_{i,q})·l_q` plus the leakage
/// part `β·Σ_i ∫ T_i dt`, the latter integrated by trapezoid over a sampled
/// stable trace. Pure DVFS analyses often ignore the leakage term; here it
/// is where frequency oscillation's energy cost (hotter average silicon)
/// shows up.
///
/// # Errors
/// Core-count mismatches or solver failures.
pub fn stable_energy_per_period<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    schedule: &Schedule,
    samples: usize,
) -> Result<f64> {
    let ss = SteadyState::compute(model, power, schedule)?;
    // ψ part: exact.
    let mut energy = 0.0;
    for (voltages, len) in schedule.state_intervals() {
        energy += power.psi_profile_of(&voltages).iter().sum::<f64>() * len;
    }
    // β·∫T: trapezoid over the sampled stable trace (core nodes only, and
    // only while the core is active — inactive cores leak nothing in this
    // model).
    // The trace covers one repeating block and the stable status is
    // block-periodic, so the full-period leakage integral is the block
    // integral times the repetition count.
    let any_leak = (0..schedule.n_cores()).any(|c| power.beta_core(c) > 0.0);
    if any_leak {
        let trace = ss.trace(model, samples.max(8))?;
        let times = trace.times();
        let temps = trace.temps();
        let mut integral = 0.0;
        #[allow(clippy::needless_range_loop)]
        for w in 0..times.len() - 1 {
            let dt = times[w + 1] - times[w];
            let mid_t = 0.5 * (times[w] + times[w + 1]);
            for c in 0..schedule.n_cores() {
                if schedule.core(c).voltage_at(mid_t) > 0.0 {
                    integral += power.beta_core(c) * 0.5 * (temps[w][c] + temps[w + 1][c]) * dt;
                }
            }
        }
        energy += integral * schedule.repetitions() as f64;
    }
    Ok(energy)
}

/// Transient trace: starts from `t0` (e.g. ambient = zeros) and plays the
/// schedule for `n_periods` periods, sampling `samples_per_period` points in
/// each. Used by the Fig. 4 reproduction (step-up warm-up from ambient).
///
/// The state steps in modal coordinates, as in
/// [`ThermalModel::advance`]: one basis change in at the start, per
/// interval one memoized `y∞` and one decay vector, and per recorded sample
/// one elementwise step and one basis change out.
///
/// # Errors
/// Core-count mismatches, dimension mismatches, or solver failures.
pub fn transient_trace<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    schedule: &Schedule,
    t0: &Vector,
    n_periods: usize,
    samples_per_period: usize,
) -> Result<Trace> {
    if schedule.n_cores() != model.n_cores() {
        return Err(SchedError::CoreCountMismatch {
            schedule: schedule.n_cores(),
            model: model.n_cores(),
        });
    }
    if t0.len() != model.n_nodes() {
        return Err(SchedError::Thermal(mosc_thermal::ThermalError::DimensionMismatch {
            expected: model.n_nodes(),
            actual: t0.len(),
            op: "transient_trace",
        }));
    }
    let ivs = schedule.state_intervals();
    let period = schedule.period();
    let dt_target = period / samples_per_period.max(1) as f64;

    let mut trace =
        Trace::with_capacity(model.n_cores(), n_periods * (samples_per_period + ivs.len()) + 2);
    trace.push(0.0, t0.clone());
    let mut y = model.to_modal(t0)?;
    let mut time = 0.0;
    for _ in 0..n_periods {
        for (voltages, len) in &ivs {
            if *len <= EPS {
                continue;
            }
            let y_inf = model.modal_steady_state(&power.psi_profile_of(voltages))?;
            let n_steps = (len / dt_target).ceil().max(1.0) as usize;
            let h = len / n_steps as f64;
            let decay = model.modal_decay(h)?;
            for _ in 0..n_steps {
                for (k, yk) in y.as_mut_slice().iter_mut().enumerate() {
                    *yk = decay[k] * (*yk - y_inf[k]) + y_inf[k];
                }
                time += h;
                trace.push(time, model.from_modal(&y)?);
            }
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreSchedule, Platform, PlatformSpec, Segment};

    fn platform() -> Platform {
        Platform::build(&PlatformSpec::paper(1, 2, 2, 65.0)).unwrap()
    }

    fn two_mode_schedule(period: f64) -> Schedule {
        Schedule::two_mode(&[0.6, 0.6], &[1.3, 1.3], &[0.4, 0.6], period).unwrap()
    }

    #[test]
    fn constant_schedule_steady_state_matches_t_inf() {
        let p = platform();
        let s = Schedule::constant(&[1.0, 1.2], 0.1).unwrap();
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let direct = p.thermal().steady_state(&p.psi_profile(&[1.0, 1.2])).unwrap();
        assert!(ss.t_start().max_abs_diff(&direct) < 1e-8);
        // Peak of a constant schedule = max core steady temp, exact path.
        let peak = p.peak(&s).unwrap();
        assert!(peak.exact);
        assert!((peak.temp - direct[0].max(direct[1])).abs() < 1e-8);
    }

    #[test]
    fn periodicity_fixed_point_holds() {
        let p = platform();
        let s = two_mode_schedule(0.05);
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        // Advancing one full period from T_ss(0) returns to T_ss(0).
        let ends = ss.at_interval_ends();
        let last = ends.last().unwrap();
        assert!(last.max_abs_diff(ss.t_start()) < 1e-8);
    }

    #[test]
    fn trace_covers_period_and_matches_boundaries() {
        let p = platform();
        let s = two_mode_schedule(0.05);
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let trace = ss.trace(p.thermal(), 50).unwrap();
        assert!((trace.times().last().unwrap() - 0.05).abs() < 1e-12);
        // First sample is the start fixed point.
        assert!((trace.temps()[0][0] - ss.t_start()[0]).abs() < 1e-12);
    }

    #[test]
    fn stepup_peak_is_at_period_boundary() {
        let p = platform();
        let s = two_mode_schedule(0.5);
        assert!(s.is_step_up());
        let exact = p.peak(&s).unwrap();
        assert!(exact.exact);
        // Dense sampling agrees with the Theorem-1 value.
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let sampled = ss.peak_sampled(p.thermal(), 2000).unwrap();
        assert!(
            (exact.temp - sampled.temp).abs() < 1e-6,
            "exact {} vs sampled {}",
            exact.temp,
            sampled.temp
        );
        assert!(sampled.temp <= exact.temp + 1e-9, "sampled cannot exceed the boundary peak");
    }

    #[test]
    fn non_stepup_uses_sampling() {
        let p = platform();
        // High first, low second: a step-down schedule.
        let s = Schedule::new(vec![
            CoreSchedule::new(vec![Segment::new(1.3, 0.2), Segment::new(0.6, 0.3)]).unwrap(),
            CoreSchedule::constant(0.6, 0.5).unwrap(),
        ])
        .unwrap();
        assert!(!s.is_step_up());
        let peak = p.peak(&s).unwrap();
        assert!(!peak.exact);
        // The peak of a step-down schedule happens at the end of the high
        // block (time ≈ 0.2), not at the period boundary.
        assert!((peak.time - 0.2).abs() < 0.02, "peak at {}", peak.time);
        assert_eq!(peak.core, 0);
    }

    #[test]
    fn oscillation_reduces_peak_of_stepup() {
        // Theorem 5 smoke test (full validation lives in tests/theorems.rs).
        let p = platform();
        let s = two_mode_schedule(1.0);
        let p1 = p.peak(&s).unwrap().temp;
        let p4 = p.peak(&s.oscillated(4)).unwrap().temp;
        let p16 = p.peak(&s.oscillated(16)).unwrap().temp;
        assert!(p4 <= p1 + 1e-9, "m=4 {p4} vs m=1 {p1}");
        assert!(p16 <= p4 + 1e-9, "m=16 {p16} vs m=4 {p4}");
    }

    #[test]
    fn transient_approaches_stable_status() {
        let p = platform();
        let s = two_mode_schedule(1.0);
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let t0 = Vector::zeros(p.thermal().n_nodes());
        let trace = transient_trace(p.thermal(), p.power(), &s, &t0, 400, 4).unwrap();
        let last = trace.temps().last().unwrap();
        // After many periods the trajectory is within a whisker of T_ss(0).
        assert!(last.max_abs_diff(ss.t_start()) < 1e-3, "diff {}", last.max_abs_diff(ss.t_start()));
    }

    #[test]
    fn at_time_matches_trace_samples() {
        let p = platform();
        let s = two_mode_schedule(0.2);
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let trace = ss.trace(p.thermal(), 40).unwrap();
        for (&t, sample) in trace.times().iter().zip(trace.temps()) {
            let direct = ss.at_time(p.thermal(), t).unwrap();
            assert!(
                direct.max_abs_diff(sample) < 1e-9,
                "mismatch at t={t}: {}",
                direct.max_abs_diff(sample)
            );
        }
        assert!(ss.at_time(p.thermal(), -0.1).is_err());
        assert!(ss.at_time(p.thermal(), 0.3).is_err());
    }

    #[test]
    fn refined_peak_dominates_sampled_peak() {
        let p = platform();
        // A step-down schedule whose true peak lies strictly inside the
        // period (end of the high block), invisible to coarse sampling.
        let s = Schedule::new(vec![
            CoreSchedule::new(vec![Segment::new(1.3, 0.123), Segment::new(0.6, 0.377)]).unwrap(),
            CoreSchedule::constant(0.6, 0.5).unwrap(),
        ])
        .unwrap();
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let coarse = ss.peak_sampled(p.thermal(), 20).unwrap();
        let refined = ss.peak_refined(p.thermal(), 20, 1e-7).unwrap();
        let dense = ss.peak_sampled(p.thermal(), 20_000).unwrap();
        assert!(refined.temp >= coarse.temp - 1e-12);
        assert!(
            (refined.temp - dense.temp).abs() < 1e-4,
            "refined {} vs dense reference {}",
            refined.temp,
            dense.temp
        );
        // The peak sits at the mode-switch instant.
        assert!((refined.time - 0.123).abs() < 1e-3, "peak at {}", refined.time);
    }

    #[test]
    fn refined_peak_tracks_switch_instant_under_oscillation() {
        // Regression: the golden-section bracket around the hottest sample
        // can straddle a state-interval boundary; without splitting at the
        // kink the search could converge into the wrong sub-interval.
        // Oscillating a step-down schedule compresses the block, so the
        // kink sits at 0.123/m — well inside a single coarse sample window.
        let p = platform();
        let s = Schedule::new(vec![
            CoreSchedule::new(vec![Segment::new(1.3, 0.123), Segment::new(0.6, 0.377)]).unwrap(),
            CoreSchedule::constant(0.6, 0.5).unwrap(),
        ])
        .unwrap()
        .oscillated(4);
        assert!(!s.block_is_step_up());
        let peak = p.peak(&s).unwrap();
        assert!(!peak.exact);
        // The peak sits at the compressed switch instant.
        let switch = 0.123 / 4.0;
        assert!((peak.time - switch).abs() < 1e-3, "peak at {} vs kink {switch}", peak.time);
        // And matches a brute-force dense scan of the stable trace.
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let dense = ss.peak_sampled(p.thermal(), 20_000).unwrap();
        assert!(
            (peak.temp - dense.temp).abs() < 1e-5,
            "refined {} vs dense reference {}",
            peak.temp,
            dense.temp
        );
    }

    #[test]
    fn core_count_mismatch_rejected() {
        let p = platform();
        let s = Schedule::constant(&[1.0, 1.0, 1.0], 0.1).unwrap();
        assert!(matches!(p.peak(&s), Err(SchedError::CoreCountMismatch { schedule: 3, model: 2 })));
        let t0 = Vector::zeros(3);
        let s2 = Schedule::constant(&[1.0, 1.0], 0.1).unwrap();
        assert!(transient_trace(p.thermal(), p.power(), &s2, &t0, 1, 4).is_err());
    }

    #[test]
    fn stable_energy_matches_closed_form_for_constant_schedule() {
        let p = platform();
        let s = Schedule::constant(&[1.0, 1.2], 0.25).unwrap();
        let e = stable_energy_per_period(p.thermal(), p.power(), &s, 200).unwrap();
        // Constant schedule: E = Σ_i (ψ(v_i) + β·T∞_i) · t_p.
        let psi = p.psi_profile(&[1.0, 1.2]);
        let t_inf = p.thermal().steady_state_cores(&psi).unwrap();
        let expected = (psi.iter().sum::<f64>() + p.power().beta * (t_inf[0] + t_inf[1])) * 0.25;
        assert!((e - expected).abs() / expected < 1e-4, "energy {e} vs closed form {expected}");
    }

    #[test]
    fn oscillating_schedule_costs_more_energy_than_equivalent_constant() {
        // Same work, two modes vs constant: the oscillating schedule runs
        // hotter on average (Theorem 3) and ψ is convex, so it burns more.
        let p = platform();
        let constant = Schedule::constant(&[0.95, 0.95], 0.2).unwrap();
        let r = (1.3 - 0.95) / (1.3 - 0.6);
        let split = Schedule::two_mode(&[0.6, 0.6], &[1.3, 1.3], &[1.0 - r, 1.0 - r], 0.2).unwrap();
        assert!((constant.throughput() - split.throughput()).abs() < 1e-12);
        let e_const = stable_energy_per_period(p.thermal(), p.power(), &constant, 400).unwrap();
        let e_split = stable_energy_per_period(p.thermal(), p.power(), &split, 400).unwrap();
        assert!(e_const < e_split, "constant {e_const} must beat oscillating {e_split}");
    }

    #[test]
    fn is_thermally_safe_thresholds() {
        let p = platform();
        let cool = Schedule::constant(&[0.6, 0.6], 0.1).unwrap();
        assert!(p.is_thermally_safe(&cool).unwrap());
        // 2-core at 65 °C: all-max is safe on the default cooler.
        let hot = Schedule::constant(&[1.3, 1.3], 0.1).unwrap();
        assert!(p.is_thermally_safe(&hot).unwrap());
        // But a 9-core platform at 55 °C cannot run all-max.
        let p9 = Platform::build(&PlatformSpec::paper(3, 3, 2, 55.0)).unwrap();
        let hot9 = Schedule::constant(&[1.3; 9], 0.1).unwrap();
        assert!(!p9.is_thermally_safe(&hot9).unwrap());
    }
}
