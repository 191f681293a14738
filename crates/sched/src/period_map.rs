//! The period-map kernel: modal-coordinate evaluation of periodic schedules.
//!
//! Every interval propagator `Φ(l) = e^{A·l}` is an exponential of the *same*
//! state matrix, so all of them share the eigenbasis of
//! `S = C^{-1/2}·G_eff·C^{-1/2}`. In modal coordinates `y = Vᵀ·C^{1/2}·T`
//! the affine interval update of eq. (3) diagonalizes:
//!
//! ```text
//! y(t_q) = d_q ∘ y(t_{q−1}) + (1 − d_q) ∘ y_q^∞,    d_q = e^{−λ·l_q}
//! ```
//!
//! so composing the period map `T(t_p) = K·T(0) + r` needs no `expm`, no
//! dense products and no `(I − K)` LU solve: a [`ModalMap`] is just two
//! vectors `(d, r̂)`, composition is elementwise (`O(n)`), a block repeated
//! `m` times is exponentiated by binary squaring ([`ModalMap::repeated`],
//! `O(n·log m)`), and the periodic fixed point is `ŷ_ss = r̂ / (1 − d)`
//! elementwise. The only dense work left per evaluation is the handful of
//! basis changes in and out of modal coordinates, counted on the
//! `period_map.matmuls` counter; per-interval steady states are memoized by
//! voltage-vector key inside [`ThermalModel::modal_steady_state`]
//! (`steady_state.cache_hits`).
//!
//! For a schedule with `d` distinct block intervals and repetition factor
//! `m`, the old interval-by-interval path cost `O(m·d·n³)`; this kernel
//! costs `O((d + log m)·n + d·n²)` — the reduction `mosc-cli profile`'s
//! period-map section measures.

use crate::{Result, SchedError, Schedule};
use mosc_linalg::Vector;
use mosc_power::PowerLike;
use mosc_thermal::ThermalModel;
use std::sync::Arc;

/// Dense `O(n²)` basis changes (modal transforms) performed by the kernel —
/// the only super-linear work left; everything else is elementwise. Stays
/// flat in the oscillation factor `m`, which is what the `ci.sh` profile
/// smoke asserts.
static PERIOD_MAP_MATMULS: mosc_obs::Counter = mosc_obs::Counter::new("period_map.matmuls");
/// Elementwise modal-map compositions (interval chaining plus the binary
/// squaring steps of [`ModalMap::repeated`]).
static PERIOD_MAP_COMPOSES: mosc_obs::Counter = mosc_obs::Counter::new("period_map.composes");

/// Counted basis change back to node temperatures.
pub(crate) fn from_modal(model: &ThermalModel, y: &Vector) -> Result<Vector> {
    PERIOD_MAP_MATMULS.incr();
    Ok(model.from_modal(y)?)
}

/// An affine map `y ↦ decay ∘ y + offset` on modal coordinates — the
/// diagonalized form of one (or a composition of several) interval
/// propagation steps `T ↦ Φ·T + (I−Φ)·T∞`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModalMap {
    decay: Vector,
    offset: Vector,
}

impl ModalMap {
    /// The identity map (empty composition) on `n` modes.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self { decay: Vector::filled(n, 1.0), offset: Vector::zeros(n) }
    }

    /// The map of a single interval: decay factors `d = e^{−λ·l}` and the
    /// interval's modal steady state `y∞`, giving `y ↦ d∘y + (1−d)∘y∞`.
    ///
    /// # Panics
    /// Panics when the two vectors disagree in length.
    #[must_use]
    pub fn interval(decay: &Vector, y_inf: &Vector) -> Self {
        assert_eq!(decay.len(), y_inf.len(), "modal dimensions must agree");
        let offset = Vector::from_fn(decay.len(), |k| (1.0 - decay[k]) * y_inf[k]);
        Self { decay: decay.clone(), offset }
    }

    /// Composition `later ∘ self`: apply `self` first, then `later`.
    ///
    /// # Panics
    /// Panics when the two maps disagree in dimension.
    #[must_use]
    pub fn then(&self, later: &Self) -> Self {
        assert_eq!(self.decay.len(), later.decay.len(), "modal dimensions must agree");
        PERIOD_MAP_COMPOSES.incr();
        let n = self.decay.len();
        Self {
            decay: Vector::from_fn(n, |k| later.decay[k] * self.decay[k]),
            offset: Vector::from_fn(n, |k| later.decay[k] * self.offset[k] + later.offset[k]),
        }
    }

    /// The `m`-fold self-composition, by binary squaring — `O(n·log m)`
    /// instead of `O(n·m)`. This is how a repeated block (an m-oscillated
    /// two-mode schedule in particular) becomes `K = K_block^m` in
    /// `O(log m)` compositions.
    ///
    /// # Panics
    /// Panics when `m == 0` (an empty composition of a concrete map has no
    /// meaningful decay).
    #[must_use]
    pub fn repeated(&self, m: usize) -> Self {
        assert!(m > 0, "repetition count must be at least 1");
        let mut result: Option<Self> = None;
        let mut square = self.clone();
        let mut m = m;
        loop {
            if m & 1 == 1 {
                result = Some(match result {
                    None => square.clone(),
                    Some(r) => r.then(&square),
                });
            }
            m >>= 1;
            if m == 0 {
                break;
            }
            square = square.then(&square);
        }
        result.expect("m >= 1 always yields a factor")
    }

    /// Applies the map to a modal vector.
    ///
    /// # Panics
    /// Panics when the dimension disagrees.
    #[must_use]
    pub fn apply(&self, y: &Vector) -> Vector {
        assert_eq!(self.decay.len(), y.len(), "modal dimensions must agree");
        Vector::from_fn(y.len(), |k| self.decay[k] * y[k] + self.offset[k])
    }

    /// The fixed point `ŷ = offset / (1 − decay)`, elementwise — the modal
    /// periodic steady state when this map spans one full period. Replaces
    /// the dense `(I − K)` LU solve of the interval-by-interval path.
    ///
    /// # Errors
    /// Returns [`SchedError::Invalid`] when some mode does not contract
    /// (`decay ≥ 1`), which cannot happen for a stable model and a positive
    /// period.
    pub fn fixed_point(&self) -> Result<Vector> {
        let n = self.decay.len();
        for k in 0..n {
            if self.decay[k] >= 1.0 || self.decay[k].is_nan() {
                return Err(SchedError::Invalid {
                    what: format!(
                        "period map does not contract in mode {k} (decay {})",
                        self.decay[k]
                    ),
                });
            }
        }
        Ok(Vector::from_fn(n, |k| self.offset[k] / (1.0 - self.decay[k])))
    }

    /// The decay factors (diagonal of `K` in modal coordinates).
    #[must_use]
    pub fn decay(&self) -> &Vector {
        &self.decay
    }

    /// The affine offset (`r` in modal coordinates).
    #[must_use]
    pub fn offset(&self) -> &Vector {
        &self.offset
    }
}

/// Per-core modal superposition of a two-mode step-up schedule.
///
/// Core `j` runs `ψ_L,j` for `(1 − r_j)·t_c`, then `ψ_H,j` for `r_j·t_c`.
/// Eq. (2) is linear and core `j`'s power depends only on its own voltage
/// (leakage `β` sits in `A`), so the modal stable state at the period end —
/// the peak by Theorem 1 — is a sum of one closed-form term per core:
///
/// ```text
/// ŷ_k = Σ_j M_kj·[ψ_H,j·(1 − e^{−λ_k·r_j·t_c})
///                + ψ_L,j·(e^{−λ_k·r_j·t_c} − e^{−λ_k·t_c})] / (1 − e^{−λ_k·t_c})
/// ```
///
/// with `M_kj = P_jk / λ_k` the modal steady state of one watt on core `j`
/// and `P_i` row `i` of the modal-to-node map
/// ([`ThermalModel::modal_node_row`]). Moving only `r_j` therefore changes
/// core `i`'s temperature by `P_i·Δterm_j`, an `O(N)` dot product over the
/// `N` modes ([`StepUpResponse::ratio_shift`], [`StepUpResponse::core_temp`])
/// — no schedule, no period map, no basis change. AO's TPT pass ranks its
/// trials with it; every temperature it serves still comes from the exact
/// [`PeriodMap`] path.
#[derive(Debug, Clone)]
pub struct StepUpResponse {
    period: f64,
    /// Modal decay rates `λ_k`.
    rates: Vector,
    /// `1 − e^{−λ_k·t_c}`: the fixed-point denominator.
    settle: Vector,
    /// `P_c` for every core `c`, in core order.
    core_rows: Vec<Vector>,
}

impl StepUpResponse {
    /// Precomputes the response of `model` for step-up schedules of period
    /// `period`: `O(n_cores·N)` from the eigenpairs the model already holds.
    ///
    /// # Errors
    /// Returns [`SchedError::Invalid`] for a non-positive or non-finite
    /// period.
    pub fn new(model: &ThermalModel, period: f64) -> Result<Self> {
        if !(period.is_finite() && period > 0.0) {
            return Err(SchedError::Invalid {
                what: format!("step-up period {period} must be > 0"),
            });
        }
        let rates = model.modal_rates().clone();
        let settle = Vector::from_fn(rates.len(), |k| -(-rates[k] * period).exp_m1());
        let core_rows = (0..model.n_cores()).map(|c| model.modal_node_row(c)).collect();
        Ok(Self { period, rates, settle, core_rows })
    }

    /// Core `core`'s modal term: the closed form above for levels of power
    /// `psi_low`/`psi_high` and a high share `ratio_high` (clamped to
    /// `[0, 1]`). Summed over cores and mapped through
    /// [`ThermalModel::from_modal`] it is the stable period-start
    /// temperature.
    ///
    /// # Panics
    /// Panics when `core` is out of range.
    #[must_use]
    pub fn core_term(&self, core: usize, psi_low: f64, psi_high: f64, ratio_high: f64) -> Vector {
        let r = ratio_high.clamp(0.0, 1.0);
        let p = &self.core_rows[core];
        Vector::from_fn(self.rates.len(), |k| {
            let lt = self.rates[k] * self.period;
            let e_r = (-lt * r).exp();
            let high = -(-lt * r).exp_m1();
            let low = -e_r * (-lt * (1.0 - r)).exp_m1();
            p[k] / self.rates[k] * (psi_high * high + psi_low * low) / self.settle[k]
        })
    }

    /// The modal change `term(to) − term(from)` when core `core` (levels of
    /// power `psi_low`/`psi_high`) moves its high share from `from` to `to`,
    /// every other core held. Ratios are clamped to `[0, 1]`; the difference
    /// of exponentials is taken through `expm1`, so a small move keeps its
    /// digits.
    ///
    /// # Panics
    /// Panics when `core` is out of range.
    #[must_use]
    pub fn ratio_shift(
        &self,
        core: usize,
        psi_low: f64,
        psi_high: f64,
        from: f64,
        to: f64,
    ) -> Vector {
        let (from, to) = (from.clamp(0.0, 1.0), to.clamp(0.0, 1.0));
        let p = &self.core_rows[core];
        // term(to) − term(from)
        //     = M·(ψ_H − ψ_L)·(e^{−λ·from·t} − e^{−λ·to·t}) / settle.
        Vector::from_fn(self.rates.len(), |k| {
            let lt = self.rates[k] * self.period;
            let diff = (-lt * to).exp() * (-lt * (from - to)).exp_m1();
            (psi_high - psi_low) * p[k] / self.rates[k] * diff / self.settle[k]
        })
    }

    /// Core `at`'s temperature of the modal vector `y`: `P_at·y`, one row of
    /// [`ThermalModel::from_modal`] in `O(N)`.
    ///
    /// # Panics
    /// Panics when `at` is out of range or `y` has the wrong length.
    #[must_use]
    pub fn core_temp(&self, at: usize, y: &Vector) -> f64 {
        self.core_rows[at].dot(y).expect("modal dimensions must agree")
    }
}

/// One state interval of the repeating block, in modal coordinates.
#[derive(Debug, Clone)]
pub struct ModalInterval {
    /// Start time within the block (s).
    pub start: f64,
    /// Interval length (s).
    pub len: f64,
    /// Decay factors over the full interval, `e^{−λ·len}`.
    pub decay: Vector,
    /// Modal steady state of the interval's power profile (shared with the
    /// model's memo).
    pub y_inf: Arc<Vector>,
}

/// The composed period map of a schedule: per-interval modal data for one
/// repeating block, the block map, and the full-period map
/// `block^repetitions` (by binary squaring).
#[derive(Debug, Clone)]
pub struct PeriodMap {
    intervals: Vec<ModalInterval>,
    block_map: ModalMap,
    full_map: ModalMap,
    repetitions: usize,
}

impl PeriodMap {
    /// Builds the period map of `schedule` on `model` with `power`: one
    /// [`ModalInterval`] per block state interval (steady states memoized by
    /// voltage-vector key), composed left-to-right into the block map and
    /// exponentiated to the full period.
    ///
    /// # Errors
    /// Core-count mismatches or (for pathological models) solver failures.
    pub fn build<P: PowerLike + ?Sized>(
        model: &ThermalModel,
        power: &P,
        schedule: &Schedule,
    ) -> Result<Self> {
        if schedule.n_cores() != model.n_cores() {
            return Err(SchedError::CoreCountMismatch {
                schedule: schedule.n_cores(),
                model: model.n_cores(),
            });
        }
        let n = model.n_nodes();
        let ivs = schedule.block_intervals();
        let mut intervals = Vec::with_capacity(ivs.len());
        let mut block_map = ModalMap::identity(n);
        let mut start = 0.0;
        for (voltages, len) in &ivs {
            let psi = power.psi_profile_of(voltages);
            let y_inf = model.modal_steady_state(&psi)?;
            let decay = model.modal_decay(*len)?;
            block_map = block_map.then(&ModalMap::interval(&decay, &y_inf));
            intervals.push(ModalInterval { start, len: *len, decay, y_inf });
            start += len;
        }
        let repetitions = schedule.repetitions();
        let full_map = block_map.repeated(repetitions);
        Ok(Self { intervals, block_map, full_map, repetitions })
    }

    /// The block's state intervals in modal coordinates.
    #[must_use]
    pub fn intervals(&self) -> &[ModalInterval] {
        &self.intervals
    }

    /// The map of one repeating block.
    #[must_use]
    pub fn block_map(&self) -> &ModalMap {
        &self.block_map
    }

    /// The map of the full period (`block^repetitions`).
    #[must_use]
    pub fn full_map(&self) -> &ModalMap {
        &self.full_map
    }

    /// The repetition factor carried from the schedule.
    #[must_use]
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }

    /// The modal periodic steady state at the start of the period. The fixed
    /// point of the full map and of the block map coincide (the full map is
    /// a power of the block map), but the full map is the better-conditioned
    /// contraction.
    ///
    /// # Errors
    /// See [`ModalMap::fixed_point`].
    pub fn steady_start(&self) -> Result<Vector> {
        self.full_map.fixed_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(d: &[f64], r: &[f64]) -> ModalMap {
        ModalMap { decay: Vector::from_slice(d), offset: Vector::from_slice(r) }
    }

    #[test]
    fn identity_and_composition() {
        let id = ModalMap::identity(2);
        let m = map(&[0.5, 0.25], &[1.0, 2.0]);
        assert_eq!(id.then(&m), m);
        assert_eq!(m.then(&id), m);
        // (then) applies left first: y → m1 → m2.
        let m2 = map(&[0.1, 0.2], &[3.0, 4.0]);
        let y = Vector::from_slice(&[10.0, 20.0]);
        let composed = m.then(&m2).apply(&y);
        let stepwise = m2.apply(&m.apply(&y));
        assert!(composed.max_abs_diff(&stepwise) < 1e-15);
    }

    #[test]
    fn repeated_matches_naive_composition() {
        let m = map(&[0.9, 0.3], &[0.5, -1.0]);
        for reps in [1usize, 2, 3, 7, 17, 64, 255] {
            let fast = m.repeated(reps);
            let mut naive = m.clone();
            for _ in 1..reps {
                naive = naive.then(&m);
            }
            assert!(fast.decay().max_abs_diff(naive.decay()) < 1e-12, "reps {reps}");
            assert!(fast.offset().max_abs_diff(naive.offset()) < 1e-10, "reps {reps}");
        }
    }

    #[test]
    #[should_panic(expected = "repetition count")]
    fn repeated_rejects_zero() {
        let _ = ModalMap::identity(1).repeated(0);
    }

    #[test]
    fn fixed_point_is_fixed() {
        let m = map(&[0.8, 0.1], &[2.0, 0.9]);
        let y = m.fixed_point().unwrap();
        assert!(m.apply(&y).max_abs_diff(&y) < 1e-12);
        // The block and any power of it share the fixed point.
        let y8 = m.repeated(8).fixed_point().unwrap();
        assert!(y8.max_abs_diff(&y) < 1e-10);
        // Non-contracting maps are rejected.
        assert!(map(&[1.0], &[0.1]).fixed_point().is_err());
    }
}
