//! The platform bundle: thermal model + power model + DVFS table + limits,
//! and the process-global table of thermal models those bundles share.

use crate::lru::{ContentKey, VerifiedLru};
use crate::{eval, PeakReport, Result, SchedError, Schedule};
use mosc_power::{ModeTable, Params65nm, PowerModel, TransitionOverhead};
use mosc_thermal::{Floorplan, RcConfig, RcNetwork, ThermalModel};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Thermal models the process-global table behind [`Platform::build`] holds
/// before evicting the least recently used. A model depends only on the
/// floorplan, the cooler and β, and a service sees a handful of those; each
/// model's memo of modal T∞ vectors is capped on its own.
pub const THERMAL_MODEL_CAPACITY: usize = 16;

/// The process-global thermal-model table.
fn thermal_table() -> MutexGuard<'static, VerifiedLru<ThermalModel>> {
    static TABLE: OnceLock<Mutex<VerifiedLru<ThermalModel>>> = OnceLock::new();
    TABLE
        .get_or_init(|| Mutex::new(VerifiedLru::new(THERMAL_MODEL_CAPACITY)))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Number of thermal models the process-global table holds right now (at
/// most [`THERMAL_MODEL_CAPACITY`]).
#[must_use]
pub fn shared_thermal_models() -> usize {
    thermal_table().len()
}

/// The thermal model of `spec`'s floorplan and cooler with leakage
/// sensitivity `beta`, from the process-global table. Eq. (2)'s `A` and its
/// eigenbasis depend on nothing else, so the RC network, the Jacobi
/// eigendecomposition and the LU are built only when the table has no model
/// for the key. The lock is not held across a build: concurrent misses on
/// one key may build redundantly (last store wins), never block each other.
/// A failed build is not stored, so it fails the same way on every call.
fn shared_thermal(spec: &PlatformSpec, beta: f64) -> mosc_thermal::Result<Arc<ThermalModel>> {
    // `layers` 0 and 1 both mean the planar grid below.
    let layers = spec.layers.max(1);
    let key = ContentKey::new(format!(
        "{}x{}x{layers};{:?};{:016x}",
        spec.rows,
        spec.cols,
        spec.rc,
        beta.to_bits()
    ));
    let hit = thermal_table().get(&key);
    if let Some(model) = hit {
        return Ok(model);
    }
    let floorplan = if layers == 1 {
        Floorplan::grid(spec.rows, spec.cols, 4.0e-3, 4.0e-3)?
    } else {
        Floorplan::stack3d(layers, spec.rows, spec.cols, 4.0e-3, 4.0e-3)?
    };
    let network = RcNetwork::build(&floorplan, &spec.rc)?;
    let model = Arc::new(ThermalModel::new(network, beta)?);
    thermal_table().insert(&key, Arc::clone(&model));
    Ok(model)
}

/// Declarative description of a platform, from which [`Platform::build`]
/// assembles the platform around a shared thermal model. Mirrors the
/// paper's Section VI experimental setup.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Number of stacked die layers (1 = planar).
    pub layers: usize,
    /// Available discrete voltage levels.
    pub modes: ModeTable,
    /// Peak-temperature threshold in °C.
    pub t_max_c: f64,
    /// RC network parameters.
    pub rc: RcConfig,
    /// DVFS transition overhead.
    pub overhead: TransitionOverhead,
}

impl PlatformSpec {
    /// The paper's setup: `rows × cols` grid of 4×4 mm cores, Table IV level
    /// set with `n_levels` levels, τ = 5 µs, default cooler.
    ///
    /// # Panics
    /// Panics for `n_levels` outside 2..=5 (Table IV's domain).
    #[must_use]
    pub fn paper(rows: usize, cols: usize, n_levels: usize, t_max_c: f64) -> Self {
        Self {
            rows,
            cols,
            layers: 1,
            modes: ModeTable::table_iv(n_levels),
            t_max_c,
            rc: RcConfig::default(),
            overhead: TransitionOverhead::paper_default(),
        }
    }

    /// Section III's motivating 3-core platform: budget cooler, two modes
    /// {0.6 V, 1.3 V}, `T_max` = 65 °C.
    #[must_use]
    pub fn motivation() -> Self {
        Self {
            rows: 1,
            cols: 3,
            layers: 1,
            modes: ModeTable::table_iv(2),
            t_max_c: 65.0,
            rc: RcConfig::budget_cooler(),
            overhead: TransitionOverhead::zero(),
        }
    }
}

/// A fully-assembled multi-core platform: the thermal model, the power
/// model, the discrete mode table, the transition-overhead model, and the
/// peak-temperature threshold. This is the object every scheduling algorithm
/// in `mosc-core` operates on.
///
/// The thermal model is held by `Arc`: platforms built by
/// [`Platform::build`] or [`Platform::build_with_power`] on one floorplan,
/// cooler and β share one model, whatever their levels, τ or `T_max`.
#[derive(Debug)]
pub struct Platform {
    thermal: Arc<ThermalModel>,
    power: PowerModel,
    modes: ModeTable,
    overhead: TransitionOverhead,
    /// Threshold relative to ambient (K).
    t_max: f64,
    t_ambient_c: f64,
}

impl Platform {
    /// Assembles a platform from a spec using the 65 nm power preset.
    ///
    /// # Errors
    /// Propagates floorplan/network/model construction failures.
    pub fn build(spec: &PlatformSpec) -> Result<Self> {
        Self::build_with_power(spec, Params65nm::params().power)
    }

    /// Assembles a platform from a spec and a power model, at the 65 nm
    /// preset's ambient temperature. The thermal model uses the power
    /// model's β and comes from the process-global table (capacity
    /// [`THERMAL_MODEL_CAPACITY`]): it is built only the first time its
    /// floorplan, cooler and β are seen, and shared after that.
    ///
    /// # Errors
    /// Propagates floorplan/network/model construction failures, e.g.
    /// [`mosc_thermal::ThermalError::Unstable`] for a β that breaks the
    /// package's stability.
    pub fn build_with_power(spec: &PlatformSpec, power: PowerModel) -> Result<Self> {
        let thermal = shared_thermal(spec, power.beta)?;
        let t_ambient_c = Params65nm::params().t_ambient_c;
        Ok(Self {
            thermal,
            power,
            modes: spec.modes.clone(),
            overhead: spec.overhead,
            t_max: spec.t_max_c - t_ambient_c,
            t_ambient_c,
        })
    }

    /// Assembles a platform from explicit parts (for custom floorplans,
    /// heterogeneous power models, tests). A `ThermalModel` passed by value
    /// belongs to this platform alone; pass an `Arc` to share one.
    #[must_use]
    pub fn from_parts(
        thermal: impl Into<Arc<ThermalModel>>,
        power: PowerModel,
        modes: ModeTable,
        overhead: TransitionOverhead,
        t_max_c: f64,
        t_ambient_c: f64,
    ) -> Self {
        Self {
            thermal: thermal.into(),
            power,
            modes,
            overhead,
            t_max: t_max_c - t_ambient_c,
            t_ambient_c,
        }
    }

    /// The thermal model.
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// The power model.
    #[must_use]
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The discrete mode table.
    #[must_use]
    pub fn modes(&self) -> &ModeTable {
        &self.modes
    }

    /// The transition-overhead model.
    #[must_use]
    pub fn overhead(&self) -> &TransitionOverhead {
        &self.overhead
    }

    /// Peak-temperature threshold, relative to ambient (K).
    #[must_use]
    pub fn t_max(&self) -> f64 {
        self.t_max
    }

    /// Peak-temperature threshold in °C.
    #[must_use]
    pub fn t_max_c(&self) -> f64 {
        self.t_max + self.t_ambient_c
    }

    /// Ambient temperature (°C).
    #[must_use]
    pub fn t_ambient_c(&self) -> f64 {
        self.t_ambient_c
    }

    /// Converts a relative temperature to °C.
    #[must_use]
    pub fn to_celsius(&self, t_rel: f64) -> f64 {
        t_rel + self.t_ambient_c
    }

    /// Number of cores.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.thermal.n_cores()
    }

    /// Per-core temperature-independent power for a voltage assignment.
    #[must_use]
    pub fn psi_profile(&self, voltages: &[f64]) -> Vec<f64> {
        self.power.psi_profile(voltages)
    }

    /// Steady-state peak core temperature for a constant voltage assignment
    /// (the quantity EXS checks per candidate, `max(T∞)`).
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn steady_peak(&self, voltages: &[f64]) -> Result<f64> {
        if voltages.len() != self.n_cores() {
            return Err(SchedError::CoreCountMismatch {
                schedule: voltages.len(),
                model: self.n_cores(),
            });
        }
        let t = self.thermal.steady_state_cores(&self.psi_profile(voltages))?;
        Ok(t.max())
    }

    /// Peak temperature of a periodic schedule in the thermal stable status
    /// — the Theorem-1 fast path for step-up schedules, dense sampling
    /// otherwise. See [`eval::peak_temperature`].
    ///
    /// # Errors
    /// Propagates evaluation failures.
    pub fn peak(&self, schedule: &Schedule) -> Result<PeakReport> {
        eval::peak_temperature(&self.thermal, &self.power, schedule, None)
    }

    /// `true` when `schedule` keeps the peak temperature within `t_max`
    /// (with a small numerical slack).
    ///
    /// # Errors
    /// Propagates evaluation failures.
    pub fn is_thermally_safe(&self, schedule: &Schedule) -> Result<bool> {
        Ok(self.peak(schedule)?.temp <= self.t_max + crate::FEASIBILITY_EPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_paper_platform() {
        let p = Platform::build(&PlatformSpec::paper(1, 3, 2, 65.0)).unwrap();
        assert_eq!(p.n_cores(), 3);
        assert_eq!(p.modes().len(), 2);
        assert!((p.t_max() - 30.0).abs() < 1e-12);
        assert!((p.t_max_c() - 65.0).abs() < 1e-12);
        assert!((p.to_celsius(0.0) - 35.0).abs() < 1e-12);
    }

    #[test]
    fn motivation_platform_is_constrained_at_1_3v() {
        let p = Platform::build(&PlatformSpec::motivation()).unwrap();
        let peak = p.steady_peak(&[1.3, 1.3, 1.3]).unwrap();
        assert!(peak > p.t_max(), "all-high must violate 65C: {peak} K rise");
        let low = p.steady_peak(&[0.6, 0.6, 0.6]).unwrap();
        assert!(low < p.t_max(), "all-low must be safe: {low} K rise");
    }

    #[test]
    fn steady_peak_validates_length() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
        assert!(p.steady_peak(&[1.0]).is_err());
    }

    #[test]
    fn two_core_all_max_safe_at_55() {
        // The Fig. 7 plateau: a 2-core chip sustains v_max below 55 °C.
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
        let peak = p.steady_peak(&[1.3, 1.3]).unwrap();
        assert!(peak < p.t_max(), "2-core all-max rise {} must be < {}", peak, p.t_max());
    }

    #[test]
    fn nine_core_all_max_unsafe_at_55() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 2, 55.0)).unwrap();
        let peak = p.steady_peak(&[1.3; 9]).unwrap();
        assert!(peak > p.t_max());
    }

    #[test]
    fn build_3d_stack() {
        let spec = PlatformSpec { layers: 2, ..PlatformSpec::paper(1, 2, 2, 65.0) };
        let p = Platform::build(&spec).unwrap();
        assert_eq!(p.n_cores(), 4);
        // Upper-layer core is hotter under uniform power.
        let t = p.thermal().steady_state_cores(&p.psi_profile(&[1.0, 1.0, 1.0, 1.0])).unwrap();
        assert!(t[2] > t[0]);
    }
}
