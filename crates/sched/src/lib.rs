//! Periodic multi-core DVFS schedules and their thermal analysis.
//!
//! This crate carries the paper's two structural concepts and the machinery
//! to evaluate them against a thermal model:
//!
//! * [`Schedule`] — a periodic, per-core piecewise-constant voltage timeline.
//!   Transforms implement Definition 2 (**step-up reordering**: sort each
//!   core's intervals by voltage) and Definition 3 (**m-Oscillating**:
//!   compress every interval by `m`, repeat `m` times — represented here by
//!   the compressed schedule, whose periodic steady state is identical), plus
//!   the per-core cyclic phase shifts the PCO variant searches over.
//! * [`Platform`] — bundle of thermal model, power model, mode table,
//!   transition-overhead model and the peak-temperature threshold. Platforms
//!   on one floorplan, cooler and β share one thermal model through a
//!   process-global [`VerifiedLru`], the content-addressed table the
//!   workspace's caches are built on.
//! * [`eval`] — eq. (3)/(4) machinery: periodic steady state
//!   `T_ss(0) = (I−K)⁻¹·r`, stable-status traces, and peak temperature with
//!   two paths: the Theorem-1 fast path for step-up schedules (peak = period
//!   end, computed exactly) and dense sampling for arbitrary schedules.
//!
//! Theorems 1–5 of the paper are exercised end-to-end in this crate's test
//! suite (`tests/theorems.rs`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod eval;
mod lru;
pub mod period_map;
mod platform;
mod schedule;
pub mod sprint;
pub mod text;

pub use eval::{PeakReport, SteadyState};
pub use lru::{fnv1a, ContentKey, VerifiedLru};
pub use period_map::{ModalMap, PeriodMap, StepUpResponse};
pub use platform::{shared_thermal_models, Platform, PlatformSpec, THERMAL_MODEL_CAPACITY};
pub use schedule::{CoreSchedule, Schedule, Segment};

/// Numerical slack used when *accepting* a candidate schedule against
/// `T_max` inside solver search loops: peaks up to `T_max + ACCEPT_EPS` are
/// treated as meeting the constraint, absorbing float noise in the
/// steady-state evaluation without admitting physically hotter schedules.
pub const ACCEPT_EPS: f64 = 1e-9;

/// Wider slack used when *stamping or auditing* the feasibility of a
/// finished solution (`Solution::feasible`, safety checks, analyzer lints).
/// Strictly larger than [`ACCEPT_EPS`] so that any candidate a solver
/// accepted is also reported — and audited — as feasible; solvers accepting
/// at `1e-9` while stamping at `1e-6` used to rely on two unrelated
/// literals agreeing by luck.
pub const FEASIBILITY_EPS: f64 = 1e-6;

/// Errors produced by schedule construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A schedule was structurally invalid (mismatched periods, negative
    /// durations, empty core list…).
    Invalid {
        /// Human-readable description.
        what: String,
    },
    /// Schedule core count does not match the thermal model.
    CoreCountMismatch {
        /// Cores in the schedule.
        schedule: usize,
        /// Cores in the model.
        model: usize,
    },
    /// An underlying thermal-model operation failed.
    Thermal(mosc_thermal::ThermalError),
    /// An underlying linear-algebra kernel failed.
    Linalg(mosc_linalg::LinalgError),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid { what } => write!(f, "invalid schedule: {what}"),
            Self::CoreCountMismatch { schedule, model } => {
                write!(f, "schedule has {schedule} cores but the model has {model}")
            }
            Self::Thermal(e) => write!(f, "thermal evaluation failed: {e}"),
            Self::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Thermal(e) => Some(e),
            Self::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mosc_thermal::ThermalError> for SchedError {
    fn from(e: mosc_thermal::ThermalError) -> Self {
        Self::Thermal(e)
    }
}

impl From<mosc_linalg::LinalgError> for SchedError {
    fn from(e: mosc_linalg::LinalgError) -> Self {
        Self::Linalg(e)
    }
}

/// Result alias for schedule operations.
pub type Result<T> = std::result::Result<T, SchedError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = SchedError::Invalid { what: "negative duration".into() };
        assert!(e.to_string().contains("negative duration"));
        let e = SchedError::CoreCountMismatch { schedule: 2, model: 3 };
        assert!(e.to_string().contains('2') && e.to_string().contains('3'));
        let e: SchedError = mosc_linalg::LinalgError::Singular { pivot: 1 }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
