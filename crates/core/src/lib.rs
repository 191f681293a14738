//! Throughput maximization under a peak-temperature constraint.
//!
//! This crate is the paper's primary contribution: given a [`Platform`]
//! (thermal model + power model + discrete DVFS modes + `T_max`), construct a
//! periodic schedule maximizing the chip-wide throughput of eq. (5) while the
//! stable-status peak temperature never exceeds `T_max`.
//!
//! Algorithms:
//!
//! * [`continuous::solve`] — the ideal continuously-variable operating point:
//!   per-core voltages with every core's steady temperature pinned at `T_max`
//!   (the starting point of Algorithm 2, after Hanumaiah et al.).
//! * [`lns::solve`] — **LNS**: round the ideal voltages down to the next
//!   available level (the pessimistic baseline).
//! * [`exs::solve`] — **EXS** (Algorithm 1): exhaustive search over all
//!   `L^N` constant per-core level assignments, with the steady state
//!   evaluated incrementally through the precomputed response matrix and the
//!   enumeration parallelized across threads.
//! * [`ao::solve`] — **AO** (Algorithm 2): the frequency-oscillation method.
//!   Ideal voltages → neighboring level pairs (Theorems 3–4) → m-Oscillating
//!   step-up schedule with the best oscillation factor under DVFS overhead
//!   (Theorem 5) → greedy TPT ratio adjustment until `T_max` holds.
//! * [`pco::solve`] — **PCO**: AO plus per-core phase shifts that interleave
//!   hot intervals spatially, then a headroom-refill pass (sampled peaks,
//!   since shifted schedules are no longer step-up).
//! * [`reactive::simulate`] — a reactive threshold governor, the classic
//!   online-DTM baseline the related-work section contrasts against
//!   (an extension beyond the paper's comparison set).
//!
//! In debug builds every solver self-checks through the `mosc-analyze`
//! lints: the input platform must satisfy the paper's model assumptions
//! (Hurwitz-stable state matrix, symmetric conductances, monotone power),
//! and the returned [`Solution`]'s headline numbers must survive a from-
//! scratch recomputation. Release builds compile the hooks out.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ao;
mod checks;
pub mod continuous;
pub mod exs;
pub mod exs_bnb;
pub mod lns;
pub mod pco;
pub mod reactive;
pub mod registry;
pub mod solve;

pub use ao::AoOptions;
pub use mosc_sched::{Platform, PlatformSpec, Schedule, ACCEPT_EPS, FEASIBILITY_EPS};
pub use solve::{
    solve, solve_batch, thread_count, BatchVariant, KernelDelta, SolveOptions, SolveReport,
    SolverKind, SolverStats, UnknownSolverError,
};

/// Outcome of a scheduling algorithm: the schedule it constructed and the
/// headline numbers the evaluation compares.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Algorithm label (`"LNS"`, `"EXS"`, `"AO"`, `"PCO"`).
    pub algorithm: &'static str,
    /// The constructed periodic schedule.
    pub schedule: Schedule,
    /// Chip-wide throughput per eq. (5), net of DVFS stall overhead.
    pub throughput: f64,
    /// Stable-status peak temperature, relative to ambient (K).
    pub peak: f64,
    /// `true` when the peak respects the platform's `T_max`.
    pub feasible: bool,
    /// Oscillation factor used (1 for constant-speed schedules).
    pub m: usize,
}

impl Solution {
    /// Peak temperature in °C on `platform`.
    #[must_use]
    pub fn peak_c(&self, platform: &Platform) -> f64 {
        platform.to_celsius(self.peak)
    }
}

/// Errors from the scheduling algorithms.
#[derive(Debug)]
pub enum AlgoError {
    /// Even the all-lowest-mode assignment violates `T_max`.
    Infeasible {
        /// Peak temperature of the all-lowest schedule (K above ambient).
        lowest_peak: f64,
        /// The threshold that was violated.
        t_max: f64,
    },
    /// An underlying schedule/thermal evaluation failed.
    Sched(mosc_sched::SchedError),
    /// Invalid algorithm options.
    InvalidOptions {
        /// Human-readable description.
        what: &'static str,
    },
    /// An enumeration solver ran past the caller's wall-clock budget
    /// ([`SolveOptions::deadline`]) and aborted without a result.
    DeadlineExceeded,
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Infeasible { lowest_peak, t_max } => write!(
                f,
                "platform infeasible: all-lowest-mode peak {lowest_peak:.2} K exceeds T_max {t_max:.2} K"
            ),
            Self::Sched(e) => write!(f, "schedule evaluation failed: {e}"),
            Self::InvalidOptions { what } => write!(f, "invalid options: {what}"),
            Self::DeadlineExceeded => write!(f, "solver deadline exceeded"),
        }
    }
}

impl std::error::Error for AlgoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Sched(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mosc_sched::SchedError> for AlgoError {
    fn from(e: mosc_sched::SchedError) -> Self {
        Self::Sched(e)
    }
}

impl From<mosc_thermal::ThermalError> for AlgoError {
    fn from(e: mosc_thermal::ThermalError) -> Self {
        Self::Sched(e.into())
    }
}

/// Result alias for the algorithms.
pub type Result<T> = std::result::Result<T, AlgoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = AlgoError::Infeasible { lowest_peak: 31.0, t_max: 30.0 };
        assert!(e.to_string().contains("infeasible"));
        let e = AlgoError::InvalidOptions { what: "bad m" };
        assert!(e.to_string().contains("bad m"));
    }
}
