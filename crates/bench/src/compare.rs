//! Shared four-way algorithm comparison used by the Fig. 6 / Fig. 7 /
//! Table V binaries.

use mosc_core::ao::AoOptions;
use mosc_core::pco::PcoOptions;
use mosc_core::{solve, Solution, SolveOptions, SolverKind};
use mosc_sched::Platform;

/// The evaluation's AO settings: 50 ms base period, overhead-bounded m.
#[must_use]
pub fn ao_options() -> AoOptions {
    AoOptions { base_period: 0.05, max_m: 512, m_patience: 6, t_unit_divisor: 100 }
}

/// The evaluation's PCO settings (coarser sampling keeps the full grids
/// tractable while preserving the AO-vs-PCO relationship).
#[must_use]
pub fn pco_options() -> PcoOptions {
    PcoOptions { ao: ao_options(), phase_steps: 6, samples: 250, refill_divisor: 60 }
}

/// The same evaluation settings in the unified dispatcher's flat form, for
/// callers going through `mosc_core::solve`.
#[must_use]
pub fn solve_options() -> SolveOptions {
    let ao = ao_options();
    let pco = pco_options();
    SolveOptions {
        max_m: ao.max_m,
        base_period: ao.base_period,
        m_patience: ao.m_patience,
        t_unit_divisor: ao.t_unit_divisor,
        phase_steps: pco.phase_steps,
        samples: pco.samples,
        refill_divisor: pco.refill_divisor,
        ..SolveOptions::default()
    }
}

/// One comparison row: the four algorithms on one platform. `None` marks an
/// infeasible platform/algorithm combination.
#[derive(Debug)]
pub struct Comparison {
    /// LNS result.
    pub lns: Option<Solution>,
    /// EXS result.
    pub exs: Option<Solution>,
    /// AO result.
    pub ao: Option<Solution>,
    /// PCO result.
    pub pco: Option<Solution>,
}

impl Comparison {
    /// Runs all four algorithms through the unified dispatcher.
    #[must_use]
    pub fn run(platform: &Platform) -> Self {
        let opts = solve_options();
        let run = |kind| solve(kind, platform, &opts).ok().map(|r| r.solution);
        Self {
            lns: run(SolverKind::Lns),
            exs: run(SolverKind::Exs),
            ao: run(SolverKind::Ao),
            pco: run(SolverKind::Pco),
        }
    }

    /// Throughput of one slot (0 when infeasible).
    #[must_use]
    pub fn throughput(sol: &Option<Solution>) -> f64 {
        sol.as_ref().map_or(0.0, |s| s.throughput)
    }

    /// AO's improvement over EXS in percent (0 when either is missing).
    #[must_use]
    pub fn ao_vs_exs_percent(&self) -> f64 {
        match (&self.ao, &self.exs) {
            (Some(a), Some(e)) if e.throughput > 0.0 => (a.throughput / e.throughput - 1.0) * 100.0,
            _ => 0.0,
        }
    }
}
