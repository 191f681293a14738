//! A reactive threshold governor — the online-DTM baseline.
//!
//! The paper's introduction contrasts proactive (offline) schemes like AO
//! with reactive DTM that throttles when a sensor reading approaches the
//! threshold. This module implements the classic step-down/step-up governor
//! so the experiment suite can quantify that contrast (an extension beyond
//! the paper's own comparison set):
//!
//! * every `control_period` seconds the governor reads core temperatures;
//! * a core hotter than `T_max − guard_band` steps one level down;
//! * a core cooler than `T_max − upgrade_band` steps one level up;
//! * each level change stalls the core for the platform's DVFS `τ`.
//!
//! Because decisions react to *past* temperatures, the governor either
//! overshoots `T_max` (small guard band) or leaves throughput on the table
//! (large guard band) — the tradeoff the proactive schedule avoids.

use crate::{Result, Solution};
use mosc_linalg::Vector;
use mosc_sched::{Platform, Schedule};

/// DVFS transitions issued over the simulated horizon (batched once per
/// run from the local tally).
static TRANSITIONS: mosc_obs::Counter = mosc_obs::Counter::new("reactive.transitions");

/// Governor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorOptions {
    /// Control epoch (seconds between sensor reads / decisions).
    pub control_period: f64,
    /// Step down when `T > T_max − guard_band` (K).
    pub guard_band: f64,
    /// Step up when `T < T_max − upgrade_band` (K); must exceed `guard_band`
    /// for hysteresis.
    pub upgrade_band: f64,
    /// Simulated horizon (seconds).
    pub horizon: f64,
    /// Time excluded from the throughput/violation accounting (seconds).
    /// The package's sink time constant is tens of seconds, so a cold start
    /// lets any policy run flat-out "for free"; sustained comparisons should
    /// skip that transient.
    pub warmup: f64,
}

impl Default for GovernorOptions {
    fn default() -> Self {
        Self {
            control_period: 5e-3,
            guard_band: 1.0,
            upgrade_band: 3.0,
            horizon: 300.0,
            warmup: 150.0,
        }
    }
}

/// Outcome of a governor simulation.
#[derive(Debug, Clone)]
pub struct GovernorResult {
    /// Average per-core speed over the horizon, net of transition stalls.
    pub throughput: f64,
    /// Hottest core temperature ever observed (K above ambient).
    pub peak: f64,
    /// Total time any core spent above `T_max` (s).
    pub violation_time: f64,
    /// Total number of DVFS transitions issued.
    pub transitions: usize,
    /// Final per-core level indices.
    pub final_levels: Vec<usize>,
}

impl GovernorResult {
    /// Converts to a [`Solution`]-like summary (for table printing). The
    /// governor has no periodic schedule; the returned schedule freezes the
    /// final level assignment.
    ///
    /// # Errors
    /// Propagates schedule-construction failures.
    pub fn as_solution(&self, platform: &Platform) -> Result<Solution> {
        let levels = platform.modes().levels();
        let voltages: Vec<f64> = self.final_levels.iter().map(|&l| levels[l]).collect();
        let schedule = Schedule::constant(&voltages, 0.1)?;
        Ok(Solution {
            algorithm: "Governor",
            schedule,
            throughput: self.throughput,
            peak: self.peak,
            feasible: self.violation_time == 0.0,
            m: 1,
        })
    }
}

/// Simulates the reactive governor on `platform`.
///
/// # Errors
/// Rejects degenerate options; propagates thermal failures.
pub fn simulate(platform: &Platform, opts: &GovernorOptions) -> Result<GovernorResult> {
    let _span = mosc_obs::span("reactive.simulate");
    if !(opts.control_period > 0.0 && opts.horizon > 0.0) {
        return Err(crate::AlgoError::InvalidOptions {
            what: "control_period and horizon must be positive",
        });
    }
    if opts.upgrade_band <= opts.guard_band {
        return Err(crate::AlgoError::InvalidOptions {
            what: "upgrade_band must exceed guard_band (hysteresis)",
        });
    }
    if opts.warmup >= opts.horizon || opts.warmup < 0.0 {
        return Err(crate::AlgoError::InvalidOptions {
            what: "warmup must be non-negative and below the horizon",
        });
    }
    let n = platform.n_cores();
    let model = platform.thermal();
    let levels = platform.modes().levels().to_vec();
    let t_max = platform.t_max();
    let tau = platform.overhead().tau;

    let mut level_idx = vec![0usize; n];
    let mut temps = Vector::zeros(model.n_nodes());
    let mut work = 0.0;
    let mut peak: f64 = 0.0;
    let mut violation_time = 0.0;
    let mut transitions = 0usize;

    let steps = (opts.horizon / opts.control_period).ceil() as usize;
    for step in 0..steps {
        let now = step as f64 * opts.control_period;
        let measuring = now >= opts.warmup;
        let voltages: Vec<f64> = level_idx.iter().map(|&l| levels[l]).collect();
        let psi = platform.psi_profile(&voltages);
        temps = model
            .advance(&temps, &psi, opts.control_period)
            .map_err(mosc_sched::SchedError::from)?;
        let core_max = model.max_core_temp(&temps);
        peak = peak.max(core_max);
        if measuring {
            if core_max > t_max {
                violation_time += opts.control_period;
            }
            work += voltages.iter().sum::<f64>() * opts.control_period;
        }

        // Governor decisions from the (already stale) end-of-epoch reading.
        for c in 0..n {
            let t = temps[c];
            if t > t_max - opts.guard_band && level_idx[c] > 0 {
                level_idx[c] -= 1;
                transitions += 1;
                if measuring {
                    work -= levels[level_idx[c]] * tau; // stall during the switch
                }
            } else if t < t_max - opts.upgrade_band && level_idx[c] + 1 < levels.len() {
                level_idx[c] += 1;
                transitions += 1;
                if measuring {
                    work -= levels[level_idx[c]] * tau;
                }
            }
        }
    }

    TRANSITIONS.add(transitions as u64);
    mosc_obs::event(
        "reactive.done",
        &[
            ("transitions", transitions.into()),
            ("violation_time", violation_time.into()),
            ("peak", peak.into()),
        ],
    );
    Ok(GovernorResult {
        throughput: (work / (n as f64 * (opts.horizon - opts.warmup))).max(0.0),
        peak,
        violation_time,
        transitions,
        final_levels: level_idx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::PlatformSpec;

    fn quick() -> GovernorOptions {
        GovernorOptions {
            control_period: 0.01,
            guard_band: 1.0,
            upgrade_band: 3.0,
            horizon: 240.0,
            warmup: 160.0,
        }
    }

    #[test]
    fn governor_converges_on_unconstrained_platform() {
        // 2-core at 65 °C: the governor should ramp to the top level and stay.
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 65.0)).unwrap();
        let r = simulate(&p, &quick()).unwrap();
        assert_eq!(r.final_levels, vec![1, 1]);
        assert!(r.violation_time == 0.0);
        assert!(r.throughput > 1.0, "throughput {}", r.throughput);
    }

    #[test]
    fn governor_throttles_on_constrained_platform() {
        let p = Platform::build(&PlatformSpec::paper(3, 3, 2, 55.0)).unwrap();
        let r = simulate(&p, &quick()).unwrap();
        // Must have bounced between levels.
        assert!(r.transitions > 0);
        // Peak stays near or below T_max + a small reactive overshoot.
        assert!(r.peak < p.t_max() + 3.0, "reactive overshoot too large: {}", r.peak);
        // Throughput between all-low and all-high.
        assert!(r.throughput > 0.6 && r.throughput < 1.3);
    }

    #[test]
    fn proactive_ao_beats_governor_or_governor_violates() {
        // The headline contrast: at equal safety, AO's throughput wins.
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).unwrap();
        let ao = crate::ao::solve_with(
            &p,
            &crate::ao::AoOptions {
                base_period: 0.05,
                max_m: 32,
                m_patience: 3,
                t_unit_divisor: 40,
            },
        )
        .unwrap();
        let gov = simulate(&p, &quick()).unwrap();
        assert!(
            ao.throughput >= gov.throughput - 0.05 || gov.violation_time > 0.0,
            "AO {} vs governor {} (violations {})",
            ao.throughput,
            gov.throughput,
            gov.violation_time
        );
    }

    #[test]
    fn option_validation() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
        let bad = GovernorOptions { control_period: 0.0, ..quick() };
        assert!(simulate(&p, &bad).is_err());
        let bad = GovernorOptions { guard_band: 3.0, upgrade_band: 1.0, ..quick() };
        assert!(simulate(&p, &bad).is_err());
        let bad = GovernorOptions { warmup: 1000.0, ..quick() };
        assert!(simulate(&p, &bad).is_err());
    }

    #[test]
    fn as_solution_summary() {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 65.0)).unwrap();
        let r = simulate(&p, &quick()).unwrap();
        let sol = r.as_solution(&p).unwrap();
        assert_eq!(sol.algorithm, "Governor");
        assert!(sol.feasible);
    }
}
