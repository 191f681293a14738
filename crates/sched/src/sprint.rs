//! Computational sprinting under the peak-temperature cap.
//!
//! The paper's intro cites the dark-silicon problem (Hardavellas et al.):
//! thermal capacitance lets a chip briefly run *above* its sustainable
//! operating point. This module answers the two questions a sprint
//! controller needs, using the same exact LTI machinery as the periodic
//! analysis:
//!
//! * [`sprint_duration`] — starting from a thermal state, how long can a
//!   boost voltage assignment run before any core crosses `T_max`?
//! * [`rest_duration`] — after a sprint, how long at a rest assignment until
//!   the chip re-enters a target envelope?
//!
//! Both are bisections on the exact transient `T(t) = T∞ + e^{At}(T0 − T∞)`,
//! evaluated per candidate time by [`ThermalModel::advance`]'s modal step,
//! which keeps nothing per candidate time. The `sprinting` experiment
//! compares sprint/rest duty cycling against AO's sustained schedule at
//! equal `T_max`.

use crate::{Result, SchedError};
use mosc_linalg::Vector;
use mosc_power::PowerLike;
use mosc_thermal::ThermalModel;

/// Maximum bisection iterations (resolves the duration to ~1e-12 relative).
const BISECT_ITERS: usize = 50;

/// How long the boost assignment can run from `t0` before any core exceeds
/// `t_max`. Returns `None` when the boost steady state never crosses
/// (sprinting is unbounded — the "boost" is sustainable), `Some(0.0)` when
/// some core is already at/over the limit.
///
/// # Errors
/// Dimension mismatches or solver failures.
pub fn sprint_duration<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    t0: &Vector,
    boost_voltages: &[f64],
    t_max: f64,
) -> Result<Option<f64>> {
    let psi = power.psi_profile_of(boost_voltages);
    let t_inf = model.steady_state(&psi)?;
    if model.max_core_temp(t0) >= t_max - 1e-12 {
        return Ok(Some(0.0));
    }
    if model.max_core_temp(&t_inf) <= t_max {
        return Ok(None); // sustainable forever
    }
    // Bracket: grow until crossing. Heating toward a hotter steady state
    // makes the max-core temperature cross t_max exactly once.
    let mut hi = 1e-3;
    let mut guard = 0;
    loop {
        let t = model.advance(t0, &psi, hi)?;
        if model.max_core_temp(&t) > t_max {
            break;
        }
        hi *= 2.0;
        guard += 1;
        if guard > 60 {
            // Numerically indistinguishable from sustainable.
            return Ok(None);
        }
    }
    let mut lo = if hi > 1e-3 { hi / 2.0 } else { 0.0 };
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        let t = model.advance(t0, &psi, mid)?;
        if model.max_core_temp(&t) > t_max {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(lo))
}

/// How long the rest assignment needs from `t0` until every core is at or
/// below `target`. Returns `Some(0.0)` when already inside, `None` when the
/// rest steady state itself stays above `target` (no amount of resting
/// reaches it).
///
/// # Errors
/// Dimension mismatches or solver failures.
pub fn rest_duration<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    t0: &Vector,
    rest_voltages: &[f64],
    target: f64,
) -> Result<Option<f64>> {
    let psi = power.psi_profile_of(rest_voltages);
    let t_inf = model.steady_state(&psi)?;
    if model.max_core_temp(t0) <= target {
        return Ok(Some(0.0));
    }
    if model.max_core_temp(&t_inf) > target - 1e-12 {
        return Ok(None);
    }
    let mut hi = 1e-3;
    let mut guard = 0;
    loop {
        let t = model.advance(t0, &psi, hi)?;
        if model.max_core_temp(&t) <= target {
            break;
        }
        hi *= 2.0;
        guard += 1;
        if guard > 60 {
            return Err(SchedError::Invalid {
                what:
                    "rest_duration failed to bracket (target too close to the rest steady state?)"
                        .into(),
            });
        }
    }
    let mut lo = if hi > 1e-3 { hi / 2.0 } else { 0.0 };
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        let t = model.advance(t0, &psi, mid)?;
        if model.max_core_temp(&t) <= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(hi))
}

/// Outcome of a sprint/rest duty-cycle simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprintCycle {
    /// Sprint phase length (s).
    pub sprint_len: f64,
    /// Rest phase length (s).
    pub rest_len: f64,
    /// Average per-core speed over the converged cycle.
    pub avg_speed: f64,
    /// Peak temperature over the converged cycle (K above ambient).
    pub peak: f64,
}

/// Simulates repeated sprint-to-`t_max` / rest-to-`target` cycles from
/// ambient until the cycle lengths converge, returning the limiting cycle.
///
/// # Errors
/// Propagates solver failures; fails when the rest assignment cannot reach
/// `target`.
pub fn limit_cycle<P: PowerLike + ?Sized>(
    model: &ThermalModel,
    power: &P,
    boost_voltages: &[f64],
    rest_voltages: &[f64],
    t_max: f64,
    target: f64,
) -> Result<SprintCycle> {
    let n = model.n_cores() as f64;
    let boost_speed: f64 = boost_voltages.iter().sum::<f64>() / n;
    let rest_speed: f64 = rest_voltages.iter().sum::<f64>() / n;
    let psi_boost = power.psi_profile_of(boost_voltages);
    let psi_rest = power.psi_profile_of(rest_voltages);

    // The package's slowest eigenmode sets how long the cycle-to-cycle drift
    // lasts (the sink keeps charging for several time constants even while
    // individual sprint/rest cycles look stable), so the convergence test
    // only arms after the transient has had time to die out.
    let slowest_tau = -1.0 / model.eigenvalues().max();
    let warmup = 4.0 * slowest_tau;

    let mut state = Vector::zeros(model.n_nodes());
    let mut prev = (f64::NAN, f64::NAN);
    let mut elapsed = 0.0;
    let mut last = None;
    for _ in 0..100_000 {
        let sprint =
            sprint_duration(model, power, &state, boost_voltages, t_max)?.ok_or_else(|| {
                SchedError::Invalid {
                    what: "boost assignment is sustainable; no sprint cycle exists".into(),
                }
            })?;
        state = model.advance(&state, &psi_boost, sprint)?;
        let peak = model.max_core_temp(&state);
        let rest =
            rest_duration(model, power, &state, rest_voltages, target)?.ok_or_else(|| {
                SchedError::Invalid {
                    what: "rest assignment cannot reach the target temperature".into(),
                }
            })?;
        state = model.advance(&state, &psi_rest, rest)?;
        let cycle = sprint + rest;
        if cycle <= 0.0 {
            return Err(SchedError::Invalid { what: "degenerate sprint cycle".into() });
        }
        elapsed += cycle;
        let avg = (boost_speed * sprint + rest_speed * rest) / cycle;
        let converged = (sprint - prev.0).abs() < 1e-4 * cycle
            && (rest - prev.1).abs() < 1e-4 * cycle
            && elapsed > warmup;
        last = Some(SprintCycle { sprint_len: sprint, rest_len: rest, avg_speed: avg, peak });
        if converged {
            break;
        }
        prev = (sprint, rest);
    }
    last.ok_or_else(|| SchedError::Invalid { what: "sprint cycle never ran".into() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Platform, PlatformSpec};

    fn platform() -> Platform {
        Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).expect("platform")
    }

    fn small_platform() -> Platform {
        // 3 cores at 50 C: all-max unsustainable, cheap node count.
        Platform::build(&PlatformSpec::paper(1, 3, 2, 50.0)).expect("platform")
    }

    #[test]
    fn cold_chip_can_sprint_then_not() {
        let p = platform();
        let boost = vec![1.3; 6];
        let t0 = Vector::zeros(p.thermal().n_nodes());
        let d = sprint_duration(p.thermal(), p.power(), &t0, &boost, p.t_max())
            .unwrap()
            .expect("all-max is unsustainable on 6 cores at 55C");
        assert!(d > 0.1, "cold sprint should last a while, got {d}");
        // At the crossing point, the budget is exhausted.
        let psi = p.psi_profile(&boost);
        let at_end = p.thermal().advance(&t0, &psi, d).unwrap();
        assert!((p.thermal().max_core_temp(&at_end) - p.t_max()).abs() < 1e-6);
        let d2 = sprint_duration(p.thermal(), p.power(), &at_end, &boost, p.t_max()).unwrap();
        assert!(d2.expect("still bounded") < 1e-6, "no budget left at T_max");
    }

    #[test]
    fn sustainable_boost_reports_none() {
        // 2-core at 65C sustains all-max: sprint is unbounded.
        let p = Platform::build(&PlatformSpec::paper(1, 2, 2, 65.0)).unwrap();
        let t0 = Vector::zeros(p.thermal().n_nodes());
        let d = sprint_duration(p.thermal(), p.power(), &t0, &[1.3, 1.3], p.t_max()).unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn rest_recovers_headroom() {
        let p = platform();
        let hot = p.thermal().steady_state(&p.psi_profile(&[1.3; 6])).unwrap();
        let rest = vec![0.6; 6];
        let target = 0.5 * p.t_max();
        let d = rest_duration(p.thermal(), p.power(), &hot, &rest, target)
            .unwrap()
            .expect("0.6 V steady state is below half of T_max");
        assert!(d > 0.0);
        let after = p.thermal().advance(&hot, &p.psi_profile(&rest), d).unwrap();
        assert!(p.thermal().max_core_temp(&after) <= target + 1e-6);
        // Unreachable target reports None.
        let impossible = rest_duration(p.thermal(), p.power(), &hot, &rest, -1.0).unwrap();
        assert!(impossible.is_none());
        // Already-cool chip needs no rest.
        let cool = Vector::zeros(p.thermal().n_nodes());
        assert_eq!(rest_duration(p.thermal(), p.power(), &cool, &rest, target).unwrap(), Some(0.0));
    }

    #[test]
    fn limit_cycle_converges_and_respects_tmax() {
        let p = small_platform();
        let cycle =
            limit_cycle(p.thermal(), p.power(), &[1.3; 3], &[0.6; 3], p.t_max(), p.t_max() - 5.0)
                .unwrap();
        assert!(cycle.sprint_len > 0.0 && cycle.rest_len > 0.0);
        assert!(cycle.peak <= p.t_max() + 1e-6);
        assert!(cycle.avg_speed > 0.6 && cycle.avg_speed < 1.3);
    }

    #[test]
    fn sprinting_cannot_beat_the_continuous_sustained_optimum() {
        // The thermodynamic point: duty-cycling between extremes averages
        // below the sustained optimum at the same T_max (ψ is convex, so the
        // extreme mix wastes power; Theorem 3's energy logic in sprint form).
        let p = small_platform();
        let cycle =
            limit_cycle(p.thermal(), p.power(), &[1.3; 3], &[0.6; 3], p.t_max(), p.t_max() - 5.0)
                .unwrap();
        // Continuous sustained optimum on this platform (every core pinned
        // at T_max) is an upper bound for any T_max-respecting policy.
        // 3-core at 50 C: ideal uniform ~0.95 V.
        assert!(
            cycle.avg_speed < 1.0,
            "sprint/rest average {} should sit below the sustained optimum",
            cycle.avg_speed
        );
    }
}
