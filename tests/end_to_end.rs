//! End-to-end integration: platform assembly → scheduling algorithms →
//! independent verification of the thermal guarantee with the RK4
//! reference integrator (no shared code path with the analytic solver that
//! the algorithms themselves use).

use mosc::algorithms::{continuous, solve};
use mosc::prelude::*;
use mosc::sched::eval::SteadyState;
use mosc::thermal::sim;

fn quick_opts() -> SolveOptions {
    SolveOptions {
        base_period: 0.05,
        max_m: 64,
        m_patience: 4,
        t_unit_divisor: 50,
        phase_steps: 4,
        samples: 200,
        refill_divisor: 40,
        ..SolveOptions::default()
    }
}

/// Simulates `schedule` with RK4 from the analytic stable-status start and
/// returns the hottest core temperature seen across `periods` periods.
fn rk4_peak(platform: &Platform, schedule: &Schedule, periods: usize) -> f64 {
    let ss =
        SteadyState::compute(platform.thermal(), platform.power(), schedule).expect("steady state");
    let segments: Vec<(Vec<f64>, f64)> = schedule
        .state_intervals()
        .into_iter()
        .map(|(v, l)| (platform.power().psi_profile(&v), l))
        .collect();
    let mut state = ss.t_start().clone();
    let mut peak = platform.thermal().max_core_temp(&state);
    let dt = (schedule.period() / 400.0).min(1e-3);
    for _ in 0..periods {
        let (end, trace) =
            sim::integrate_piecewise(platform.thermal(), &state, &segments, dt, 5).expect("rk4");
        peak = peak.max(trace.peak().expect("trace").temp);
        state = end;
    }
    peak
}

#[test]
fn ao_guarantee_holds_under_independent_rk4_simulation() {
    for (rows, cols, t_max_c) in [(1usize, 3usize, 55.0), (2, 3, 55.0)] {
        let platform =
            Platform::build(&PlatformSpec::paper(rows, cols, 2, t_max_c)).expect("platform");
        let sol = solve(SolverKind::Ao, &platform, &quick_opts()).expect("AO").solution;
        assert!(sol.feasible);
        let simulated = rk4_peak(&platform, &sol.schedule, 3);
        assert!(
            simulated <= platform.t_max() + 0.05,
            "{rows}x{cols}: RK4-simulated peak {simulated} exceeds T_max {} by more than \
             integration tolerance",
            platform.t_max()
        );
    }
}

#[test]
fn exs_winner_verified_by_rk4() {
    let platform = Platform::build(&PlatformSpec::paper(1, 3, 3, 55.0)).expect("platform");
    let sol = solve(SolverKind::Exs, &platform, &quick_opts()).expect("EXS").solution;
    let simulated = rk4_peak(&platform, &sol.schedule, 2);
    assert!(simulated <= platform.t_max() + 0.05);
}

#[test]
fn algorithm_ordering_holds_across_the_grid() {
    // LNS <= EXS and LNS <= AO on every paper configuration (2-level).
    for (rows, cols) in [(1usize, 2usize), (1, 3), (2, 3), (3, 3)] {
        let platform =
            Platform::build(&PlatformSpec::paper(rows, cols, 2, 55.0)).expect("platform");
        let l = solve(SolverKind::Lns, &platform, &quick_opts()).expect("LNS").solution.throughput;
        let e = solve(SolverKind::Exs, &platform, &quick_opts()).expect("EXS").solution.throughput;
        let a = solve(SolverKind::Ao, &platform, &quick_opts()).expect("AO").solution.throughput;
        assert!(l <= e + 1e-9, "{rows}x{cols}: LNS {l} > EXS {e}");
        assert!(l <= a + 1e-9, "{rows}x{cols}: LNS {l} > AO {a}");
        assert!(a >= e - 1e-6, "{rows}x{cols}: AO {a} fell below EXS {e} on a 2-level platform");
    }
}

#[test]
fn ao_throughput_bounded_by_continuous_ideal() {
    for (rows, cols) in [(1usize, 3usize), (3, 3)] {
        let platform =
            Platform::build(&PlatformSpec::paper(rows, cols, 2, 55.0)).expect("platform");
        let ideal = continuous::solve(&platform).expect("ideal");
        let a = solve(SolverKind::Ao, &platform, &quick_opts()).expect("AO").solution;
        assert!(
            a.throughput <= ideal.throughput + 1e-6,
            "{rows}x{cols}: AO {} exceeded the continuous bound {}",
            a.throughput,
            ideal.throughput
        );
    }
}

#[test]
fn pco_feasible_and_close_to_ao() {
    let platform = Platform::build(&PlatformSpec::paper(1, 3, 2, 55.0)).expect("platform");
    let a = solve(SolverKind::Ao, &platform, &quick_opts()).expect("AO").solution;
    let p = solve(SolverKind::Pco, &platform, &quick_opts()).expect("PCO").solution;
    assert!(p.feasible);
    assert!(
        (p.throughput - a.throughput).abs() < 0.05,
        "paper: AO and PCO are very close; got AO {} vs PCO {}",
        a.throughput,
        p.throughput
    );
    // And the PCO schedule's guarantee survives RK4 too.
    let simulated = rk4_peak(&platform, &p.schedule, 2);
    assert!(simulated <= platform.t_max() + 0.1);
}

#[test]
fn motivation_platform_reproduces_paper_baselines() {
    let platform = Platform::build(&PlatformSpec::motivation()).expect("platform");
    // LNS collapses to the 0.6 V floor (paper: performance 0.6).
    let l = solve(SolverKind::Lns, &platform, &quick_opts()).expect("LNS").solution;
    assert!((l.throughput - 0.6).abs() < 1e-9);
    // EXS finds one core at 1.3 V (paper: [0.6, 0.6, 1.3], performance 0.83).
    let e = solve(SolverKind::Exs, &platform, &quick_opts()).expect("EXS").solution;
    assert!((e.throughput - 0.8333).abs() < 1e-3, "EXS {}", e.throughput);
    // AO lands between EXS and the continuous ideal.
    let ideal = continuous::solve(&platform).expect("ideal");
    let a = solve(SolverKind::Ao, &platform, &quick_opts()).expect("AO").solution;
    assert!(a.throughput > e.throughput);
    assert!(a.throughput <= ideal.throughput + 1e-6);
}

#[test]
fn two_core_plateau_matches_paper_fig7() {
    for t_max_c in [55.0, 60.0, 65.0] {
        let platform = Platform::build(&PlatformSpec::paper(1, 2, 2, t_max_c)).expect("platform");
        for thr in [
            solve(SolverKind::Lns, &platform, &quick_opts()).expect("LNS").solution.throughput,
            solve(SolverKind::Exs, &platform, &quick_opts()).expect("EXS").solution.throughput,
            solve(SolverKind::Ao, &platform, &quick_opts()).expect("AO").solution.throughput,
        ] {
            assert!(
                (thr - 1.3).abs() < 2e-3,
                "2-core at {t_max_c} C should saturate at v_max, got {thr}"
            );
        }
    }
}

/// On this platform the DVFS overhead compensation fills an oscillating
/// core's whole low interval already at m = 1, so the m sweep has no
/// candidate. AO (and PCO, which starts from AO) must still answer: the
/// non-oscillating m = 1 schedule with those cores held low, feasible.
#[test]
fn ao_overhead_saturated_at_m1_falls_back_to_a_feasible_schedule() {
    let platform = Platform::build(&PlatformSpec::paper(1, 3, 4, 46.8697)).expect("platform");
    assert_eq!(platform.modes().levels(), &[0.6, 0.8, 1.0, 1.3]);
    for kind in [SolverKind::Ao, SolverKind::Pco] {
        let sol = solve(kind, &platform, &SolveOptions::default()).expect("typed answer").solution;
        assert!(sol.feasible && sol.m == 1, "{kind:?}: m = {}", sol.m);
        assert!(sol.peak <= platform.t_max() + mosc::algorithms::ACCEPT_EPS, "{kind:?}");
        let simulated = rk4_peak(&platform, &sol.schedule, 2);
        assert!(simulated <= platform.t_max() + 0.05, "{kind:?}: RK4 peak {simulated}");
    }
}

#[test]
fn infeasible_threshold_rejected_consistently() {
    let platform = Platform::build(&PlatformSpec::paper(3, 3, 2, 36.0)).expect("platform");
    assert!(matches!(
        solve(SolverKind::Exs, &platform, &quick_opts()),
        Err(AlgoError::Infeasible { .. })
    ));
    assert!(matches!(
        solve(SolverKind::Ao, &platform, &quick_opts()),
        Err(AlgoError::Infeasible { .. })
    ));
    // LNS reports the floor assignment as infeasible rather than erroring.
    let l = solve(SolverKind::Lns, &platform, &quick_opts()).expect("LNS returns").solution;
    assert!(!l.feasible);
}
