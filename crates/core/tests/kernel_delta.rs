//! Kernel-counter delta capture around the unified dispatcher.
//!
//! Own test binary: the `mosc-obs` recorder is process-global, and this
//! test enables it.

use mosc_core::{solve, SolveOptions, SolverKind};
use mosc_sched::PlatformSpec;

#[test]
fn solve_reports_kernel_deltas_when_enabled_and_zeros_when_disabled() {
    let p = mosc_sched::Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
    let opts = SolveOptions::default();

    // Disabled recorder: deltas must stay zero (the counters never move).
    let report = solve(SolverKind::Ao, &p, &opts).unwrap();
    assert!(report.kernel.is_zero(), "{:?}", report.kernel);

    // Enabled: AO drives the modal thermal kernels, so the period-map and
    // steady-state counters advance across the call (AO is `expm`-free by
    // design since the modal period-map kernel).
    mosc_obs::enable();
    let report = solve(SolverKind::Ao, &p, &opts).unwrap();
    assert!(report.kernel.period_map_matmuls > 0, "{:?}", report.kernel);
    assert!(report.kernel.steady_state_calls > 0, "{:?}", report.kernel);
    assert!(!report.kernel.is_zero());

    // The governor steps the transient model, and each `advance` step
    // applies one matrix exponential, counted on `expm.calls`.
    let p_gov = mosc_sched::Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
    let mut gov_opts = SolveOptions::default();
    gov_opts.governor.horizon = 10.0;
    gov_opts.governor.warmup = 5.0;
    gov_opts.governor.control_period = 0.01;
    let gov = solve(SolverKind::Governor, &p_gov, &gov_opts).unwrap();
    assert!(gov.kernel.expm_calls > 0, "{:?}", gov.kernel);

    // A second solve reports its *own* increments, not cumulative totals:
    // the delta must not grow monotonically with process lifetime.
    let again = solve(SolverKind::Ao, &p, &opts).unwrap();
    assert!(
        again.kernel.expm_calls <= report.kernel.expm_calls * 2,
        "delta looks cumulative: first {:?}, second {:?}",
        report.kernel,
        again.kernel
    );
    mosc_obs::disable();
}
