//! AO's TPT pass makes no trial evaluations: every stable-state fixed point
//! an AO solve computes is one exact peak evaluation.
//!
//! Own test binary: the `mosc-obs` recorder is process-global, and this test
//! enables it.

use mosc::algorithms::ao;
use mosc::prelude::*;

#[test]
fn ao_makes_one_steady_state_per_peak_evaluation() {
    let p = Platform::build(&PlatformSpec::paper(3, 3, 4, 67.5)).unwrap();
    mosc::obs::enable();
    let _ = mosc::obs::drain();
    let solution = ao::solve(&p).unwrap();
    let t = mosc::obs::drain();
    mosc::obs::disable();
    assert!(solution.feasible);

    let counter = |name: &str| t.counter(name).unwrap_or(0);
    let rounds = counter("ao.tpt_rounds");
    assert!(rounds > 1, "the platform must need TPT rounds, got {rounds}");
    let peaks = counter("peak_eval.calls");
    assert_eq!(counter("steady_state.calls"), peaks, "a TPT trial was evaluated in full");
    assert_eq!(counter("peak_eval.exact_path"), peaks, "every AO evaluation is step-up");
    // The exact step-up peak reads only the period-start vector.
    assert_eq!(counter("period_map.matmuls"), peaks, "one basis change per exact evaluation");
}
