//! `solve_batch` must be a pure batching construct: bit-identical to the
//! same variants solved sequentially through `mosc_core::solve`, and the
//! platform-registry warm path must agree with a cold from-scratch build.

use mosc_core::{registry, solve, solve_batch, BatchVariant, SolveOptions, SolverKind};
use mosc_sched::{Platform, PlatformSpec};
use mosc_testutil::propcheck_cases;
use std::sync::Arc;

fn platform() -> Platform {
    Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap()
}

/// Draws a random cheap variant (the polynomial solvers, small caps).
fn random_variant(rng: &mut mosc_testutil::Rng64) -> BatchVariant {
    let kind = match rng.gen_range(0..3usize) {
        0 => SolverKind::Lns,
        1 => SolverKind::Ao,
        _ => SolverKind::Pco,
    };
    let options = SolveOptions {
        threads: 1,
        max_m: rng.gen_range(2..=8usize),
        m_patience: rng.gen_range(1..=3usize),
        t_unit_divisor: rng.gen_range(20..=60usize),
        phase_steps: rng.gen_range(2..=4usize),
        samples: rng.gen_range(24..=48usize),
        refill_divisor: rng.gen_range(10..=30usize),
        ..SolveOptions::default()
    };
    BatchVariant { kind, options }
}

#[test]
fn batch_results_are_bit_identical_to_sequential_solves() {
    let p = platform();
    propcheck_cases("solve_batch == sequential solve", 12, |rng| {
        let variants: Vec<BatchVariant> =
            (0..rng.gen_range(1..=6usize)).map(|_| random_variant(rng)).collect();
        let threads = rng.gen_range(1..=4usize);
        let batch = solve_batch(&p, &variants, threads);
        assert_eq!(batch.len(), variants.len());
        for (v, batched) in variants.iter().zip(&batch) {
            let sequential = solve(v.kind, &p, &v.options);
            let (b, s) = match (batched, &sequential) {
                (Ok(b), Ok(s)) => (b, s),
                (Err(be), Err(se)) => {
                    assert_eq!(be.to_string(), se.to_string(), "{v:?}");
                    continue;
                }
                other => panic!("batch/sequential outcome mismatch for {v:?}: {other:?}"),
            };
            assert_eq!(
                b.solution.throughput.to_bits(),
                s.solution.throughput.to_bits(),
                "{v:?}: throughput must be bit-identical"
            );
            assert_eq!(
                b.solution.peak.to_bits(),
                s.solution.peak.to_bits(),
                "{v:?}: peak must be bit-identical"
            );
            assert_eq!(b.solution.m, s.solution.m, "{v:?}");
            assert_eq!(b.solution.feasible, s.solution.feasible, "{v:?}");
            assert_eq!(
                mosc_sched::text::to_text(&b.solution.schedule),
                mosc_sched::text::to_text(&s.solution.schedule),
                "{v:?}: schedules must be identical"
            );
        }
    });
}

#[test]
fn registry_warm_and_cold_paths_agree() {
    // Warm path: the platform interned by the first lookup; cold path: an
    // independent from-scratch build. The builds are deterministic, so the
    // 1e-10 agreement the serve layer relies on is really bit-identity —
    // asserted at the documented tolerance.
    // A preimage unique to this test, so no other test can warm it first.
    let preimage = "batch-parity-registry-warm-cold-unique";
    let spec = PlatformSpec::paper(1, 2, 2, 55.0);
    let build = || Platform::build(&spec);
    let (cold, warm_first) = registry::intern_with(preimage, build).unwrap();
    assert!(!warm_first);
    let (warm, warm_second) = registry::intern_with(preimage, build).unwrap();
    assert!(warm_second);
    assert!(Arc::ptr_eq(&cold, &warm), "warm lookup must return the interned instance");

    let fresh = build().unwrap();
    let opts = SolveOptions { threads: 1, max_m: 6, ..SolveOptions::default() };
    for kind in [SolverKind::Lns, SolverKind::Ao, SolverKind::Pco] {
        let via_registry = solve(kind, &warm, &opts).unwrap();
        let via_fresh = solve(kind, &fresh, &opts).unwrap();
        let dt = (via_registry.solution.throughput - via_fresh.solution.throughput).abs();
        let dp = (via_registry.solution.peak - via_fresh.solution.peak).abs();
        assert!(dt <= 1e-10, "{kind:?}: throughput diverged by {dt:e}");
        assert!(dp <= 1e-10, "{kind:?}: peak diverged by {dp:e}");
    }
}
