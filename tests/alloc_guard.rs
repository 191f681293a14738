//! Allocation guards on the thermal kernels.
//!
//! Own test binary: it installs a counting global allocator.
//!
//! * The sampled peak allocates nothing per sample. One sampled
//!   `peak_temperature` on a phase-shifted 3×3 schedule must make exactly
//!   as many allocation calls at 3000 samples per period as at 300: the
//!   stable trace is walked in one reused buffer and only the core rows of
//!   each sample are projected, so the count depends on the schedule's
//!   intervals, never on the sample count.
//! * `ThermalModel::advance` retains nothing per interval length. A
//!   thousand steps with distinct `dt` must leave this thread's live bytes
//!   where they were: the step runs in the eigenbasis and keeps no
//!   per-`dt` propagator.
//! * A cache hit's in-process pieces allocate a pinned number of times.
//!   Parsing a hot-set request line, deriving its cache key and rendering
//!   the hit's framed response make [`HIT_ALLOCATIONS`] allocation calls:
//!   the parsed platform moves into the request, the key preimage and the
//!   response line are one buffer each, and the response has room for its
//!   newline.

use mosc::algorithms::{SolveOptions, SolverKind, SolverStats};
use mosc::analyze::json::Value;
use mosc::linalg::Vector;
use mosc::prelude::*;
use mosc::sched::eval;
use mosc::serve::{cache_key, parse_request, CachedSolve, Request, SolveRequest};
use mosc_testutil::{thread_allocations, thread_live_bytes, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn sampled_peak_allocations_do_not_grow_with_samples() {
    let p = Platform::build(&PlatformSpec::paper(3, 3, 4, 67.5)).unwrap();
    let ratios = [0.2, 0.5, 0.35, 0.6, 0.1, 0.45, 0.3, 0.55, 0.25];
    let mut s = Schedule::two_mode(&[1.0; 9], &[1.3; 9], &ratios, 0.005).unwrap();
    for (core, offset) in [(1, 0.001), (3, 0.0025), (5, 0.004), (7, 0.0015)] {
        s = s.with_shifted_core(core, offset);
    }
    let s = s.repeated(7);
    assert!(!s.block_is_step_up(), "the shifted schedule must take the sampled path");

    let allocations = |samples: usize| {
        let before = thread_allocations();
        let report = eval::peak_temperature(p.thermal(), p.power(), &s, Some(samples)).unwrap();
        let made = thread_allocations() - before;
        assert!(!report.exact);
        made
    };
    // Warm the per-profile modal steady-state memo (and any lazily
    // registered counters) so both measured calls take the same path.
    let _ = allocations(300);
    let at_300 = allocations(300);
    let at_3000 = allocations(3000);
    assert!(at_300 > 0, "the counting allocator must be installed");
    assert_eq!(at_300, at_3000, "allocations grew with the sample count");
}

#[test]
fn advance_retains_nothing_per_interval_length() {
    let p = Platform::build(&PlatformSpec::paper(4, 4, 2, 75.0)).unwrap();
    let model = p.thermal();
    let psi = p.psi_profile(&[1.3; 16]);
    let t0 = Vector::from_fn(model.n_nodes(), |i| 0.5 * i as f64);
    // Warm the modal steady-state memo for `psi` (and any lazily
    // registered counters) so the measured steps only compute.
    let _ = model.advance(&t0, &psi, 0.5).unwrap();
    let before = thread_live_bytes();
    for i in 0..1000 {
        let dt = 1e-4 * (1.0 + 0.37 * f64::from(i));
        let t = model.advance(&t0, &psi, dt).unwrap();
        assert!(t.is_finite());
    }
    assert!(thread_allocations() > 0, "the counting allocator must be installed");
    assert_eq!(thread_live_bytes() - before, 0, "advance retained memory across distinct dt");
}

/// Allocation calls of one cache hit's parse, key and framed response (see
/// the module docs): 34 for the parsed document's member vectors and owned
/// strings, one for the platform's sorted member references in the
/// canonical writer, one for the key preimage and one for the response
/// line. Before the parser moved the platform and the writers appended into
/// one buffer each, the same work made 103.
const HIT_ALLOCATIONS: u64 = 37;

#[test]
fn a_cache_hit_allocates_a_pinned_number_of_times() {
    // A hot-set line as `perfbench` sends it: a four-level 2×2 AO key with
    // default options, asking for the schedule.
    let line = Request::Solve(SolveRequest {
        id: "h17".to_owned(),
        kind: SolverKind::Ao,
        platform: Value::parse(
            r#"{"rows":2,"cols":2,"levels":[0.6,0.8,1.0,1.3],"t_max_c":62.34565}"#,
        )
        .unwrap(),
        options: SolveOptions::default(),
        want_schedule: true,
        trace: None,
    })
    .to_json();
    let cached = CachedSolve {
        solver: SolverKind::Ao,
        throughput: 1.0412345678901234,
        peak_c: 62.34564999999999,
        feasible: true,
        m: 7,
        wall_ms: 0.41234,
        stats: SolverStats::default(),
        schedule_text: "period 0.014285714285714285\n\
            core 0: 1 x 0.008123456789012345, 1.3 x 0.006162257496701940\n\
            core 1: 1 x 0.007123456789012345, 1.3 x 0.007162257496701940\n\
            core 2: 1 x 0.007123456789012345, 1.3 x 0.007162257496701940\n\
            core 3: 1 x 0.008123456789012345, 1.3 x 0.006162257496701940\n"
            .to_owned(),
    };
    let hit = || {
        let before = thread_allocations();
        let Ok(Request::Solve(req)) = parse_request(&line) else { panic!("a solve line") };
        let key = cache_key(&req);
        let mut framed = cached.response_line(&req.id, req.want_schedule, true);
        framed.push('\n');
        black_box((key, framed));
        thread_allocations() - before
    };
    let _ = hit();
    let made = hit();
    assert!(made > 0, "the counting allocator must be installed");
    assert_eq!(made, HIT_ALLOCATIONS, "a cache hit's allocation count moved");
}
