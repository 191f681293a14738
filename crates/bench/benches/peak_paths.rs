//! Micro-benchmarks of peak-temperature evaluation — the Theorem-1 step-up
//! fast path vs dense sampling, which is the paper's core computational
//! argument for restricting AO to step-up schedules.

use mosc_bench::micro::Runner;
use mosc_sched::eval::{peak_temperature, SteadyState};
use mosc_sched::{Platform, PlatformSpec, Schedule};
use mosc_workload::{rng, ScheduleGen};
use std::hint::black_box;

fn platform(rows: usize, cols: usize) -> Platform {
    Platform::build(&PlatformSpec::paper(rows, cols, 5, 65.0)).expect("platform")
}

fn bench_peak_paths(r: &mut Runner) {
    let mut group = r.group("peak");
    for (rows, cols) in [(1usize, 3usize), (3, 3)] {
        let p = platform(rows, cols);
        let n = rows * cols;
        let gen = ScheduleGen { period: 0.5, max_segments: 3, ..ScheduleGen::default() };
        let stepup = gen.stepup_schedule(&mut rng(77), n);
        // Pre-warm the modal steady-state memo so the benchmark isolates
        // the per-evaluation cost, matching how the algorithms use it.
        let _ = p.peak(&stepup).expect("peak");

        group.bench(&format!("thm1_exact/{n}"), || {
            peak_temperature(p.thermal(), p.power(), black_box(&stepup), None).expect("peak")
        });
        // The same schedule evaluated the slow way (as if not step-up).
        for samples in [100usize, 400] {
            group.bench(&format!("sampled_{samples}/{n}"), || {
                let ss = SteadyState::compute(p.thermal(), p.power(), black_box(&stepup))
                    .expect("steady");
                ss.peak_sampled(p.thermal(), samples).expect("peak")
            });
        }
    }
}

fn bench_oscillation_eval(r: &mut Runner) {
    // Cost of evaluating S(m, t) as m grows: the m sweep's inner loop.
    let mut group = r.group("oscillated_eval_6core");
    let p = platform(2, 3);
    let base = Schedule::two_mode(&[0.6; 6], &[1.3; 6], &[0.4, 0.5, 0.6, 0.3, 0.45, 0.55], 0.1)
        .expect("base schedule");
    for m in [1usize, 8, 64] {
        let s = base.oscillated(m);
        group.bench(&m.to_string(), || p.peak(black_box(&s)).expect("peak"));
    }
}

fn main() {
    let mut r = Runner::from_args();
    bench_peak_paths(&mut r);
    bench_oscillation_eval(&mut r);
}
