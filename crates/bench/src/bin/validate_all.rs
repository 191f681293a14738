//! One-shot validation harness: runs every shape check the reproduction
//! makes against the paper and prints a PASS/FAIL summary. Fast (~seconds in
//! release); the full experiment binaries produce the detailed tables.

use mosc_bench::compare::{solve_options, Comparison};
use mosc_bench::{timed_obs, ObsLog};
use mosc_core::{continuous, solve, SolveOptions, SolverKind};
use mosc_sched::{Platform, PlatformSpec, Schedule};
use mosc_workload::{rng, ScheduleGen};
use std::path::PathBuf;
use std::process::ExitCode;

struct Harness {
    failures: Vec<String>,
    count: usize,
}

impl Harness {
    fn check(&mut self, name: &str, ok: bool, detail: &str) {
        self.count += 1;
        if ok {
            println!("PASS  {name}");
        } else {
            println!("FAIL  {name}: {detail}");
            self.failures.push(name.to_string());
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut h = Harness { failures: Vec::new(), count: 0 };

    // §III motivation.
    {
        let p = Platform::build(&PlatformSpec::motivation()).expect("platform");
        let opts = solve_options();
        let l = solve(SolverKind::Lns, &p, &opts).expect("lns").solution.throughput;
        let e = solve(SolverKind::Exs, &p, &opts).expect("exs").solution.throughput;
        let ideal = continuous::solve(&p).expect("ideal");
        h.check("motivation: LNS collapses to 0.6", (l - 0.6).abs() < 1e-9, &format!("{l}"));
        h.check(
            "motivation: EXS = 0.8333 ([0.6,0.6,1.3])",
            (e - 5.0 / 6.0).abs() < 1e-3,
            &format!("{e}"),
        );
        h.check(
            "motivation: middle core gets lower ideal voltage",
            ideal.voltages[1] < ideal.voltages[0],
            &format!("{:?}", ideal.voltages),
        );
    }

    // Theorem 1 & 5 spot checks.
    {
        let p = Platform::build(&PlatformSpec::paper(1, 3, 5, 65.0)).expect("platform");
        let gen = ScheduleGen { period: 1.0, max_segments: 3, ..ScheduleGen::default() };
        let s = gen.stepup_schedule(&mut rng(7), 3);
        let exact = p.peak(&s).expect("peak");
        let ss = mosc_sched::eval::SteadyState::compute(p.thermal(), p.power(), &s).expect("ss");
        let dense = ss.peak_sampled(p.thermal(), 3000).expect("peak");
        h.check(
            "Theorem 1: step-up peak at period end",
            dense.temp <= exact.temp + 1e-6 && exact.exact,
            &format!("dense {} vs exact {}", dense.temp, exact.temp),
        );
        let peaks: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&m| p.peak(&s.oscillated(m)).expect("peak").temp)
            .collect();
        h.check(
            "Theorem 5: peak monotone in m",
            peaks.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            &format!("{peaks:?}"),
        );
    }

    // Theorem 2 sweep bound (reduced Fig. 3).
    {
        let mut spec = PlatformSpec::paper(1, 3, 2, 65.0);
        spec.rc = mosc_thermal::RcConfig::responsive_package();
        let p = Platform::build(&spec).expect("platform");
        let base = Schedule::two_mode(&[0.6; 3], &[1.3; 3], &[0.5; 3], 6.0).expect("base");
        let bound = p.peak(&base).expect("peak").temp;
        let mut max_seen = f64::NEG_INFINITY;
        for i in 0..6 {
            for j in 0..6 {
                let cand = base.with_shifted_core(1, i as f64).with_shifted_core(2, j as f64);
                let peak =
                    mosc_sched::eval::peak_temperature(p.thermal(), p.power(), &cand, Some(200))
                        .expect("peak")
                        .temp;
                max_seen = max_seen.max(peak);
            }
        }
        h.check(
            "Theorem 2: step-up bounds the phase sweep",
            max_seen <= bound + 1e-3,
            &format!("sweep max {max_seen} vs bound {bound}"),
        );
    }

    // Fig. 6/7 orderings.
    {
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).expect("platform");
        let cmp = Comparison::run(&p);
        let (l, e, a, pc) = (
            Comparison::throughput(&cmp.lns),
            Comparison::throughput(&cmp.exs),
            Comparison::throughput(&cmp.ao),
            Comparison::throughput(&cmp.pco),
        );
        h.check(
            "Fig 6: LNS <= EXS <= AO on 6-core 2-level",
            l <= e + 1e-9 && e <= a + 1e-9,
            &format!("{l} {e} {a}"),
        );
        h.check("Fig 6: AO ~ PCO", (a - pc).abs() < 0.02, &format!("{a} vs {pc}"));
    }
    {
        let mut ok = true;
        let mut detail = String::new();
        for t_max_c in [55.0, 60.0, 65.0] {
            let p = Platform::build(&PlatformSpec::paper(1, 2, 2, t_max_c)).expect("platform");
            let a = solve(SolverKind::Ao, &p, &solve_options()).expect("ao").solution.throughput;
            if (a - 1.3).abs() > 2e-3 {
                ok = false;
                detail = format!("AO at {t_max_c} C gave {a}");
            }
        }
        h.check("Fig 7: 2-core plateau at v_max for T_max >= 55", ok, &detail);
    }

    // Fig 7 monotonicity in T_max.
    {
        let mut prev = 0.0;
        let mut ok = true;
        let mut vals = Vec::new();
        for t_max_c in [50.0, 55.0, 60.0, 65.0] {
            let p = Platform::build(&PlatformSpec::paper(3, 3, 2, t_max_c)).expect("platform");
            let a = solve(SolverKind::Ao, &p, &solve_options()).expect("ao").solution.throughput;
            ok &= a >= prev - 1e-9;
            prev = a;
            vals.push(a);
        }
        h.check("Fig 7: throughput monotone in T_max (9-core)", ok, &format!("{vals:?}"));
    }

    // Table V shape: EXS (single-thread) superlinear in levels on 9 cores.
    {
        use std::time::Instant;
        let time_exs = |levels: usize| {
            let p = Platform::build(&PlatformSpec::paper(3, 3, levels, 65.0)).expect("platform");
            let start = Instant::now();
            let single = SolveOptions { threads: 1, ..solve_options() };
            let _ = solve(SolverKind::Exs, &p, &single).expect("exs");
            start.elapsed().as_secs_f64()
        };
        let t3 = time_exs(3);
        let t5 = time_exs(5);
        h.check(
            "Table V: EXS cost explodes with level count",
            t5 > 5.0 * t3.max(1e-5),
            &format!("3 levels {t3:.4}s vs 5 levels {t5:.4}s"),
        );
    }

    // Observability: the kernel counters must attribute the solvers' work,
    // and the telemetry must be exportable for the perf trajectory.
    {
        let p = Platform::build(&PlatformSpec::paper(2, 3, 2, 55.0)).expect("platform");
        let mut log = ObsLog::new();
        let opts = solve_options();
        let (_, t_ao, obs_ao) = timed_obs(|| solve(SolverKind::Ao, &p, &opts));
        // AO evaluates schedules on the modal period-map kernel and builds
        // no matrix exponential, so `period_map.matmuls` carries its work.
        let matmuls = obs_ao.counter("period_map.matmuls").unwrap_or(0);
        let peaks = obs_ao.counter("peak_eval.calls").unwrap_or(0);
        let rounds = obs_ao.counter("ao.tpt_rounds").unwrap_or(0);
        log.section("AO", t_ao, &obs_ao);
        h.check(
            "obs: AO attributes kernel work to counters",
            matmuls > 0 && peaks > 0 && rounds > 0,
            &format!("period_map.matmuls {matmuls}, peak_eval {peaks}, tpt_rounds {rounds}"),
        );
        let (_, t_exs, obs_exs) = timed_obs(|| solve(SolverKind::Exs, &p, &opts));
        log.section("EXS", t_exs, &obs_exs);
        h.check(
            "obs: EXS run produces a root span",
            obs_exs.span_path("exs.solve").is_some(),
            "no exs.solve span in snapshot",
        );
        let (_, t_lns, obs_lns) = timed_obs(|| solve(SolverKind::Lns, &p, &opts));
        log.section("LNS", t_lns, &obs_lns);
        println!(
            "      (AO on 6 cores: {matmuls} period_map.matmuls, {peaks} peak_eval.calls, \
             {rounds} tpt rounds in {t_ao:.3}s)"
        );
        log.write(&PathBuf::from("."));
        mosc_obs::disable();
        mosc_obs::reset();
    }

    println!(
        "\n{}/{} checks passed{}",
        h.count - h.failures.len(),
        h.count,
        if h.failures.is_empty() { " — reproduction intact" } else { "" }
    );
    if h.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failing checks: {:?}", h.failures);
        ExitCode::FAILURE
    }
}
