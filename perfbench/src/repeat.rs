//! Repeat mode: the steadiness record. Runs every workload N times as child
//! processes of this binary, alternating the workload order, and reports
//! per metric the median, the quartiles, the spread and every run's value.

use crate::gen::Workload;
use crate::stats::{median, quartiles};
use crate::Args;
use mosc_analyze::json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Metrics that are counts of deterministic work: a traced repeat with one
/// seed must read them identically on every run.
const EXACT: [&str; 7] = [
    "cache.hit_ratio",
    "registry.hit_ratio",
    "kernel.expm_calls",
    "kernel.period_map_matmuls",
    "kernel.steady_state_calls",
    "kernel.linalg_matmuls",
    "kernel.eigen_calls",
];

/// `BENCHMARK.json` in the current directory: the gated workloads and the
/// `name -> bound` map of its `end_to_end` list. Without the file, every
/// workload and no bounds.
fn benchmark_json() -> (Vec<Workload>, BTreeMap<String, f64>) {
    let doc = std::fs::read_to_string("BENCHMARK.json").ok().and_then(|t| Value::parse(&t).ok());
    let Some(doc) = doc else { return (Workload::ALL.to_vec(), BTreeMap::new()) };
    let list = |key: &str| {
        doc.get(key).and_then(Value::as_array).map(<[Value]>::to_vec).unwrap_or_default()
    };
    let workloads = list("workloads")
        .iter()
        .filter_map(|w| Workload::parse(w.get("name")?.as_str()?))
        .collect();
    let bounds = list("end_to_end")
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_owned(), m.get("bound")?.as_f64()?)))
        .collect();
    (workloads, bounds)
}

/// One child run: its result line's `correct` flag and the value of every
/// metric it printed, gated (in the result line) or only reported (a
/// `name value unit` line before it).
fn child(args: &Args, workload: Workload, seed: u64) -> Result<(bool, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Value::parse(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    let correct = doc.get("correct").and_then(Value::as_bool) == Some(true) && out.status.success();
    let values = stdout
        .lines()
        .filter_map(|line| match line.split_whitespace().collect::<Vec<_>>()[..] {
            [name, value, _unit] => Some((name.to_owned(), value.parse().ok()?)),
            _ => None,
        })
        .collect();
    Ok((correct, values))
}

/// Runs the repeat and prints the record; nonzero exit when a run failed,
/// a spread exceeds its bound, or a count did not repeat.
pub fn run(args: &Args, runs: usize) -> ExitCode {
    let (listed, bounds) = benchmark_json();
    let workloads: Vec<Workload> = args.workload.map_or(listed, |w| vec![w]);
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut bad = false;
    for r in 0..runs {
        let seed = if args.trace { args.seed } else { args.seed + r as u64 };
        let mut order = workloads.clone();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            match child(args, w, seed) {
                Ok((correct, metrics)) => {
                    if !correct {
                        println!("FAILED {} seed {seed}: incorrect answers", w.name());
                        bad = true;
                    }
                    let wi = Workload::ALL.iter().position(|&x| x == w).expect("known workload");
                    for (name, v) in metrics {
                        values.entry((wi, name)).or_default().push(v);
                    }
                }
                Err(e) => {
                    println!("FAILED {e}");
                    bad = true;
                }
            }
            eprintln!("repeat: run {}/{runs} {} seed {seed} done", r + 1, w.name());
        }
    }
    println!(
        "{:<8} {:<28} {:>12} {:>12} {:>12} {:>8} {:>6}  values",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for ((wi, name), v) in &values {
        let med = median(v.clone());
        let (q1, q3) = quartiles(v.clone());
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() };
        let bound = bounds.get(name).copied();
        let mut flag = "";
        if let Some(b) = bound {
            if spread > b {
                flag = "  OVER BOUND";
                bad = true;
            } else if spread > b / 3.0 {
                flag = "  over a third of the bound";
            }
        }
        if args.trace
            && EXACT.contains(&name.as_str())
            && v.iter().any(|x| x.to_bits() != v[0].to_bits())
        {
            flag = "  DID NOT REPEAT";
            bad = true;
        }
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!(
            "{:<8} {:<28} {:>12.6} {:>12.6} {:>12.6} {:>7.2}% {:>6}  [{}]{flag}",
            Workload::ALL[*wi].name(),
            name,
            med,
            q1,
            q3,
            spread * 100.0,
            bound.map_or("-".to_owned(), |b| format!("{b}")),
            shown.join(", ")
        );
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
