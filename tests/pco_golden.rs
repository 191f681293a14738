//! PCO's answers, pinned bit for bit.
//!
//! Every PCO phase trial, refill step and safety-valve check is scored by
//! the sampled peak, so any change to the sampled walk's arithmetic shows up
//! here as a different throughput, peak or schedule. Each entry prints the
//! solution's f64s with `{:?}` (round-trip exact) and is checked in at
//! `tests/golden/pco_answers.txt`. Re-bless after an intended change of the
//! answers with `BLESS=1 cargo test --test pco_golden`.

use mosc::prelude::*;
use std::fmt::Write as _;

/// `(rows, cols, layers, levels, t_max_c, cooler)`: the four `batch`
/// benchmark platforms, a 3×3 grid, a 2-layer stack and the budget cooler.
const CASES: &[(usize, usize, usize, usize, f64, &str)] = &[
    (1, 2, 1, 4, 52.05, "default"),
    (2, 2, 1, 4, 63.05, "default"),
    (1, 2, 1, 4, 51.55, "default"),
    (2, 2, 1, 4, 62.55, "default"),
    (3, 3, 1, 4, 67.5, "default"),
    (2, 3, 2, 4, 55.0, "default"),
    (1, 3, 1, 4, 49.0, "budget"),
];

fn entry(out: &mut String, case: (usize, usize, usize, usize, f64, &str)) {
    let (rows, cols, layers, levels, t_max_c, cooler) = case;
    let mut spec = PlatformSpec::paper(rows, cols, levels, t_max_c);
    spec.layers = layers;
    spec.rc = match cooler {
        "budget" => RcConfig::budget_cooler(),
        _ => RcConfig::default(),
    };
    let platform = Platform::build(&spec).expect("platform builds");
    let report = mosc::algorithms::solve(SolverKind::Pco, &platform, &SolveOptions::default())
        .expect("PCO solves");
    let sol = report.solution;
    let s = &sol.schedule;
    writeln!(
        out,
        "== {rows}x{cols} layers {layers} levels {levels} t_max_c {t_max_c:?} cooler {cooler}"
    )
    .unwrap();
    writeln!(out, "throughput {:?}", sol.throughput).unwrap();
    writeln!(out, "peak {:?}", sol.peak).unwrap();
    writeln!(out, "feasible {}", sol.feasible).unwrap();
    writeln!(out, "m {}", sol.m).unwrap();
    writeln!(out, "block {:?} x {}", s.block_period(), s.repetitions()).unwrap();
    for (i, core) in s.cores().iter().enumerate() {
        write!(out, "core {i}:").unwrap();
        for seg in core.segments() {
            write!(out, " {:?}@{:?}", seg.voltage, seg.duration).unwrap();
        }
        out.push('\n');
    }
}

#[test]
fn pco_answers_match_the_golden() {
    let mut got = String::new();
    for &case in CASES {
        entry(&mut got, case);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pco_answers.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read golden {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(got, want, "PCO answers drifted from {path} (re-bless with BLESS=1 if intended)");
}
