//! A platform whose thermal model is shared answers exactly like one whose
//! model was built fresh for it alone.
//!
//! `mosc_analyze::platform_from_doc` (the daemon's decoder) and
//! `Platform::build` take their thermal model from one process-global
//! table keyed by floorplan, cooler and β, so platforms that differ only in
//! levels, τ or `T_max` share the eigenbasis and its memo of modal T∞
//! vectors. Every check here compares against `Platform::from_parts` with a
//! `ThermalModel` built on the spot, which the table never sees.

use mosc::algorithms::{solve, SolveOptions, SolverKind};
use mosc::analyze::json::Value;
use mosc::analyze::platform_from_doc;
use mosc::power::{ModeTable, Params65nm, PowerModel, TransitionOverhead};
use mosc::sched::{text, Platform};
use mosc::thermal::{Floorplan, RcConfig, RcNetwork, ThermalModel};
use std::sync::Arc;

/// One spec-level platform: the members of a spec's `platform` section.
#[derive(Clone, Copy)]
struct Case {
    rows: usize,
    cols: usize,
    layers: usize,
    levels: usize,
    t_max_c: f64,
    cooler: &'static str,
    /// `(alpha, gamma, tau)`; `None` keeps the preset's values.
    custom: Option<(f64, f64, f64)>,
}

const fn case(rows: usize, cols: usize, levels: usize, t_max_c: f64) -> Case {
    Case { rows, cols, layers: 1, levels, t_max_c, cooler: "default", custom: None }
}

/// Paper grids 1×2 to 3×3, 2–5 levels, several `T_max` on one floorplan, a
/// 2-layer stack, the `budget` and `responsive` coolers and non-default
/// α/γ/τ.
const CASES: [Case; 9] = [
    case(1, 2, 2, 55.0),
    case(1, 3, 3, 49.0),
    case(2, 2, 4, 55.0),
    case(2, 2, 4, 63.0),
    case(2, 2, 2, 70.0),
    Case { cooler: "budget", ..case(2, 2, 2, 58.0) },
    Case { layers: 2, ..case(1, 2, 3, 65.0) },
    Case { cooler: "responsive", custom: Some((1.2, 9.0, 2e-5)), ..case(1, 3, 2, 60.0) },
    case(3, 3, 5, 67.5),
];

impl Case {
    fn modes(self) -> ModeTable {
        ModeTable::table_iv(self.levels)
    }

    fn power(self) -> PowerModel {
        let preset = Params65nm::params().power;
        match self.custom {
            Some((alpha, gamma, _)) => PowerModel::new(alpha, preset.beta, gamma).unwrap(),
            None => preset,
        }
    }

    fn tau(self) -> f64 {
        self.custom.map_or(TransitionOverhead::paper_default().tau, |(_, _, tau)| tau)
    }

    fn rc(self) -> RcConfig {
        match self.cooler {
            "budget" => RcConfig::budget_cooler(),
            "responsive" => RcConfig::responsive_package(),
            _ => RcConfig::default(),
        }
    }

    /// The platform through the daemon's decoder, on the shared model.
    fn shared(self) -> Platform {
        let levels: Vec<String> = self.modes().levels().iter().map(|v| format!("{v:?}")).collect();
        let power = self.power();
        let json = format!(
            r#"{{"platform":{{"rows":{},"cols":{},"layers":{},"levels":[{}],"t_max_c":{:?},"cooler":"{}","alpha":{:?},"beta":{:?},"gamma":{:?},"tau":{:?}}}}}"#,
            self.rows,
            self.cols,
            self.layers,
            levels.join(","),
            self.t_max_c,
            self.cooler,
            power.alpha,
            power.beta,
            power.gamma,
            self.tau(),
        );
        platform_from_doc(&Value::parse(&json).unwrap()).unwrap()
    }

    /// A thermal model built on the spot, never stored anywhere.
    fn fresh_model(self) -> ThermalModel {
        let floorplan = if self.layers <= 1 {
            Floorplan::grid(self.rows, self.cols, 4.0e-3, 4.0e-3)
        } else {
            Floorplan::stack3d(self.layers, self.rows, self.cols, 4.0e-3, 4.0e-3)
        }
        .unwrap();
        let network = RcNetwork::build(&floorplan, &self.rc()).unwrap();
        ThermalModel::new(network, self.power().beta).unwrap()
    }

    /// The same platform around `thermal`.
    fn on(self, thermal: impl Into<Arc<ThermalModel>>) -> Platform {
        Platform::from_parts(
            thermal,
            self.power(),
            self.modes(),
            TransitionOverhead::new(self.tau()).unwrap(),
            self.t_max_c,
            Params65nm::params().t_ambient_c,
        )
    }

    fn fresh(self) -> Platform {
        self.on(self.fresh_model())
    }

    fn solvers(self) -> Vec<SolverKind> {
        let mut kinds = vec![SolverKind::Ao, SolverKind::Pco, SolverKind::Lns];
        // EXS enumerates levels^cores assignments; keep it to small trees.
        if self.levels.pow((self.rows * self.cols * self.layers) as u32) <= 4096 {
            kinds.push(SolverKind::Exs);
        }
        kinds
    }
}

/// Everything an answer carries, compared bit for bit: throughput, peak in
/// °C, `m`, feasibility and the schedule text.
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    throughput: u64,
    peak_c: u64,
    m: usize,
    feasible: bool,
    schedule: String,
}

fn answer(kind: SolverKind, p: &Platform) -> Answer {
    let report = solve(kind, p, &SolveOptions { threads: 1, ..SolveOptions::default() })
        .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    let s = report.solution;
    Answer {
        throughput: s.throughput.to_bits(),
        peak_c: s.peak_c(p).to_bits(),
        m: s.m,
        feasible: s.feasible,
        schedule: text::to_text(&s.schedule),
    }
}

#[test]
fn a_shared_model_answers_like_a_fresh_one() {
    for c in CASES {
        let shared = c.shared();
        let fresh = c.fresh();
        assert!(!std::ptr::eq(shared.thermal(), fresh.thermal()));
        for kind in c.solvers() {
            assert_eq!(
                answer(kind, &shared),
                answer(kind, &fresh),
                "{kind:?} on {}x{}x{} {} levels {} °C {}",
                c.rows,
                c.cols,
                c.layers,
                c.levels,
                c.t_max_c,
                c.cooler
            );
        }
    }
}

#[test]
fn platforms_on_one_floorplan_share_one_model() {
    let a = CASES[2].shared();
    let b = CASES[3].shared();
    let c = CASES[4].shared();
    assert!(std::ptr::eq(a.thermal(), b.thermal()), "other T_max, same model");
    assert!(std::ptr::eq(a.thermal(), c.thermal()), "other levels, same model");
    let budget = CASES[5].shared();
    assert!(!std::ptr::eq(a.thermal(), budget.thermal()), "another cooler is another model");
}

#[test]
fn memo_state_on_a_shared_model_never_reaches_an_answer() {
    // Two platforms on one 2×2 floorplan with other levels and T_max, solved
    // on one model in both orders: whichever warms the T∞ memo first, both
    // answer as on models of their own.
    let (x, y) = (CASES[2], CASES[4]);
    let kinds = [SolverKind::Ao, SolverKind::Pco, SolverKind::Lns, SolverKind::Exs];
    let alone: Vec<(Answer, Answer)> =
        kinds.iter().map(|&k| (answer(k, &x.fresh()), answer(k, &y.fresh()))).collect();
    for x_first in [true, false] {
        let model = Arc::new(x.fresh_model());
        let (px, py) = (x.on(Arc::clone(&model)), y.on(Arc::clone(&model)));
        for (&kind, (ax, ay)) in kinds.iter().zip(&alone) {
            if x_first {
                assert_eq!(&answer(kind, &px), ax, "{kind:?}, x first");
                assert_eq!(&answer(kind, &py), ay, "{kind:?}, x first");
            } else {
                assert_eq!(&answer(kind, &py), ay, "{kind:?}, y first");
                assert_eq!(&answer(kind, &px), ax, "{kind:?}, y first");
            }
        }
    }
}

#[test]
fn concurrent_solves_on_one_shape_give_the_serial_answers() {
    // Four threads on one 1×3 floorplan, each with its own T_max, all
    // resolving through the shared table at once.
    let cases: Vec<Case> = [49.0, 52.0, 55.0, 58.0].map(|t| case(1, 3, 3, t)).to_vec();
    let serial: Vec<Vec<Answer>> = cases
        .iter()
        .map(|c| [SolverKind::Ao, SolverKind::Pco].map(|k| answer(k, &c.fresh())).into())
        .collect();
    let concurrent: Vec<Vec<Answer>> = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&c| {
                s.spawn(move || {
                    let p = c.shared();
                    [SolverKind::Ao, SolverKind::Pco].map(|k| answer(k, &p)).into()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(concurrent, serial);
}
