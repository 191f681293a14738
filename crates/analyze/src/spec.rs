//! Spec files: a JSON description of a platform (and optionally a schedule
//! and a claimed solution) that `mosc-cli analyze` lints end to end.
//!
//! ```json
//! {
//!   "platform": {
//!     "rows": 2, "cols": 3, "layers": 1,
//!     "levels": [0.6, 0.8, 1.0, 1.2, 1.3],
//!     "t_max_c": 55.0, "tau": 5e-6, "cooler": "default",
//!     "beta": 0.03
//!   },
//!   "schedule": {
//!     "period": 0.1, "step_up": true,
//!     "cores": [[[0.6, 0.06], [1.3, 0.04]], [[1.3, 0.1]], ...]
//!   },
//!   "solution": {"throughput": 0.88, "peak_c": 54.9, "feasible": true, "m": 4}
//! }
//! ```
//!
//! `platform` is required. `layers` defaults to 1, `tau` to the paper's
//! 5 µs, `cooler` to `"default"` (also: `"budget"`, `"responsive"`), and
//! `alpha`/`beta`/`gamma` to the 65 nm preset's power coefficients — an
//! oversized `beta` is the spec-level way to produce a non-Hurwitz state
//! matrix (thermal runaway, M007). `schedule.step_up` defaults to `true`,
//! making a non-step-up timeline an error (M014); set it to `false` for
//! phase-shifted schedules, which downgrades M014 to a warning. `solution`
//! needs `schedule`; its peak may be given as `peak_c` (°C) or `peak`
//! (K above ambient).
//!
//! Structural problems (malformed JSON, missing required fields, unknown
//! cooler names) surface as [`SpecError`]; everything value-level goes into
//! the returned [`Report`] as `M0xx` diagnostics.

use crate::diag::{Code, Report, Severity};
use crate::json::Value;
use crate::solution::{check_solution, SolutionClaim, Tolerances};
use crate::{platform as plat, schedule as sched};
use mosc_power::{ModeTable, Params65nm, PowerModel, TransitionOverhead};
use mosc_sched::{CoreSchedule, Platform, PlatformSpec, SchedError, Schedule, Segment};
use mosc_thermal::{RcConfig, ThermalError};

/// A structural problem with a spec (as opposed to a lint finding).
#[derive(Debug, Clone)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn structural(what: impl Into<String>) -> SpecError {
    SpecError(what.into())
}

fn req_f64(obj: &Value, key: &str, ctx: &str) -> Result<f64, SpecError> {
    obj.get(key)
        .ok_or_else(|| structural(format!("{ctx}.{key} is required")))?
        .as_f64()
        .ok_or_else(|| structural(format!("{ctx}.{key} must be a number")))
}

fn opt_f64(obj: &Value, key: &str, default: f64, ctx: &str) -> Result<f64, SpecError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| structural(format!("{ctx}.{key} must be a number"))),
    }
}

fn req_usize(obj: &Value, key: &str, ctx: &str) -> Result<usize, SpecError> {
    obj.get(key)
        .ok_or_else(|| structural(format!("{ctx}.{key} is required")))?
        .as_usize()
        .ok_or_else(|| structural(format!("{ctx}.{key} must be a non-negative integer")))
}

fn opt_usize(obj: &Value, key: &str, default: usize, ctx: &str) -> Result<usize, SpecError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| structural(format!("{ctx}.{key} must be a non-negative integer"))),
    }
}

/// The raw values of a spec's `platform` section, parsed and defaulted but
/// not yet lint-checked or built into a typed [`Platform`].
struct PlatformParams {
    rows: usize,
    cols: usize,
    layers: usize,
    levels: Vec<f64>,
    t_max_c: f64,
    tau: f64,
    alpha: f64,
    beta: f64,
    gamma: f64,
    rc: RcConfig,
}

fn parse_platform_section(doc: &Value) -> Result<PlatformParams, SpecError> {
    let pspec = doc.get("platform").ok_or_else(|| structural("'platform' section is required"))?;
    if !pspec.is_object() {
        return Err(structural("'platform' must be an object"));
    }
    let params = Params65nm::params();
    let levels: Vec<f64> = pspec
        .get("levels")
        .ok_or_else(|| structural("platform.levels is required"))?
        .as_array()
        .ok_or_else(|| structural("platform.levels must be an array of numbers"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| structural("platform.levels must be numbers")))
        .collect::<Result<_, _>>()?;
    let rc = match pspec.get("cooler").map(|v| v.as_str()) {
        None => RcConfig::default(),
        Some(Some("default")) => RcConfig::default(),
        Some(Some("budget")) => RcConfig::budget_cooler(),
        Some(Some("responsive")) => RcConfig::responsive_package(),
        Some(Some(other)) => return Err(structural(format!("unknown cooler '{other}'"))),
        Some(None) => return Err(structural("platform.cooler must be a string")),
    };
    Ok(PlatformParams {
        rows: req_usize(pspec, "rows", "platform")?,
        cols: req_usize(pspec, "cols", "platform")?,
        layers: opt_usize(pspec, "layers", 1, "platform")?,
        levels,
        t_max_c: req_f64(pspec, "t_max_c", "platform")?,
        tau: opt_f64(pspec, "tau", TransitionOverhead::paper_default().tau, "platform")?,
        alpha: opt_f64(pspec, "alpha", params.power.alpha, "platform")?,
        beta: opt_f64(pspec, "beta", params.power.beta, "platform")?,
        gamma: opt_f64(pspec, "gamma", params.power.gamma, "platform")?,
        rc,
    })
}

fn raw_platform_lints(p: &PlatformParams) -> Report {
    let mut report = Report::new();
    report.merge(plat::check_levels(&p.levels));
    report.merge(plat::check_tau(p.tau));
    report.merge(plat::check_core_count(p.rows, p.cols, p.layers));
    report.merge(plat::check_t_max_c(p.t_max_c, Params65nm::params().t_ambient_c));
    report
}

/// Builds the typed [`Platform`] a spec describes, without running the full
/// lint pipeline. `mosc-cli profile` uses this: it needs the platform (not a
/// report) to run the solvers against. Value-level defects that
/// [`analyze_spec`] would report as diagnostics surface here as
/// [`SpecError`]s, since there is no report to carry them.
///
/// # Errors
/// [`SpecError`] for malformed JSON, missing or mistyped fields, platform
/// values that fail the raw lints, or a platform whose thermal model cannot
/// be constructed (e.g. a non-Hurwitz state matrix).
pub fn platform_from_spec(text: &str) -> Result<Platform, SpecError> {
    let doc = Value::parse(text).map_err(|e| structural(e.to_string()))?;
    platform_from_doc(&doc)
}

/// Builds the typed [`Platform`] from an already-parsed spec document (a
/// JSON object holding a `"platform"` member). The `mosc-serve` wire
/// protocol parses each request line once and hands the document here, so
/// the daemon and the file-based [`platform_from_spec`] share one platform
/// decoder.
///
/// # Errors
/// Same contract as [`platform_from_spec`], minus the JSON parse step.
pub fn platform_from_doc(doc: &Value) -> Result<Platform, SpecError> {
    if !doc.is_object() {
        return Err(structural("top level must be a JSON object"));
    }
    let p = parse_platform_section(doc)?;
    let raw = raw_platform_lints(&p);
    if raw.has_errors() {
        return Err(structural(format!("platform values fail lints:\n{raw}")));
    }
    let mut report = Report::new();
    build_platform(&p, &mut report)?
        .ok_or_else(|| structural(format!("platform construction failed:\n{report}")))
}

/// A spec artifact after loading: the typed platform and schedule it
/// described (when they could be built) plus every diagnostic the load
/// produced. The pass manager hands the typed halves to cross-artifact
/// lints (M08x) so they never re-parse the file.
#[derive(Debug)]
pub struct SpecArtifact {
    /// The typed platform, `None` when its raw values failed lints or the
    /// thermal model could not be constructed (the report says why).
    pub platform: Option<Platform>,
    /// The typed schedule from the spec's `schedule` section, `None` when
    /// absent or unbuildable.
    pub schedule: Option<Schedule>,
    /// Everything the single-file spec pipeline found (M00x/M01x/M02x).
    pub report: Report,
}

/// Analyzes a spec document. Returns the lint report, or a [`SpecError`]
/// when the document is structurally unusable.
///
/// # Errors
/// [`SpecError`] for malformed JSON, missing required fields, wrong types,
/// or unknown cooler names.
pub fn analyze_spec(text: &str) -> Result<Report, SpecError> {
    load_spec(text).map(|a| a.report)
}

/// Loads a spec and returns the typed artifact alongside the lint report.
/// [`analyze_spec`] is this function with the typed halves dropped.
///
/// # Errors
/// Same contract as [`analyze_spec`].
pub fn load_spec(text: &str) -> Result<SpecArtifact, SpecError> {
    let doc = Value::parse(text).map_err(|e| structural(e.to_string()))?;
    if !doc.is_object() {
        return Err(structural("top level must be a JSON object"));
    }
    let mut report = Report::new();
    let params = Params65nm::params();

    // --- platform: raw lints first, construction second -----------------
    let pp = parse_platform_section(&doc)?;
    report.merge(raw_platform_lints(&pp));

    let platform = if report.has_errors() {
        None // raw platform values are broken; typed construction would mask them
    } else {
        build_platform(&pp, &mut report)?
    };
    if let Some(p) = &platform {
        report.merge(plat::check_platform(p));
    }

    // --- schedule -------------------------------------------------------
    let mut typed_schedule = None;
    let mut step_up_severity = Severity::Error;
    if let Some(sspec) = doc.get("schedule") {
        if !sspec.is_object() {
            return Err(structural("'schedule' must be an object"));
        }
        if let Some(flag) = sspec.get("step_up") {
            let declared =
                flag.as_bool().ok_or_else(|| structural("schedule.step_up must be a boolean"))?;
            if !declared {
                step_up_severity = Severity::Warning;
            }
        }
        let period = req_f64(sspec, "period", "schedule")?;
        let cores = parse_cores(sspec)?;
        let raw = sched::check_raw_schedule(period, &cores);
        let raw_ok = !raw.has_errors();
        report.merge(raw);
        if raw_ok {
            match build_schedule(&cores) {
                Ok(s) => {
                    report.merge(sched::check_schedule(&s, platform.as_ref(), step_up_severity));
                    typed_schedule = Some(s);
                }
                Err(e) => report.push(
                    Code::EmptySchedule,
                    "schedule",
                    format!("schedule construction failed: {e}"),
                ),
            }
        }
    }

    // --- solution -------------------------------------------------------
    if let Some(claim) = doc.get("solution") {
        if !claim.is_object() {
            return Err(structural("'solution' must be an object"));
        }
        let (Some(p), Some(s)) = (platform.as_ref(), typed_schedule.as_ref()) else {
            if !report.has_errors() {
                return Err(structural("'solution' requires a 'schedule' section"));
            }
            // can't recompute against broken inputs
            return Ok(SpecArtifact { platform, schedule: typed_schedule, report });
        };
        let peak = match (claim.get("peak_c"), claim.get("peak")) {
            (Some(v), _) => {
                v.as_f64().ok_or_else(|| structural("solution.peak_c must be a number"))?
                    - params.t_ambient_c
            }
            (None, Some(v)) => {
                v.as_f64().ok_or_else(|| structural("solution.peak must be a number"))?
            }
            (None, None) => return Err(structural("solution needs 'peak_c' or 'peak'")),
        };
        let claim = SolutionClaim {
            throughput: req_f64(claim, "throughput", "solution")?,
            peak,
            feasible: claim
                .get("feasible")
                .ok_or_else(|| structural("solution.feasible is required"))?
                .as_bool()
                .ok_or_else(|| structural("solution.feasible must be a boolean"))?,
            m: opt_usize(claim, "m", 1, "solution")?,
        };
        report.merge(check_solution(p, s, &claim, &Tolerances::default()));
    }

    Ok(SpecArtifact { platform, schedule: typed_schedule, report })
}

/// Builds the typed platform through [`Platform::build_with_power`], the
/// path `Platform::build` takes too: the thermal model comes from the
/// process-global table, so a floorplan, cooler and β seen before cost no
/// eigendecomposition. A non-Hurwitz state matrix becomes M007 in `report`.
fn build_platform(p: &PlatformParams, report: &mut Report) -> Result<Option<Platform>, SpecError> {
    let modes = ModeTable::from_levels(&p.levels).map_err(|e| structural(e.to_string()))?;
    let overhead = TransitionOverhead::new(p.tau).map_err(|e| structural(e.to_string()))?;
    let power = PowerModel::new(p.alpha, p.beta, p.gamma).map_err(|e| structural(e.to_string()))?;
    let spec = PlatformSpec {
        rows: p.rows,
        cols: p.cols,
        layers: p.layers,
        modes,
        t_max_c: p.t_max_c,
        rc: p.rc,
        overhead,
    };
    match Platform::build_with_power(&spec, power) {
        Ok(platform) => Ok(Some(platform)),
        Err(SchedError::Thermal(ThermalError::Unstable { max_eigenvalue })) => {
            report.push(
                Code::NotHurwitz,
                "platform.thermal.A",
                format!(
                    "state matrix is not Hurwitz-stable (thermal runaway): max eigenvalue \
                     {max_eigenvalue:e} >= 0 — is beta = {} too large for this package?",
                    p.beta
                ),
            );
            Ok(None)
        }
        // The thermal error's own text, without the schedule-level prefix.
        Err(SchedError::Thermal(e)) => Err(structural(e.to_string())),
        Err(e) => Err(structural(e.to_string())),
    }
}

fn parse_cores(sspec: &Value) -> Result<Vec<Vec<(f64, f64)>>, SpecError> {
    sspec
        .get("cores")
        .ok_or_else(|| structural("schedule.cores is required"))?
        .as_array()
        .ok_or_else(|| structural("schedule.cores must be an array"))?
        .iter()
        .map(|core| {
            core.as_array()
                .ok_or_else(|| structural("each core must be an array of segments"))?
                .iter()
                .map(|seg| {
                    let pair = seg
                        .as_array()
                        .ok_or_else(|| structural("each segment must be [voltage, duration]"))?;
                    if pair.len() != 2 {
                        return Err(structural("each segment must be [voltage, duration]"));
                    }
                    let v = pair[0]
                        .as_f64()
                        .ok_or_else(|| structural("segment voltage must be a number"))?;
                    let d = pair[1]
                        .as_f64()
                        .ok_or_else(|| structural("segment duration must be a number"))?;
                    Ok((v, d))
                })
                .collect()
        })
        .collect()
}

fn build_schedule(cores: &[Vec<(f64, f64)>]) -> mosc_sched::Result<Schedule> {
    let typed: Vec<CoreSchedule> = cores
        .iter()
        .map(|segs| CoreSchedule::new(segs.iter().map(|&(v, d)| Segment::new(v, d)).collect()))
        .collect::<mosc_sched::Result<_>>()?;
    Schedule::new(typed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "platform": {"rows": 1, "cols": 2, "levels": [0.6, 1.3], "t_max_c": 55.0},
        "schedule": {"period": 0.1,
                     "cores": [[[0.6, 0.06], [1.3, 0.04]], [[0.6, 0.07], [1.3, 0.03]]]}
    }"#;

    #[test]
    fn good_spec_is_clean() {
        let r = analyze_spec(GOOD).unwrap();
        assert!(!r.has_errors(), "findings:\n{r}");
    }

    #[test]
    fn unsorted_levels_report_m001_and_skip_typed_build() {
        let text = r#"{
            "platform": {"rows": 1, "cols": 2, "levels": [1.3, 0.6], "t_max_c": 55.0}
        }"#;
        let r = analyze_spec(text).unwrap();
        assert!(r.has_errors());
        assert!(r.has_code(Code::LevelsNotSorted));
        assert!(!r.has_code(Code::NotHurwitz));
    }

    #[test]
    fn runaway_beta_reports_m007() {
        let text = r#"{
            "platform": {"rows": 1, "cols": 2, "levels": [0.6, 1.3], "t_max_c": 55.0,
                         "beta": 1000.0}
        }"#;
        let r = analyze_spec(text).unwrap();
        assert!(r.has_errors());
        assert!(r.has_code(Code::NotHurwitz));
    }

    #[test]
    fn non_step_up_schedule_errors_by_default_and_warns_when_declared() {
        let strict = r#"{
            "platform": {"rows": 1, "cols": 1, "levels": [0.6, 1.3], "t_max_c": 65.0},
            "schedule": {"period": 0.1, "cores": [[[1.3, 0.04], [0.6, 0.06]]]}
        }"#;
        let r = analyze_spec(strict).unwrap();
        assert!(r.has_errors());
        assert!(r.has_code(Code::NotStepUp));

        let lax = r#"{
            "platform": {"rows": 1, "cols": 1, "levels": [0.6, 1.3], "t_max_c": 65.0},
            "schedule": {"period": 0.1, "step_up": false,
                         "cores": [[[1.3, 0.04], [0.6, 0.06]]]}
        }"#;
        let r = analyze_spec(lax).unwrap();
        assert!(!r.has_errors());
        assert!(r.has_code(Code::NotStepUp));
    }

    #[test]
    fn solution_section_is_recomputed() {
        let text = r#"{
            "platform": {"rows": 1, "cols": 2, "levels": [0.6, 1.3], "t_max_c": 65.0},
            "schedule": {"period": 0.1, "cores": [[[0.6, 0.1]], [[0.6, 0.1]]]},
            "solution": {"throughput": 0.6, "peak_c": 120.0, "feasible": true, "m": 1}
        }"#;
        let r = analyze_spec(text).unwrap();
        assert!(r.has_code(Code::PeakMismatch), "findings:\n{r}");
    }

    #[test]
    fn structural_problems_are_spec_errors() {
        assert!(analyze_spec("not json").is_err());
        assert!(analyze_spec("[]").is_err());
        assert!(analyze_spec("{}").is_err());
        assert!(analyze_spec(r#"{"platform": {"rows": 1}}"#).is_err());
        let bad_cooler = r#"{
            "platform": {"rows": 1, "cols": 1, "levels": [0.6, 1.3], "t_max_c": 55.0,
                         "cooler": "cryogenic"}
        }"#;
        assert!(analyze_spec(bad_cooler).is_err());
        let orphan_solution = r#"{
            "platform": {"rows": 1, "cols": 1, "levels": [0.6, 1.3], "t_max_c": 55.0},
            "solution": {"throughput": 1.0, "peak": 1.0, "feasible": true}
        }"#;
        assert!(analyze_spec(orphan_solution).is_err());
    }

    #[test]
    fn raw_schedule_defects_reach_the_report() {
        let text = r#"{
            "platform": {"rows": 1, "cols": 1, "levels": [0.6, 1.3], "t_max_c": 55.0},
            "schedule": {"period": 0.1, "cores": [[[0.6, -0.05], [1.3, 0.15]]]}
        }"#;
        let r = analyze_spec(text).unwrap();
        assert!(r.has_code(Code::DurationInvalid));
    }
}
