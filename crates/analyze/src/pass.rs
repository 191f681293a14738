//! The pass manager: a [`Lint`] trait, a registry of passes, per-code
//! severity configuration (CLI flags + `analyze.toml`), and a baseline so
//! CI can ratchet.
//!
//! The engine runs in three stages. First every input file is loaded once
//! into the typed [`Artifacts`] model. Then each registered pass runs over
//! the whole model and its findings are stamped with the file they belong
//! to. Finally [`Config::apply`] maps each finding through the configured
//! [`LintLevel`] — `allow` drops it, `warn`/`deny` force its severity —
//! and [`apply_baseline`] removes findings already acknowledged in a
//! baseline file, so only *new* findings fail CI.
//!
//! `analyze.toml` is a small TOML subset (sections, `key = value`, `#`
//! comments — no tables-in-tables, no arrays):
//!
//! ```toml
//! [lints]
//! M014 = "allow"        # phase-shifted schedules are fine here
//! M083 = "deny"
//!
//! [analyze]
//! deny_warnings = true
//! baseline = "analyze-baseline.txt"
//! ```
//!
//! A baseline file holds one fingerprint (`CODE FILE PATH`) per line;
//! `mosc-cli analyze --write-baseline` emits it and `--baseline` applies it.

use crate::artifact::{ArtifactKind, Artifacts};
use crate::diag::{Code, Diagnostic, Report, Severity};
use crate::spec::SpecError;
use std::collections::BTreeSet;

/// One analysis pass over the loaded artifact model.
pub trait Lint {
    /// Short machine-friendly pass name (shows up in `--list-passes`).
    fn name(&self) -> &'static str;
    /// One-line description of what the pass checks.
    fn description(&self) -> &'static str;
    /// Runs the pass, pushing findings (already stamped with their file)
    /// into `report`.
    fn run(&self, artifacts: &Artifacts, report: &mut Report);
}

/// Runs every file-scoped sub-report through `f` and stamps the findings.
fn per_file<F: FnMut(&ArtifactKind, &mut Report)>(
    artifacts: &Artifacts,
    report: &mut Report,
    mut f: F,
) {
    for file in &artifacts.files {
        let mut sub = Report::new();
        f(&file.kind, &mut sub);
        sub.stamp_file(&file.path);
        report.merge(sub);
    }
}

/// Replays each spec artifact's load-time findings (M00x/M01x/M02x).
struct SpecPass;

impl Lint for SpecPass {
    fn name(&self) -> &'static str {
        "spec"
    }
    fn description(&self) -> &'static str {
        "platform/schedule/solution lints recorded while loading spec files"
    }
    fn run(&self, artifacts: &Artifacts, report: &mut Report) {
        per_file(artifacts, report, |kind, sub| {
            if let ArtifactKind::Spec(s) = kind {
                sub.merge(s.report.clone());
            }
        });
    }
}

/// Value-level lints on standalone schedule artifacts.
struct SchedulePass;

impl Lint for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }
    fn description(&self) -> &'static str {
        "segment/period/step-up lints on standalone schedule files"
    }
    fn run(&self, artifacts: &Artifacts, report: &mut Report) {
        per_file(artifacts, report, |kind, sub| {
            if let ArtifactKind::Schedule(s) = kind {
                // A standalone schedule declares no step-up intent, so M014
                // stays a warning; platform joins are the cross pass's job.
                sub.merge(crate::schedule::check_schedule(s, None, Severity::Warning));
            }
        });
    }
}

/// The M05x–M07x stream lints.
struct StreamPass;

impl Lint for StreamPass {
    fn name(&self) -> &'static str {
        "stream"
    }
    fn description(&self) -> &'static str {
        "telemetry and access-log stream lints (M050–M073)"
    }
    fn run(&self, artifacts: &Artifacts, report: &mut Report) {
        per_file(artifacts, report, |kind, sub| {
            if let ArtifactKind::Stream(records) = kind {
                crate::telemetry::stream_lints(records, sub);
            }
        });
    }
}

/// The M08x cross-artifact consistency lints.
struct CrossPass;

impl Lint for CrossPass {
    fn name(&self) -> &'static str {
        "cross"
    }
    fn description(&self) -> &'static str {
        "cross-artifact consistency: schedule×platform, claims, cache keys (M080–M083)"
    }
    fn run(&self, artifacts: &Artifacts, report: &mut Report) {
        let platform = artifacts.platform();
        let fallback = artifacts.fallback_schedule();
        per_file(artifacts, report, |kind, sub| match kind {
            ArtifactKind::Schedule(s) => {
                if let Some(p) = platform {
                    crate::cross::check_cross_schedule(s, p, sub);
                }
            }
            ArtifactKind::Claim(c) => {
                crate::cross::check_claim(c, platform, fallback, sub);
            }
            ArtifactKind::Stream(records) => {
                crate::cross::access_log_lints(records, sub);
            }
            ArtifactKind::Spec(_) => {}
        });
    }
}

/// The M09x concurrency/trace lints.
struct TracePass;

impl Lint for TracePass {
    fn name(&self) -> &'static str {
        "trace"
    }
    fn description(&self) -> &'static str {
        "concurrency and distributed-trace invariants over access logs (M090–M093, M120–M124)"
    }
    fn run(&self, artifacts: &Artifacts, report: &mut Report) {
        per_file(artifacts, report, |kind, sub| {
            if let ArtifactKind::Stream(records) = kind {
                crate::trace::trace_lints(records, sub);
            }
        });
    }
}

/// The M10x bench-artifact lints.
struct BenchPass;

impl Lint for BenchPass {
    fn name(&self) -> &'static str {
        "bench"
    }
    fn description(&self) -> &'static str {
        "bench artifact structure: schema-v2 metadata, quantile ordering, empty timelines (M100–M102)"
    }
    fn run(&self, artifacts: &Artifacts, report: &mut Report) {
        per_file(artifacts, report, |kind, sub| {
            if let ArtifactKind::Stream(records) = kind {
                crate::bench::bench_lints(records, sub);
            }
        });
    }
}

/// The registered passes, in execution order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(SpecPass),
        Box::new(SchedulePass),
        Box::new(StreamPass),
        Box::new(CrossPass),
        Box::new(TracePass),
        Box::new(BenchPass),
    ]
}

/// Runs every registered pass over the artifact model and returns the raw
/// (pre-configuration) report.
#[must_use]
pub fn run_passes(artifacts: &Artifacts) -> Report {
    let mut report = Report::new();
    for pass in registry() {
        pass.run(artifacts, &mut report);
    }
    report
}

/// What to do with a lint code's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Drop the findings entirely.
    Allow,
    /// Keep them at warning severity (never fails the run).
    Warn,
    /// Force them to error severity (fails the run).
    Deny,
}

impl LintLevel {
    /// Parses `"allow"` / `"warn"` / `"deny"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "allow" => Some(Self::Allow),
            "warn" => Some(Self::Warn),
            "deny" => Some(Self::Deny),
            _ => None,
        }
    }
}

/// Per-code severity configuration, assembled from `analyze.toml` and then
/// CLI flags (later [`Config::set_level`] calls win).
#[derive(Debug, Clone, Default)]
pub struct Config {
    overrides: Vec<(Code, LintLevel)>,
    /// Promote every warning that survives the overrides to an error
    /// (`--deny warnings` / `deny_warnings = true`).
    pub deny_warnings: bool,
    /// Baseline file path configured in `analyze.toml` (CLI `--baseline`
    /// overrides it).
    pub baseline: Option<String>,
}

impl Config {
    /// An empty configuration: every code at its default severity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `code` to `level`, overriding earlier settings for it.
    pub fn set_level(&mut self, code: Code, level: LintLevel) {
        self.overrides.push((code, level));
    }

    /// The effective level for `code`: the last explicit override, else the
    /// code's default severity, with `deny_warnings` promoting a resulting
    /// `Warn` to `Deny`.
    #[must_use]
    pub fn level_for(&self, code: Code) -> LintLevel {
        let base = self.overrides.iter().rev().find(|(c, _)| *c == code).map_or_else(
            || match code.default_severity() {
                Severity::Warning => LintLevel::Warn,
                Severity::Error => LintLevel::Deny,
            },
            |&(_, level)| level,
        );
        if self.deny_warnings && base == LintLevel::Warn {
            LintLevel::Deny
        } else {
            base
        }
    }

    /// Maps a raw report through the configuration: allowed findings drop,
    /// the rest take their configured severity. A lint that escalated its
    /// own severity (e.g. M014 under a `step_up` declaration) is still
    /// capped/raised by an explicit override.
    #[must_use]
    pub fn apply(&self, report: &Report) -> Report {
        let mut out = Report::new();
        for d in report.diagnostics() {
            let has_override = self.overrides.iter().any(|(c, _)| *c == d.code);
            let severity = if has_override || self.deny_warnings {
                match self.level_for(d.code) {
                    LintLevel::Allow => continue,
                    LintLevel::Warn => Severity::Warning,
                    LintLevel::Deny => Severity::Error,
                }
            } else {
                d.severity // keep per-finding escalations intact
            };
            out.push_diagnostic(Diagnostic { severity, ..d.clone() });
        }
        out
    }

    /// Parses an `analyze.toml` document (the subset documented in the
    /// module header).
    ///
    /// # Errors
    /// [`SpecError`] on syntax errors, unknown sections, unknown keys,
    /// unknown lint codes, or invalid level strings.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let mut cfg = Self::new();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if !matches!(name, "lints" | "analyze") {
                    return Err(SpecError(format!(
                        "analyze.toml line {lineno}: unknown section [{name}] \
                         (expected [lints] or [analyze])"
                    )));
                }
                section = Some(name.to_owned());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError(format!(
                    "analyze.toml line {lineno}: expected 'key = value'"
                )));
            };
            let (key, value) = (key.trim(), unquote(value.trim()));
            match section.as_deref() {
                Some("lints") => {
                    let code = Code::parse(key).ok_or_else(|| {
                        SpecError(format!("analyze.toml line {lineno}: unknown lint code {key}"))
                    })?;
                    let level = LintLevel::parse(&value).ok_or_else(|| {
                        SpecError(format!(
                            "analyze.toml line {lineno}: level must be \
                             \"allow\", \"warn\" or \"deny\", got '{value}'"
                        ))
                    })?;
                    cfg.set_level(code, level);
                }
                Some("analyze") => match key {
                    "deny_warnings" => match value.as_str() {
                        "true" => cfg.deny_warnings = true,
                        "false" => cfg.deny_warnings = false,
                        other => {
                            return Err(SpecError(format!(
                                "analyze.toml line {lineno}: deny_warnings must be \
                                 true or false, got '{other}'"
                            )))
                        }
                    },
                    "baseline" => cfg.baseline = Some(value),
                    other => {
                        return Err(SpecError(format!(
                            "analyze.toml line {lineno}: unknown key '{other}' in [analyze]"
                        )))
                    }
                },
                _ => {
                    return Err(SpecError(format!(
                        "analyze.toml line {lineno}: key outside a section"
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> String {
    s.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(s).to_owned()
}

/// The stable identity of a finding for baseline matching: code, file, and
/// artifact path — deliberately *not* the message, which carries volatile
/// recomputed numbers.
#[must_use]
pub fn fingerprint(d: &Diagnostic) -> String {
    format!("{} {} {}", d.code, d.file, d.path)
}

/// Parses a baseline file: one fingerprint per line, `#` comments allowed.
#[must_use]
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

/// Renders the baseline that would suppress every finding in `report`.
#[must_use]
pub fn render_baseline(report: &Report) -> String {
    let set: BTreeSet<String> = report.diagnostics().iter().map(fingerprint).collect();
    let mut out = String::from("# mosc-analyze baseline: acknowledged findings, one per line\n");
    for fp in set {
        out.push_str(&fp);
        out.push('\n');
    }
    out
}

/// Drops findings whose fingerprint the baseline acknowledges.
#[must_use]
pub fn apply_baseline(report: &Report, baseline: &BTreeSet<String>) -> Report {
    let mut out = Report::new();
    for d in report.diagnostics() {
        if !baseline.contains(&fingerprint(d)) {
            out.push_diagnostic(d.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "platform": {"rows": 1, "cols": 2, "levels": [0.6, 1.3], "t_max_c": 55.0},
        "schedule": {"period": 0.1,
                     "cores": [[[0.6, 0.06], [1.3, 0.04]], [[0.6, 0.07], [1.3, 0.03]]]}
    }"#;

    fn load(inputs: &[(&str, &str)]) -> Artifacts {
        let owned: Vec<(String, String)> =
            inputs.iter().map(|(p, t)| ((*p).to_owned(), (*t).to_owned())).collect();
        Artifacts::load(&owned).unwrap()
    }

    #[test]
    fn passes_stamp_findings_with_their_file() {
        let arts = load(&[
            ("spec.json", SPEC),
            // One core instead of two, off-table voltage: M080 twice over.
            ("sched.txt", "period 0.1\ncore 0: 0.9 x 0.1\n"),
        ]);
        let report = run_passes(&arts);
        let m080: Vec<_> =
            report.diagnostics().iter().filter(|d| d.code == Code::CrossScheduleMismatch).collect();
        assert!(!m080.is_empty(), "expected M080:\n{report}");
        assert!(m080.iter().all(|d| d.file == "sched.txt"), "{report}");
    }

    #[test]
    fn clean_pair_of_artifacts_runs_clean() {
        let arts = load(&[
            ("spec.json", SPEC),
            (
                "sched.txt",
                "period 0.1\ncore 0: 0.6 x 0.06, 1.3 x 0.04\ncore 1: 0.6 x 0.07, 1.3 x 0.03\n",
            ),
        ]);
        let report = run_passes(&arts);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn registry_names_are_unique_and_described() {
        let passes = registry();
        let mut names = BTreeSet::new();
        for p in &passes {
            assert!(names.insert(p.name()), "duplicate pass {}", p.name());
            assert!(!p.description().is_empty());
        }
        assert_eq!(passes.len(), 6);
    }

    #[test]
    fn config_levels_allow_warn_deny() {
        let mut report = Report::new();
        report.push(Code::NotStepUp, "cores[0]", "not step up"); // warning by default
        report.push(Code::VoltageInvalid, "cores[1]", "NaN"); // error by default

        let mut cfg = Config::new();
        cfg.set_level(Code::NotStepUp, LintLevel::Deny);
        cfg.set_level(Code::VoltageInvalid, LintLevel::Allow);
        let out = cfg.apply(&report);
        assert_eq!(out.diagnostics().len(), 1);
        assert_eq!(out.error_count(), 1, "{out}");

        // Last set_level wins.
        cfg.set_level(Code::NotStepUp, LintLevel::Allow);
        let out = cfg.apply(&report);
        assert_eq!(out.diagnostics().len(), 0, "{out}");

        // deny_warnings promotes defaults but not explicit allows.
        let mut cfg = Config::new();
        cfg.deny_warnings = true;
        cfg.set_level(Code::VoltageInvalid, LintLevel::Allow);
        let out = cfg.apply(&report);
        assert_eq!(out.diagnostics().len(), 1);
        assert_eq!(out.error_count(), 1, "promoted warning:\n{out}");
    }

    #[test]
    fn unconfigured_codes_keep_per_finding_escalations() {
        // M014 pushed at error severity (spec declared step_up): a config
        // with no M014 override must not downgrade it back to warning.
        let mut report = Report::new();
        report.push_with(Severity::Error, Code::NotStepUp, "", "declared step-up");
        let out = Config::new().apply(&report);
        assert!(out.has_errors(), "{out}");
    }

    #[test]
    fn toml_subset_round_trips_and_rejects_garbage() {
        let cfg = Config::from_toml(
            "# comment\n[lints]\nM014 = \"allow\" # trailing\nM083 = \"deny\"\n\n\
             [analyze]\ndeny_warnings = true\nbaseline = \"base.txt\"\n",
        )
        .unwrap();
        assert_eq!(cfg.level_for(Code::NotStepUp), LintLevel::Allow);
        assert_eq!(cfg.level_for(Code::KernelDeltaInconsistent), LintLevel::Deny);
        assert!(cfg.deny_warnings);
        assert_eq!(cfg.baseline.as_deref(), Some("base.txt"));
        // deny_warnings promotes untouched warning-default codes.
        assert_eq!(cfg.level_for(Code::PowerNotMonotone), LintLevel::Deny);

        for bad in [
            "[mystery]\n",
            "[lints]\nM999 = \"deny\"\n",
            "[lints]\nM014 = \"fatal\"\n",
            "[analyze]\nunknown_key = 1\n",
            "M014 = \"allow\"\n", // key outside a section
            "[analyze]\ndeny_warnings = yes\n",
            "[lints]\njust a line\n",
        ] {
            assert!(Config::from_toml(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn baseline_suppresses_only_acknowledged_findings() {
        let mut report = Report::new();
        report.push(Code::NotStepUp, "cores[0]", "not step up");
        report.stamp_file("spec.json");
        report.push(Code::VoltageInvalid, "cores[1]", "NaN");
        report.stamp_file("other.json");

        let baseline_text = render_baseline(&report);
        let baseline = parse_baseline(&baseline_text);
        assert_eq!(baseline.len(), 2);
        let out = apply_baseline(&report, &baseline);
        assert!(out.is_clean(), "{out}");

        // A new finding is not suppressed.
        report.push(Code::PeakMismatch, "solution.peak", "diverged");
        let out = apply_baseline(&report, &baseline);
        assert_eq!(out.diagnostics().len(), 1);
        assert_eq!(out.diagnostics()[0].code, Code::PeakMismatch);
    }
}
