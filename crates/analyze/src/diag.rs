//! Diagnostic plumbing: stable codes, severities, and rustc-style rendering.
//!
//! Every lint in this crate reports through a [`Report`] instead of
//! panicking, so callers (the CLI, the `debug_assert` hooks in `mosc-core`,
//! property tests) can decide what to do with the findings. Codes are
//! stable: `M0xx` strings never change meaning once released, which lets
//! tests and downstream tooling match on them.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; never fails an analysis run.
    Warning,
    /// A genuine violation of a paper invariant or structural rule.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Warning => write!(f, "warning"),
            Self::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric ranges group the lints:
/// `M001`–`M010` platform, `M011`–`M018` schedule, `M020`–`M024` solution,
/// `M050`–`M054` telemetry, `M060`–`M062` serve telemetry, `M070`–`M073`
/// serve access log, `M080`–`M083` cross-artifact consistency,
/// `M090`–`M093` concurrency/trace invariants, `M100`–`M102` bench
/// artifacts, `M110`–`M111` platform-registry/batch consistency,
/// `M120`–`M124` distributed tracing (wire trace ids, flight dumps,
/// exemplars).
///
/// DESIGN.md §7 maps each code to the paper theorem or equation it enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// M001 — DVFS levels are not strictly increasing (duplicates included).
    LevelsNotSorted,
    /// M002 — a DVFS level is non-finite or non-positive.
    LevelInvalid,
    /// M003 — fewer than two DVFS levels (oscillation needs a pair).
    TooFewLevels,
    /// M004 — `T_max` does not exceed the ambient temperature.
    TmaxNotAboveAmbient,
    /// M005 — the conductance matrix `G` is not symmetric.
    ConductanceAsymmetric,
    /// M006 — `G` is not (weakly) diagonally dominant.
    NotDiagonallyDominant,
    /// M007 — the state matrix `A = C⁻¹(βE − G)` is not Hurwitz-stable.
    NotHurwitz,
    /// M008 — the power model is not strictly increasing over the levels.
    PowerNotMonotone,
    /// M009 — the DVFS transition overhead `τ` is negative or non-finite.
    OverheadInvalid,
    /// M010 — the platform has more cores than the solvers accept.
    TooManyCores,
    /// M011 — a segment duration is non-positive or non-finite.
    DurationInvalid,
    /// M012 — a segment voltage is negative or non-finite.
    VoltageInvalid,
    /// M013 — a core's segment durations do not sum to the common period.
    PeriodMismatch,
    /// M014 — the schedule is not step-up (voltages must be non-decreasing
    /// over each period for the exact Theorem-1 peak evaluation).
    NotStepUp,
    /// M015 — the schedule has no cores, or a core has no segments.
    EmptySchedule,
    /// M016 — a segment voltage is not one of the platform's DVFS levels.
    VoltageNotALevel,
    /// M017 — the oscillation violates the overhead budget `m ≤ M`
    /// (equivalently: a low-voltage dwell is shorter than `τ`).
    OscillationOverBudget,
    /// M018 — schedule core count differs from the platform's.
    CoreCountMismatch,
    /// M020 — the claimed throughput diverges from the eq. (5) recompute.
    ThroughputMismatch,
    /// M021 — the claimed peak diverges from the recomputed stable peak.
    PeakMismatch,
    /// M022 — claimed feasible but the recomputed peak exceeds `T_max`.
    InfeasibleMarkedFeasible,
    /// M023 — claimed infeasible but the recomputed peak respects `T_max`.
    FeasibleMarkedInfeasible,
    /// M024 — the claimed oscillation factor `m` is inconsistent with the
    /// schedule's DVFS transition count.
    TransitionsInconsistent,
    /// M050 — the telemetry stream contains no records at all (was the
    /// recorder enabled?).
    TelemetryEmpty,
    /// M051 — AO's m-sweep stopped at the overhead cap `m == M` without
    /// converging, so the oscillation is overhead-limited, not converged.
    AoSweepSaturated,
    /// M052 — a sizeable EXS-BnB search pruned no subtree: both bounds were
    /// inert, suggesting a mis-set threshold or an unconstrained platform
    /// profiled as constrained.
    BnbNoPrunes,
    /// M053 — a span record's timing is inconsistent (negative totals,
    /// `self > total`, or zero calls with nonzero time).
    SpanTimingInvalid,
    /// M054 — a solver span is present but the matrix-exponential kernel
    /// counter never moved, i.e. solver and kernel instrumentation disagree.
    KernelCountersMissing,
    /// M060 — the serve stream shows repeated requests with identical cache
    /// keys yet `serve.cache_hits` stayed at zero: the solution cache is
    /// inert (disabled, mis-keyed, or evicting pathologically).
    ServeCacheInert,
    /// M061 — `serve.rejected` counted backpressure rejections but the queue
    /// depth never left zero: the daemon shed load while idle, so the
    /// metrics (or the queue accounting) are inconsistent.
    ServeRejectedIdle,
    /// M062 — a `serve.response` event carries a request-id hash that no
    /// `serve.request` event announced: a response was fabricated, double-
    /// sent, or the request-side instrumentation was skipped.
    ServeResponseOrphaned,
    /// M070 — an access-log line's phase timings are clock-skewed: a phase
    /// is negative/missing, or `queue_wait + service` exceeds `total` even
    /// though all three derive from one monotone clock.
    AccessPhaseSkew,
    /// M071 — a successful response with deadline slack ≤ 0: the request's
    /// deadline had already passed when the response was written. Only the
    /// enumeration solvers honor deadlines by contract, so this is
    /// suspicious rather than wrong.
    AccessDeadlineMissed,
    /// M072 — a `hist_snapshot` line's bucket series is broken: cumulative
    /// counts decrease, bucket bounds do not increase, or the final bucket
    /// disagrees with the recorded count.
    AccessHistogramBroken,
    /// M073 — the `serve_summary` cache counters are mutually impossible:
    /// hits without a single miss (every entry is inserted after a miss),
    /// or more evictions than insertions (misses bound insertions).
    AccessCacheInconsistent,
    /// M080 — a standalone schedule artifact does not fit the platform
    /// artifact it was analyzed against: wrong core count, or a segment
    /// voltage absent from the platform's DVFS table.
    CrossScheduleMismatch,
    /// M081 — a solve claim's throughput, peak, or feasibility verdict fails
    /// to recompute from the referenced platform + schedule within
    /// tolerance, or the claim cannot be verified at all (no platform or no
    /// schedule to recompute from — reported as a warning).
    ClaimDivergence,
    /// M082 — the access log's cache-hit entries disagree with canonical-key
    /// derivation: a `cached: true` entry's key was never announced by any
    /// non-cached successful solve, or one key was served by two different
    /// solvers.
    AccessCacheKeyMismatch,
    /// M083 — a per-solve `KernelDelta` is inconsistent with the solver
    /// kind: a non-cache-hit successful solve moved no kernel counter at
    /// all, or an AO/PCO solve did zero period-map work.
    KernelDeltaInconsistent,
    /// M090 — a request's phase timestamps are out of order: the monotone
    /// pipeline requires `recv ≤ enqueue ≤ dequeue ≤ done`.
    TimestampOrder,
    /// M091 — a slow-request span tree is malformed: a child path has no
    /// parent span, a child's total exceeds its parent's, a path appears
    /// twice, or the recorded depth disagrees with the path.
    SpanTreeMalformed,
    /// M092 — queue-wait accounting does not sum: `queue_wait`, `service`,
    /// or `total` disagree with the differences of the phase timestamps.
    PhaseAccounting,
    /// M093 — per-connection sequence numbers are not monotonic: a sequence
    /// number repeats, or receive timestamps decrease as sequence numbers
    /// increase.
    SeqNonMonotonic,
    /// M100 — a bench stream is malformed: bench records with no
    /// schema-v2 `bench_meta` header (git sha, host, threads), a meta line
    /// missing its required stamps, or a bench or timeline record missing
    /// the fields its type requires.
    BenchMetaMissing,
    /// M101 — a record's latency quantiles are out of order: the
    /// record must satisfy `p50 ≤ p90 ≤ p99 ≤ p999 ≤ max` (a shared
    /// histogram cannot produce anything else, so disorder means the
    /// emitter mixed up fields or merged incompatible snapshots).
    BenchQuantileOrder,
    /// M102 — an empty measurement window: a timeline whose windows are
    /// all empty (the run completed no requests inside the sampled span).
    BenchWindowEmpty,
    /// M110 — a warm-registry batch solve did eigendecomposition work: an
    /// access entry claims `registry_hits > 0` (the platform was served
    /// interned) yet `eigen_calls > 0`. Eigendecompositions happen only when
    /// a platform build meets a floorplan with no thermal model yet, and a
    /// warm resolve builds nothing, so a warm resolve that rebuilt is lying
    /// about one side or the other.
    RegistryWarmRecompute,
    /// M111 — the variants of one batch disagree about the shared platform
    /// resolve: registry hit/miss attribution differs between variants, or
    /// an entry reports anything other than exactly one hit xor one miss.
    /// One batch is one resolve, so disagreement means the attribution (or
    /// the batching) is broken.
    BatchRegistryDisagreement,
    /// M120 — an access entry's trace identity is malformed: `trace_id` is
    /// not 32 lowercase hex digits (or is zero), `span_id`/`parent_id` are
    /// not 16 lowercase hex digits (or the span id is zero), or only part
    /// of the identity triple is present.
    TraceFieldMalformed,
    /// M121 — span identity conflicts within one trace: a span id appears
    /// on two different access entries of the same trace, or an entry
    /// claims to be its own parent.
    TraceSpanConflict,
    /// M122 — the variants of one `solve_batch` disagree about their trace:
    /// every variant of a batch is a child of one dispatch span, so all of
    /// them must share one `trace_id` and one `parent_id`.
    BatchTraceDisagreement,
    /// M123 — a `flight_dump` line's ring accounting is broken: entry
    /// sequence numbers are not strictly increasing, a sequence number is
    /// at or past `head`, `dropped` differs from `max(0, head − capacity)`,
    /// or the dump holds more entries than `min(head, capacity)`.
    FlightDumpBroken,
    /// M124 — a histogram exemplar does not join: a `hist_snapshot`
    /// exemplar's trace id matches no access entry in the same log, so the
    /// metric points at a request the log never saw. Exemplars are
    /// last-writer-wins and logs can rotate, hence a warning.
    ExemplarUnjoined,
}

impl Code {
    /// The stable `M0xx` string for this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::LevelsNotSorted => "M001",
            Self::LevelInvalid => "M002",
            Self::TooFewLevels => "M003",
            Self::TmaxNotAboveAmbient => "M004",
            Self::ConductanceAsymmetric => "M005",
            Self::NotDiagonallyDominant => "M006",
            Self::NotHurwitz => "M007",
            Self::PowerNotMonotone => "M008",
            Self::OverheadInvalid => "M009",
            Self::TooManyCores => "M010",
            Self::DurationInvalid => "M011",
            Self::VoltageInvalid => "M012",
            Self::PeriodMismatch => "M013",
            Self::NotStepUp => "M014",
            Self::EmptySchedule => "M015",
            Self::VoltageNotALevel => "M016",
            Self::OscillationOverBudget => "M017",
            Self::CoreCountMismatch => "M018",
            Self::ThroughputMismatch => "M020",
            Self::PeakMismatch => "M021",
            Self::InfeasibleMarkedFeasible => "M022",
            Self::FeasibleMarkedInfeasible => "M023",
            Self::TransitionsInconsistent => "M024",
            Self::TelemetryEmpty => "M050",
            Self::AoSweepSaturated => "M051",
            Self::BnbNoPrunes => "M052",
            Self::SpanTimingInvalid => "M053",
            Self::KernelCountersMissing => "M054",
            Self::ServeCacheInert => "M060",
            Self::ServeRejectedIdle => "M061",
            Self::ServeResponseOrphaned => "M062",
            Self::AccessPhaseSkew => "M070",
            Self::AccessDeadlineMissed => "M071",
            Self::AccessHistogramBroken => "M072",
            Self::AccessCacheInconsistent => "M073",
            Self::CrossScheduleMismatch => "M080",
            Self::ClaimDivergence => "M081",
            Self::AccessCacheKeyMismatch => "M082",
            Self::KernelDeltaInconsistent => "M083",
            Self::TimestampOrder => "M090",
            Self::SpanTreeMalformed => "M091",
            Self::PhaseAccounting => "M092",
            Self::SeqNonMonotonic => "M093",
            Self::BenchMetaMissing => "M100",
            Self::BenchQuantileOrder => "M101",
            Self::BenchWindowEmpty => "M102",
            Self::RegistryWarmRecompute => "M110",
            Self::BatchRegistryDisagreement => "M111",
            Self::TraceFieldMalformed => "M120",
            Self::TraceSpanConflict => "M121",
            Self::BatchTraceDisagreement => "M122",
            Self::FlightDumpBroken => "M123",
            Self::ExemplarUnjoined => "M124",
        }
    }

    /// Every released code, in numeric order. Severity configuration and the
    /// SARIF rule table iterate this instead of hand-maintaining their own
    /// lists.
    pub const ALL: &'static [Self] = &[
        Self::LevelsNotSorted,
        Self::LevelInvalid,
        Self::TooFewLevels,
        Self::TmaxNotAboveAmbient,
        Self::ConductanceAsymmetric,
        Self::NotDiagonallyDominant,
        Self::NotHurwitz,
        Self::PowerNotMonotone,
        Self::OverheadInvalid,
        Self::TooManyCores,
        Self::DurationInvalid,
        Self::VoltageInvalid,
        Self::PeriodMismatch,
        Self::NotStepUp,
        Self::EmptySchedule,
        Self::VoltageNotALevel,
        Self::OscillationOverBudget,
        Self::CoreCountMismatch,
        Self::ThroughputMismatch,
        Self::PeakMismatch,
        Self::InfeasibleMarkedFeasible,
        Self::FeasibleMarkedInfeasible,
        Self::TransitionsInconsistent,
        Self::TelemetryEmpty,
        Self::AoSweepSaturated,
        Self::BnbNoPrunes,
        Self::SpanTimingInvalid,
        Self::KernelCountersMissing,
        Self::ServeCacheInert,
        Self::ServeRejectedIdle,
        Self::ServeResponseOrphaned,
        Self::AccessPhaseSkew,
        Self::AccessDeadlineMissed,
        Self::AccessHistogramBroken,
        Self::AccessCacheInconsistent,
        Self::CrossScheduleMismatch,
        Self::ClaimDivergence,
        Self::AccessCacheKeyMismatch,
        Self::KernelDeltaInconsistent,
        Self::TimestampOrder,
        Self::SpanTreeMalformed,
        Self::PhaseAccounting,
        Self::SeqNonMonotonic,
        Self::BenchMetaMissing,
        Self::BenchQuantileOrder,
        Self::BenchWindowEmpty,
        Self::RegistryWarmRecompute,
        Self::BatchRegistryDisagreement,
        Self::TraceFieldMalformed,
        Self::TraceSpanConflict,
        Self::BatchTraceDisagreement,
        Self::FlightDumpBroken,
        Self::ExemplarUnjoined,
    ];

    /// Parses a stable `M0xx` string back into its code.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// The severity a lint of this code carries unless the caller overrides
    /// it (e.g. [`NotStepUp`](Self::NotStepUp) escalates to an error when a
    /// spec declares the schedule as step-up pipeline input).
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            Self::NotDiagonallyDominant
            | Self::PowerNotMonotone
            | Self::NotStepUp
            | Self::VoltageNotALevel
            | Self::OscillationOverBudget
            | Self::FeasibleMarkedInfeasible
            | Self::TransitionsInconsistent
            | Self::AoSweepSaturated
            | Self::BnbNoPrunes
            | Self::KernelCountersMissing
            | Self::ServeCacheInert
            | Self::ServeRejectedIdle
            | Self::ServeResponseOrphaned
            | Self::AccessDeadlineMissed
            | Self::AccessCacheInconsistent
            | Self::KernelDeltaInconsistent
            | Self::BatchRegistryDisagreement
            | Self::ExemplarUnjoined => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding: a severity, a stable code, a human-readable message, and a
/// context path into the analyzed artifact (e.g. `cores[3].segments[1]`).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Whether this finding fails the analysis.
    pub severity: Severity,
    /// Stable machine-matchable code.
    pub code: Code,
    /// Human-readable description including the offending values.
    pub message: String,
    /// Where in the artifact the finding anchors (empty for global findings).
    pub path: String,
    /// Which artifact file the finding is about (empty when analyzing a
    /// single unnamed input; the pass manager stamps this).
    pub file: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        match (self.file.is_empty(), self.path.is_empty()) {
            (true, true) => Ok(()),
            (true, false) => write!(f, " (at {})", self.path),
            (false, true) => write!(f, " (in {})", self.file),
            (false, false) => write!(f, " (at {}: {})", self.file, self.path),
        }
    }
}

/// An ordered collection of diagnostics from one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finding with the code's default severity.
    pub fn push(&mut self, code: Code, path: impl Into<String>, message: impl Into<String>) {
        self.push_with(code.default_severity(), code, path, message);
    }

    /// Adds a finding with an explicit severity.
    pub fn push_with(
        &mut self,
        severity: Severity,
        code: Code,
        path: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            severity,
            code,
            message: message.into(),
            path: path.into(),
            file: String::new(),
        });
    }

    /// Appends a fully-formed diagnostic (severity, file and all) — the
    /// pass manager uses this to rebuild reports after severity mapping.
    pub fn push_diagnostic(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Attributes every finding that has no file yet to `file`. The pass
    /// manager calls this after running a lint over one artifact, so lints
    /// themselves stay file-agnostic.
    pub fn stamp_file(&mut self, file: &str) {
        for d in &mut self.diagnostics {
            if d.file.is_empty() {
                d.file = file.to_owned();
            }
        }
    }

    /// All findings, in emission order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when no findings at all were emitted.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one error-severity finding exists.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// `true` when some finding carries `code` (any severity).
    #[must_use]
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Renders every finding rustc-style, one per line, followed by a
    /// summary line. Returns `"ok: no findings\n"` for a clean report.
    #[must_use]
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "ok: no findings\n".into();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let (e, w) = (self.error_count(), self.warning_count());
        out.push_str(&format!("{e} error(s), {w} warning(s)\n"));
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        assert_eq!(Code::ALL.len(), 53);
        let mut seen = std::collections::HashSet::new();
        for &c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code string {c}");
            assert!(c.as_str().starts_with('M'));
            assert_eq!(c.as_str().len(), 4);
            assert_eq!(Code::parse(c.as_str()), Some(c), "parse round-trip for {c}");
        }
        // Spot-check the new families sit in their documented ranges.
        assert_eq!(Code::CrossScheduleMismatch.as_str(), "M080");
        assert_eq!(Code::ClaimDivergence.as_str(), "M081");
        assert_eq!(Code::AccessCacheKeyMismatch.as_str(), "M082");
        assert_eq!(Code::KernelDeltaInconsistent.as_str(), "M083");
        assert_eq!(Code::TimestampOrder.as_str(), "M090");
        assert_eq!(Code::SpanTreeMalformed.as_str(), "M091");
        assert_eq!(Code::PhaseAccounting.as_str(), "M092");
        assert_eq!(Code::SeqNonMonotonic.as_str(), "M093");
        assert_eq!(Code::BenchMetaMissing.as_str(), "M100");
        assert_eq!(Code::RegistryWarmRecompute.as_str(), "M110");
        assert_eq!(Code::BatchRegistryDisagreement.as_str(), "M111");
        assert_eq!(Code::TraceFieldMalformed.as_str(), "M120");
        assert_eq!(Code::TraceSpanConflict.as_str(), "M121");
        assert_eq!(Code::BatchTraceDisagreement.as_str(), "M122");
        assert_eq!(Code::FlightDumpBroken.as_str(), "M123");
        assert_eq!(Code::ExemplarUnjoined.as_str(), "M124");
        assert_eq!(Code::parse("M999"), None);
    }

    #[test]
    fn rendering_matches_rustc_shape() {
        let mut r = Report::new();
        r.push(Code::VoltageInvalid, "cores[3].segments[1]", "segment voltage is NaN");
        r.push(Code::NotStepUp, "", "voltages decrease mid-period");
        let text = r.render();
        assert!(text.contains("error[M012]: segment voltage is NaN (at cores[3].segments[1])"));
        assert!(text.contains("warning[M014]: voltages decrease mid-period"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(r.has_errors());
        assert!(r.has_code(Code::NotStepUp));
        assert!(!r.has_code(Code::NotHurwitz));
    }

    #[test]
    fn clean_report_renders_ok() {
        let r = Report::new();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        assert_eq!(r.render(), "ok: no findings\n");
    }

    #[test]
    fn file_stamping_changes_rendering_but_not_existing_files() {
        let mut r = Report::new();
        r.push(Code::VoltageInvalid, "cores[0].segments[0]", "segment voltage is NaN");
        r.push(Code::TelemetryEmpty, "", "no records");
        r.stamp_file("spec.json");
        r.push(Code::NotStepUp, "", "late finding");
        r.stamp_file("other.json");
        let text = r.render();
        assert!(
            text.contains("(at spec.json: cores[0].segments[0])"),
            "file+path rendering: {text}"
        );
        assert!(text.contains("(in spec.json)"), "file-only rendering: {text}");
        assert!(text.contains("(in other.json)"), "second stamp: {text}");
        assert_eq!(r.diagnostics()[0].file, "spec.json", "first stamp must stick");
    }

    #[test]
    fn severity_override_and_merge() {
        let mut a = Report::new();
        a.push_with(Severity::Error, Code::NotStepUp, "cores[0]", "declared step-up");
        let mut b = Report::new();
        b.push(Code::PowerNotMonotone, "", "flat psi");
        a.merge(b);
        assert_eq!(a.diagnostics().len(), 2);
        assert_eq!(a.error_count(), 1);
        assert_eq!(a.warning_count(), 1);
        assert!(a.has_errors());
    }
}
