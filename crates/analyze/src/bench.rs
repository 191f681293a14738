//! Lints over bench artifacts and timelines (`M100`-series): the
//! `BENCH_*.json` JSONL streams written through the schema-v2 recorder,
//! and the serve daemon's `--timeline` windows.
//!
//! A bench artifact stamps one `{"type":"bench_meta","schema":2,...}`
//! header (git sha, host, thread count, options) ahead of its records;
//! `periodmap` writes `{"type":"periodmap",...}` records this way. The
//! daemon's `--timeline FILE` writes bare `{"type":"timeline",...}`
//! windows. These lints replace `grep -q`-style CI checks with structural
//! ones:
//!
//! * `M100` — bench records with no schema-v2 meta header, a meta header
//!   missing its stamps, or a record missing the fields its type requires.
//! * `M101` — latency quantiles out of order (`p50 ≤ p90 ≤ p99 ≤ p999 ≤
//!   max` must hold; they are read off one histogram).
//! * `M102` — a timeline whose windows are all empty.
//!
//! All lints are inert on streams without bench-family records, so access
//! logs and solver telemetry are unaffected.

use crate::diag::{Code, Report, Severity};
use crate::json::Value;
use crate::telemetry::StreamRecord;

/// Fields every schema-v2 `bench_meta` header must stamp.
const META_FIELDS: [&str; 4] = ["bench", "git_sha", "host", "threads"];

/// Required fields per bench record type.
fn required_fields(ty: &str) -> &'static [&'static str] {
    match ty {
        "timeline" => &["window", "start_s", "len_s", "count", "req_per_s", "p50_ms", "p999_ms"],
        "periodmap" => &["m", "fast_wall_s", "dense_wall_s", "fast_ops", "dense_ops"],
        _ => &[],
    }
}

/// Runs the `M100`–`M102` bench lints over pre-parsed stream records.
pub fn bench_lints(records: &[StreamRecord], report: &mut Report) {
    let mut saw_bench_record = false;
    let mut saw_meta = false;
    let mut timeline_windows = 0usize;
    let mut timeline_nonempty = 0usize;
    let mut first_timeline_line = 0usize;

    for rec in records {
        let (value, lineno) = (&rec.value, rec.lineno);
        let Some(ty) = value.get("type").and_then(Value::as_str) else { continue };
        if ty == "bench_meta" {
            saw_meta = true;
            check_meta(value, lineno, report);
            continue;
        }
        // A `periodmap` record makes the stream a bench artifact, which
        // needs the schema-v2 meta header. A `timeline` does not: the serve
        // daemon's `--timeline` stream is live telemetry with no bench run
        // to stamp, so it gets the field, quantile and emptiness checks only.
        let is_bench = ty == "periodmap";
        if !is_bench && ty != "timeline" {
            continue;
        }
        saw_bench_record |= is_bench;
        check_required(ty, value, lineno, report);
        check_quantile_order(ty, value, lineno, report);
        if ty == "timeline" {
            if timeline_windows == 0 {
                first_timeline_line = lineno;
            }
            timeline_windows += 1;
            if field(value, "count").unwrap_or(0.0) > 0.0 {
                timeline_nonempty += 1;
            }
        }
    }

    if saw_bench_record && !saw_meta {
        report.push(
            Code::BenchMetaMissing,
            "",
            "bench records with no schema-v2 bench_meta header — run metadata \
             (git sha, host, threads) is unrecoverable, the artifact cannot be \
             compared across runs",
        );
    }
    if timeline_windows > 0 && timeline_nonempty == 0 {
        report.push_with(
            Severity::Warning,
            Code::BenchWindowEmpty,
            format!("line {first_timeline_line}"),
            format!(
                "all {timeline_windows} timeline window(s) are empty — the run \
                 completed no requests inside the sampled span"
            ),
        );
    }
}

/// Numeric field accessor.
fn field(value: &Value, key: &str) -> Option<f64> {
    value.get(key).and_then(Value::as_f64)
}

/// `M100` on the meta header itself: schema ≥ 2 and the stamps present.
fn check_meta(value: &Value, lineno: usize, report: &mut Report) {
    let schema = field(value, "schema").unwrap_or(0.0);
    if schema < 2.0 {
        report.push(
            Code::BenchMetaMissing,
            format!("line {lineno}"),
            format!("bench_meta declares schema {schema}, expected 2 or newer"),
        );
    }
    let missing: Vec<&str> =
        META_FIELDS.iter().copied().filter(|f| value.get(f).is_none()).collect();
    if !missing.is_empty() {
        report.push(
            Code::BenchMetaMissing,
            format!("line {lineno}"),
            format!("bench_meta is missing required stamp(s): {}", missing.join(", ")),
        );
    }
}

/// `M100` on a bench record: every field its type requires is present.
fn check_required(ty: &str, value: &Value, lineno: usize, report: &mut Report) {
    let missing: Vec<&str> =
        required_fields(ty).iter().copied().filter(|f| value.get(f).is_none()).collect();
    if !missing.is_empty() {
        report.push(
            Code::BenchMetaMissing,
            format!("line {lineno}"),
            format!("'{ty}' record is missing required field(s): {}", missing.join(", ")),
        );
    }
}

/// `M101`: the present members of `p50 ≤ p90 ≤ p99 ≤ p999 ≤ max` hold.
fn check_quantile_order(ty: &str, value: &Value, lineno: usize, report: &mut Report) {
    let chain = ["p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms"];
    let present: Vec<(&str, f64)> =
        chain.iter().filter_map(|&k| field(value, k).map(|v| (k, v))).collect();
    for pair in present.windows(2) {
        let ((lo_name, lo), (hi_name, hi)) = (pair[0], pair[1]);
        // One histogram produced these; only float formatting can separate
        // equal bucket bounds, so the tolerance is tiny and relative.
        if lo > hi * (1.0 + 1e-9) + 1e-12 {
            report.push(
                Code::BenchQuantileOrder,
                format!("line {lineno}"),
                format!(
                    "'{ty}' record reports {lo_name} = {lo} above {hi_name} = {hi} — \
                     quantiles of one histogram cannot decrease"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::analyze_telemetry;

    const META: &str = r#"{"type":"bench_meta","schema":2,"bench":"periodmap","git_sha":"abc1234","host":"ci","threads":8,"options":{"rows":"3"}}"#;

    const PERIODMAP: &str = r#"{"type":"periodmap","rows":3,"cols":3,"m":4,"fast_wall_s":0.001,"dense_wall_s":0.01,"fast_ops":40,"dense_ops":400}"#;

    const WINDOW: &str = r#"{"type":"timeline","window":0,"start_s":0.0,"len_s":0.5,"count":150,"req_per_s":300.0,"hits":140,"cache_hit_rate":0.93,"queue_depth_peak":2,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.0,"p999_ms":4.0,"max_ms":5.0}"#;

    #[test]
    fn healthy_v2_artifact_is_clean() {
        let r = analyze_telemetry(&format!("{META}\n{PERIODMAP}\n{WINDOW}\n")).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");
    }

    #[test]
    fn serve_daemon_timeline_stream_needs_no_meta() {
        // `mosc-cli serve --timeline` emits bare timeline records — live
        // telemetry, not a bench artifact; M100 must stay quiet.
        let r = analyze_telemetry(&format!("{WINDOW}\n")).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");
    }

    #[test]
    fn missing_meta_is_m100() {
        let r = analyze_telemetry(&format!("{PERIODMAP}\n")).unwrap();
        assert!(r.has_code(Code::BenchMetaMissing), "findings:\n{r}");
        assert!(r.has_errors());
    }

    #[test]
    fn stale_schema_and_missing_stamps_are_m100() {
        let stale =
            r#"{"type":"bench_meta","schema":1,"bench":"x","git_sha":"a","host":"h","threads":1}"#;
        let r = analyze_telemetry(&format!("{stale}\n{PERIODMAP}\n")).unwrap();
        assert!(r.has_code(Code::BenchMetaMissing), "findings:\n{r}");

        let gutted = r#"{"type":"bench_meta","schema":2,"bench":"x"}"#;
        let r = analyze_telemetry(&format!("{gutted}\n{PERIODMAP}\n")).unwrap();
        assert!(r.has_code(Code::BenchMetaMissing), "findings:\n{r}");
    }

    #[test]
    fn missing_required_fields_are_m100() {
        let gutted = r#"{"type":"periodmap","m":4,"fast_ops":40}"#;
        let r = analyze_telemetry(&format!("{META}\n{gutted}\n")).unwrap();
        let m100: Vec<_> =
            r.diagnostics().iter().filter(|d| d.code == Code::BenchMetaMissing).collect();
        assert_eq!(m100.len(), 1, "findings:\n{r}");
        assert!(m100[0].message.contains("fast_wall_s"), "{r}");
        assert!(m100[0].message.contains("dense_ops"), "{r}");
    }

    #[test]
    fn quantile_disorder_is_m101() {
        let bad = WINDOW.replace("\"p99_ms\":3.0", "\"p99_ms\":1.5");
        let r = analyze_telemetry(&format!("{bad}\n")).unwrap();
        assert!(r.has_code(Code::BenchQuantileOrder), "findings:\n{r}");
        assert!(r.has_errors());

        // Equal quantiles (coarse buckets) are legal.
        let flat = WINDOW
            .replace("\"p90_ms\":2.0", "\"p90_ms\":1.0")
            .replace("\"p99_ms\":3.0", "\"p99_ms\":1.0");
        let r = analyze_telemetry(&format!("{flat}\n")).unwrap();
        assert!(!r.has_code(Code::BenchQuantileOrder), "findings:\n{r}");
    }

    #[test]
    fn all_empty_timeline_is_m102_warning() {
        let window = r#"{"type":"timeline","window":0,"start_s":0.0,"len_s":0.5,"count":0,"req_per_s":0.0,"hits":0,"cache_hit_rate":0.0,"queue_depth_peak":0,"p50_ms":0.0,"p90_ms":0.0,"p99_ms":0.0,"p999_ms":0.0,"max_ms":0.0}"#;
        let r = analyze_telemetry(&format!("{window}\n{window}\n")).unwrap();
        assert!(r.has_code(Code::BenchWindowEmpty), "findings:\n{r}");
        assert!(!r.has_errors(), "all-empty timeline is a warning:\n{r}");
    }

    #[test]
    fn non_bench_streams_are_unaffected() {
        let text = r#"{"type":"counter","name":"expm.calls","value":123}
{"type":"profile","solver":"AO","wall_s":0.1}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");
    }
}
