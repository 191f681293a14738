//! Lints over a recorded `mosc-obs` telemetry stream (`M050`-series).
//!
//! The input is the JSONL that `mosc-cli --obs=json` / `mosc-cli profile
//! --obs=json` print and the bench harness writes to `BENCH_obs.json`: one
//! JSON object per line with a `"type"` discriminator (`span`, `counter`,
//! `gauge`, `event`, `meta`, plus the CLI's `profile` headers).
//! Unknown types are skipped so the format can grow without breaking old
//! analyzers, and old streams still carrying the retired `hist` record
//! analyze as before.
//!
//! These lints look for *instrumentation and solver anomalies* that the
//! value-level `M0xx` checks cannot see:
//!
//! * `M050` — the stream holds no records at all, which almost always means
//!   the recorder was never enabled (or `reset()` ran before the snapshot).
//! * `M051` — an `ao.m_selected` event with `stop == "cap"`: the m-sweep
//!   ran into the Theorem-5 overhead budget `m == M` instead of converging,
//!   so the reported schedule is overhead-limited.
//! * `M052` — an `exs_bnb.done` event with a sizeable visit count but zero
//!   prunes from either bound.
//! * `M053` — span timing that cannot come from a healthy recorder
//!   (negative totals, `self > total`, calls = 0 with nonzero time).
//! * `M054` — a solver span (`ao.solve` / `pco.solve`) recorded while every
//!   kernel counter (`expm.calls`, `period_map.matmuls`,
//!   `steady_state.calls`) stayed at zero: the solver and kernel layers
//!   disagree about what ran. Since the period-map kernel landed, a healthy
//!   solver run can legitimately show `expm.calls == 0` — the modal
//!   counters move instead. A stream whose successful solves were *all*
//!   cache hits (per the access-log `cached` flag) is exempt: a cache hit
//!   legitimately moves no kernel counter.
//!
//! The `M060`-series covers streams from the `mosc-serve` daemon
//! (`mosc-cli serve --obs=json`), which emits `serve.request` /
//! `serve.response` events (with 32-bit `id`/`key` hashes — event fields
//! travel as JSON numbers, so full 64-bit hashes would not survive the f64
//! round-trip) plus the `serve.*` counters and queue gauges:
//!
//! * `M060` — at least one cache key recurs across `serve.request` events
//!   but `serve.cache_hits` is zero: repeated identical specs never hit the
//!   solution cache.
//! * `M061` — `serve.rejected` counted backpressure rejections while the
//!   `serve.queue_peak` gauge stayed at zero: load was shed from an idle
//!   queue.
//! * `M062` — a `serve.response` event's `id` hash matches no
//!   `serve.request` event in the stream.
//!
//! Lines of type `access`, `hist_snapshot` and `serve_summary` — the
//! daemon's `--access-log` JSONL — dispatch to the `access` module's
//! `M070`-series lints, so telemetry streams and access logs run through
//! the same `analyze` entry point.

use crate::diag::{Code, Report};
use crate::json::Value;
use crate::spec::SpecError;

/// Minimum `exs_bnb.done` visit count before zero prunes is suspicious: a
/// search this small can legitimately accept every node.
const BNB_PRUNE_FLOOR: u64 = 50;

/// One parsed line of a JSONL stream: its 1-based line number and the
/// parsed object. The artifact model loads a stream once into these and
/// every stream lint (`M05x`–`M09x`) runs over the same records.
#[derive(Debug, Clone)]
pub struct StreamRecord {
    /// 1-based line number in the source file.
    pub lineno: usize,
    /// The parsed JSON object on that line.
    pub value: Value,
}

/// Parses a JSONL document into stream records, skipping blank lines.
///
/// # Errors
/// [`SpecError`] when a line is not valid JSON or not an object — a
/// truncated or corrupted stream is a structural problem, not a finding.
pub fn load_stream(text: &str) -> Result<Vec<StreamRecord>, SpecError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let value =
            Value::parse(line).map_err(|e| SpecError(format!("telemetry line {lineno}: {e}")))?;
        if !value.is_object() {
            return Err(SpecError(format!("telemetry line {lineno}: each line must be an object")));
        }
        records.push(StreamRecord { lineno, value });
    }
    Ok(records)
}

/// Analyzes one telemetry JSONL document: the `M05x`–`M07x` stream lints
/// plus the cross-artifact (`M08x`), concurrency/trace (`M09x`) and bench
/// artifact (`M10x`) families, which stay inert on streams lacking the
/// fields they read.
///
/// # Errors
/// [`SpecError`] when a line is not valid JSON or not an object.
pub fn analyze_telemetry(text: &str) -> Result<Report, SpecError> {
    let records = load_stream(text)?;
    let mut report = Report::new();
    stream_lints(&records, &mut report);
    crate::cross::access_log_lints(&records, &mut report);
    crate::trace::trace_lints(&records, &mut report);
    crate::bench::bench_lints(&records, &mut report);
    Ok(report)
}

/// Runs the `M050`–`M073` lints over pre-parsed stream records.
pub fn stream_lints(records: &[StreamRecord], report: &mut Report) {
    let mut kernel_calls: u64 = 0;
    let mut solver_spans: Vec<String> = Vec::new();
    let mut ok_solves = 0usize;
    let mut cached_ok_solves = 0usize;
    let mut serve = ServeStream::default();
    /// Counters whose movement proves the evaluation kernel ran: the dense
    /// `expm` path or the modal period-map path.
    const KERNEL_COUNTERS: [&str; 3] = ["expm.calls", "period_map.matmuls", "steady_state.calls"];

    for rec in records {
        let (value, lineno) = (&rec.value, rec.lineno);
        match value.get("type").and_then(Value::as_str) {
            Some("span") => check_span(value, lineno, report, &mut solver_spans),
            Some("counter")
                if value
                    .get("name")
                    .and_then(Value::as_str)
                    .is_some_and(|n| KERNEL_COUNTERS.contains(&n)) =>
            {
                if let Some(v) = value.get("value").and_then(Value::as_f64) {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    {
                        kernel_calls += v.max(0.0) as u64;
                    }
                }
            }
            Some("counter") => serve.note_counter(value),
            Some("gauge") => serve.note_gauge(value),
            Some("event") => {
                serve.note_event(value, lineno);
                check_event(value, lineno, report);
            }
            Some("access") => {
                if value.get("op").and_then(Value::as_str) == Some("solve")
                    && value.get("status").and_then(Value::as_str) == Some("ok")
                {
                    ok_solves += 1;
                    if value.get("cached").and_then(Value::as_bool) == Some(true) {
                        cached_ok_solves += 1;
                    }
                }
                crate::access::check_access(value, lineno, report);
            }
            Some("hist_snapshot") => {
                crate::access::check_hist_snapshot(value, lineno, report);
            }
            Some("serve_summary") => {
                crate::access::check_serve_summary(value, lineno, report);
            }
            _ => {} // meta, profile, retired hist, future types
        }
    }
    serve.finish(report);

    // M054 exemption: if the access log shows every successful solve was a
    // cache hit, zero kernel counters are the expected outcome, not an
    // instrumentation disagreement.
    let all_solves_cached = ok_solves > 0 && ok_solves == cached_ok_solves;
    if records.is_empty() {
        report.push(
            Code::TelemetryEmpty,
            "",
            "telemetry stream holds no records — was the recorder enabled?",
        );
    } else if kernel_calls == 0 && !solver_spans.is_empty() && !all_solves_cached {
        report.push(
            Code::KernelCountersMissing,
            solver_spans[0].clone(),
            format!(
                "solver span '{}' recorded but no kernel counter (expm.calls, \
                 period_map.matmuls, steady_state.calls) ever moved — kernel \
                 instrumentation and solver instrumentation disagree",
                solver_spans[0]
            ),
        );
    }
}

/// Accumulated `serve.*` state for the `M060`-series lints. All fields stay
/// empty/zero for non-serve streams, which keeps the lints inert there.
#[derive(Default)]
struct ServeStream {
    /// `serve.cache_hits` counter value (last wins, the snapshot is final).
    cache_hits: f64,
    /// `serve.rejected` counter value.
    rejected: f64,
    /// `serve.queue_peak` gauge value.
    queue_peak: f64,
    /// Whether the queue-peak gauge appeared at all (a stream without it
    /// cannot support the idle-rejection lint).
    saw_queue_peak: bool,
    /// Cache-key hashes announced by `serve.request` events.
    request_keys: Vec<f64>,
    /// Request-id hashes announced by `serve.request` events.
    request_ids: Vec<f64>,
    /// `(lineno, id hash)` of every `serve.response` event.
    responses: Vec<(usize, f64)>,
}

impl ServeStream {
    fn note_counter(&mut self, value: &Value) {
        let Some(name) = value.get("name").and_then(Value::as_str) else { return };
        let v = value.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        match name {
            "serve.cache_hits" => self.cache_hits = v,
            "serve.rejected" => self.rejected = v,
            _ => {}
        }
    }

    fn note_gauge(&mut self, value: &Value) {
        if value.get("name").and_then(Value::as_str) == Some("serve.queue_peak") {
            self.saw_queue_peak = true;
            self.queue_peak = value.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        }
    }

    fn note_event(&mut self, value: &Value, lineno: usize) {
        let name = value.get("name").and_then(Value::as_str).unwrap_or("");
        let Some(fields) = value.get("fields") else { return };
        match name {
            "serve.request" => {
                if let Some(key) = fields.get("key").and_then(Value::as_f64) {
                    self.request_keys.push(key);
                }
                if let Some(id) = fields.get("id").and_then(Value::as_f64) {
                    self.request_ids.push(id);
                }
            }
            "serve.response" => {
                if let Some(id) = fields.get("id").and_then(Value::as_f64) {
                    self.responses.push((lineno, id));
                }
            }
            _ => {}
        }
    }

    /// Emits the `M060`–`M062` findings accumulated over the stream.
    fn finish(&self, report: &mut Report) {
        // M060: some cache key recurs but the hit counter never moved.
        let mut keys = self.request_keys.clone();
        keys.sort_by(f64::total_cmp);
        let repeated = keys.windows(2).any(|w| w[0].to_bits() == w[1].to_bits());
        if repeated && self.cache_hits == 0.0 {
            report.push(
                Code::ServeCacheInert,
                "",
                "repeated requests with identical cache keys but serve.cache_hits \
                 is zero — the solution cache never fired",
            );
        }
        // M061: rejections counted while the queue-depth peak stayed zero.
        if self.rejected > 0.0 && self.saw_queue_peak && self.queue_peak == 0.0 {
            report.push(
                Code::ServeRejectedIdle,
                "",
                format!(
                    "serve.rejected counted {} backpressure rejection(s) but \
                     serve.queue_peak never left zero — load was shed from an \
                     idle queue",
                    self.rejected
                ),
            );
        }
        // M062: a response id no request ever announced.
        for &(lineno, id) in &self.responses {
            if !self.request_ids.iter().any(|r| r.to_bits() == id.to_bits()) {
                report.push(
                    Code::ServeResponseOrphaned,
                    format!("line {lineno}"),
                    format!(
                        "serve.response event carries id hash {id} that no \
                         serve.request event announced"
                    ),
                );
            }
        }
    }
}

fn check_span(value: &Value, lineno: usize, report: &mut Report, solver_spans: &mut Vec<String>) {
    let path = value.get("path").and_then(Value::as_str).unwrap_or("").to_owned();
    let name = value.get("name").and_then(Value::as_str).unwrap_or("");
    if matches!(name, "ao.solve" | "pco.solve") {
        solver_spans.push(path.clone());
    }
    let total = value.get("total_s").and_then(Value::as_f64);
    let self_time = value.get("self_s").and_then(Value::as_f64);
    let calls = value.get("calls").and_then(Value::as_f64);
    let ctx = if path.is_empty() { format!("line {lineno}") } else { path };
    match (total, self_time, calls) {
        (Some(t), Some(s), Some(c)) => {
            if !(t >= 0.0 && s >= 0.0) {
                report.push(
                    Code::SpanTimingInvalid,
                    ctx,
                    format!("span '{name}' has negative timing (total {t}, self {s})"),
                );
            } else if s > t + 1e-9 {
                report.push(
                    Code::SpanTimingInvalid,
                    ctx,
                    format!("span '{name}' self time {s} exceeds total {t}"),
                );
            } else if c == 0.0 && t > 0.0 {
                report.push(
                    Code::SpanTimingInvalid,
                    ctx,
                    format!("span '{name}' reports zero calls but {t} s of time"),
                );
            }
        }
        _ => report.push(
            Code::SpanTimingInvalid,
            ctx,
            format!("span '{name}' is missing total_s/self_s/calls"),
        ),
    }
}

fn check_event(value: &Value, lineno: usize, report: &mut Report) {
    let name = value.get("name").and_then(Value::as_str).unwrap_or("");
    let Some(fields) = value.get("fields") else {
        return;
    };
    match name {
        "ao.m_selected" => {
            let stop = fields.get("stop").and_then(Value::as_str).unwrap_or("");
            if stop == "cap" {
                let m = fields.get("m").and_then(Value::as_f64).unwrap_or(f64::NAN);
                report.push(
                    Code::AoSweepSaturated,
                    format!("line {lineno}"),
                    format!(
                        "AO stopped its m-sweep at the overhead cap (m = {m}) without \
                         converging — throughput is limited by tau, not by the search"
                    ),
                );
            }
        }
        "exs_bnb.done" => {
            let visited = fields.get("visited").and_then(Value::as_f64).unwrap_or(0.0);
            let prunes = fields.get("thermal_prunes").and_then(Value::as_f64).unwrap_or(0.0)
                + fields.get("throughput_prunes").and_then(Value::as_f64).unwrap_or(0.0);
            #[allow(clippy::cast_precision_loss)]
            if visited >= BNB_PRUNE_FLOOR as f64 && prunes == 0.0 {
                report.push(
                    Code::BnbNoPrunes,
                    format!("line {lineno}"),
                    format!(
                        "EXS-BnB visited {visited} nodes without a single prune — both \
                         bounds were inert on this platform"
                    ),
                );
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_is_m050() {
        let r = analyze_telemetry("").unwrap();
        assert!(r.has_code(Code::TelemetryEmpty));
        assert!(r.has_errors());

        let r = analyze_telemetry("\n  \n").unwrap();
        assert!(r.has_code(Code::TelemetryEmpty));
    }

    #[test]
    fn healthy_stream_is_clean() {
        let text = r#"{"type":"span","path":"ao.solve","name":"ao.solve","depth":0,"calls":1,"total_s":0.5,"self_s":0.1}
{"type":"span","path":"ao.solve/ao.sweep_m","name":"ao.sweep_m","depth":1,"calls":1,"total_s":0.4,"self_s":0.4}
{"type":"counter","name":"expm.calls","value":123}
{"type":"counter","name":"ao.tpt_rounds","value":9}
{"type":"event","name":"ao.m_selected","fields":{"m":12,"m_cap":99,"peak":21.5,"stop":"patience"}}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");

        // Streams recorded before the streaming histogram was retired still
        // carry `hist` lines; they are skipped, not flagged.
        let old = format!(
            "{text}{}\n",
            r#"{"type":"hist","name":"ao.peak","count":3,"sum":1.5,"min":0.25,"max":0.75}"#
        );
        let r = analyze_telemetry(&old).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");
    }

    #[test]
    fn cap_stop_is_m051() {
        let text = r#"{"type":"counter","name":"expm.calls","value":5}
{"type":"event","name":"ao.m_selected","fields":{"m":99,"m_cap":99,"peak":21.5,"stop":"cap"}}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.has_code(Code::AoSweepSaturated), "findings:\n{r}");
        assert!(!r.has_errors(), "M051 is a warning:\n{r}");
    }

    #[test]
    fn pruneless_bnb_is_m052_above_the_floor_only() {
        let big = r#"{"type":"event","name":"exs_bnb.done","fields":{"visited":5000,"thermal_prunes":0,"throughput_prunes":0}}
"#;
        let r = analyze_telemetry(big).unwrap();
        assert!(r.has_code(Code::BnbNoPrunes), "findings:\n{r}");

        let small = r#"{"type":"event","name":"exs_bnb.done","fields":{"visited":7,"thermal_prunes":0,"throughput_prunes":0}}
"#;
        let r = analyze_telemetry(small).unwrap();
        assert!(!r.has_code(Code::BnbNoPrunes), "findings:\n{r}");

        let pruned = r#"{"type":"event","name":"exs_bnb.done","fields":{"visited":5000,"thermal_prunes":120,"throughput_prunes":0}}
"#;
        let r = analyze_telemetry(pruned).unwrap();
        assert!(!r.has_code(Code::BnbNoPrunes), "findings:\n{r}");
    }

    #[test]
    fn broken_span_timing_is_m053() {
        for line in [
            r#"{"type":"span","path":"x","name":"x","depth":0,"calls":1,"total_s":0.1,"self_s":0.2}"#,
            r#"{"type":"span","path":"x","name":"x","depth":0,"calls":1,"total_s":-0.1,"self_s":0.0}"#,
            r#"{"type":"span","path":"x","name":"x","depth":0,"calls":0,"total_s":0.1,"self_s":0.1}"#,
            r#"{"type":"span","path":"x","name":"x","depth":0}"#,
        ] {
            let r = analyze_telemetry(line).unwrap();
            assert!(r.has_code(Code::SpanTimingInvalid), "{line} ->\n{r}");
        }
    }

    #[test]
    fn solver_span_without_expm_is_m054() {
        let text = r#"{"type":"span","path":"ao.solve","name":"ao.solve","depth":0,"calls":1,"total_s":0.5,"self_s":0.5}
{"type":"counter","name":"expm.calls","value":0}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.has_code(Code::KernelCountersMissing), "findings:\n{r}");

        // A non-solver span without expm activity is fine (EXS evaluates
        // through the cached response matrix).
        let text = r#"{"type":"span","path":"exs.solve","name":"exs.solve","depth":0,"calls":1,"total_s":0.5,"self_s":0.5}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(!r.has_code(Code::KernelCountersMissing), "findings:\n{r}");

        // A solver whose work runs through the modal period-map kernel
        // legitimately leaves expm.calls at zero — the modal counters count.
        let text = r#"{"type":"span","path":"ao.solve","name":"ao.solve","depth":0,"calls":1,"total_s":0.5,"self_s":0.5}
{"type":"counter","name":"expm.calls","value":0}
{"type":"counter","name":"period_map.matmuls","value":42}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(!r.has_code(Code::KernelCountersMissing), "findings:\n{r}");
    }

    #[test]
    fn all_cached_solves_suppress_m054() {
        // A solver span with zero kernel counters, but the access log shows
        // the only successful solve was a cache hit: no M054.
        let cached = r#"{"type":"span","path":"ao.solve","name":"ao.solve","depth":0,"calls":1,"total_s":0.5,"self_s":0.5}
{"type":"counter","name":"expm.calls","value":0}
{"type":"access","t_s":1.0,"id":"s1","op":"solve","solver":"ao","status":"ok","cached":true,"queue_wait_s":0.0,"service_s":0.001,"total_s":0.001,"deadline_slack_s":null,"expm_calls":0,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":0}
"#;
        let r = analyze_telemetry(cached).unwrap();
        assert!(!r.has_code(Code::KernelCountersMissing), "findings:\n{r}");

        // The same stream with the solve *not* cached keeps the finding.
        let uncached = cached.replace(r#""cached":true"#, r#""cached":false"#);
        let r = analyze_telemetry(&uncached).unwrap();
        assert!(r.has_code(Code::KernelCountersMissing), "findings:\n{r}");
    }

    #[test]
    fn inert_serve_cache_is_m060() {
        // Two requests with the same key, zero hits -> M060.
        let text = r#"{"type":"counter","name":"serve.cache_hits","value":0}
{"type":"event","name":"serve.request","fields":{"id":1,"key":77}}
{"type":"event","name":"serve.request","fields":{"id":2,"key":77}}
{"type":"event","name":"serve.response","fields":{"id":1}}
{"type":"event","name":"serve.response","fields":{"id":2}}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.has_code(Code::ServeCacheInert), "findings:\n{r}");
        assert!(!r.has_errors(), "M060 is a warning:\n{r}");

        // Same stream with a hit counted is clean.
        let text =
            text.replace(r#""serve.cache_hits","value":0"#, r#""serve.cache_hits","value":1"#);
        let r = analyze_telemetry(&text).unwrap();
        assert!(!r.has_code(Code::ServeCacheInert), "findings:\n{r}");

        // Distinct keys with zero hits: nothing to hit, clean.
        let text = r#"{"type":"counter","name":"serve.cache_hits","value":0}
{"type":"event","name":"serve.request","fields":{"id":1,"key":77}}
{"type":"event","name":"serve.request","fields":{"id":2,"key":78}}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(!r.has_code(Code::ServeCacheInert), "findings:\n{r}");
    }

    #[test]
    fn rejections_from_an_idle_queue_are_m061() {
        let text = r#"{"type":"counter","name":"serve.rejected","value":3}
{"type":"gauge","name":"serve.queue_peak","value":0}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.has_code(Code::ServeRejectedIdle), "findings:\n{r}");

        // Rejections with a nonzero peak are legitimate backpressure.
        let text = r#"{"type":"counter","name":"serve.rejected","value":3}
{"type":"gauge","name":"serve.queue_peak","value":4}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(!r.has_code(Code::ServeRejectedIdle), "findings:\n{r}");

        // No queue gauge at all: the lint cannot conclude anything.
        let text = r#"{"type":"counter","name":"serve.rejected","value":3}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(!r.has_code(Code::ServeRejectedIdle), "findings:\n{r}");
    }

    #[test]
    fn orphaned_responses_are_m062() {
        let text = r#"{"type":"event","name":"serve.request","fields":{"id":10,"key":1}}
{"type":"event","name":"serve.response","fields":{"id":10}}
{"type":"event","name":"serve.response","fields":{"id":99}}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.has_code(Code::ServeResponseOrphaned), "findings:\n{r}");
        // Exactly one finding: the matched response is fine.
        let orphans =
            r.diagnostics().iter().filter(|d| d.code == Code::ServeResponseOrphaned).count();
        assert_eq!(orphans, 1, "findings:\n{r}");
    }

    #[test]
    fn unknown_types_are_skipped_and_garbage_is_structural() {
        let text = r#"{"type":"profile","solver":"AO","wall_s":0.1}
{"type":"flamegraph","someday":true}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");

        assert!(analyze_telemetry("not json\n").is_err());
        assert!(analyze_telemetry("[1,2,3]\n").is_err());
    }
}
