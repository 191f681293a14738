//! Telemetry snapshots and their renderings.
//!
//! [`Telemetry::capture`] freezes the recorder's current state — completed
//! span aggregates, registered metrics, the event log — into a plain value
//! that can be queried, rendered for humans ([`Telemetry::render_pretty`])
//! or serialised as JSONL ([`Telemetry::to_jsonl`]). The JSONL lines are
//! plain JSON objects parsed by `mosc-analyze`'s reader; that format feeds
//! the `M05x` telemetry lints and `BENCH_obs.json`.

use crate::event::FieldValue;
use std::fmt::Write as _;
use std::time::Duration;

/// Aggregated statistics for one span call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Slash-joined path from root, e.g. `"ao.solve/ao.sweep_m"`.
    pub path: String,
    /// Leaf name, e.g. `"ao.sweep_m"`.
    pub name: String,
    /// Nesting depth (0 for roots).
    pub depth: usize,
    /// Completed calls through this path.
    pub calls: u64,
    /// Total wall time across those calls.
    pub total: Duration,
    /// Total minus time attributed to child spans.
    pub self_time: Duration,
}

/// One recorded decision event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name, e.g. `"ao.m_selected"`.
    pub name: String,
    /// Typed fields in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

/// An immutable snapshot of the recorder, taken by [`crate::snapshot`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    spans: Vec<SpanStats>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    events: Vec<EventRecord>,
    events_dropped: u64,
}

impl Telemetry {
    /// Captures the current recorder state.
    #[must_use]
    pub fn capture() -> Self {
        let spans = crate::span::collect();
        let (counters, gauges) = crate::metric::collect();
        let (events, events_dropped) = crate::event::collect();
        Self { spans, counters, gauges, events, events_dropped }
    }

    /// Captures and *consumes* the current recorder state (see
    /// [`crate::drain`] for the window semantics per store).
    #[must_use]
    pub fn capture_drain() -> Self {
        let spans = crate::span::drain_collect();
        let (counters, gauges) = crate::metric::drain_collect();
        let (events, events_dropped) = crate::event::drain_collect();
        Self { spans, counters, gauges, events, events_dropped }
    }

    /// Completed spans in preorder (parents before children).
    #[must_use]
    pub fn spans(&self) -> &[SpanStats] {
        &self.spans
    }

    /// The stats for an exact span path (`"ao.solve/ao.sweep_m"`), if any.
    #[must_use]
    pub fn span_path(&self, path: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Registered counters sorted by name.
    #[must_use]
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// A counter's value by name; `None` when never registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Set gauges sorted by name.
    #[must_use]
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// A gauge's latest value by name; `None` when never set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Recorded events in emission order.
    #[must_use]
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Events discarded after the [`crate::MAX_EVENTS`] cap.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// `true` when nothing at all was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.events.is_empty()
    }

    /// Renders the snapshot as a human-readable report: indented span tree
    /// with total/self times and call counts, metric tables, decision log.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry ==\n");
        if self.is_empty() {
            out.push_str("(no records; was the recorder enabled?)\n");
            return out;
        }
        if !self.spans.is_empty() {
            out.push_str("spans (total / self / calls):\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:indent$}{name:<w$} {total:>10} {selft:>10} {calls:>8}",
                    "",
                    indent = s.depth * 2,
                    name = s.name,
                    w = 28usize.saturating_sub(s.depth * 2),
                    total = fmt_duration(s.total),
                    selft = fmt_duration(s.self_time),
                    calls = s.calls,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<32} {v:>12.6}");
            }
        }
        if !self.events.is_empty() {
            out.push_str("events:\n");
            for e in &self.events {
                let _ = write!(out, "  {}", e.name);
                for (k, v) in &e.fields {
                    let _ = write!(out, " {k}={}", fmt_field(v));
                }
                out.push('\n');
            }
            if self.events_dropped > 0 {
                let _ = writeln!(out, "  ({} events dropped past cap)", self.events_dropped);
            }
        }
        out
    }

    /// Serialises the snapshot as JSONL: one JSON object per line with a
    /// `"type"` discriminator (`span`, `counter`, `gauge`, `event`, `meta`).
    /// Every line parses with `mosc-analyze`'s JSON reader.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"path\":{},\"name\":{},\"depth\":{},\"calls\":{},\"total_s\":{},\"self_s\":{}}}",
                json_str(&s.path),
                json_str(&s.name),
                s.depth,
                s.calls,
                json_f64(s.total.as_secs_f64()),
                json_f64(s.self_time.as_secs_f64()),
            );
        }
        for (name, v) in &self.counters {
            let _ =
                writeln!(out, "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}", json_str(name));
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                json_str(name),
                json_f64(*v)
            );
        }
        for e in &self.events {
            let mut fields = String::new();
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    fields.push(',');
                }
                let _ = write!(fields, "{}:{}", json_str(k), json_field(v));
            }
            let _ = writeln!(
                out,
                "{{\"type\":\"event\",\"name\":{},\"fields\":{{{fields}}}}}",
                json_str(&e.name)
            );
        }
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "{{\"type\":\"meta\",\"name\":\"events_dropped\",\"value\":{}}}",
                self.events_dropped
            );
        }
        out
    }
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

fn fmt_field(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(x) => x.to_string(),
        FieldValue::I64(x) => x.to_string(),
        FieldValue::F64(x) => format!("{x:.6}"),
        FieldValue::Str(s) => (*s).to_string(),
        FieldValue::Bool(b) => b.to_string(),
    }
}

fn json_field(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(x) => x.to_string(),
        FieldValue::I64(x) => x.to_string(),
        FieldValue::F64(x) => json_f64(*x),
        FieldValue::Str(s) => json_str(s),
        FieldValue::Bool(b) => b.to_string(),
    }
}

/// Formats an `f64` as a valid JSON number. Non-finite values have no JSON
/// representation and render as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps a decimal point or exponent, so the value reads back
        // as a float, and round-trips exactly.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn pretty_report_lists_all_sections() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        static C: crate::Counter = crate::Counter::new("rep.counter");
        static G: crate::Gauge = crate::Gauge::new("rep.gauge");
        {
            let _root = crate::span("rep.root");
            let _leaf = crate::span("rep.leaf");
            C.incr();
            G.set(2.5);
            crate::event("rep.done", &[("why", "test".into())]);
        }
        let text = crate::snapshot().render_pretty();
        for needle in ["rep.root", "rep.leaf", "rep.counter", "rep.gauge", "rep.done", "why=test"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        crate::disable();
        crate::reset();
    }

    #[test]
    fn empty_snapshot_renders_hint() {
        let _guard = test_lock::hold();
        crate::disable();
        crate::reset();
        let t = crate::snapshot();
        assert!(t.is_empty());
        assert!(t.render_pretty().contains("no records"));
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        static C: crate::Counter = crate::Counter::new("jl.counter");
        {
            let _root = crate::span("jl.root");
            C.add(3);
            crate::event(
                "jl.event",
                &[
                    ("s", "a\"b\\c".into()),
                    ("f", 0.5.into()),
                    ("n", 7u64.into()),
                    ("b", false.into()),
                ],
            );
        }
        let jsonl = crate::snapshot().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines.len() >= 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
        assert!(jsonl.contains("\"type\":\"span\""));
        assert!(jsonl.contains("\"type\":\"counter\""));
        assert!(jsonl.contains("\"s\":\"a\\\"b\\\\c\""));
        assert!(jsonl.contains("\"b\":false"));
        crate::disable();
        crate::reset();
    }

    #[test]
    fn json_f64_always_reads_as_float() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
