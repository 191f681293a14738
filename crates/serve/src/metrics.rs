//! Server-side metrics: always-on service counters, per-op latency
//! histograms, a request-rate window, and zero-dependency Prometheus text
//! exposition.
//!
//! Two tiers with different switches, deliberately:
//!
//! * **Service counters** ([`mosc_obs::CounterCell`]) are always on — the
//!   `stats` wire op and the loopback tests read request/response/cache
//!   totals whether or not the process opted into telemetry. Each bump is
//!   mirrored into the matching `serve.*` [`mosc_obs::Counter`]/[`Gauge`]
//!   static so the drained telemetry JSONL (what the `M06x` lints read)
//!   stays consistent with the wire stats.
//! * **Latency histograms and the rate window** are gated on the global
//!   recorder like every other `mosc-obs` primitive: a server started
//!   without `--obs` pays one relaxed load per request phase and records
//!   nothing.
//!
//! [`Gauge`]: mosc_obs::Gauge

use mosc_core::SolverKind;
use mosc_obs::{CounterCell, Exemplar, HistoSnapshot, LogHistogram, RateWindow};
use std::fmt::Write as _;

/// Solve requests received (all ops except ping/stats/metrics/shutdown).
static REQUESTS: mosc_obs::Counter = mosc_obs::Counter::new("serve.requests");
/// Response lines written (ok, error and overloaded alike).
static RESPONSES: mosc_obs::Counter = mosc_obs::Counter::new("serve.responses");
/// Solve responses served from the LRU cache.
static CACHE_HITS: mosc_obs::Counter = mosc_obs::Counter::new("serve.cache_hits");
/// Solve requests that missed the cache and went to a worker.
static CACHE_MISSES: mosc_obs::Counter = mosc_obs::Counter::new("serve.cache_misses");
/// Entries displaced by LRU eviction.
static CACHE_EVICTIONS: mosc_obs::Counter = mosc_obs::Counter::new("serve.cache_evictions");
/// Requests shed with an `overloaded` response (queue full or draining).
static REJECTED: mosc_obs::Counter = mosc_obs::Counter::new("serve.rejected");
/// Requests whose deadline expired (in queue or mid-solve).
static DEADLINE_EXCEEDED: mosc_obs::Counter = mosc_obs::Counter::new("serve.deadline_exceeded");
/// Queue depth after the most recent push/pop.
static QUEUE_DEPTH: mosc_obs::Gauge = mosc_obs::Gauge::new("serve.queue_depth");
/// Highest queue depth observed since start.
static QUEUE_PEAK: mosc_obs::Gauge = mosc_obs::Gauge::new("serve.queue_peak");

/// One named histogram snapshot plus its stamped `(bucket, exemplar)`
/// pairs, as handed to the drain-time `hist_snapshot` serializer.
pub(crate) type NamedSnapshot = (&'static str, HistoSnapshot, Vec<(usize, Exemplar)>);

/// The three request phases measured per solve op.
pub(crate) struct OpLatency {
    /// Enqueue → dequeue (0 for I/O-thread cache hits).
    pub queue_wait: LogHistogram,
    /// Dequeue → response written.
    pub service: LogHistogram,
    /// Line received → response written.
    pub total: LogHistogram,
}

impl OpLatency {
    const fn new(names: (&'static str, &'static str, &'static str)) -> Self {
        Self {
            queue_wait: LogHistogram::new(names.0),
            service: LogHistogram::new(names.1),
            total: LogHistogram::new(names.2),
        }
    }
}

/// Histogram names per solver kind. A `const` table (not `format!`) because
/// [`LogHistogram::new`] wants `&'static str` and the whole metrics struct
/// is `const`-constructible.
const fn latency_names(kind: SolverKind) -> (&'static str, &'static str, &'static str) {
    match kind {
        SolverKind::Lns => {
            ("serve.latency.lns.queue_wait", "serve.latency.lns.service", "serve.latency.lns.total")
        }
        SolverKind::Exs => {
            ("serve.latency.exs.queue_wait", "serve.latency.exs.service", "serve.latency.exs.total")
        }
        SolverKind::ExsBnb => (
            "serve.latency.exs-bnb.queue_wait",
            "serve.latency.exs-bnb.service",
            "serve.latency.exs-bnb.total",
        ),
        SolverKind::Ao => {
            ("serve.latency.ao.queue_wait", "serve.latency.ao.service", "serve.latency.ao.total")
        }
        SolverKind::Pco => {
            ("serve.latency.pco.queue_wait", "serve.latency.pco.service", "serve.latency.pco.total")
        }
        SolverKind::Governor => (
            "serve.latency.governor.queue_wait",
            "serve.latency.governor.service",
            "serve.latency.governor.total",
        ),
    }
}

/// Index of `kind` into the per-op histogram array ([`SolverKind::all`]
/// order).
const fn op_index(kind: SolverKind) -> usize {
    match kind {
        SolverKind::Lns => 0,
        SolverKind::Exs => 1,
        SolverKind::ExsBnb => 2,
        SolverKind::Ao => 3,
        SolverKind::Pco => 4,
        SolverKind::Governor => 5,
    }
}

/// All per-server metric state (owned by `Shared`, one per server).
pub(crate) struct ServeMetrics {
    pub requests: CounterCell,
    pub responses: CounterCell,
    pub cache_hits: CounterCell,
    pub cache_misses: CounterCell,
    pub cache_evictions: CounterCell,
    pub rejected: CounterCell,
    pub deadline_exceeded: CounterCell,
    pub malformed: CounterCell,
    pub queue_peak: CounterCell,
    /// Latency per solver kind, [`SolverKind::all`] order.
    solve: [OpLatency; 6],
    /// Latency of the protocol ops (ping/stats/metrics/shutdown) and parse
    /// errors; they never queue, so only `total` is meaningful.
    proto: LogHistogram,
    /// Solve-request arrival rate.
    pub rate: RateWindow,
}

impl ServeMetrics {
    pub(crate) const fn new() -> Self {
        Self {
            requests: CounterCell::new(),
            responses: CounterCell::new(),
            cache_hits: CounterCell::new(),
            cache_misses: CounterCell::new(),
            cache_evictions: CounterCell::new(),
            rejected: CounterCell::new(),
            deadline_exceeded: CounterCell::new(),
            malformed: CounterCell::new(),
            queue_peak: CounterCell::new(),
            solve: [
                OpLatency::new(latency_names(SolverKind::Lns)),
                OpLatency::new(latency_names(SolverKind::Exs)),
                OpLatency::new(latency_names(SolverKind::ExsBnb)),
                OpLatency::new(latency_names(SolverKind::Ao)),
                OpLatency::new(latency_names(SolverKind::Pco)),
                OpLatency::new(latency_names(SolverKind::Governor)),
            ],
            proto: LogHistogram::new("serve.latency.proto.total"),
            rate: RateWindow::new(),
        }
    }

    // -- counter bumps, mirrored into the serve.* obs statics -------------

    pub(crate) fn on_request(&self) {
        self.requests.incr();
        REQUESTS.incr();
        self.rate.tick(1);
    }

    pub(crate) fn on_response(&self) {
        self.responses.incr();
        RESPONSES.incr();
    }

    pub(crate) fn on_cache_hit(&self) {
        self.cache_hits.incr();
        CACHE_HITS.incr();
    }

    pub(crate) fn on_cache_miss(&self) {
        self.cache_misses.incr();
        CACHE_MISSES.incr();
    }

    pub(crate) fn on_cache_eviction(&self) {
        self.cache_evictions.incr();
        CACHE_EVICTIONS.incr();
    }

    pub(crate) fn on_rejected(&self) {
        self.rejected.incr();
        REJECTED.incr();
    }

    pub(crate) fn on_deadline_exceeded(&self) {
        self.deadline_exceeded.incr();
        DEADLINE_EXCEEDED.incr();
    }

    pub(crate) fn on_malformed(&self) {
        self.malformed.incr();
    }

    pub(crate) fn on_queue_depth(&self, depth: u64) {
        QUEUE_DEPTH.set(depth as f64);
        self.queue_peak.record_max(depth);
        QUEUE_PEAK.set(self.queue_peak.get() as f64);
    }

    // -- latency ----------------------------------------------------------

    /// Records one completed solve request's phase latencies (seconds).
    /// A nonzero `trace_id` stamps each phase bucket's most-recent exemplar,
    /// linking the exposition back to the access log.
    pub(crate) fn record_solve(
        &self,
        kind: SolverKind,
        queue_wait: f64,
        service: f64,
        total: f64,
        trace_id: u128,
    ) {
        let op = &self.solve[op_index(kind)];
        op.queue_wait.record_traced(queue_wait, trace_id);
        op.service.record_traced(service, trace_id);
        op.total.record_traced(total, trace_id);
    }

    /// Records one protocol-op (or parse-error) total latency.
    pub(crate) fn record_proto(&self, total: f64) {
        self.proto.record(total);
    }

    /// Total solve latency merged across every solver kind — the
    /// service-wide quantile the `stats` op reports. Mergeable snapshots
    /// (one fixed bucket layout) make this exact up to bucket width.
    pub(crate) fn solve_total(&self) -> HistoSnapshot {
        let mut merged = HistoSnapshot::empty();
        for op in &self.solve {
            merged.merge(&op.total.snapshot());
        }
        merged
    }

    /// Every non-empty latency histogram as `(name, snapshot, exemplars)`,
    /// for the drain-time `hist_snapshot` access-log lines.
    pub(crate) fn latency_snapshots(&self) -> Vec<NamedSnapshot> {
        let mut out = Vec::new();
        for op in &self.solve {
            for h in [&op.queue_wait, &op.service, &op.total] {
                if !h.is_empty() {
                    out.push((h.name(), h.snapshot(), h.exemplars()));
                }
            }
        }
        if !self.proto.is_empty() {
            out.push((self.proto.name(), self.proto.snapshot(), self.proto.exemplars()));
        }
        out
    }

    /// The exemplar of the highest non-empty total-latency bucket across
    /// every solver kind: the slowest recently-traced solve, the one a
    /// `stats` reader would want to open first. `None` until a traced solve
    /// has been recorded.
    pub(crate) fn slow_exemplar(&self) -> Option<Exemplar> {
        let mut best: Option<(usize, Exemplar)> = None;
        for op in &self.solve {
            for (i, e) in op.total.exemplars() {
                if best.as_ref().is_none_or(|&(bi, _)| i >= bi) {
                    best = Some((i, e));
                }
            }
        }
        best.map(|(_, e)| e)
    }

    // -- exposition -------------------------------------------------------

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// `# TYPE` comments, counters, gauges, and cumulative `le`-labelled
    /// histogram series. Buckets that add no information (no new samples)
    /// are elided except the mandatory `+Inf` bound, which keeps the
    /// exposition compact while staying cumulative and monotone.
    pub(crate) fn render_prometheus(
        &self,
        queue_depth: u64,
        cache_len: u64,
        uptime_s: f64,
    ) -> String {
        let mut out = String::with_capacity(4096);
        for (name, v) in [
            ("mosc_serve_requests_total", self.requests.get()),
            ("mosc_serve_responses_total", self.responses.get()),
            ("mosc_serve_cache_hits_total", self.cache_hits.get()),
            ("mosc_serve_cache_misses_total", self.cache_misses.get()),
            ("mosc_serve_cache_evictions_total", self.cache_evictions.get()),
            ("mosc_serve_rejected_total", self.rejected.get()),
            ("mosc_serve_deadline_exceeded_total", self.deadline_exceeded.get()),
            ("mosc_serve_malformed_total", self.malformed.get()),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        let merged = self.solve_total();
        let q = |p: f64| merged.quantile(p).unwrap_or(0.0);
        for (name, v) in [
            ("mosc_serve_queue_depth", queue_depth as f64),
            ("mosc_serve_queue_peak", self.queue_peak.get() as f64),
            ("mosc_serve_cache_len", cache_len as f64),
            ("mosc_serve_uptime_seconds", uptime_s),
            ("mosc_serve_req_per_s", self.rate.per_sec()),
            ("mosc_serve_latency_p50_seconds", q(0.5)),
            ("mosc_serve_latency_p90_seconds", q(0.9)),
            ("mosc_serve_latency_p99_seconds", q(0.99)),
            ("mosc_serve_latency_p999_seconds", q(0.999)),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", prom_f64(v));
        }
        out.push_str("# TYPE mosc_serve_latency_seconds histogram\n");
        for kind in SolverKind::all() {
            let op = &self.solve[op_index(kind)];
            for (phase, h) in
                [("queue_wait", &op.queue_wait), ("service", &op.service), ("total", &op.total)]
            {
                render_histogram(&mut out, kind.id(), phase, h);
            }
        }
        render_histogram(&mut out, "proto", "total", &self.proto);
        out
    }
}

/// One histogram's series block; empty histograms emit nothing. Buckets
/// with a stamped exemplar carry it as an `OpenMetrics` exemplar suffix
/// (`... # {trace_id="<hex>"} <value>`), the join key back into the access
/// log (the M124 lint verifies the join).
fn render_histogram(out: &mut String, op: &str, phase: &str, h: &LogHistogram) {
    if h.is_empty() {
        return;
    }
    let snap = h.snapshot();
    let labels = format!("op=\"{}\",phase=\"{}\"", prom_label(op), prom_label(phase));
    let mut prev = 0u64;
    let cumulative = snap.cumulative();
    for (i, &(le, cum)) in cumulative.iter().enumerate() {
        let last = i == cumulative.len() - 1;
        if cum == prev && !last {
            continue;
        }
        prev = cum;
        let bound = if last { "+Inf".to_owned() } else { prom_f64(le) };
        let _ = write!(out, "mosc_serve_latency_seconds_bucket{{{labels},le=\"{bound}\"}} {cum}");
        if let Some(e) = h.exemplar(i) {
            let _ = write!(out, " # {{trace_id=\"{:032x}\"}} {}", e.trace_id, prom_f64(e.value));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "mosc_serve_latency_seconds_sum{{{labels}}} {}", prom_f64(snap.sum));
    let _ = writeln!(out, "mosc_serve_latency_seconds_count{{{labels}}} {}", snap.count);
}

/// Escapes one Prometheus label value. The text format's quoted-string
/// escapes are a strict subset of JSON's: backslash and double quote escape
/// exactly as `mosc_analyze::json::json_string` writes them, plus `\n` for
/// newlines (Prometheus label values never contain other control escapes).
/// Sharing the convention keeps the exposition and the JSON artifacts
/// greppable by the same trace-id strings.
fn prom_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Prometheus float formatting: shortest round-trip, `+Inf`/`-Inf`/`NaN`
/// spelled the Prometheus way.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_counts_match_recorded_requests() {
        // Gated primitives need the recorder; the process-global switch is
        // shared with the loopback tests, but enabling is idempotent and
        // this test only reads its own `ServeMetrics` instance.
        mosc_obs::enable();
        let m = ServeMetrics::new();
        for _ in 0..5 {
            m.on_request();
            m.record_solve(SolverKind::Ao, 1e-4, 2e-3, 2.1e-3, 0x00c0_ffee);
        }
        m.on_request();
        m.record_solve(SolverKind::Governor, 0.0, 0.5, 0.5, 0);
        m.on_queue_depth(3);
        let text = m.render_prometheus(1, 2, 12.5);

        assert!(text.contains("# TYPE mosc_serve_requests_total counter"), "{text}");
        assert!(text.contains("mosc_serve_requests_total 6"), "{text}");
        assert!(text.contains("mosc_serve_queue_peak 3"), "{text}");
        assert!(text.contains("# TYPE mosc_serve_latency_seconds histogram"), "{text}");
        assert!(
            text.contains("mosc_serve_latency_seconds_count{op=\"ao\",phase=\"total\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("mosc_serve_latency_seconds_count{op=\"governor\",phase=\"total\"} 1"),
            "{text}"
        );
        // The +Inf bucket is mandatory and equals the series count.
        assert!(
            text.contains(
                "mosc_serve_latency_seconds_bucket{op=\"ao\",phase=\"total\",le=\"+Inf\"} 5"
            ),
            "{text}"
        );
        // Traced solves surface as OpenMetrics exemplars on their bucket.
        assert!(
            text.contains(" # {trace_id=\"00000000000000000000000000c0ffee\"}"),
            "traced buckets must carry their exemplar suffix:\n{text}"
        );
        // Bucket series are cumulative and monotone per (op, phase). Any
        // exemplar suffix sits after the sample value, behind " # ".
        let mut per_series: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        for line in text.lines().filter(|l| l.starts_with("mosc_serve_latency_seconds_bucket")) {
            let sample = line.split(" # ").next().unwrap();
            let (series, value) = sample.rsplit_once(' ').unwrap();
            let v: u64 = value.parse().unwrap();
            let prev = per_series.entry(series.split("le=").next().unwrap()).or_insert(0);
            assert!(v >= *prev, "non-monotone bucket series: {line}");
            *prev = v;
        }
        // The merged solve-total quantile sees all 6 samples.
        let merged = m.solve_total();
        assert_eq!(merged.count, 6);
        assert!(merged.quantile(0.5).unwrap() < 0.1);
        // Quantile gauges are exposed (p999 included) and read off the
        // same merged histogram.
        for (gauge, p) in [
            ("mosc_serve_latency_p50_seconds", 0.5),
            ("mosc_serve_latency_p99_seconds", 0.99),
            ("mosc_serve_latency_p999_seconds", 0.999),
        ] {
            let line = text
                .lines()
                .find(|l| l.starts_with(gauge) && !l.starts_with('#'))
                .unwrap_or_else(|| panic!("missing gauge {gauge}:\n{text}"));
            let v: f64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(
                (v - merged.quantile(p).unwrap()).abs() < 1e-12,
                "{gauge} diverges from the merged histogram: {line}"
            );
        }
    }

    #[test]
    fn hostile_label_values_escape_like_json_strings() {
        // The op/phase labels are static today, but the escaping must hold
        // for any value the renderer is ever handed: backslash and quote
        // escape exactly as the JSON serializer writes them, newline as \n.
        mosc_obs::enable();
        let h = LogHistogram::new("metrics.hostile_labels");
        h.record(0.001);
        let mut out = String::new();
        render_histogram(&mut out, "evil\"op\\name", "pha\nse", &h);
        assert!(
            out.contains("op=\"evil\\\"op\\\\name\",phase=\"pha\\nse\""),
            "hostile label values must escape: {out}"
        );
        assert!(!out.contains("op=\"evil\"op"), "raw quote must never reach a label: {out}");
        // The shared convention: on quote and backslash, the JSON string
        // serializer produces the identical escape bytes.
        let json = mosc_analyze::json::json_string("\"\\");
        assert_eq!(json, "\"\\\"\\\\\"");
        assert_eq!(prom_label("\"\\"), &json[1..json.len() - 1]);
    }

    #[test]
    fn slow_exemplar_picks_the_highest_traced_bucket() {
        mosc_obs::enable();
        let m = ServeMetrics::new();
        assert!(m.slow_exemplar().is_none());
        m.record_solve(SolverKind::Ao, 1e-4, 2e-3, 2.1e-3, 0xfa57);
        m.record_solve(SolverKind::Pco, 1e-4, 0.4, 0.5, 0x510);
        m.record_solve(SolverKind::Exs, 1e-4, 5e-3, 6e-3, 0xbeef);
        let slow = m.slow_exemplar().expect("traced solves must yield an exemplar");
        assert_eq!(slow.trace_id, 0x510, "the slowest traced solve wins");
        assert!((slow.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_histograms_are_elided() {
        let m = ServeMetrics::new();
        let text = m.render_prometheus(0, 0, 0.0);
        assert!(!text.contains("latency_seconds_bucket"), "{text}");
        // Counter and gauge families are always present.
        assert!(text.contains("mosc_serve_requests_total 0"), "{text}");
        assert!(text.contains("mosc_serve_req_per_s 0.0"), "{text}");
    }
}
