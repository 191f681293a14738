//! The traced run: per-layer metrics from client-side spans around every
//! wire call plus an off-the-clock replay of each request through the
//! public function of each layer (see the crate docs for the table).

use crate::daemon::Daemon;
use crate::drive::{Answer, Sample, Span, Window};
use crate::gen::{Inputs, Kind, Req, Workload, BATCH_PLATFORMS};
use crate::stats::{exact_quantile, quantile};
use crate::{check, metric, set_up, Metric, Outcome, RunDir};
use mosc_analyze::json::Value;
use mosc_core::{BatchVariant, SolveOptions, SolverKind};
use mosc_serve::proto::canonical_json;
use mosc_serve::{
    cache_key, cache_key_parts, parse_request, CacheKey, CachedSolve, LruCache, Request, Response,
    SolveResponse,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests of the traced half replayed through the cheap layers.
const REPLAY_MAX: usize = 2000;
/// Solver-layer sample: solve jobs (variants) taken from the start of the
/// workload's generated inputs, so kernel counts repeat for a seed.
const SOLVER_SAMPLE: usize = 12;
/// Wire pings timed on the idle daemon.
const PINGS: usize = 1000;
/// Hot keys of the access-log probe, and requests per probe block.
const PROBE_KEYS: usize = 4;
const PROBE_BLOCK: usize = 250;
const PROBE_ROUNDS: usize = 4;

/// Collects spans; ids are unique across the run.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new_id(&self) -> u64 {
        self.spans.len() as u64 + 1
    }

    /// Times `f` as span `name` under `parent`; returns its value and the
    /// span's duration.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let v = black_box(f());
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span =
            Span { name, id: self.new_id(), parent, start_ns: ns(start), end_ns: ns(end), req };
        self.spans.push(span);
        (v, end - start)
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = if s.parent == 0 { "null".to_owned() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"span\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.req
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Per-layer samples, in microseconds unless the name says otherwise.
#[derive(Default)]
struct Ledger {
    us: HashMap<&'static str, Vec<f64>>,
}

impl Ledger {
    fn push(&mut self, layer: &'static str, d: Duration) {
        self.us.entry(layer).or_default().push(d.as_secs_f64() * 1e6);
    }

    fn p50_us(&self, layer: &str) -> f64 {
        self.us.get(layer).map_or(0.0, |v| quantile(v.clone(), 0.5))
    }
}

fn platform_doc(platform: &Value) -> Value {
    Value::Object(vec![("platform".to_owned(), platform.clone())])
}

fn build(platform: &Value) -> mosc_core::Platform {
    mosc_analyze::platform_from_doc(&platform_doc(platform)).expect("generated platforms build")
}

/// The platform and solve jobs of one request.
fn jobs_of(req: &Req) -> (&Value, Vec<BatchVariant>) {
    match &req.request {
        Request::Solve(s) => (&s.platform, vec![BatchVariant { kind: s.kind, options: s.options }]),
        Request::SolveBatch(b) => (
            &b.platform,
            b.variants.iter().map(|v| BatchVariant { kind: v.kind, options: v.options }).collect(),
        ),
        _ => unreachable!("workloads send solves and batches"),
    }
}

/// The cache keys the daemon computes for one request.
fn keys_of(req: &Req) -> Vec<CacheKey> {
    match &req.request {
        Request::Solve(s) => vec![cache_key(s)],
        Request::SolveBatch(b) => {
            let canonical = canonical_json(&b.platform);
            b.variants.iter().map(|v| cache_key_parts(&canonical, v.kind, &v.options)).collect()
        }
        _ => unreachable!("workloads send solves and batches"),
    }
}

/// The daemon's `cache_hits`/`cache_misses` counters.
fn cache_counters(daemon: &Daemon) -> Result<(u64, u64), String> {
    let line = daemon.connect()?.roundtrip("{\"id\":\"st\",\"op\":\"stats\"}\n")?;
    match Response::parse(line.trim_end()) {
        Ok(Response::Stats { stats, .. }) => Ok((stats.cache_hits, stats.cache_misses)),
        _ => Err(format!("bad stats answer: {line}")),
    }
}

fn ping_us(daemon: &Daemon) -> Result<f64, String> {
    let mut conn = daemon.connect()?;
    let mut buf = String::new();
    let mut us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        conn.send("{\"id\":\"pg\",\"op\":\"ping\"}\n")?;
        conn.recv(&mut buf)?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(quantile(us, 0.5))
}

/// Hot-key p50 on the workload's daemon (with `--access-log`) minus the
/// same on a second daemon without it, in interleaved blocks so drift in
/// the host hits both alike.
fn access_log_us(
    bin: &Path,
    with_log: &Daemon,
    inputs: &Inputs,
    dir: &RunDir,
) -> Result<f64, String> {
    let without = Daemon::spawn(bin, None, &dir.path("probe.err"))?;
    let probe: Vec<String> = gen_probe(inputs);
    let mut conns = [with_log.connect()?, without.connect()?];
    let mut buf = String::new();
    for conn in &mut conns {
        for line in &probe {
            conn.send(line)?;
            conn.recv(&mut buf)?;
        }
    }
    let mut us = [Vec::new(), Vec::new()];
    for _ in 0..PROBE_ROUNDS {
        for (c, conn) in conns.iter_mut().enumerate() {
            for i in 0..PROBE_BLOCK {
                let t = Instant::now();
                conn.send(&probe[i % probe.len()])?;
                conn.recv(&mut buf)?;
                us[c].push(t.elapsed().as_secs_f64() * 1e6);
                if !buf.contains("\"cached\":true") {
                    return Err(format!("access-log probe missed the cache: {buf}"));
                }
            }
        }
    }
    drop(conns);
    without.shutdown()?;
    let [a, b] = us;
    Ok(quantile(a, 0.5) - quantile(b, 0.5))
}

/// The probe's hot keys: the workload's first fresh solves under probe ids,
/// without schedules. Any AO key serves: the probe times the hit path.
fn gen_probe(inputs: &Inputs) -> Vec<String> {
    let mut hot = crate::gen::generate(Workload::Hit, inputs.seed, 1.0).prime;
    hot.truncate(PROBE_KEYS);
    hot.into_iter()
        .enumerate()
        .map(|(k, r)| {
            let Request::Solve(s) = r.request else { unreachable!("hot keys are solves") };
            let mut line = Request::Solve(mosc_serve::SolveRequest {
                id: format!("q{k}"),
                want_schedule: false,
                ..s
            })
            .to_json();
            line.push('\n');
            line
        })
        .collect()
}

/// Queue waits (ms) of every request that went through the daemon's queue:
/// solves and batches not answered by the cache fast path.
fn queue_waits_ms(access_log: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(access_log).map_err(|e| format!("access log: {e}"))?;
    let mut waits = Vec::new();
    for line in text.lines() {
        if !line.contains("\"type\":\"access\"") || line.contains("\"cached\":true") {
            continue;
        }
        let doc = Value::parse(line).map_err(|e| format!("access log line: {e}"))?;
        let op = doc.get("op").and_then(Value::as_str);
        if matches!(op, Some("solve" | "solve_batch")) {
            if let Some(w) = doc.get("queue_wait_s").and_then(Value::as_f64) {
                waits.push(w * 1e3);
            }
        }
    }
    waits.sort_by(f64::total_cmp);
    Ok(waits)
}

/// The response a sample got, typed: hits kept as digests are rebuilt from
/// the priming answer (the checks prove the bytes equal).
fn typed_answer(
    sample: &Sample,
    req: &Req,
    primed: &[Option<SolveResponse>],
) -> Option<(Response, usize)> {
    match (&sample.answer, req.kind) {
        (Answer::Line(line), _) => Response::parse(line).ok().map(|r| (r, line.len())),
        (Answer::Digest(_), Kind::Hot { key }) => {
            let Request::Solve(s) = &req.request else { return None };
            let p = primed.get(key)?.as_ref()?;
            let resp = SolveResponse {
                id: s.id.clone(),
                cached: true,
                schedule: if s.want_schedule { p.schedule.clone() } else { None },
                ..p.clone()
            };
            let len = resp.to_json().len();
            Some((Response::Ok(resp), len))
        }
        (Answer::Digest(_), _) => None,
    }
}

/// The fixed solver sample: requests from the start of the workload's own
/// inputs until [`SOLVER_SAMPLE`] jobs are covered.
fn solver_sample(inputs: &Inputs) -> Vec<&Req> {
    let source: Vec<&Req> = match inputs.workload {
        Workload::Hit | Workload::Mixed => inputs.prime.iter().collect(),
        Workload::Miss | Workload::Batch => inputs.pool.iter().collect(),
    };
    let mut jobs = 0;
    source
        .into_iter()
        .take_while(|r| {
            let take = jobs < SOLVER_SAMPLE;
            jobs += jobs_of(r).1.len();
            take
        })
        .collect()
}

/// Kernel counters read around a closure (the `mosc-obs` recorder must be
/// on for them to move).
const KERNEL_COUNTERS: [(&str, &str); 5] = [
    ("kernel.expm_calls", "expm.calls"),
    ("kernel.period_map_matmuls", "period_map.matmuls"),
    ("kernel.steady_state_calls", "steady_state.calls"),
    ("kernel.linalg_matmuls", "linalg.matmuls"),
    ("kernel.eigen_calls", "eigen.calls"),
];

fn read_kernel_counters() -> [u64; 5] {
    KERNEL_COUNTERS.map(|(_, c)| mosc_obs::counter_value(c).unwrap_or(0))
}

/// Times the solver layers on the fixed sample; returns the kernel counts
/// of building and solving it once with the recorder on.
fn replay_solvers(inputs: &Inputs, tracer: &mut Tracer, ledger: &mut Ledger) -> [u64; 5] {
    let root = tracer.new_id();
    let start = Instant::now();
    let batch = inputs.workload == Workload::Batch;
    let sample = solver_sample(inputs);
    for req in &sample {
        let (doc, variants) = jobs_of(req);
        let (platform, d) = tracer.time("platform.build", root, usize::MAX, || build(doc));
        ledger.push("platform.build", d);
        for v in &variants {
            let layer = match v.kind {
                SolverKind::Ao => "solver.ao",
                _ => "solver.pco",
            };
            let (_, d) = tracer
                .time(layer, root, usize::MAX, || mosc_core::solve(v.kind, &platform, &v.options));
            ledger.push(layer, d);
            if v.kind == SolverKind::Ao {
                let serial = SolveOptions { threads: 1, ..v.options };
                let (_, d) = tracer.time("solver.ao_serial", root, usize::MAX, || {
                    mosc_core::solve(SolverKind::Ao, &platform, &serial)
                });
                ledger.push("solver.ao_serial", d);
            }
        }
        if !batch {
            // The workload never runs PCO; time it on the same platforms
            // as the reference for its "should not move" column.
            let (_, d) = tracer.time("solver.pco", root, usize::MAX, || {
                mosc_core::solve(SolverKind::Pco, &platform, &SolveOptions::default())
            });
            ledger.push("solver.pco", d);
        }
        let (_, d) = tracer.time("solver.batch", root, usize::MAX, || {
            mosc_core::solve_batch(&platform, &variants, 0)
        });
        ledger.push("solver.batch_variant", d / variants.len() as u32);
    }
    let ns = |t: Instant| t.saturating_duration_since(tracer.epoch).as_nanos() as u64;
    let end = Instant::now();
    tracer.spans.push(Span {
        name: "replay.solvers",
        id: root,
        parent: 0,
        start_ns: ns(start),
        end_ns: ns(end),
        req: usize::MAX,
    });
    // Counts: the cold path of every sampled request, recorder on. Nothing
    // else runs in this process now, so the global counters are exact.
    mosc_obs::enable();
    let before = read_kernel_counters();
    for req in &sample {
        let (doc, variants) = jobs_of(req);
        let platform = build(doc);
        for v in &variants {
            let _ = black_box(mosc_core::solve(v.kind, &platform, &v.options));
        }
    }
    let after = read_kernel_counters();
    mosc_obs::disable();
    std::array::from_fn(|i| after[i].saturating_sub(before[i]))
}

/// A traced run: untraced half, traced half, front-end probes, checks,
/// then the replay.
pub fn run_traced(
    bin: &Path,
    inputs: &Inputs,
    seconds: f64,
    dir: &RunDir,
) -> Result<Outcome, String> {
    let (daemon, primed) = set_up(bin, inputs, dir, &mut Vec::new())?;
    let epoch = Instant::now();
    let half = seconds / 2.0;
    let untraced = crate::measure(&daemon, inputs, half, 0, false, epoch)?;
    let (hits0, misses0) = cache_counters(&daemon)?;
    let traced = crate::measure(&daemon, inputs, half, untraced.next, true, epoch)?;
    let (hits1, misses1) = cache_counters(&daemon)?;
    let ping = ping_us(&daemon)?;
    let access_log = access_log_us(bin, &daemon, inputs, dir)?;
    daemon.shutdown()?;
    let waits = queue_waits_ms(&dir.path("access.jsonl"))?;
    let _ = std::fs::remove_file(dir.path("access.jsonl"));
    for w in [&untraced, &traced] {
        if let Some(e) = &w.error {
            eprintln!("perfbench: window stopped early: {e}");
        }
    }

    let samples: Vec<&Sample> = untraced.samples.iter().chain(&traced.samples).collect();
    let verdict = check::check(inputs, &primed, &samples);
    crate::report_failures(&verdict);

    let primed_typed: Vec<Option<SolveResponse>> = primed
        .iter()
        .map(|l| match Response::parse(l) {
            Ok(Response::Ok(r)) => Some(r),
            _ => None,
        })
        .collect();
    let mut tracer = Tracer { epoch, spans: traced.spans.clone() };
    for (i, s) in tracer.spans.iter_mut().enumerate() {
        s.id = i as u64 + 1;
    }
    let mut ledger = Ledger::default();
    let response_bytes = replay_requests(inputs, &traced, &primed_typed, &mut tracer, &mut ledger);
    let registry = replay_registry(inputs, &traced, &mut tracer, &mut ledger);
    let kernel = replay_solvers(inputs, &mut tracer, &mut ledger);
    let hist_ns = hist_record_ns(&untraced);

    let lat_untraced = crate::latencies_ms(&[&untraced]);
    let lat_traced = crate::latencies_ms(&[&traced]);
    let wire_us = exact_quantile(&lat_traced, 0.5) * 1e3;
    let p = |l: &str| ledger.p50_us(l);
    let variants = inputs.pool.first().map_or(1, |r| jobs_of(r).1.len()) as f64;
    let front =
        p("proto.parse") + p("cache.key") + p("cache.get") + p("proto.serialize") + hist_ns / 1e3;
    let (path, in_process) = match inputs.workload {
        Workload::Hit | Workload::Mixed => (
            vec!["proto.parse", "cache.key", "cache.get", "proto.serialize", "obs.hist_record"],
            front,
        ),
        Workload::Miss => (
            vec![
                "proto.parse",
                "cache.key",
                "cache.get",
                "platform.build",
                "solver.ao",
                "proto.serialize",
                "obs.hist_record",
            ],
            front + p("platform.build") + p("solver.ao"),
        ),
        Workload::Batch => (
            vec![
                "proto.parse",
                "cache.key",
                "cache.get",
                "registry.resolve",
                "solver.batch_variant",
                "proto.serialize",
                "obs.hist_record",
            ],
            front + p("registry.resolve") + p("solver.batch_variant") * variants,
        ),
    };
    let ledger_us = in_process + ping + access_log.max(0.0);
    let mut late: Vec<f64> = untraced
        .samples
        .iter()
        .chain(&traced.samples)
        .map(|s| s.late.as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    let ratio = |hits: u64, total: u64| if total == 0 { 0.0 } else { hits as f64 / total as f64 };
    let dh = hits1.saturating_sub(hits0);
    let dm = misses1.saturating_sub(misses0);

    let mut metrics = vec![
        metric("proto.parse_us", p("proto.parse"), "us"),
        metric("proto.serialize_us", p("proto.serialize"), "us"),
        metric("proto.response_bytes", quantile(response_bytes, 0.5), "bytes"),
        metric("cache.key_us", p("cache.key"), "us"),
        metric("cache.get_us", p("cache.get"), "us"),
        metric("cache.hit_ratio", ratio(dh, dh + dm), "ratio"),
        metric("frontend.ping_us", ping, "us"),
        metric("frontend.access_log_us", access_log, "us"),
        metric("frontend.residual_us", wire_us - in_process, "us"),
        metric("queue.wait_p50_ms", exact_quantile(&waits, 0.5), "ms"),
        metric("queue.wait_p99_ms", exact_quantile(&waits, 0.99), "ms"),
        metric("platform.build_ms", p("platform.build") / 1e3, "ms"),
        metric("registry.resolve_us", p("registry.resolve"), "us"),
        metric("registry.hit_ratio", ratio(registry.0, registry.1), "ratio"),
        metric("solver.ao_ms", p("solver.ao") / 1e3, "ms"),
        metric("solver.ao_serial_ms", p("solver.ao_serial") / 1e3, "ms"),
        metric("solver.fanout_x", p("solver.ao") / p("solver.ao_serial"), "x"),
        metric("solver.pco_ms", p("solver.pco") / 1e3, "ms"),
        metric("solver.batch_variant_ms", p("solver.batch_variant") / 1e3, "ms"),
    ];
    for ((name, _), count) in KERNEL_COUNTERS.iter().zip(kernel) {
        metrics.push(metric(name, count as f64, "count"));
    }
    metrics.extend([
        metric("obs.hist_record_ns", hist_ns, "ns"),
        metric("ledger.coverage", ledger_us / wire_us, "ratio"),
        metric(
            "trace.overhead_x",
            exact_quantile(&lat_traced, 0.5) / exact_quantile(&lat_untraced, 0.5),
            "x",
        ),
        metric("gen.late_p99_ms", exact_quantile(&late, 0.99), "ms"),
    ]);

    tracer.write_jsonl(&dir.path("spans.jsonl"))?;
    write_summary(&dir.path("layers.json"), inputs, &path, &metrics, wire_us, &lat_untraced)?;
    let failed = verdict.failed + untraced.unanswered + traced.unanswered;
    let attempted = untraced.attempted() + traced.attempted();
    Ok(Outcome { attempted, failed, metrics, reported: Vec::new() })
}

/// Replays the traced half's requests through parse, key, cache lookup and
/// serialize, each a child span of the request's wire span. Returns the
/// response sizes in bytes.
fn replay_requests(
    inputs: &Inputs,
    traced: &Window,
    primed: &[Option<SolveResponse>],
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<f64> {
    // The daemon's cache as the window found it: the hot set for the
    // workloads that have one, nothing for the others.
    let mut lru = LruCache::new(128);
    for (req, resp) in inputs.prime.iter().zip(primed) {
        if let (Kind::Fresh, Some(r), Request::Solve(s)) = (req.kind, resp, &req.request) {
            if matches!(inputs.workload, Workload::Hit | Workload::Mixed) {
                lru.insert(
                    &cache_key(s),
                    CachedSolve {
                        solver: r.solver,
                        throughput: r.throughput,
                        peak_c: r.peak_c,
                        feasible: r.feasible,
                        m: r.m,
                        wall_ms: r.wall_ms,
                        stats: r.stats,
                        schedule_text: r.schedule.clone().unwrap_or_default(),
                    },
                );
            }
        }
    }
    let mut bytes = Vec::new();
    for (i, sample) in traced.samples.iter().take(REPLAY_MAX).enumerate() {
        let wire = i as u64 + 1;
        let req = &inputs.pool[sample.req];
        let line = req.line.trim_end();
        let (parsed, d) = tracer.time("proto.parse", wire, sample.req, || parse_request(line));
        ledger.push("proto.parse", d);
        debug_assert!(parsed.is_ok());
        let (keys, d) = tracer.time("cache.key", wire, sample.req, || keys_of(req));
        ledger.push("cache.key", d);
        let (_, d) = tracer.time("cache.get", wire, sample.req, || {
            keys.iter().map(|k| lru.get(k).is_some()).filter(|&h| h).count()
        });
        ledger.push("cache.get", d);
        if let Some((resp, len)) = typed_answer(sample, req, primed) {
            let (_, d) = tracer.time("proto.serialize", wire, sample.req, || resp.to_json());
            ledger.push("proto.serialize", d);
            bytes.push(len as f64);
        }
    }
    bytes
}

/// Resolves each replayed request's platform through the process-global
/// registry in request order, starting from the state the daemon's
/// set-up leaves (`batch` interns its platforms; single solves never use
/// the registry). Returns (warm resolves, resolves).
fn replay_registry(
    inputs: &Inputs,
    traced: &Window,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> (u64, u64) {
    let resolve = |doc: &Value| {
        let canonical = canonical_json(doc);
        mosc_core::registry::intern_with(&canonical, || {
            mosc_analyze::platform_from_doc(&platform_doc(doc))
        })
        .expect("generated platforms build")
        .1
    };
    if inputs.workload == Workload::Batch {
        for req in inputs.prime.iter().take(BATCH_PLATFORMS) {
            resolve(jobs_of(req).0);
        }
    }
    let (mut warm, mut total) = (0, 0);
    for (i, sample) in traced.samples.iter().take(REPLAY_MAX).enumerate() {
        let doc = jobs_of(&inputs.pool[sample.req]).0;
        let (hit, d) = tracer.time("registry.resolve", i as u64 + 1, sample.req, || resolve(doc));
        ledger.push("registry.resolve", d);
        warm += u64::from(hit);
        total += 1;
    }
    (warm, total)
}

/// `LogHistogram::record` per call, with the recorder off as it is in the
/// daemon, over the window's own latencies.
fn hist_record_ns(window: &Window) -> f64 {
    static HIST: mosc_obs::LogHistogram = mosc_obs::LogHistogram::new("perfbench.latency");
    let lat: Vec<f64> = window.samples.iter().map(|s| s.lat.as_secs_f64()).collect();
    if lat.is_empty() {
        return 0.0;
    }
    let rounds = 200_000 / lat.len() + 1;
    let start = Instant::now();
    for _ in 0..rounds {
        for &v in &lat {
            HIST.record(black_box(v));
        }
    }
    start.elapsed().as_secs_f64() * 1e9 / (rounds * lat.len()) as f64
}

fn write_summary(
    path: &Path,
    inputs: &Inputs,
    layers: &[&str],
    metrics: &[Metric],
    wire_us: f64,
    untraced_ms: &[f64],
) -> Result<(), String> {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"digest\":\"{:016x}\",\"wire_p50_us_traced\":{wire_us:?},\
         \"wire_p50_us_untraced\":{:?},\"path\":[{}],\"metrics\":{{",
        inputs.workload.name(),
        inputs.seed,
        inputs.digest,
        exact_quantile(untraced_ms, 0.5) * 1e3,
        layers.iter().map(|l| format!("\"{l}\"")).collect::<Vec<_>>().join(",")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    out.push_str(&body.join(","));
    out.push_str("}}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
