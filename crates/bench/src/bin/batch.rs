//! E-BT — batched solves: `solve_batch` against the platform registry vs
//! the same work as individual solve requests.
//!
//! Three phases against one in-process `mosc-serve` daemon, all running
//! short-horizon governor solves on one 8-core platform under
//! cache-key-distinct option variants (`threads` is part of the
//! solution-cache key but does not change the math, so every request
//! below is a *real* solve, never a solution-cache hit):
//!
//! 1. `per_request` — each variant as its own solve request. The single
//!    request path never touches the platform registry, so every request
//!    re-parses, re-canonicalizes and re-builds the platform — including
//!    the eigendecomposition — before solving.
//! 2. `batch_cold` — one `solve_batch` whose resolve interns the platform:
//!    the build happens once and is amortized over the whole batch.
//! 3. `batch_warm` — repeated `solve_batch` rounds on the now-interned
//!    platform: zero eigendecompositions (asserted via the process-global
//!    `eigen.calls` counter — the daemon runs in this process), just the
//!    per-variant solves, which also reuse the interned platform's modal
//!    T∞ memo across rounds.
//!
//! The table reports per-variant wall time per phase; `speedup_x` on the
//! `batch_warm` record is the per-request p50 over the warm per-variant
//! p50 — the amortization the registry buys a design-space sweep. With
//! `--csv <dir>` the records land in `BENCH_batch.json` (schema v2), the
//! artifact `ci.sh` lints and diffs against `benches/baseline`.

use mosc_analyze::json::Value;
use mosc_bench::record::{BenchLog, RunMeta};
use mosc_bench::{csv_dir_from_args, timed, Table};
use mosc_core::reactive::GovernorOptions;
use mosc_core::{SolveOptions, SolverKind};
use mosc_serve::{
    fresh_span_id, fresh_trace_id, BatchRequest, BatchVariantRequest, Request, Server,
    SolveRequest, TraceContext,
};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Variants per batch (and per per-request round).
const VARIANTS: usize = 8;

/// Measured rounds: `batch_warm` sends this many batches, `per_request`
/// the same number of variant sets as individual requests.
const ROUNDS: usize = 6;

/// One platform for the whole bench: `per_request` never interns it, the
/// first batch does, every later batch finds it warm.
const PLATFORM: &str = r#"{"rows":2,"cols":4,"levels":[0.6,1.3],"t_max_c":65.0}"#;

fn platform() -> Value {
    Value::parse(PLATFORM).expect("platform literal")
}

/// Solver options shared by every variant; `threads` comes from a
/// phase-disjoint namespace so no phase ever hits the solution cache on
/// another phase's entries.
fn solve_options(threads: usize) -> SolveOptions {
    SolveOptions {
        threads,
        governor: GovernorOptions {
            horizon: 1.0,
            warmup: 0.25,
            control_period: 0.1,
            ..GovernorOptions::default()
        },
        ..SolveOptions::default()
    }
}

/// Every bench request originates a fresh root trace context, so the
/// daemon's trace-continuation path (including per-variant fan-out) is on
/// the measured path, exactly as a v2 client would drive it.
fn origin() -> TraceContext {
    TraceContext { trace_id: fresh_trace_id(), parent_id: fresh_span_id() }
}

fn solve_line(id: &str, threads: usize) -> String {
    Request::Solve(SolveRequest {
        id: id.to_owned(),
        kind: SolverKind::Governor,
        platform: platform(),
        options: solve_options(threads),
        want_schedule: false,
        trace: Some(origin()),
    })
    .to_json()
}

fn batch_line(id: &str, threads0: usize) -> String {
    Request::SolveBatch(BatchRequest {
        id: id.to_owned(),
        platform: platform(),
        variants: (0..VARIANTS)
            .map(|v| BatchVariantRequest {
                kind: SolverKind::Governor,
                options: solve_options(threads0 + v),
                want_schedule: false,
            })
            .collect(),
        trace: Some(origin()),
    })
    .to_json()
}

/// Exact quantile of an ascending-sorted slice: smallest element whose
/// rank covers `q` of the mass (matches the analyzer's oracle).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sends one line, reads one response line, asserts it came back ok.
fn roundtrip(stream: &mut TcpStream, responses: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("send request");
    stream.write_all(b"\n").expect("send newline");
    let mut response = String::new();
    responses.read_line(&mut response).expect("read response");
    assert!(response.contains("\"status\":\"ok\""), "request failed: {response}");
    response
}

/// One phase's outcome: total wall, per-variant latencies (ms, sorted)
/// and the eigendecompositions the phase performed.
struct Phase {
    wall_s: f64,
    count: usize,
    lat_ms: Vec<f64>,
    eigen_calls: u64,
}

fn quantile_row(table: &mut Table, mode: &str, p: &Phase) {
    table.row(vec![
        mode.to_string(),
        p.count.to_string(),
        format!("{:.4}", p.wall_s),
        format!("{:.4}", exact_quantile(&p.lat_ms, 0.50)),
        format!("{:.4}", exact_quantile(&p.lat_ms, 0.90)),
        format!("{:.4}", p.lat_ms.last().copied().unwrap_or(0.0)),
        p.eigen_calls.to_string(),
    ]);
}

fn record(p: &Phase, mode: &str, speedup_x: Option<f64>) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"type\":\"batch\",\"mode\":\"{mode}\",\"variants\":{VARIANTS},\
         \"count\":{},\"wall_s\":{:?},\"p50_ms\":{:?},\"p90_ms\":{:?},\
         \"p99_ms\":{:?},\"max_ms\":{:?},\"eigen_calls\":{}",
        p.count,
        p.wall_s,
        exact_quantile(&p.lat_ms, 0.50),
        exact_quantile(&p.lat_ms, 0.90),
        exact_quantile(&p.lat_ms, 0.99),
        p.lat_ms.last().copied().unwrap_or(0.0),
        p.eigen_calls
    );
    if let Some(s) = speedup_x {
        let _ = write!(line, ",\"speedup_x\":{s:?}");
    }
    line.push('}');
    line
}

fn eigs() -> u64 {
    mosc_obs::counter_value("eigen.calls").unwrap_or(0)
}

fn main() {
    // The eigen.calls counter (and the daemon's histograms) only move
    // while the process-global recorder is armed.
    mosc_obs::enable();
    let csv = csv_dir_from_args();

    let server = Server::builder().addr("127.0.0.1:0").bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut responses = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut stream = stream;

    // Phase 1 — per-request: every solve re-resolves the platform.
    let before = eigs();
    let mut lat_ms = Vec::with_capacity(ROUNDS * VARIANTS);
    let ((), wall_s) = timed(|| {
        for j in 0..ROUNDS * VARIANTS {
            let line = solve_line(&format!("pr{j}"), 1000 + j);
            let ((), one) = timed(|| {
                roundtrip(&mut stream, &mut responses, &line);
            });
            lat_ms.push(one * 1e3);
        }
    });
    lat_ms.sort_by(f64::total_cmp);
    let per_request =
        Phase { wall_s, count: ROUNDS * VARIANTS, lat_ms, eigen_calls: eigs() - before };

    // Phase 2 — first batch: the resolve interns the platform (one build).
    let before = eigs();
    let line = batch_line("cold", 2000);
    let ((), wall_s) = timed(|| {
        roundtrip(&mut stream, &mut responses, &line);
    });
    let cold = Phase {
        wall_s,
        count: VARIANTS,
        lat_ms: vec![wall_s * 1e3 / VARIANTS as f64],
        eigen_calls: eigs() - before,
    };

    // Phase 3 — warm batches: fresh cache keys every round (real solves),
    // platform straight from the registry.
    let before = eigs();
    let mut lat_ms = Vec::with_capacity(ROUNDS);
    let ((), wall_s) = timed(|| {
        for r in 0..ROUNDS {
            let line = batch_line(&format!("w{r}"), 3000 + r * VARIANTS);
            let ((), one) = timed(|| {
                roundtrip(&mut stream, &mut responses, &line);
            });
            lat_ms.push(one * 1e3 / VARIANTS as f64);
        }
    });
    lat_ms.sort_by(f64::total_cmp);
    let warm = Phase { wall_s, count: ROUNDS * VARIANTS, lat_ms, eigen_calls: eigs() - before };
    assert_eq!(warm.eigen_calls, 0, "a warm solve_batch must do zero eigendecomposition work");

    handle.shutdown();
    join.join().expect("server thread");

    let speedup_x =
        exact_quantile(&per_request.lat_ms, 0.50) / exact_quantile(&warm.lat_ms, 0.50).max(1e-9);

    println!(
        "batched solves — {VARIANTS} variants/batch, {ROUNDS} rounds, \
         per-variant latencies (ms)\n"
    );
    let mut table =
        Table::new(&["mode", "solves", "wall (s)", "p50 (ms)", "p90 (ms)", "max (ms)", "eigs"]);
    quantile_row(&mut table, "per_request", &per_request);
    quantile_row(&mut table, "batch_cold", &cold);
    quantile_row(&mut table, "batch_warm", &warm);
    println!("{}", table.render());
    println!("warm batches solve on the interned platform with zero eigendecompositions;");
    println!("warm per-variant p50 is {speedup_x:.1}x faster than a per-request solve.");

    let meta = RunMeta::capture("batch").option("variants", VARIANTS).option("rounds", ROUNDS);
    let mut log = BenchLog::new(&meta);
    log.push(&record(&per_request, "per_request", None));
    log.push(&record(&cold, "batch_cold", None));
    log.push(&record(&warm, "batch_warm", Some(speedup_x)));
    if let Some(dir) = csv {
        log.write(&dir, "BENCH_batch.json");
    }
}
