//! `mosc-cli` — command-line front end for the scheduler.
//!
//! ```text
//! mosc-cli solve --algo ao --rows 2 --cols 3 --levels 2 --tmax 55 [--out schedule.txt]
//! mosc-cli peak  --rows 2 --cols 3 --tmax 55 --schedule schedule.txt
//! mosc-cli compare --rows 3 --cols 3 --levels 2 --tmax 55
//! mosc-cli trace --rows 1 --cols 3 --tmax 65 --schedule schedule.txt --periods 20 [--out trace.csv]
//! mosc-cli trace access.jsonl flight.jsonl [--trace-id HEX] [--format text|json]
//! mosc-cli analyze spec.json
//! mosc-cli profile spec.json [--obs=json]
//! mosc-cli serve --addr 127.0.0.1:7070 [--access-log FILE] [--slow-ms MS]
//! mosc-cli client --addr 127.0.0.1:7070 [--batch] < requests.jsonl
//! mosc-cli stats --addr 127.0.0.1:7070 [--watch] [--interval-ms MS] [--count N]
//! mosc-cli metrics --addr 127.0.0.1:7070
//! ```
//!
//! Platform flags (shared): `--rows`, `--cols` (grid), `--layers` (3-D
//! stack), `--levels` (Table-IV set, 2–5), `--tmax` (°C), `--cooler`
//! (`default` | `budget` | `responsive`).
//!
//! All solver subcommands go through the unified dispatcher
//! `mosc_core::solve(SolverKind, &Platform, &SolveOptions)`, so any solver
//! name the core knows (`lns`, `exs`, `exs-bnb`, `ao`, `pco`, `governor`)
//! is accepted wherever an algorithm is named.
//!
//! The global `--obs[=pretty|json]` flag arms the `mosc-obs` recorder and
//! appends a telemetry report to any subcommand's output: a span tree with
//! self/total times, the metric table, and the solver decision log
//! (`pretty`, the default), or JSONL suitable for `BENCH_obs.json`-style
//! ingestion and the `M05x` telemetry lints (`json`).
//!
//! `analyze` runs the `mosc-analyze` pass-manager engine over any number of
//! artifact files — platform/schedule/solution specs, standalone schedule
//! text, solve-claim JSON (from `solve --claim` or a serve response), and
//! `.jsonl` telemetry or access-log streams — loading them once into a
//! typed model so the cross-artifact (`M08x`) and concurrency (`M09x`)
//! lints can join across files. Output is rustc-style text, a JSON findings
//! document, or SARIF 2.1.0 (`--format`). Per-code severities come from
//! repeatable `-A/-W/-D CODE` flags (`-D warnings` promotes all warnings)
//! layered over an optional `analyze.toml`; `--write-baseline`/`--baseline`
//! let CI acknowledge existing findings and fail only on new ones. Exit
//! codes are typed: `0` clean or warnings only, `1` denied findings, `2`
//! parse/structural, `4` I/O. See `DESIGN.md` §7 for the code table and
//! §13 for the engine.
//!
//! `profile` builds the platform of a spec file and runs every solver on
//! it — LNS, EXS, EXS-BnB, AO, PCO and the reactive governor — resetting
//! the recorder between solvers, so each section's telemetry (and the
//! closing comparison table) is attributable to one algorithm. A closing
//! period-map scaling section evaluates one two-mode schedule at
//! oscillation factors m ∈ {1, 64, 256} through both the modal kernel and
//! the interval-by-interval dense reference: the kernel's dense-op count
//! must stay flat in m while the reference's grows linearly, which the
//! `ci.sh` smoke asserts from the `{"type":"periodmap",...}` JSON lines.
//!
//! `serve` starts the `mosc-serve` daemon (newline-delimited JSON over
//! TCP; see DESIGN.md §11), and `client` is its line-oriented companion:
//! stdin lines become request lines, each response line is printed to
//! stdout — the zero-dependency stand-in for `nc` in scripts and `ci.sh`.
//! `client --batch` folds stdin's solve lines (which must share one
//! platform) into a single `solve_batch` request, so the daemon resolves
//! the platform once through its interning registry; the per-variant
//! results still print one per line.
//! `--access-log FILE` appends one JSONL line per completed request (the
//! `M07x` lints analyze it), and requests slower than `--slow-ms` carry
//! their solver span tree in that line.
//!
//! The v2 protocol threads a distributed-trace identity through all of
//! this: `client --trace` stamps each request with a fresh 128-bit trace
//! id (reported on stderr), the daemon continues it into per-request
//! server spans (batch variants become children of the dispatch span),
//! and every access-log line carries `trace_id`/`span_id`/`parent_id`.
//! `serve --flight-dump FILE` arms a lock-light in-memory flight ring of
//! request milestones; anomalies (deadline exceeded, queue saturation,
//! slow requests, worker panics) snapshot it into `flight_dump` JSONL
//! lines. `trace FILE...` (without `--schedule`) joins those artifacts by
//! trace id into per-trace waterfalls, and the `M120`–`M124` analyzer
//! lints check the identities line up.
//!
//! `stats` queries a running daemon's `stats` op and renders a one-screen
//! service summary — request/response counters, cache hit rate, queue
//! depth, req/s and latency quantiles; `--watch` redraws it every
//! `--interval-ms` (optionally `--count` times). `metrics` fetches the
//! `metrics` op and prints the raw Prometheus text exposition, ready to
//! pipe into a file a Prometheus instance scrapes via textfile collection.
//!
//! Exit codes: `0` success, `1` internal/solver failure, `2` usage error,
//! `3` infeasible instance, `4` I/O error. (`analyze` keeps exiting `1`
//! when error-severity findings are present — that is a verdict, not a
//! failure of the tool.)

use mosc::prelude::*;
use mosc::sched::eval::transient_trace;
use mosc::sched::text;
use std::io::{BufRead, Write};
use std::process::ExitCode;

/// A CLI failure, classified for the process exit code.
#[derive(Debug)]
enum CliError {
    /// Bad flags, unknown names, malformed values → exit 2 (plus usage).
    Usage(String),
    /// The instance has no feasible schedule → exit 3.
    Infeasible(String),
    /// Filesystem or socket trouble → exit 4.
    Io(String),
    /// Anything else (solver internals) → exit 1.
    Other(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            Self::Usage(m) | Self::Infeasible(m) | Self::Io(m) | Self::Other(m) => m,
        }
    }

    fn exit_code(&self) -> u8 {
        match self {
            Self::Other(_) => 1,
            Self::Usage(_) => 2,
            Self::Infeasible(_) => 3,
            Self::Io(_) => 4,
        }
    }
}

/// Classifies a solver failure: infeasibility and bad options are the
/// caller's problem, everything else is the tool's.
fn algo_error(context: &str, e: &AlgoError) -> CliError {
    let msg = format!("{context} failed: {e}");
    match e {
        AlgoError::Infeasible { .. } => CliError::Infeasible(msg),
        AlgoError::InvalidOptions { .. } => CliError::Usage(msg),
        _ => CliError::Other(msg),
    }
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    /// Whether a bare (valueless) flag like `--watch` is present.
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(s) => {
                s.parse().map_err(|_| CliError::Usage(format!("cannot parse {name} value '{s}'")))
            }
        }
    }

    /// A path-valued flag, or an error when the flag is present without a
    /// usable value (previously that case fell through silently).
    fn path_flag(&self, name: &str) -> Result<Option<&str>, CliError> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => match self.0.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v)),
                _ => Err(CliError::Usage(format!("{name} needs a file path"))),
            },
        }
    }

    /// The `--out` target.
    fn out_path(&self) -> Result<Option<&str>, CliError> {
        self.path_flag("--out")
    }
}

/// What the `--obs` flag asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObsMode {
    Off,
    Pretty,
    Json,
}

fn parse_obs(argv: &[String]) -> Result<ObsMode, CliError> {
    for a in argv {
        match a.as_str() {
            "--obs" | "--obs=pretty" => return Ok(ObsMode::Pretty),
            "--obs=json" => return Ok(ObsMode::Json),
            other => {
                if let Some(rest) = other.strip_prefix("--obs=") {
                    return Err(CliError::Usage(format!(
                        "unknown --obs format '{rest}' (expected pretty or json)"
                    )));
                }
            }
        }
    }
    Ok(ObsMode::Off)
}

/// Prints the recorder's current snapshot in the requested format.
fn emit_obs(mode: ObsMode) {
    let telemetry = mosc::obs::snapshot();
    match mode {
        ObsMode::Off => {}
        ObsMode::Pretty => {
            println!();
            print!("{}", telemetry.render_pretty());
        }
        ObsMode::Json => print!("{}", telemetry.to_jsonl()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "usage:
  mosc-cli solve   --algo <lns|exs|exs-bnb|ao|pco|governor> [platform flags] [--out FILE]
                   [--claim FILE]  (write the solution-claim JSON `analyze` verifies)
  mosc-cli peak    --schedule FILE [platform flags]
  mosc-cli compare [platform flags]
  mosc-cli trace   --schedule FILE [--periods N] [--out FILE] [platform flags]
  mosc-cli trace   FILE.jsonl...  [--trace-id HEX] [--format text|json]
                   (join access logs + flight dumps by trace id into waterfalls)
  mosc-cli analyze FILE...  (spec.json, schedule.txt, claim.json, *.jsonl streams)
                   [-A|-W|-D CODE]... [-D warnings] [--format text|json|sarif]
                   [--baseline FILE] [--write-baseline FILE] [--config FILE | --no-config]
  mosc-cli profile SPEC.json
  mosc-cli serve   [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] [--deadline-ms MS]
                   [--access-log FILE] [--slow-ms MS] [--timeline FILE] [--timeline-window-ms MS]
                   [--idle-timeout-ms MS] [--flight-dump FILE] [--flight-capacity N]
                   (unix only)
  mosc-cli client  [--addr HOST:PORT] [--batch] [--trace]  (stdin request lines -> stdout
                   response lines; --batch folds solve lines sharing one platform into a
                   single solve_batch; --trace stamps fresh trace ids, reported on stderr)
  mosc-cli stats   [--addr HOST:PORT] [--watch] [--interval-ms MS] [--count N]
  mosc-cli metrics [--addr HOST:PORT]  (print the Prometheus text exposition)
global: --obs[=pretty|json]  append a mosc-obs telemetry report to the output
platform flags: --rows R --cols C [--layers L] [--levels 2..5] --tmax C [--cooler default|budget|responsive]
exit codes: 0 ok, 1 failure, 2 usage, 3 infeasible, 4 I/O
            (analyze: 0 clean/warnings, 1 denied findings, 2 parse, 4 I/O)";

fn run() -> Result<ExitCode, CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    let obs_mode = parse_obs(&argv)?;
    if obs_mode != ObsMode::Off {
        mosc::obs::enable();
    }
    let args = Args(argv);

    // These subcommands don't take platform flags: `analyze` and `profile`
    // build their platform from the spec file, `serve`/`client` speak the
    // wire protocol.
    match cmd.as_str() {
        "analyze" => return analyze(&args),
        "profile" => return profile(&args, obs_mode),
        #[cfg(unix)]
        "serve" => {
            // Emit the telemetry window after the daemon drains: the
            // resulting JSONL is what the M060-M062 serve lints analyze.
            let code = serve(&args)?;
            emit_obs(obs_mode);
            return Ok(code);
        }
        "client" => return client(&args),
        "stats" => return stats(&args),
        "metrics" => return metrics(&args),
        // `trace` is two tools: with `--schedule` it is the legacy thermal
        // transient trace (a platform subcommand, handled below); with
        // artifact paths it joins access logs and flight dumps by trace id
        // into a per-trace waterfall.
        "trace" if !args.has("--schedule") => return trace_join(&args),
        _ => {}
    }

    let platform = build_platform(&args)?;
    let code = match cmd.as_str() {
        "solve" => solve(&args, &platform),
        "peak" => peak(&args, &platform),
        "compare" => {
            compare(&platform);
            Ok(())
        }
        "trace" => trace(&args, &platform),
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
    .map(|()| ExitCode::SUCCESS)?;
    emit_obs(obs_mode);
    Ok(code)
}

/// One summary row: name, wall seconds, `expm.calls`, `peak_eval.calls`, outcome.
type ProfileRow = (&'static str, f64, u64, u64, Result<Solution, String>);

/// Runs every solver on the spec's platform, one recorder window each, and
/// closes with a comparison table (pretty) or per-solver JSONL blocks.
fn profile(args: &Args, mode: ObsMode) -> Result<ExitCode, CliError> {
    let path = args
        .0
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("profile needs a SPEC.json path".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let platform = mosc::analyze::platform_from_spec(&text)
        .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
    // Profiling is pointless without the recorder; default to pretty.
    let json = mode == ObsMode::Json;
    mosc::obs::enable();

    // A short governor horizon: each modal step is cheap, but the default
    // 300 s horizon is still 60k steps.
    let opts = SolveOptions {
        governor: mosc::algorithms::reactive::GovernorOptions {
            control_period: 0.01,
            horizon: 30.0,
            warmup: 15.0,
            ..mosc::algorithms::reactive::GovernorOptions::default()
        },
        ..SolveOptions::default()
    };

    let mut summary: Vec<ProfileRow> = Vec::new();
    // Discard anything recorded before the first window (e.g. by spec
    // parsing); each `drain()` below then extracts exactly one solver's
    // telemetry and atomically clears the recorder for the next one.
    let _ = mosc::obs::drain();
    for kind in SolverKind::all() {
        let name = kind.label();
        let start = std::time::Instant::now();
        let result = mosc::algorithms::solve(kind, &platform, &opts)
            .map(|r| r.solution)
            .map_err(|e| e.to_string());
        let wall = start.elapsed().as_secs_f64();
        let telemetry = mosc::obs::drain();
        let expm = telemetry.counter("expm.calls").unwrap_or(0);
        let peaks = telemetry.counter("peak_eval.calls").unwrap_or(0);
        if json {
            match &result {
                Ok(s) => println!(
                    "{{\"type\":\"profile\",\"solver\":{},\"wall_s\":{wall:?},\
                     \"throughput\":{:?},\"peak_c\":{:?},\"feasible\":{}}}",
                    json_quote(name),
                    s.throughput,
                    s.peak_c(&platform),
                    s.feasible
                ),
                Err(e) => println!(
                    "{{\"type\":\"profile\",\"solver\":{},\"wall_s\":{wall:?},\"error\":{}}}",
                    json_quote(name),
                    json_quote(e)
                ),
            }
            print!("{}", telemetry.to_jsonl());
        } else {
            println!("=== {name} ===");
            match &result {
                Ok(s) => println!(
                    "throughput {:.4}, peak {:.2} C, feasible {}, m = {}, wall {:.3} s",
                    s.throughput,
                    s.peak_c(&platform),
                    s.feasible,
                    s.m,
                    wall
                ),
                Err(e) => println!("failed: {e} (wall {wall:.3} s)"),
            }
            print!("{}", telemetry.render_pretty());
            println!();
        }
        summary.push((name, wall, expm, peaks, result));
    }

    if !json {
        println!(
            "{:<9} {:>9} {:>11} {:>15} {:>10}",
            "solver", "wall (s)", "expm.calls", "peak_eval.calls", "throughput"
        );
        for (name, wall, expm, peaks, result) in &summary {
            match result {
                Ok(s) => {
                    println!("{name:<9} {wall:>9.3} {expm:>11} {peaks:>15} {:>10.4}", s.throughput);
                }
                Err(_) => println!("{name:<9} {wall:>9.3} {expm:>11} {peaks:>15} {:>10}", "failed"),
            }
        }
        println!();
    }
    periodmap_section(&platform, json)?;
    Ok(ExitCode::SUCCESS)
}

/// The dense-op counters of the current recorder window: the modal kernel's
/// basis changes plus any full dense products.
fn dense_ops(t: &mosc::obs::Telemetry) -> u64 {
    t.counter("period_map.matmuls").unwrap_or(0) + t.counter("linalg.matmuls").unwrap_or(0)
}

/// The period-map scaling section of `profile`: one two-mode schedule
/// evaluated at m ∈ {1, 64, 256} through the modal kernel
/// (`SteadyState::compute`) and the interval-by-interval dense reference
/// (`compute_dense`), with each side's dense-op and `expm.calls` counters.
/// Both sides must agree on the steady state; the kernel's dense work must
/// not grow with m.
fn periodmap_section(platform: &Platform, json: bool) -> Result<ExitCode, CliError> {
    let n = platform.n_cores();
    let levels = platform.modes().levels();
    let (v_low, v_high) = (levels[0], *levels.last().expect("mode sets are non-empty"));
    let base = Schedule::two_mode(&vec![v_low; n], &vec![v_high; n], &vec![0.5; n], 0.05)
        .map_err(|e| CliError::Other(format!("period-map schedule: {e}")))?;
    if !json {
        println!("=== period-map scaling (two-mode schedule, oscillated) ===");
        println!(
            "{:>5} {:>9} {:>10} {:>10} {:>10} {:>11} {:>11} {:>10}",
            "m",
            "fast ops",
            "fast expm",
            "fast (s)",
            "dense ops",
            "dense expm",
            "dense (s)",
            "max |diff|"
        );
    }
    // Discard whatever the caller left in the recorder, then take one
    // drained window per kernel so the two sides' counters can't bleed.
    let _ = mosc::obs::drain();
    for &m in &[1usize, 64, 256] {
        let s = base.oscillated(m);
        let start = std::time::Instant::now();
        let fast =
            mosc::sched::eval::SteadyState::compute(platform.thermal(), platform.power(), &s)
                .map_err(|e| CliError::Other(format!("period-map fast path (m = {m}): {e}")))?;
        let fast_wall = start.elapsed().as_secs_f64();
        let t = mosc::obs::drain();
        let (fast_ops, fast_expm) = (dense_ops(&t), t.counter("expm.calls").unwrap_or(0));

        let start = std::time::Instant::now();
        let (dense_start, _) =
            mosc::sched::eval::compute_dense(platform.thermal(), platform.power(), &s).map_err(
                |e| CliError::Other(format!("period-map dense reference (m = {m}): {e}")),
            )?;
        let dense_wall = start.elapsed().as_secs_f64();
        let t = mosc::obs::drain();
        let (dense_ops, dense_expm) = (dense_ops(&t), t.counter("expm.calls").unwrap_or(0));

        let diff = fast.t_start().max_abs_diff(&dense_start);
        if diff > 1e-8 {
            return Err(CliError::Other(format!(
                "period-map kernel diverges from the dense reference at m = {m}: {diff}"
            )));
        }
        if json {
            println!(
                "{{\"type\":\"periodmap\",\"m\":{m},\"fast_ops\":{fast_ops},\
                 \"fast_expm\":{fast_expm},\"fast_wall_s\":{fast_wall:?},\
                 \"dense_ops\":{dense_ops},\"dense_expm\":{dense_expm},\
                 \"dense_wall_s\":{dense_wall:?},\"max_abs_diff\":{diff:?}}}"
            );
        } else {
            println!(
                "{m:>5} {fast_ops:>9} {fast_expm:>10} {fast_wall:>10.6} \
                 {dense_ops:>10} {dense_expm:>11} {dense_wall:>11.6} {diff:>10.2e}"
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Minimal JSON string quoting for the profile header lines.
fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything `mosc-cli analyze` parses out of its argument list.
struct AnalyzeArgs {
    paths: Vec<String>,
    levels: Vec<(mosc::analyze::Code, mosc::analyze::pass::LintLevel)>,
    deny_warnings: bool,
    format: String,
    baseline: Option<String>,
    write_baseline: Option<String>,
    config: Option<String>,
    no_config: bool,
}

fn parse_analyze_args(args: &Args) -> Result<AnalyzeArgs, CliError> {
    use mosc::analyze::pass::LintLevel;
    use mosc::analyze::Code;
    let mut out = AnalyzeArgs {
        paths: Vec::new(),
        levels: Vec::new(),
        deny_warnings: false,
        format: "text".to_owned(),
        baseline: None,
        write_baseline: None,
        config: None,
        no_config: false,
    };
    let rest = &args.0[1..];
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        let mut value = |what: &str| -> Result<String, CliError> {
            i += 1;
            rest.get(i).cloned().ok_or_else(|| CliError::Usage(format!("{a} needs {what}")))
        };
        match a {
            "-A" | "--allow" | "-W" | "--warn" | "-D" | "--deny" => {
                let level = match a {
                    "-A" | "--allow" => LintLevel::Allow,
                    "-W" | "--warn" => LintLevel::Warn,
                    _ => LintLevel::Deny,
                };
                let v = value("a lint code")?;
                if v == "warnings" {
                    if level != LintLevel::Deny {
                        return Err(CliError::Usage(format!(
                            "'warnings' only combines with -D/--deny, not {a}"
                        )));
                    }
                    out.deny_warnings = true;
                } else {
                    let code = Code::parse(&v).ok_or_else(|| {
                        CliError::Usage(format!("unknown lint code '{v}' (expected M0xx)"))
                    })?;
                    out.levels.push((code, level));
                }
            }
            "--format" => out.format = value("text, json or sarif")?,
            "--baseline" => out.baseline = Some(value("a file path")?),
            "--write-baseline" => out.write_baseline = Some(value("a file path")?),
            "--config" => out.config = Some(value("a file path")?),
            "--no-config" => out.no_config = true,
            // The global --obs flag is handled by `run`; skip it here.
            obs if obs == "--obs" || obs.starts_with("--obs=") => {}
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown analyze flag '{flag}'")));
            }
            path => out.paths.push(path.to_owned()),
        }
        i += 1;
    }
    if out.paths.is_empty() {
        return Err(CliError::Usage("analyze needs at least one artifact path".into()));
    }
    Ok(out)
}

/// `mosc-cli analyze`: load every artifact into the typed model, run the
/// pass registry, apply severity configuration and the baseline, render.
///
/// Exit codes: `0` clean or warnings only, `1` error-severity findings,
/// `2` parse/structural failure in an artifact, `4` I/O failure.
fn analyze(args: &Args) -> Result<ExitCode, CliError> {
    use mosc::analyze::artifact::Artifacts;
    use mosc::analyze::{output, pass};
    let parsed = parse_analyze_args(args)?;

    // analyze.toml: explicit --config, else ./analyze.toml when present
    // (suppressed by --no-config). CLI flags layer on top.
    let toml_path = match (&parsed.config, parsed.no_config) {
        (Some(p), _) => Some(p.clone()),
        (None, true) => None,
        (None, false) => {
            std::path::Path::new("analyze.toml").exists().then(|| "analyze.toml".to_owned())
        }
    };
    let mut cfg = match &toml_path {
        None => pass::Config::new(),
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| CliError::Io(format!("cannot read {p}: {e}")))?;
            pass::Config::from_toml(&text).map_err(|e| CliError::Usage(e.to_string()))?
        }
    };
    for (code, level) in parsed.levels {
        cfg.set_level(code, level);
    }
    if parsed.deny_warnings {
        cfg.deny_warnings = true;
    }

    let mut inputs = Vec::with_capacity(parsed.paths.len());
    for path in &parsed.paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
        inputs.push((path.clone(), text));
    }
    let artifacts = Artifacts::load(&inputs).map_err(|e| CliError::Usage(e.to_string()))?;
    let configured = cfg.apply(&pass::run_passes(&artifacts));

    if let Some(out) = &parsed.write_baseline {
        std::fs::write(out, pass::render_baseline(&configured))
            .map_err(|e| CliError::Io(format!("cannot write baseline to '{out}': {e}")))?;
        println!("baseline ({} finding(s)) written to {out}", configured.diagnostics().len());
        return Ok(ExitCode::SUCCESS);
    }
    let report = match parsed.baseline.as_ref().or(cfg.baseline.as_ref()) {
        None => configured,
        Some(bp) => {
            let text = std::fs::read_to_string(bp)
                .map_err(|e| CliError::Io(format!("cannot read baseline {bp}: {e}")))?;
            pass::apply_baseline(&configured, &pass::parse_baseline(&text))
        }
    };

    match parsed.format.as_str() {
        "text" => print!("{}", report.render()),
        "json" => print!("{}", output::render_json(&report)),
        "sarif" => print!("{}", output::render_sarif(&report)),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --format '{other}' (expected text, json or sarif)"
            )))
        }
    }
    if report.has_errors() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `mosc-cli serve`: run the solve daemon until a `shutdown` op arrives,
/// then drain and exit.
#[cfg(unix)]
fn serve(args: &Args) -> Result<ExitCode, CliError> {
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:7070").to_owned();
    let mut builder = mosc::serve::Server::builder()
        .addr(addr.clone())
        .workers(args.parse_or("--workers", 0usize)?)
        .queue_capacity(args.parse_or("--queue", 64usize)?)
        .cache_capacity(args.parse_or("--cache", 128usize)?)
        .slow_threshold({
            let ms: f64 = args.parse_or("--slow-ms", 100.0)?;
            if !ms.is_finite() || ms < 0.0 {
                return Err(CliError::Usage("--slow-ms must be >= 0".into()));
            }
            std::time::Duration::try_from_secs_f64(ms / 1e3)
                .map_err(|_| CliError::Usage("--slow-ms is too large".into()))?
        })
        .timeline_window({
            let ms: f64 = args.parse_or("--timeline-window-ms", 1000.0)?;
            if !ms.is_finite() || ms <= 0.0 {
                return Err(CliError::Usage("--timeline-window-ms must be > 0".into()));
            }
            std::time::Duration::try_from_secs_f64(ms / 1e3)
                .map_err(|_| CliError::Usage("--timeline-window-ms is too large".into()))?
        });
    if let Some(s) = args.flag("--deadline-ms") {
        let ms: f64 = s
            .parse()
            .map_err(|_| CliError::Usage(format!("cannot parse --deadline-ms value '{s}'")))?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(CliError::Usage("--deadline-ms must be >= 0".into()));
        }
        let deadline = std::time::Duration::try_from_secs_f64(ms / 1e3)
            .map_err(|_| CliError::Usage("--deadline-ms is too large".into()))?;
        builder = builder.default_deadline(deadline);
    }
    if let Some(s) = args.flag("--idle-timeout-ms") {
        let ms: f64 = s
            .parse()
            .map_err(|_| CliError::Usage(format!("cannot parse --idle-timeout-ms value '{s}'")))?;
        if !ms.is_finite() || ms <= 0.0 {
            return Err(CliError::Usage("--idle-timeout-ms must be > 0".into()));
        }
        let idle = std::time::Duration::try_from_secs_f64(ms / 1e3)
            .map_err(|_| CliError::Usage("--idle-timeout-ms is too large".into()))?;
        builder = builder.idle_timeout(idle);
    }
    if let Some(path) = args.flag("--access-log") {
        builder = builder.access_log(path);
    }
    if let Some(path) = args.flag("--timeline") {
        builder = builder.timeline(path);
    }
    if let Some(path) = args.flag("--flight-dump") {
        builder = builder.flight_dump(path);
        let capacity: usize =
            args.parse_or("--flight-capacity", mosc::obs::DEFAULT_FLIGHT_CAPACITY)?;
        if capacity == 0 {
            return Err(CliError::Usage("--flight-capacity must be > 0".into()));
        }
        builder = builder.flight_capacity(capacity);
    }
    let server = builder.bind().map_err(|e| CliError::Io(format!("cannot bind {addr}: {e}")))?;
    println!("mosc-serve listening on {}", server.local_addr());
    // Scripts wait for the line above before connecting.
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| CliError::Io(format!("serve: {e}")))?;
    println!("mosc-serve drained and stopped");
    Ok(ExitCode::SUCCESS)
}

/// `mosc-cli client`: forward stdin lines to a running daemon, printing
/// one response line per request — the portable replacement for `nc`.
///
/// `--batch` changes the framing, not the input format: the stdin lines
/// (plain solve requests sharing one platform) are folded into a single
/// `solve_batch` request, so the daemon resolves the platform once through
/// its interning registry, and the per-variant results are printed one per
/// line — same line count as without the flag.
fn client(args: &Args) -> Result<ExitCode, CliError> {
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:7070");
    let io_err = |what: &'static str| {
        let addr = addr.to_owned();
        move |e: std::io::Error| CliError::Io(format!("client {what} {addr}: {e}"))
    };
    let mut stream = std::net::TcpStream::connect(addr).map_err(io_err("cannot connect to"))?;
    // One small request per write: without TCP_NODELAY, Nagle + delayed ACK
    // add tens of milliseconds of idle-link latency to every round trip.
    stream.set_nodelay(true).map_err(io_err("cannot set TCP_NODELAY on"))?;
    let read_half = stream.try_clone().map_err(io_err("cannot clone socket for"))?;
    let mut responses = std::io::BufReader::new(read_half);
    let trace = args.has("--trace");
    let stdin = std::io::stdin();
    if args.has("--batch") {
        return client_batch(&mut stream, &mut responses, addr, trace);
    }
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let mut line = line.map_err(|e| CliError::Io(format!("client stdin: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        if trace {
            line = originate_trace(&line, lineno + 1)?;
        }
        line.push('\n');
        stream.write_all(line.as_bytes()).map_err(io_err("cannot send to"))?;
        let mut response = String::new();
        let n = responses.read_line(&mut response).map_err(io_err("cannot read from"))?;
        if n == 0 {
            return Err(CliError::Io(format!("client: {addr} closed the connection")));
        }
        print!("{response}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `client --trace`: stamps a solve or `solve_batch` line with a fresh root
/// trace context (the line's own context wins when it already carries one)
/// and reports the originated trace id on stderr so scripts can join the
/// daemon's access log and flight dumps against it with `mosc-cli trace`.
fn originate_trace(line: &str, lineno: usize) -> Result<String, CliError> {
    use mosc::serve::{Request, TraceContext};
    let parsed = mosc::serve::parse_request(line)
        .map_err(|e| CliError::Usage(format!("stdin line {lineno}: {e}")))?;
    let root = || TraceContext {
        trace_id: mosc::serve::fresh_trace_id(),
        parent_id: mosc::serve::fresh_span_id(),
    };
    let stamped = match parsed {
        Request::Solve(mut req) => {
            let ctx = *req.trace.get_or_insert_with(root);
            eprintln!("trace {:032x} (line {lineno}, id {})", ctx.trace_id, req.id);
            Request::Solve(req)
        }
        Request::SolveBatch(mut req) => {
            let ctx = *req.trace.get_or_insert_with(root);
            eprintln!("trace {:032x} (line {lineno}, id {})", ctx.trace_id, req.id);
            Request::SolveBatch(req)
        }
        // Protocol ops carry no trace context; forward them untouched.
        other => other,
    };
    Ok(stamped.to_json())
}

/// The `client --batch` path: fold stdin's solve lines into one
/// `solve_batch` request and unpack the framed response.
fn client_batch(
    stream: &mut std::net::TcpStream,
    responses: &mut std::io::BufReader<std::net::TcpStream>,
    addr: &str,
    trace: bool,
) -> Result<ExitCode, CliError> {
    use mosc::serve::proto::canonical_json;
    use mosc::serve::{BatchRequest, BatchVariantRequest, Request};
    let mut batch: Option<BatchRequest> = None;
    let mut shared_platform = String::new();
    let stdin = std::io::stdin();
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| CliError::Io(format!("client stdin: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let parsed = mosc::serve::parse_request(&line)
            .map_err(|e| CliError::Usage(format!("stdin line {}: {e}", lineno + 1)))?;
        let Request::Solve(req) = parsed else {
            return Err(CliError::Usage(format!(
                "stdin line {}: --batch folds plain solve lines; protocol ops are not batchable",
                lineno + 1
            )));
        };
        let platform = canonical_json(&req.platform);
        let variant = BatchVariantRequest {
            kind: req.kind,
            options: req.options,
            want_schedule: req.want_schedule,
        };
        match &mut batch {
            None => {
                shared_platform = platform;
                // The first line's id names the batch; variant i answers
                // as "<id>#<i>". The first line's trace context (if any)
                // becomes the whole batch's.
                batch = Some(BatchRequest {
                    id: req.id,
                    platform: req.platform,
                    variants: vec![variant],
                    trace: req.trace,
                });
            }
            Some(b) => {
                if platform != shared_platform {
                    return Err(CliError::Usage(format!(
                        "stdin line {}: --batch needs one shared platform, but this line's \
                         platform differs from line 1's",
                        lineno + 1
                    )));
                }
                b.variants.push(variant);
            }
        }
    }
    let Some(mut batch) = batch else {
        return Err(CliError::Usage("--batch got no request lines on stdin".into()));
    };
    if trace {
        let ctx = *batch.trace.get_or_insert_with(|| mosc::serve::TraceContext {
            trace_id: mosc::serve::fresh_trace_id(),
            parent_id: mosc::serve::fresh_span_id(),
        });
        eprintln!("trace {:032x} (batch {})", ctx.trace_id, batch.id);
    }
    let mut line = Request::SolveBatch(batch.clone()).to_json();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| CliError::Io(format!("cannot send to {addr}: {e}")))?;
    let mut response = String::new();
    let n = responses
        .read_line(&mut response)
        .map_err(|e| CliError::Io(format!("cannot read from {addr}: {e}")))?;
    if n == 0 {
        return Err(CliError::Io(format!("client: {addr} closed the connection")));
    }
    let doc = mosc::analyze::json::Value::parse(&response)
        .map_err(|e| CliError::Other(format!("{addr} sent malformed JSON: {e}")))?;
    match doc.get("results").and_then(mosc::analyze::json::Value::as_array) {
        // One result line per stdin request, like the unbatched path —
        // plus the batch verdict (registry state) on stderr for scripts.
        Some(results) => {
            if let Some(registry) = doc.get("registry").and_then(mosc::analyze::json::Value::as_str)
            {
                eprintln!("batch {}: registry {registry}, {} variant(s)", batch.id, results.len());
            }
            for r in results {
                println!("{}", mosc::analyze::json::value_to_json(r));
            }
        }
        // Errors (overloaded, usage) come back unframed; pass them through.
        None => print!("{response}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// One persistent request/response connection to a running daemon, used by
/// `stats` and `metrics` (repeated polls reuse the socket so `--watch`
/// doesn't pay a connect per frame).
struct WireClient {
    addr: String,
    stream: std::net::TcpStream,
    responses: std::io::BufReader<std::net::TcpStream>,
}

impl WireClient {
    fn connect(addr: &str) -> Result<Self, CliError> {
        let io_err = |what: &str, e: std::io::Error| CliError::Io(format!("{what} {addr}: {e}"));
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| io_err("cannot connect to", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("cannot set TCP_NODELAY on", e))?;
        let read_half = stream.try_clone().map_err(|e| io_err("cannot clone socket for", e))?;
        Ok(Self { addr: addr.to_owned(), stream, responses: std::io::BufReader::new(read_half) })
    }

    /// Sends one request line and parses the one-line JSON response.
    fn request(&mut self, line: &str) -> Result<mosc::analyze::json::Value, CliError> {
        let addr = &self.addr;
        let mut line = line.to_owned();
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| CliError::Io(format!("cannot send to {addr}: {e}")))?;
        let mut response = String::new();
        let n = self
            .responses
            .read_line(&mut response)
            .map_err(|e| CliError::Io(format!("cannot read from {addr}: {e}")))?;
        if n == 0 {
            return Err(CliError::Io(format!("{addr} closed the connection")));
        }
        mosc::analyze::json::Value::parse(&response)
            .map_err(|e| CliError::Other(format!("{addr} sent malformed JSON: {e}")))
    }
}

/// Renders one `stats` payload as the fixed-height summary `--watch` redraws.
fn render_stats(addr: &str, stats: &mosc::analyze::json::Value) -> String {
    let num =
        |key: &str| stats.get(key).and_then(mosc::analyze::json::Value::as_f64).unwrap_or(0.0);
    let int = |key: &str| num(key) as u64;
    let (hits, misses) = (num("cache_hits"), num("cache_misses"));
    let hit_rate = if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 };
    let mut out = format!(
        "mosc-serve {addr}  up {:.1} s\n\
         requests   {:>8}   responses {:>8}   req/s {:>8.1}\n\
         rejected   {:>8}   deadline+ {:>8}   malformed {:>4}\n\
         cache      {:>8} hit / {} miss ({hit_rate:.1}% hit, {} evicted, {} live)\n\
         queue      {:>8} deep (peak {})\n\
         latency ms {:>8.2} p50 {:>10.2} p90 {:>10.2} p99 {:>10.2} p999 {:>9.2} max\n",
        num("uptime_s"),
        int("requests"),
        int("responses"),
        num("req_per_s"),
        int("rejected"),
        int("deadline_exceeded"),
        int("malformed"),
        int("cache_hits"),
        int("cache_misses"),
        int("cache_evictions"),
        int("cache_len"),
        int("queue_depth"),
        int("queue_peak"),
        num("p50_ms"),
        num("p90_ms"),
        num("p99_ms"),
        num("p999_ms"),
        num("max_ms"),
    );
    // The slowest-bucket exemplar, when the daemon has one: the trace id to
    // feed `mosc-cli trace` for a worked example of the tail latency.
    if let Some(t) = stats.get("slow_exemplar").and_then(mosc::analyze::json::Value::as_str) {
        out.push_str(&format!("slow trace {t}\n"));
    }
    out
}

/// `mosc-cli stats`: poll a running daemon's `stats` op and render a live
/// service summary. Plain single shot by default; `--watch` redraws every
/// `--interval-ms` (clearing the screen only when stdout is a terminal),
/// `--count N` bounds the number of frames (useful in scripts).
fn stats(args: &Args) -> Result<ExitCode, CliError> {
    use std::io::IsTerminal;
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:7070");
    let watch = args.has("--watch");
    let interval_ms: u64 = args.parse_or("--interval-ms", 1000u64)?;
    let frames: u64 = args.parse_or("--count", if watch { 0 } else { 1 })?;
    let tty = std::io::stdout().is_terminal();
    let mut client = WireClient::connect(addr)?;
    let mut served = 0u64;
    loop {
        let doc = client
            .request(&mosc::serve::Request::Stats { id: "cli-stats".to_owned() }.to_json())?;
        let stats = doc
            .get("stats")
            .ok_or_else(|| CliError::Other(format!("{addr}: stats response has no payload")))?;
        let frame = render_stats(addr, stats);
        if watch && tty {
            // Home + clear-below keeps the frame flicker-free; a full clear
            // would blank the screen between polls.
            print!("\x1b[H\x1b[J{frame}");
        } else {
            print!("{frame}");
        }
        let _ = std::io::stdout().flush();
        served += 1;
        if !watch || (frames > 0 && served >= frames) {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

/// `mosc-cli metrics`: fetch the `metrics` op once and print the decoded
/// Prometheus text exposition to stdout.
fn metrics(args: &Args) -> Result<ExitCode, CliError> {
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:7070");
    let mut client = WireClient::connect(addr)?;
    let doc = client
        .request(&mosc::serve::Request::Metrics { id: "cli-metrics".to_owned() }.to_json())?;
    let text = doc
        .get("metrics")
        .and_then(mosc::analyze::json::Value::as_str)
        .ok_or_else(|| CliError::Other(format!("{addr}: metrics response has no payload")))?;
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

/// One access-log entry's server span, as joined by `mosc-cli trace`.
struct JoinSpan {
    span_id: String,
    parent_id: Option<String>,
    op: String,
    id: String,
    status: String,
    start_s: Option<f64>,
    total_s: Option<f64>,
    source: String,
}

/// One flight-ring milestone attributed to a trace. `seq` is the ring's
/// global sequence number: overlapping dumps re-export the same slots, so
/// the joiner dedups on it.
struct JoinEvent {
    seq: u64,
    span_id: String,
    kind: String,
    t_us: f64,
    value: f64,
    reason: String,
}

/// `mosc-cli trace FILE...`: joins access-log and flight-dump JSONL
/// artifacts by trace id and renders each trace as a waterfall — server
/// spans indented under their parents with offset/duration bars, followed
/// by the flight-ring milestones the daemon dumped for that trace.
/// `--trace-id HEX` narrows to one trace; `--format json` emits one
/// `{"type":"trace",...}` line per trace instead of text.
fn trace_join(args: &Args) -> Result<ExitCode, CliError> {
    use mosc::analyze::json::Value;
    use std::collections::BTreeMap;
    let mut paths: Vec<&str> = Vec::new();
    let mut want_trace: Option<&str> = None;
    let mut format = "text";
    let rest = &args.0[1..];
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--trace-id" | "--format" => {
                let flag = rest[i].as_str();
                i += 1;
                let v = rest
                    .get(i)
                    .map(String::as_str)
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
                if flag == "--trace-id" {
                    want_trace = Some(v);
                } else {
                    format = v;
                }
            }
            obs if obs == "--obs" || obs.starts_with("--obs=") => {}
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown trace flag '{flag}' (artifact-join mode; --schedule selects \
                     the thermal transient trace)"
                )));
            }
            path => paths.push(path),
        }
        i += 1;
    }
    if paths.is_empty() {
        return Err(CliError::Usage(
            "trace needs artifact paths (access log / flight dump JSONL) or --schedule FILE".into(),
        ));
    }
    if format != "text" && format != "json" {
        return Err(CliError::Usage(format!(
            "unknown --format '{format}' (expected text or json)"
        )));
    }

    // trace id -> (spans, flight events), deterministically ordered.
    let mut traces: BTreeMap<String, (Vec<JoinSpan>, Vec<JoinEvent>)> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = Value::parse(line) else { continue };
            let str_of =
                |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(String::from);
            let num_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
            match v.get("type").and_then(Value::as_str) {
                Some("access") => {
                    let (Some(trace_id), Some(span_id)) =
                        (str_of(&v, "trace_id"), str_of(&v, "span_id"))
                    else {
                        continue;
                    };
                    traces.entry(trace_id).or_default().0.push(JoinSpan {
                        span_id,
                        parent_id: str_of(&v, "parent_id"),
                        op: str_of(&v, "op").unwrap_or_else(|| "?".into()),
                        id: str_of(&v, "id").unwrap_or_else(|| "?".into()),
                        status: str_of(&v, "status").unwrap_or_else(|| "?".into()),
                        start_s: num_of(&v, "t_recv_s"),
                        total_s: num_of(&v, "total_s"),
                        source: format!("{path}:{}", lineno + 1),
                    });
                }
                Some("flight_dump") => {
                    let reason = str_of(&v, "reason").unwrap_or_else(|| "?".into());
                    for e in v.get("entries").and_then(Value::as_array).unwrap_or(&[]) {
                        let (Some(trace_id), Some(span_id)) =
                            (str_of(e, "trace_id"), str_of(e, "span_id"))
                        else {
                            continue;
                        };
                        traces.entry(trace_id).or_default().1.push(JoinEvent {
                            seq: num_of(e, "seq").unwrap_or(0.0) as u64,
                            span_id,
                            kind: str_of(e, "kind").unwrap_or_else(|| "?".into()),
                            t_us: num_of(e, "t_us").unwrap_or(0.0),
                            value: num_of(e, "value").unwrap_or(0.0),
                            reason: reason.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    if let Some(want) = want_trace {
        traces.retain(|t, _| t == want);
        if traces.is_empty() {
            return Err(CliError::Usage(format!("trace id {want} appears in no artifact")));
        }
    }
    if traces.is_empty() {
        println!("no traced entries in the given artifacts");
        return Ok(ExitCode::SUCCESS);
    }
    for (trace_id, (spans, events)) in &mut traces {
        spans.sort_by(|a, b| a.start_s.unwrap_or(0.0).total_cmp(&b.start_s.unwrap_or(0.0)));
        // Overlapping ring dumps re-export the same slots; the ring seq is
        // globally unique, so it dedups them exactly.
        events.sort_by_key(|e| e.seq);
        events.dedup_by_key(|e| e.seq);
        if format == "json" {
            println!("{}", render_trace_json(trace_id, spans, events));
        } else {
            print!("{}", render_trace_text(trace_id, spans, events));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// One trace as a JSONL object, for scripted consumers of `mosc-cli trace`.
fn render_trace_json(trace_id: &str, spans: &[JoinSpan], events: &[JoinEvent]) -> String {
    let mut out = format!("{{\"type\":\"trace\",\"trace_id\":{}", json_quote(trace_id));
    out.push_str(",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"span_id\":{},\"parent_id\":{},\"op\":{},\"id\":{},\"status\":{},\
             \"start_s\":{},\"total_s\":{},\"source\":{}}}",
            json_quote(&s.span_id),
            s.parent_id.as_deref().map_or_else(|| "null".into(), json_quote),
            json_quote(&s.op),
            json_quote(&s.id),
            json_quote(&s.status),
            s.start_s.map_or_else(|| "null".into(), |v| format!("{v:?}")),
            s.total_s.map_or_else(|| "null".into(), |v| format!("{v:?}")),
            json_quote(&s.source),
        ));
    }
    out.push_str("],\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"span_id\":{},\"kind\":{},\"t_us\":{},\"value\":{},\"reason\":{}}}",
            json_quote(&e.span_id),
            json_quote(&e.kind),
            e.t_us,
            e.value,
            json_quote(&e.reason),
        ));
    }
    out.push_str("]}");
    out
}

/// One trace as an indented text waterfall over one shared time axis.
fn render_trace_text(trace_id: &str, spans: &[JoinSpan], events: &[JoinEvent]) -> String {
    const BAR: usize = 24;
    let mut out =
        format!("trace {trace_id} — {} span(s), {} flight event(s)\n", spans.len(), events.len());
    // The trace's time axis: [earliest start, latest end] over timed spans.
    let t0 = spans.iter().filter_map(|s| s.start_s).fold(f64::INFINITY, f64::min);
    let t1 = spans
        .iter()
        .filter_map(|s| Some(s.start_s? + s.total_s.unwrap_or(0.0)))
        .fold(f64::NEG_INFINITY, f64::max);
    let axis = (t1 - t0).max(1e-9);
    // Parent-first rendering: roots are spans whose parent is absent from
    // the trace (the client side is never logged); children indent one stop.
    let here: std::collections::HashSet<&str> = spans.iter().map(|s| s.span_id.as_str()).collect();
    let mut rendered = vec![false; spans.len()];
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let is_root = s.parent_id.as_deref().is_none_or(|p| !here.contains(p));
        if is_root && !rendered[i] {
            push_span_subtree(i, 0, spans, &mut rendered, &mut order);
        }
    }
    // Cycles or self-parents (the M121 defects) would otherwise vanish.
    for i in 0..spans.len() {
        if !rendered[i] {
            push_span_subtree(i, 0, spans, &mut rendered, &mut order);
        }
    }
    for (i, depth) in order {
        let s = &spans[i];
        let indent = "  ".repeat(depth + 1);
        match (s.start_s, s.total_s) {
            (Some(start), total) => {
                let total = total.unwrap_or(0.0);
                let lo = (((start - t0) / axis) * BAR as f64).floor() as usize;
                let hi = ((((start + total) - t0) / axis) * BAR as f64).ceil() as usize;
                let (lo, hi) = (lo.min(BAR - 1), hi.clamp(lo + 1, BAR));
                let bar: String =
                    (0..BAR).map(|p| if p >= lo && p < hi { '=' } else { '·' }).collect();
                out.push_str(&format!(
                    "{indent}span {} {:<12} {:<10} {:<7} +{:>9.3}ms |{bar}| {:.3}ms  ({})\n",
                    s.span_id,
                    s.op,
                    s.id,
                    s.status,
                    (start - t0) * 1e3,
                    total * 1e3,
                    s.source,
                ));
            }
            (None, _) => out.push_str(&format!(
                "{indent}span {} {:<12} {:<10} {:<7} (no timing)  ({})\n",
                s.span_id, s.op, s.id, s.status, s.source,
            )),
        }
    }
    for e in events {
        out.push_str(&format!(
            "  flight {} {:<9} t+{:.3}ms value {} (dump: {})\n",
            e.span_id,
            e.kind,
            e.t_us / 1e3,
            e.value,
            e.reason,
        ));
    }
    out
}

/// Depth-first pre-order walk over one span's subtree (children = spans
/// naming it as parent), appending `(index, depth)` rows to `order`.
fn push_span_subtree(
    i: usize,
    depth: usize,
    spans: &[JoinSpan],
    rendered: &mut [bool],
    order: &mut Vec<(usize, usize)>,
) {
    rendered[i] = true;
    order.push((i, depth));
    let me = spans[i].span_id.as_str();
    for (j, s) in spans.iter().enumerate() {
        if !rendered[j] && s.parent_id.as_deref() == Some(me) {
            push_span_subtree(j, depth + 1, spans, rendered, order);
        }
    }
}

fn build_platform(args: &Args) -> Result<Platform, CliError> {
    let rows: usize = args.parse_or("--rows", 2)?;
    let cols: usize = args.parse_or("--cols", 3)?;
    let layers: usize = args.parse_or("--layers", 1)?;
    let levels: usize = args.parse_or("--levels", 2)?;
    let tmax: f64 = args.parse_or("--tmax", 55.0)?;
    if !(2..=5).contains(&levels) {
        return Err(CliError::Usage("--levels must be 2..=5 (Table IV sets)".into()));
    }
    let mut spec = PlatformSpec::paper(rows, cols, levels, tmax);
    spec.layers = layers;
    spec.rc = match args.flag("--cooler").unwrap_or("default") {
        "default" => RcConfig::default(),
        "budget" => RcConfig::budget_cooler(),
        "responsive" => RcConfig::responsive_package(),
        other => return Err(CliError::Usage(format!("unknown cooler '{other}'"))),
    };
    Platform::build(&spec).map_err(|e| CliError::Other(format!("platform build failed: {e}")))
}

fn solve(args: &Args, platform: &Platform) -> Result<(), CliError> {
    let algo = args.flag("--algo").unwrap_or("ao");
    let kind: SolverKind = algo
        .parse()
        .map_err(|e: mosc::algorithms::UnknownSolverError| CliError::Usage(e.to_string()))?;
    let report = mosc::algorithms::solve(kind, platform, &SolveOptions::default())
        .map_err(|e| algo_error(algo, &e))?;
    if kind == SolverKind::ExsBnb {
        let stats = &report.stats;
        eprintln!(
            "bnb: visited {} nodes ({} thermal prunes, {} throughput prunes)",
            stats.explored, stats.thermal_prunes, stats.throughput_prunes
        );
    }
    // `--claim FILE`: emit the solution-claim JSON that `analyze` verifies
    // against the platform with the M081 lint.
    if let Some(path) = args.path_flag("--claim")? {
        std::fs::write(path, report.claim_json(kind, platform))
            .map_err(|e| CliError::Io(format!("cannot write claim to '{path}': {e}")))?;
        println!("claim written to {path}");
    }
    let sol = report.solution;

    println!(
        "{}: throughput {:.4}, peak {:.2} C, feasible {}, m = {}",
        sol.algorithm,
        sol.throughput,
        sol.peak_c(platform),
        sol.feasible,
        sol.m
    );
    let rendered = text::to_text(&sol.schedule);
    match args.out_path()? {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| CliError::Io(format!("cannot write schedule to '{path}': {e}")))?;
            println!("schedule written to {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn load_schedule(args: &Args, platform: &Platform) -> Result<Schedule, CliError> {
    let path =
        args.flag("--schedule").ok_or_else(|| CliError::Usage("missing --schedule FILE".into()))?;
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let schedule =
        text::from_text(&content).map_err(|e| CliError::Usage(format!("parse {path}: {e}")))?;
    if schedule.n_cores() != platform.n_cores() {
        return Err(CliError::Usage(format!(
            "schedule has {} cores but the platform has {}",
            schedule.n_cores(),
            platform.n_cores()
        )));
    }
    Ok(schedule)
}

fn peak(args: &Args, platform: &Platform) -> Result<(), CliError> {
    let schedule = load_schedule(args, platform)?;
    let report =
        platform.peak(&schedule).map_err(|e| CliError::Other(format!("evaluation failed: {e}")))?;
    println!(
        "peak {:.3} C on core {} at t = {:.6} s ({}); T_max = {:.1} C -> {}",
        platform.to_celsius(report.temp),
        report.core,
        report.time,
        if report.exact { "exact, Theorem 1" } else { "sampled" },
        platform.t_max_c(),
        if report.temp <= platform.t_max() + 1e-9 { "SAFE" } else { "VIOLATION" }
    );
    println!("throughput {:.4}", schedule.throughput_with_overhead(platform.overhead()));
    Ok(())
}

/// The quick four-way table: the fast solvers only (EXS-BnB and the
/// governor are left to `profile`, which owns a telemetry window per
/// solver).
fn compare(platform: &Platform) {
    println!("{:<8} {:>10} {:>10} {:>9} {:>5}", "algo", "throughput", "peak (C)", "feasible", "m");
    let opts = SolveOptions::default();
    for kind in [SolverKind::Lns, SolverKind::Exs, SolverKind::Ao, SolverKind::Pco] {
        match mosc::algorithms::solve(kind, platform, &opts) {
            Ok(r) => println!(
                "{:<8} {:>10.4} {:>10.2} {:>9} {:>5}",
                kind.label(),
                r.solution.throughput,
                r.solution.peak_c(platform),
                r.solution.feasible,
                r.solution.m
            ),
            Err(e) => println!("{:<8} failed: {e}", kind.label()),
        }
    }
}

fn trace(args: &Args, platform: &Platform) -> Result<(), CliError> {
    let schedule = load_schedule(args, platform)?;
    let periods: usize = args.parse_or("--periods", 10)?;
    let t0 = mosc::linalg::Vector::zeros(platform.thermal().n_nodes());
    let tr = transient_trace(platform.thermal(), platform.power(), &schedule, &t0, periods, 50)
        .map_err(|e| CliError::Other(format!("trace failed: {e}")))?;
    let csv = tr.to_csv(platform.t_ambient_c());
    match args.out_path()? {
        Some(path) => {
            std::fs::write(path, &csv)
                .map_err(|e| CliError::Io(format!("cannot write trace to '{path}': {e}")))?;
            println!("trace ({} samples) written to {path}", tr.len());
        }
        None => print!("{csv}"),
    }
    Ok(())
}
