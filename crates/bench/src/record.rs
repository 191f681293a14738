//! BENCH schema v2: the emission path for bench artifacts.
//!
//! A `BENCH_*.json` file without provenance compares as if interchangeable
//! with one from another machine or commit. Schema v2 routes an artifact
//! through [`BenchLog`], which stamps a `{"type":"bench_meta","schema":2,...}`
//! header (bench name, git sha, host, logical CPU count, and the options
//! that shaped the run) ahead of the records; the `M100` analyzer lint
//! fails deny-mode CI on artifacts whose header is missing. `periodmap`
//! writes `BENCH_periodmap.json` this way.
//!
//! The stamps degrade gracefully: outside a git checkout the sha falls
//! back to the `MOSC_GIT_SHA` environment variable and then `"unknown"`,
//! so artifacts are still well-formed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Run provenance stamped into every schema-v2 artifact header.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Which bench produced the artifact (`"periodmap"`, ...).
    pub bench: String,
    /// Abbreviated commit hash of the workspace, or `"unknown"`.
    pub git_sha: String,
    /// Hostname the run executed on, or `"unknown"`.
    pub host: String,
    /// Logical CPUs visible to the process.
    pub threads: usize,
    /// The knobs that shaped the run, as ordered key/value pairs.
    pub options: Vec<(String, String)>,
}

impl RunMeta {
    /// Captures the current environment for the named bench.
    #[must_use]
    pub fn capture(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            git_sha: git_sha(),
            host: hostname(),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            options: Vec::new(),
        }
    }

    /// Records one run option (builder-style).
    #[must_use]
    #[allow(clippy::needless_pass_by_value)] // builder ergonomics: `.option("rows", 3)`
    pub fn option(mut self, key: &str, value: impl ToString) -> Self {
        self.options.push((key.to_string(), value.to_string()));
        self
    }

    /// The schema-v2 header line (no trailing newline).
    #[must_use]
    pub fn header(&self) -> String {
        let mut opts = String::new();
        for (i, (k, v)) in self.options.iter().enumerate() {
            if i > 0 {
                opts.push(',');
            }
            let _ = write!(opts, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        format!(
            "{{\"type\":\"bench_meta\",\"schema\":2,\"bench\":\"{}\",\
             \"git_sha\":\"{}\",\"host\":\"{}\",\"threads\":{},\"options\":{{{opts}}}}}",
            escape(&self.bench),
            escape(&self.git_sha),
            escape(&self.host),
            self.threads
        )
    }
}

/// A schema-v2 JSONL artifact under construction: the meta header followed
/// by the records the caller pushes.
#[derive(Debug)]
pub struct BenchLog {
    lines: String,
}

impl BenchLog {
    /// Starts an artifact with the given provenance header.
    #[must_use]
    pub fn new(meta: &RunMeta) -> Self {
        let mut lines = meta.header();
        lines.push('\n');
        Self { lines }
    }

    /// Appends one record line (the caller supplies a full JSON object
    /// without the trailing newline).
    pub fn push(&mut self, line: &str) {
        self.lines.push_str(line);
        self.lines.push('\n');
    }

    /// The accumulated artifact.
    #[must_use]
    pub fn render(&self) -> &str {
        &self.lines
    }

    /// Writes the artifact as `dir/name` (same reporting behavior as
    /// [`crate::write_csv`]: failures warn, never panic).
    pub fn write(&self, dir: &PathBuf, name: &str) {
        crate::write_csv(dir, name, &self.lines);
    }
}

/// Escapes a string for embedding in a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The abbreviated commit hash: `git rev-parse`, then the `MOSC_GIT_SHA`
/// environment variable, then `"unknown"`.
fn git_sha() -> String {
    if let Ok(out) = Command::new("git").args(["rev-parse", "--short", "HEAD"]).output() {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    std::env::var("MOSC_GIT_SHA").ok().filter(|s| !s.is_empty()).unwrap_or_else(unknown)
}

/// The machine name: `HOSTNAME`, then the `hostname` utility, then
/// `"unknown"`.
fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return h;
        }
    }
    if let Ok(out) = Command::new("hostname").output() {
        if out.status.success() {
            let h = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !h.is_empty() {
                return h;
            }
        }
    }
    unknown()
}

fn unknown() -> String {
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_analyze::json::Value;

    #[test]
    fn header_is_valid_schema_v2_json() {
        let meta = RunMeta {
            bench: "periodmap".into(),
            git_sha: "abc1234".into(),
            host: "ci-\"box\"".into(),
            threads: 8,
            options: vec![("rate".into(), "300".into()), ("seed".into(), "42".into())],
        };
        let doc = Value::parse(&meta.header()).expect("header parses");
        assert_eq!(doc.get("type").and_then(Value::as_str), Some("bench_meta"));
        assert_eq!(doc.get("schema").and_then(Value::as_f64), Some(2.0));
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("periodmap"));
        assert_eq!(doc.get("git_sha").and_then(Value::as_str), Some("abc1234"));
        assert_eq!(doc.get("host").and_then(Value::as_str), Some("ci-\"box\""));
        assert_eq!(doc.get("threads").and_then(Value::as_f64), Some(8.0));
        let opts = doc.get("options").expect("options object");
        assert_eq!(opts.get("rate").and_then(Value::as_str), Some("300"));
        assert_eq!(opts.get("seed").and_then(Value::as_str), Some("42"));
    }

    #[test]
    fn capture_stamps_something_everywhere() {
        let meta = RunMeta::capture("micro").option("iters", 100);
        assert_eq!(meta.bench, "micro");
        assert!(!meta.git_sha.is_empty());
        assert!(!meta.host.is_empty());
        assert!(meta.threads >= 1);
        assert_eq!(meta.options, vec![("iters".to_string(), "100".to_string())]);
        // Whatever the environment provided, the header must stay parseable.
        assert!(Value::parse(&meta.header()).is_ok());
    }

    #[test]
    fn log_passes_the_bench_analyzer_lints() {
        let meta = RunMeta {
            bench: "periodmap".into(),
            git_sha: "abc1234".into(),
            host: "ci".into(),
            threads: 4,
            options: Vec::new(),
        };
        let mut log = BenchLog::new(&meta);
        log.push(
            "{\"type\":\"periodmap\",\"rows\":3,\"cols\":3,\"m\":4,\"fast_wall_s\":0.001,\
             \"dense_wall_s\":0.01,\"fast_ops\":40,\"dense_ops\":400}",
        );
        let report = mosc_analyze::analyze_telemetry(log.render()).expect("parses");
        assert!(report.is_clean(), "findings:\n{report}");
    }
}
