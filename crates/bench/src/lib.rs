//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). They print aligned text tables to
//! stdout and, when `--csv <dir>` is passed, also drop CSV files suitable
//! for replotting.

pub mod compare;
pub mod loadgen;
pub mod micro;
pub mod record;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(ToString::to_string).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(n_cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(cell.len());
                let _ = write!(out, "{cell:>w$}  ");
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * n_cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders the table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Parses the standard experiment CLI: an optional `--csv <dir>` pair.
/// Returns the CSV output directory when requested.
#[must_use]
pub fn csv_dir_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--csv").and_then(|i| args.get(i + 1)).map(PathBuf::from)
}

/// Writes `content` into `dir/name`, creating the directory when needed.
/// Prints a notice; IO failures are reported, not fatal (the stdout table is
/// the primary artifact).
pub fn write_csv(dir: &PathBuf, name: &str, content: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Times a closure, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// Times a closure inside its own `mosc-obs` recorder window (the recorder
/// is armed and reset first), returning the value, the elapsed seconds, and
/// the telemetry captured during the run — how the runtime tables report
/// `expm.calls` / `peak_eval.calls` alongside wall-time.
pub fn timed_obs<T>(f: impl FnOnce() -> T) -> (T, f64, mosc_obs::Telemetry) {
    mosc_obs::enable();
    mosc_obs::reset();
    let start = Instant::now();
    let v = f();
    let secs = start.elapsed().as_secs_f64();
    (v, secs, mosc_obs::snapshot())
}

/// Accumulates labelled telemetry sections into the `BENCH_obs.json` format:
/// JSON lines, one `{"type":"profile",...}` header per section followed by
/// that section's records — the same shape `mosc-cli profile --obs=json`
/// prints, so `mosc-cli analyze BENCH_obs.json` (renamed `.jsonl`) and any
/// trajectory tooling can consume either.
#[derive(Debug, Default)]
pub struct ObsLog {
    lines: String,
}

impl ObsLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one labelled section.
    pub fn section(&mut self, label: &str, wall_s: f64, telemetry: &mosc_obs::Telemetry) {
        let escaped: String = label
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c => vec![c],
            })
            .collect();
        let _ = writeln!(
            self.lines,
            "{{\"type\":\"profile\",\"solver\":\"{escaped}\",\"wall_s\":{wall_s:?}}}"
        );
        self.lines.push_str(&telemetry.to_jsonl());
    }

    /// The accumulated JSONL document.
    #[must_use]
    pub fn render(&self) -> &str {
        &self.lines
    }

    /// Writes the log as `BENCH_obs.json` under `dir` (same reporting
    /// behavior as [`write_csv`]: failures warn, never panic).
    pub fn write(&self, dir: &PathBuf) {
        write_csv(dir, "BENCH_obs.json", &self.lines);
    }
}

/// Formats a float with 4 decimals (the tables' standard precision).
#[must_use]
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with 2 decimals.
#[must_use]
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["longer".into(), "2.25".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn table_to_csv() {
        let mut t = Table::new(&["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn timed_reports_duration() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f4(1.0 / 3.0), "0.3333");
        assert_eq!(f2(2.675), "2.67"); // bankers-ish rounding of floats
    }
}
