//! The daemon under test: the shipped `mosc-cli serve` binary, built from the
//! checkout, spawned with its defaults plus `--access-log`, and driven over
//! loopback connections.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any one response may take before the run counts it as failed:
/// a hundred times the slowest answer any workload expects.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Where Cargo puts build outputs for this checkout.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds `mosc-cli` from the checkout in the current directory (release
/// profile, the repository's own settings) and returns the binary's path.
pub fn build() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() {
        return Err("run from the root of a mosc checkout (no Cargo.toml here)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "mosc-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mosc-cli failed: {status}"));
    }
    let bin = target_dir().join("release").join("mosc-cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("build produced no {}", bin.display()))
    }
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `bin serve` on a kernel-chosen loopback port and waits until
    /// it announces its address. `access_log` adds `--access-log`.
    pub fn spawn(bin: &Path, access_log: Option<&Path>, stderr: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(path) = access_log {
            cmd.arg("--access-log").arg(path);
        }
        let stderr = std::fs::File::create(stderr).map_err(|e| format!("daemon stderr: {e}"))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before announcing its address".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("mosc-serve listening on ") {
                        break a.parse().map_err(|e| format!("bad daemon address '{a}': {e}"))?;
                    }
                }
            }
        };
        Ok(Self { child, stdout, addr })
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "daemon status has no VmHWM".to_owned())
    }

    /// CPU seconds the daemon has used so far, user plus system, over all
    /// its threads including exited ones. Time the hypervisor stole from the
    /// host's vCPUs is not charged to it.
    pub fn cpu_s(&self) -> Result<f64, String> {
        // Linux reports these fields in USER_HZ ticks, 100 per second.
        const TICKS_PER_S: f64 = 100.0;
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("cannot read daemon stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the line, the 12th and 13th here.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |i: usize| rest.split_whitespace().nth(i).and_then(|v| v.parse::<f64>().ok());
        match (field(11), field(12)) {
            (Some(u), Some(s)) => Ok((u + s) / TICKS_PER_S),
            _ => Err("daemon stat has no utime/stime".into()),
        }
    }

    /// Sends the `shutdown` op, then waits for the daemon to drain and exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.roundtrip("{\"id\":\"bye\",\"op\":\"shutdown\"}\n")?;
        drop(conn);
        // Drain stdout so the daemon's last line never meets a closed pipe.
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).is_ok_and(|n| n > 0) {}
        let until = Instant::now() + RESPONSE_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection: requests are written whole, responses read a
/// line at a time.
pub struct Conn {
    /// The socket, for writing.
    pub stream: TcpStream,
    /// A buffered clone of the socket, for reading.
    pub reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self { stream, reader })
    }

    /// Writes one newline-terminated request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    /// Reads one response line into `buf` (cleared first).
    pub fn recv(&mut self, buf: &mut String) -> Result<(), String> {
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends one line and returns the response line.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        let mut buf = String::new();
        self.recv(&mut buf)?;
        Ok(buf)
    }
}
