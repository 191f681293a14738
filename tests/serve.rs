//! Wire-level regression tests for the solve daemon, run against an
//! in-process server over loopback.
//!
//! * The golden transcript: a fixed-seed script of interleaved client
//!   connections — pipelined bursts, lines torn across writes, blank lines,
//!   torn tails, expired deadlines, unknown ops, `hello` and `solve_batch` —
//!   and each connection's normalized responses, checked in at
//!   `tests/golden/serve_transcript.txt`. Re-bless after an intentional wire
//!   change with `BLESS=1 cargo test --test serve`.
//! * A worker panic still answers its request and lets the daemon drain.
//! * An AO request whose overhead compensation saturates at m = 1 is
//!   answered with a feasible schedule, not an internal error.
#![cfg(unix)]

use mosc::analyze::json::Value;
use mosc::serve::proto::value_to_json;
use mosc::serve::Server;
use mosc_testutil::Rng64;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SEED: u64 = 0x5e7e_901d;
const CONNECTIONS: usize = 6;

const PLATFORMS: &[&str] = &[
    r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":52.0}"#,
    r#"{"rows":1,"cols":3,"levels":[0.6,1.3],"t_max_c":50.0}"#,
    r#"{"rows":1,"cols":2,"levels":[0.6,1.0,1.3],"t_max_c":50.5}"#,
];

/// Solver options that keep the AO m sweep short in debug builds.
const QUICK: &str = r#""max_m":64,"m_patience":4,"t_unit_divisor":50"#;

/// One scripted client connection.
struct Script {
    /// Request lines, in send order; each gets exactly one response, except
    /// blank ones, which get none.
    lines: Vec<String>,
    /// Byte offsets into the joined request text where one `write` ends and
    /// the next begins, after a short pause; an offset may fall mid-line.
    cuts: Vec<usize>,
    /// Bytes sent without a newline after every response is read, before
    /// closing: a request the client abandons mid-line.
    torn_tail: Option<String>,
}

fn request(rng: &mut Rng64, id: &str, deadline_keys: &mut usize) -> String {
    let platform = PLATFORMS[rng.below(PLATFORMS.len() as u64) as usize];
    match rng.below(10) {
        0 => format!(r#"{{"id":"{id}","op":"ping"}}"#),
        1 => match rng.below(4) {
            0 => format!(r#"{{"id":"{id}","op":"hello"}}"#),
            v => format!(
                r#"{{"id":"{id}","op":"hello","max_version":{}}}"#,
                [0, 1, 9][v as usize - 1]
            ),
        },
        2 => format!(r#"{{"id":"{id}","op":"nonsense-op"}}"#),
        3 => match rng.below(3) {
            0 => "this is not json".to_owned(),
            1 => format!(r#"{{"id":"{id}","solver":"warp-drive","platform":{platform}}}"#),
            _ => String::new(),
        },
        // A zero deadline expires while queued. Each one carries a `threads`
        // value no other request uses, so it can never be a cache hit.
        4 => {
            *deadline_keys += 1;
            format!(
                r#"{{"id":"{id}","solver":"ao","platform":{platform},"options":{{{QUICK},"deadline_ms":0,"threads":{}}}}}"#,
                100 + *deadline_keys
            )
        }
        5 | 6 => {
            let broken = rng.below(4) == 0;
            let platform =
                if broken { r#"{"rows":0,"cols":0,"levels":[],"t_max_c":55.0}"# } else { platform };
            format!(
                r#"{{"id":"{id}","op":"solve_batch","platform":{platform},"variants":[{{"solver":"ao","options":{{{QUICK}}}}},{{"solver":"lns","want_schedule":true}}]}}"#
            )
        }
        _ => {
            let solver = ["ao", "lns", "exs"][rng.below(3) as usize];
            let want_schedule = rng.below(2) == 0;
            format!(
                r#"{{"id":"{id}","solver":"{solver}","platform":{platform},"options":{{{QUICK}}},"want_schedule":{want_schedule}}}"#
            )
        }
    }
}

fn scripts() -> Vec<Script> {
    let mut rng = Rng64::seed_from_u64(SEED);
    let mut deadline_keys = 0;
    (0..CONNECTIONS)
        .map(|c| {
            let n = 4 + rng.below(7) as usize;
            let lines: Vec<String> = (0..n)
                .map(|i| request(&mut rng, &format!("c{c}r{i}"), &mut deadline_keys))
                .collect();
            let total: usize = lines.iter().map(|l| l.len() + 1).sum();
            let mut cuts: Vec<usize> =
                (0..rng.below(4)).map(|_| 1 + rng.below(total as u64 - 1) as usize).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let torn_tail =
                (rng.below(2) == 0).then(|| r#"{"id":"torn","solver":"ao","pla"#.to_owned());
            Script { lines, cuts, torn_tail }
        })
        .collect()
}

/// Normalizes one response line: volatile members (wall-clock timings,
/// cache and registry warmth) are masked, then the document is
/// re-serialized canonically so member order cannot differ.
fn normalize(line: &str) -> String {
    let mut doc = Value::parse(line).unwrap_or_else(|e| panic!("response parses ({e:?}): {line}"));
    mask(&mut doc);
    value_to_json(&doc)
}

fn mask(doc: &mut Value) {
    if let Value::Object(members) = doc {
        for (name, value) in members.iter_mut() {
            match name.as_str() {
                "wall_ms" => *value = Value::Number(-1.0),
                "cached" => *value = Value::Bool(false),
                "registry" => *value = Value::String("masked".to_owned()),
                "results" => {
                    if let Value::Array(items) = value {
                        items.iter_mut().for_each(mask);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Plays one script and returns its normalized responses, sorted: answers
/// made on the I/O path (pings, cache hits) legitimately overtake queued
/// solves, so only the per-connection response *set* is deterministic.
fn play(addr: SocketAddr, script: &Script) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let text: String = script.lines.iter().map(|l| format!("{l}\n")).collect();
    let mut from = 0;
    for &cut in script.cuts.iter().chain([&text.len()]) {
        stream.write_all(&text.as_bytes()[from..cut]).expect("send");
        from = cut;
        std::thread::sleep(Duration::from_millis(5));
    }
    let expected = script.lines.iter().filter(|l| !l.trim().is_empty()).count();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut responses: Vec<String> = (0..expected)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            normalize(&line)
        })
        .collect();
    if let Some(tail) = &script.torn_tail {
        let _ = stream.write_all(tail.as_bytes());
    }
    responses.sort();
    responses
}

fn transcript(scripts: &[Script], responses: &[Vec<String>]) -> String {
    let mut out = String::new();
    for (c, (script, got)) in scripts.iter().zip(responses).enumerate() {
        out.push_str(&format!("== connection {c} (writes cut at {:?})\n", script.cuts));
        for line in &script.lines {
            out.push_str(&format!("> {line}\n"));
        }
        if let Some(tail) = &script.torn_tail {
            out.push_str(&format!(">| {tail}\n"));
        }
        for line in got {
            out.push_str(&format!("< {line}\n"));
        }
    }
    out
}

#[test]
fn golden_transcript() {
    let scripts = scripts();
    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    let responses: Vec<Vec<String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = scripts.iter().map(|s| scope.spawn(move || play(addr, s))).collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    handle.shutdown();
    join.join().expect("server thread");

    let got = transcript(&scripts, &responses);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/serve_transcript.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("golden dir");
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read golden {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        got, want,
        "wire transcript drifted from {path} (re-bless with BLESS=1 if intended)"
    );
}

/// An AO request whose m sweep has no candidate (the overhead compensation
/// saturates at m = 1). Whatever the solver answers, the daemon owes the
/// client exactly one answer and must still drain on `shutdown`.
#[test]
fn a_worker_panic_is_answered_and_the_daemon_drains() {
    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        line
    };
    let platform = r#"{"rows":1,"cols":3,"levels":[0.6,0.8,1.0,1.3],"t_max_c":46.8697}"#;
    writeln!(stream, r#"{{"id":"boom","solver":"ao","platform":{platform}}}"#).expect("send");
    let answer = Value::parse(&recv()).expect("answer parses");
    assert_eq!(answer.get("id").and_then(Value::as_str), Some("boom"), "{answer:?}");
    let status = answer.get("status").and_then(Value::as_str);
    let kind = answer.get("kind").and_then(Value::as_str);
    assert!(
        status == Some("ok") || (status == Some("error") && kind == Some("internal")),
        "{answer:?}"
    );

    // The client keeps its connection open across the shutdown: the drain
    // must still finish, and the only line left is the acknowledgement.
    writeln!(stream, r#"{{"id":"bye","op":"shutdown"}}"#).expect("send shutdown");
    let bye = Value::parse(&recv()).expect("ack parses");
    assert_eq!(bye.get("shutting_down").and_then(Value::as_bool), Some(true), "{bye:?}");
    assert_eq!(recv(), "", "nothing follows the acknowledgement but EOF");
    let until = std::time::Instant::now() + Duration::from_secs(10);
    while !join.is_finished() {
        assert!(std::time::Instant::now() < until, "the daemon did not drain");
        std::thread::sleep(Duration::from_millis(10));
    }
    join.join().expect("server thread");
    drop(stream);
}

/// The same saturated-at-m = 1 request, plus its PCO twin, against a live
/// daemon: both come back `ok` with a feasible answer.
#[test]
fn overhead_saturated_ao_is_answered_feasible() {
    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let t_max_c = 46.8697;
    let platform =
        format!(r#"{{"rows":1,"cols":3,"levels":[0.6,0.8,1.0,1.3],"t_max_c":{t_max_c}}}"#);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for solver in ["ao", "pco"] {
        writeln!(stream, r#"{{"id":"{solver}","solver":"{solver}","platform":{platform}}}"#)
            .expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let answer = Value::parse(&line).expect("answer parses");
        assert_eq!(answer.get("status").and_then(Value::as_str), Some("ok"), "{line}");
        assert_eq!(answer.get("feasible").and_then(Value::as_bool), Some(true), "{line}");
        let peak = answer.get("peak_c").and_then(Value::as_f64).expect("peak_c");
        assert!(peak <= t_max_c + mosc::algorithms::ACCEPT_EPS, "{line}");
    }
    handle.shutdown();
    join.join().expect("server thread");
}
