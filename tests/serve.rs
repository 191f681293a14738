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
//! * Over-long request lines, oversized platforms, a deadline past what a
//!   `Duration` holds and a number past the f64 range are refused with a
//!   typed error, and the daemon keeps serving.
//! * Every access-log line re-serializes to itself and carries its members
//!   in the pinned order.
//! * A repeated `solve_batch` finds its platform warm in the registry and
//!   answers bit-identically to the cold one.
//! * A `solve_batch` of AO and PCO variants answers each variant exactly as
//!   an in-process `mosc::algorithms::solve` of it does.
//! * The shipped `mosc-cli serve` holds 1 000 idle connections through
//!   mixed traffic, every one still answers a ping, and its access log
//!   passes the analyzer with no findings.
#![cfg(unix)]

use mosc::analyze::json::Value;
use mosc::serve::proto::{value_to_json, MAX_LINE_BYTES};
use mosc::serve::Server;
use mosc_testutil::Rng64;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

/// A request line longer than the daemon buffers is answered once with a
/// `parse` error, then the connection closes; the daemon keeps serving.
#[test]
fn an_over_long_line_is_refused_and_its_connection_closed() {
    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read refusal");
    let answer = Value::parse(&line).expect("answer parses");
    assert_eq!(answer.get("status").and_then(Value::as_str), Some("error"), "{line}");
    assert_eq!(answer.get("kind").and_then(Value::as_str), Some("parse"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("read EOF");
    assert_eq!(line, "", "nothing follows the refusal but EOF");

    let mut fresh = TcpStream::connect(addr).expect("reconnect");
    fresh.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    writeln!(fresh, r#"{{"id":"p","op":"ping"}}"#).expect("send ping");
    line.clear();
    BufReader::new(fresh).read_line(&mut line).expect("read pong");
    let pong = Value::parse(&line).expect("pong parses");
    assert_eq!(pong.get("id").and_then(Value::as_str), Some("p"), "{line}");
    assert_eq!(pong.get("status").and_then(Value::as_str), Some("ok"), "{line}");
    handle.shutdown();
    join.join().expect("server thread");
}

/// A platform past the core-count cap is refused as `usage` before its
/// eigendecomposition, and the daemon keeps serving.
#[test]
fn an_oversized_platform_is_refused_as_usage() {
    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        Value::parse(&line).expect("answer parses")
    };
    let platform = r#"{"rows":100,"cols":100,"levels":[0.6,1.3],"t_max_c":55.0}"#;
    writeln!(stream, r#"{{"id":"big","solver":"ao","platform":{platform}}}"#).expect("send");
    let answer = recv();
    assert_eq!(answer.get("id").and_then(Value::as_str), Some("big"), "{answer:?}");
    assert_eq!(answer.get("kind").and_then(Value::as_str), Some("usage"), "{answer:?}");
    assert!(
        answer.get("message").and_then(Value::as_str).is_some_and(|m| m.contains("M010")),
        "{answer:?}"
    );
    writeln!(stream, r#"{{"id":"p","op":"ping"}}"#).expect("send ping");
    let pong = recv();
    assert_eq!(pong.get("status").and_then(Value::as_str), Some("ok"), "{pong:?}");
    handle.shutdown();
    join.join().expect("server thread");
}

/// A `deadline_ms` too large for a `Duration` and a number outside the f64
/// range are each answered with a `parse` error; the event loop survives
/// both and a fresh connection still gets its `ping` answered.
#[test]
fn a_huge_deadline_or_number_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let platform = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#;
    for (id, options) in [
        ("dl", r#"{"deadline_ms":1e300}"#),
        ("dl22", r#"{"deadline_ms":1e22}"#),
        ("bp", r#"{"base_period":1e999}"#),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        writeln!(
            stream,
            r#"{{"id":"{id}","solver":"ao","platform":{platform},"options":{options}}}"#
        )
        .expect("send");
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("read refusal");
        let answer = Value::parse(&line).expect("answer parses");
        assert_eq!(answer.get("status").and_then(Value::as_str), Some("error"), "{line}");
        assert_eq!(answer.get("kind").and_then(Value::as_str), Some("parse"), "{line}");
    }
    let mut fresh = TcpStream::connect(addr).expect("reconnect");
    fresh.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    writeln!(fresh, r#"{{"id":"p","op":"ping"}}"#).expect("send ping");
    let mut line = String::new();
    BufReader::new(fresh).read_line(&mut line).expect("read pong");
    let pong = Value::parse(&line).expect("pong parses");
    assert_eq!(pong.get("status").and_then(Value::as_str), Some("ok"), "{line}");
    handle.shutdown();
    join.join().expect("server thread");
}

/// The members of every `access` line, in order; a `solve_batch` variant
/// appends `batch`.
const ACCESS_MEMBERS: &[&str] = &[
    "type",
    "t_s",
    "id",
    "op",
    "solver",
    "status",
    "cached",
    "queue_wait_s",
    "service_s",
    "total_s",
    "deadline_slack_s",
    "expm_calls",
    "period_map_matmuls",
    "steady_state_calls",
    "linalg_matmuls",
    "eigen_calls",
    "registry_hits",
    "registry_misses",
    "conn",
    "seq",
    "trace_id",
    "span_id",
    "parent_id",
    "key",
    "t_recv_s",
    "t_enqueue_s",
    "t_dequeue_s",
    "t_done_s",
];

/// A miss, a hit, a `solve_batch`, a `ping` and a malformed line through
/// an in-process daemon with an access log: every `access` line is what
/// the order-preserving serializer writes for its own parse, and carries
/// exactly the pinned members in the pinned order.
#[test]
fn access_log_lines_keep_their_members_and_bytes() {
    let access_log = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("access_members.jsonl");
    let server = Server::builder()
        .addr("127.0.0.1:0")
        .workers(1)
        .access_log(access_log.to_str().expect("utf-8 path"))
        .slow_threshold(Duration::from_secs(3600))
        .bind()
        .expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let platform = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":54.5}"#;
    let lines = [
        format!(r#"{{"id":"miss","solver":"ao","platform":{platform},"options":{{{QUICK}}}}}"#),
        format!(
            r#"{{"id":"hit\"é","solver":"ao","platform":{platform},"options":{{{QUICK}}},"want_schedule":true}}"#
        ),
        format!(
            r#"{{"id":"b","op":"solve_batch","platform":{platform},"variants":[{{"solver":"ao","options":{{{QUICK}}}}},{{"solver":"lns"}}],"trace":"0123456789abcdef0123456789abcdef-00000000000000aa"}}"#
        ),
        r#"{"id":"p","op":"ping"}"#.to_owned(),
        "not json".to_owned(),
    ];
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for line in &lines {
        writeln!(stream, "{line}").expect("send");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("read answer");
        Value::parse(&answer).expect("answer parses");
    }
    handle.shutdown();
    join.join().expect("server thread");

    let log = std::fs::read_to_string(&access_log).expect("read access log");
    let access: Vec<&str> = log.lines().filter(|l| l.contains(r#""type":"access""#)).collect();
    assert_eq!(access.len(), 6, "one entry per line, one per batch variant:\n{log}");
    for line in access {
        let doc = Value::parse(line).expect("access line parses");
        assert_eq!(value_to_json(&doc), line, "access line is not its own serialization");
        let Value::Object(members) = &doc else { panic!("access line is not an object") };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut want = ACCESS_MEMBERS.to_vec();
        if doc.get("batch").is_some() {
            want.push("batch");
        }
        assert_eq!(names, want, "{line}");
    }
    assert!(log.contains(r#""id":"hit\"é","op":"solve","solver":"ao","status":"ok","cached":true"#));
}

/// A result's answer, without the members that legitimately differ between
/// two solves of one problem (`id`, `wall_ms`, `cached`).
fn answer_of(result: &Value) -> (String, u64, u64, u64, String) {
    let bits = |key: &str| result.get(key).and_then(Value::as_f64).map(f64::to_bits);
    (
        result.get("solver").and_then(Value::as_str).expect("solver").to_owned(),
        bits("throughput").expect("throughput"),
        bits("peak_c").expect("peak_c"),
        bits("m").expect("m"),
        result.get("schedule").and_then(Value::as_str).expect("schedule").to_owned(),
    )
}

/// The registry amortizes the platform build across batches: a second
/// `solve_batch` on the same platform resolves it warm, and its variants —
/// cache misses, because `threads` is part of the solution-cache key —
/// come back bit-identical to the cold batch's.
#[test]
fn a_repeated_batch_resolves_warm_and_answers_identically() {
    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    // The registry is process-global: no other test here uses this platform.
    let platform = r#"{"rows":1,"cols":2,"levels":[0.6,1.0,1.3],"t_max_c":53.25}"#;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut batch = |id: &str, threads: usize| {
        let variants: Vec<String> = ["ao", "pco"]
            .iter()
            .map(|solver| {
                format!(
                    r#"{{"solver":"{solver}","want_schedule":true,"options":{{{QUICK},"threads":{threads}}}}}"#
                )
            })
            .collect();
        writeln!(
            stream,
            r#"{{"id":"{id}","op":"solve_batch","platform":{platform},"variants":[{}]}}"#,
            variants.join(",")
        )
        .expect("send batch");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read batch answer");
        let answer = Value::parse(&line).expect("answer parses");
        assert_eq!(answer.get("status").and_then(Value::as_str), Some("ok"), "{line}");
        (answer, line)
    };

    let (cold, cold_line) = batch("cold", 1);
    let (warm, warm_line) = batch("warm", 2);
    assert_eq!(cold.get("registry").and_then(Value::as_str), Some("cold"), "{cold_line}");
    assert_eq!(warm.get("registry").and_then(Value::as_str), Some("warm"), "{warm_line}");
    let results = |doc: &Value| -> Vec<Value> {
        match doc.get("results") {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("batch answer has no results array: {other:?}"),
        }
    };
    let (cold, warm) = (results(&cold), results(&warm));
    assert_eq!(cold.len(), 2, "{cold_line}");
    assert_eq!(warm.len(), 2, "{warm_line}");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(w.get("status").and_then(Value::as_str), Some("ok"), "{warm_line}");
        assert_eq!(w.get("cached").and_then(Value::as_bool), Some(false), "{warm_line}");
        assert_eq!(answer_of(c), answer_of(w), "warm answer drifted from the cold one");
    }
    handle.shutdown();
    join.join().expect("server thread");
}

/// A wire `solve_batch` of two AO and two PCO variants, each with its own
/// options, answers every variant exactly as an in-process
/// `mosc::algorithms::solve` on the same platform and options: throughput,
/// peak, `m` and the schedule text, bit for bit.
#[test]
fn a_batch_answers_like_in_process_solves() {
    use mosc::algorithms::{SolveOptions, SolverKind};

    let server = Server::builder().addr("127.0.0.1:0").workers(1).bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    // The registry is process-global: no other test here uses this platform.
    let platform_json = r#"{"rows":1,"cols":3,"levels":[0.6,1.0,1.3],"t_max_c":51.75}"#;
    let quick = SolveOptions { max_m: 64, m_patience: 4, t_unit_divisor: 50, ..Default::default() };
    let coarse = SolveOptions {
        max_m: 32,
        m_patience: 3,
        t_unit_divisor: 40,
        phase_steps: 4,
        samples: 150,
        refill_divisor: 40,
        ..Default::default()
    };
    let variants = [
        (SolverKind::Ao, quick),
        (SolverKind::Ao, coarse),
        (SolverKind::Pco, quick),
        (SolverKind::Pco, coarse),
    ];
    let wire: Vec<String> = variants
        .iter()
        .map(|(kind, o)| {
            format!(
                r#"{{"solver":"{}","want_schedule":true,"options":{{"max_m":{},"m_patience":{},"t_unit_divisor":{},"phase_steps":{},"samples":{},"refill_divisor":{}}}}}"#,
                kind.id(),
                o.max_m,
                o.m_patience,
                o.t_unit_divisor,
                o.phase_steps,
                o.samples,
                o.refill_divisor
            )
        })
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(
        stream,
        r#"{{"id":"b","op":"solve_batch","platform":{platform_json},"variants":[{}]}}"#,
        wire.join(",")
    )
    .expect("send batch");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read batch answer");
    let answer = Value::parse(&line).expect("answer parses");
    assert_eq!(answer.get("status").and_then(Value::as_str), Some("ok"), "{line}");
    let results = match answer.get("results") {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("batch answer has no results array: {other:?}"),
    };
    assert_eq!(results.len(), variants.len(), "{line}");

    let doc = Value::parse(&format!(r#"{{"platform":{platform_json}}}"#)).expect("platform doc");
    let platform = mosc::analyze::platform_from_doc(&doc).expect("platform builds");
    for ((kind, options), result) in variants.iter().zip(&results) {
        assert_eq!(result.get("status").and_then(Value::as_str), Some("ok"), "{line}");
        let solution = mosc::algorithms::solve(*kind, &platform, options).expect("solves").solution;
        let want = (
            kind.id().to_owned(),
            solution.throughput.to_bits(),
            solution.peak_c(&platform).to_bits(),
            (solution.m as f64).to_bits(),
            mosc::sched::text::to_text(&solution.schedule),
        );
        assert_eq!(answer_of(result), want, "{kind} variant drifted from its in-process solve");
    }
    handle.shutdown();
    join.join().expect("server thread");
}

/// Idle connections held open across the traffic below.
const IDLE_CONNS: usize = 1000;

/// A spawned daemon, killed if the test fails before it drains.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The event-loop front end serves many mostly-quiet clients: the shipped
/// daemon, in its own process, holds 1 000 idle connections opened from
/// this one thread while another connection sends solves and cache hits;
/// afterwards every idle connection answers a pipelined ping, the daemon
/// drains, and its access log passes every analyzer lint with no finding.
#[test]
fn a_thousand_idle_connections_survive_mixed_traffic() {
    let access_log =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("idle_conns_access.jsonl");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_mosc-cli"))
            .args(["serve", "--addr", "127.0.0.1:0", "--access-log"])
            .arg(&access_log)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn mosc-cli serve"),
    );
    let mut out = BufReader::new(daemon.0.stdout.take().expect("daemon stdout"));
    let mut banner = String::new();
    out.read_line(&mut banner).expect("read banner");
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("mosc-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("daemon address");

    let idle: Vec<TcpStream> = (0..IDLE_CONNS)
        .map(|i| {
            let stream = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("idle connection {i} failed to open: {e}"));
            stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
            stream
        })
        .collect();

    // Twelve distinct solves, pipelined, then the same twelve again, which
    // the I/O thread answers from the solution cache.
    let mut traffic = TcpStream::connect(addr).expect("connect");
    traffic.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mut reader = BufReader::new(traffic.try_clone().expect("clone"));
    for (round, cached) in [("cold", false), ("hit", true)] {
        for i in 0..12 {
            let solver = if i % 2 == 0 { "ao" } else { "pco" };
            writeln!(
                traffic,
                r#"{{"id":"{round}{i}","solver":"{solver}","platform":{{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":{}}},"options":{{{QUICK}}}}}"#,
                55 + i
            )
            .expect("send solve");
        }
        for _ in 0..12 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read answer");
            let answer = Value::parse(&line).expect("answer parses");
            assert_eq!(answer.get("status").and_then(Value::as_str), Some("ok"), "{line}");
            assert_eq!(answer.get("cached").and_then(Value::as_bool), Some(cached), "{line}");
        }
    }

    // Pings go out on every idle connection before any pong is read.
    for (i, mut stream) in idle.iter().enumerate() {
        writeln!(stream, r#"{{"id":"idle-{i}","op":"ping"}}"#)
            .unwrap_or_else(|e| panic!("idle connection {i}: ping write failed: {e}"));
    }
    for (i, stream) in idle.iter().enumerate() {
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("idle connection {i}: {e}"));
        let pong =
            Value::parse(&line).unwrap_or_else(|e| panic!("idle connection {i}: {e}: {line:?}"));
        assert_eq!(pong.get("id").and_then(Value::as_str), Some(format!("idle-{i}").as_str()));
        assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true), "{line}");
    }
    drop(idle);

    writeln!(traffic, r#"{{"id":"bye","op":"shutdown"}}"#).expect("send shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("read shutdown ack");
    assert!(bye.contains(r#""shutting_down":true"#), "{bye}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut out, &mut rest).expect("read daemon stdout");
    assert!(rest.contains("mosc-serve drained and stopped"), "{rest}");
    let until = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("wait for daemon") {
            break status;
        }
        assert!(Instant::now() < until, "the daemon did not exit after draining");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "daemon exited with {status}");

    let log = std::fs::read_to_string(&access_log).expect("read access log");
    let access_lines = log.lines().filter(|l| l.contains(r#""type":"access""#)).count();
    assert_eq!(access_lines, IDLE_CONNS + 24 + 1, "one access line per request line");
    let report = mosc::analyze::analyze_telemetry(&log).expect("access log parses");
    assert!(report.is_clean(), "access log findings:\n{report}");
}
