//! `solve_batch` observability loopback: per-variant access-log entries
//! with registry attribution, and the full `mosc-analyze` lint suite over
//! the resulting log — the same audit `ci.sh` runs against a live daemon.
//!
//! This file is its own test binary and holds exactly one `#[test]`: it
//! enables the process-global `mosc-obs` recorder, which must not race the
//! other loopback tests' assumptions.
#![cfg(unix)]

use mosc_analyze::json::Value;
use mosc_serve::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A platform on a floorplan and cooler nothing else in this binary builds.
/// Both the platform registry and the thermal-model table under it are
/// process-global, and a thermal model is built once per floorplan, cooler
/// and β: the cold batch below only carries the eigendecomposition if no
/// earlier code in the process built this floorplan.
const PLATFORM: &str =
    r#"{"rows":2,"cols":1,"levels":[0.6,1.3],"t_max_c":57.0,"cooler":"responsive"}"#;
/// The same floorplan and cooler under another `T_max`: a cold registry key
/// whose thermal model is already built.
const SAME_FLOORPLAN: &str =
    r#"{"rows":2,"cols":1,"levels":[0.6,1.3],"t_max_c":59.0,"cooler":"responsive"}"#;

fn roundtrip(addr: SocketAddr, line: &str) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Value::parse(&response).expect("response parses as JSON")
}

#[test]
fn batch_access_entries_carry_registry_attribution_and_lint_clean() {
    mosc_obs::enable();
    let log_path =
        std::env::temp_dir().join(format!("mosc-serve-batch-access-{}.jsonl", std::process::id()));
    let server = Server::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .access_log(log_path.to_string_lossy().into_owned())
        .bind()
        .expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    // Cold batch: the resolve builds the platform and, for a floorplan never
    // seen before, its thermal model, so variant 0's entry carries the
    // eigendecomposition work.
    let cold = format!(
        r#"{{"id":"cb","op":"solve_batch","platform":{PLATFORM},"variants":[{{"solver":"ao"}},{{"solver":"lns"}}]}}"#
    );
    let doc = roundtrip(addr, &cold);
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("cold"), "{doc:?}");

    // Warm batch, identical variants: answered from the solution cache.
    let doc = roundtrip(addr, &cold.replace(r#""id":"cb""#, r#""id":"wh""#));
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("warm"), "{doc:?}");

    // Warm batch, *fresh* cache keys (threads is part of the key but does
    // not change the math): a real solve on the interned platform — the
    // case the M110 lint polices, zero eigendecompositions.
    let warm_miss = format!(
        r#"{{"id":"wm","op":"solve_batch","platform":{PLATFORM},"variants":[{{"solver":"ao","options":{{"threads":2}}}}]}}"#
    );
    let doc = roundtrip(addr, &warm_miss);
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("warm"), "{doc:?}");
    let results = doc.get("results").and_then(Value::as_array).expect("results");
    assert_eq!(results[0].get("cached").and_then(Value::as_bool), Some(false), "{doc:?}");

    // Cold registry key on an already-built floorplan: the resolve builds a
    // platform around the shared thermal model, with no eigendecomposition.
    let cold_shared = format!(
        r#"{{"id":"cf","op":"solve_batch","platform":{SAME_FLOORPLAN},"variants":[{{"solver":"ao"}},{{"solver":"pco"}}]}}"#
    );
    let doc = roundtrip(addr, &cold_shared);
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("cold"), "{doc:?}");

    roundtrip(addr, r#"{"id":"q","op":"shutdown"}"#);
    join.join().expect("server thread");
    let log = std::fs::read_to_string(&log_path).expect("access log exists");
    let _ = std::fs::remove_file(&log_path);

    let f = |doc: &Value, name: &str| doc.get(name).and_then(Value::as_f64).unwrap();
    let mut batch_lines = 0;
    for line in log.lines() {
        let doc = Value::parse(line).expect("access log line parses");
        if doc.get("type").and_then(Value::as_str) != Some("access") {
            continue;
        }
        let Some(batch) = doc.get("batch").and_then(Value::as_str) else { continue };
        batch_lines += 1;
        let id = doc.get("id").and_then(Value::as_str).unwrap();
        assert!(id.starts_with(&format!("{batch}#")), "variant ids derive from the batch: {line}");
        assert_eq!(doc.get("op").and_then(Value::as_str), Some("solve"), "{line}");
        match batch {
            "cb" => {
                assert_eq!(f(&doc, "registry_misses"), 1.0, "cold batch: {line}");
                assert_eq!(f(&doc, "registry_hits"), 0.0, "cold batch: {line}");
                if id == "cb#0" {
                    assert!(f(&doc, "eigen_calls") > 0.0, "the build lands on variant 0: {line}");
                } else {
                    assert_eq!(f(&doc, "eigen_calls"), 0.0, "{line}");
                }
            }
            "cf" => {
                assert_eq!(f(&doc, "registry_misses"), 1.0, "cold batch: {line}");
                assert_eq!(f(&doc, "registry_hits"), 0.0, "cold batch: {line}");
                assert_eq!(
                    f(&doc, "eigen_calls"),
                    0.0,
                    "the floorplan's thermal model was already built: {line}"
                );
            }
            "wh" | "wm" => {
                assert_eq!(f(&doc, "registry_hits"), 1.0, "warm batch: {line}");
                assert_eq!(f(&doc, "registry_misses"), 0.0, "warm batch: {line}");
                assert_eq!(
                    f(&doc, "eigen_calls"),
                    0.0,
                    "a warm resolve must do zero eigen work: {line}"
                );
                if batch == "wm" {
                    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(false), "{line}");
                    assert!(f(&doc, "period_map_matmuls") > 0.0, "real solve on warm: {line}");
                }
            }
            other => panic!("unexpected batch id {other}: {line}"),
        }
    }
    assert_eq!(
        batch_lines, 7,
        "2 cold + 2 warm-hit + 1 warm-miss + 2 cold-on-a-built-floorplan variants\n{log}"
    );

    // The analyzer's full telemetry suite — including the M110/M111
    // registry joins — must come back clean on a healthy log.
    let report = mosc_analyze::analyze_telemetry(&log).expect("log loads as a stream");
    assert!(report.is_clean(), "lints flagged a healthy batch log:\n{report}");
    mosc_obs::disable();
}
