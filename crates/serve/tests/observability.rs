//! End-to-end observability loopback: lifecycle latency phases, the
//! `metrics` wire op's Prometheus exposition, and the access log with
//! slow-request span trees and kernel-counter deltas.
//!
//! This file is its own test binary and holds exactly one `#[test]`: it
//! enables the process-global `mosc-obs` recorder, which must not race the
//! other loopback tests' assumptions.
#![cfg(unix)]

use mosc_analyze::json::Value;
use mosc_serve::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const PLATFORM: &str = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#;

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
fn latency_metrics_and_access_log_cover_every_request() {
    mosc_obs::enable();
    let log_path =
        std::env::temp_dir().join(format!("mosc-serve-access-{}.jsonl", std::process::id()));
    let server = Server::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        // Zero threshold: every request counts as slow, so solved requests
        // must carry their span trees.
        .slow_threshold(Duration::ZERO)
        .access_log(log_path.to_string_lossy().into_owned())
        .bind()
        .expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    // Three solve requests: an AO miss (period-map/steady-state kernel
    // deltas), an identical AO hit (cached, no solver spans), and a
    // governor run (each transient step applies a matrix exponential, so
    // the expm.calls delta is nonzero).
    let ao = format!(r#"{{"id":"ao-1","solver":"ao","platform":{PLATFORM}}}"#);
    let doc = roundtrip(addr, &ao);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");
    let ao_hit = format!(r#"{{"id":"ao-2","solver":"ao","platform":{PLATFORM}}}"#);
    let doc = roundtrip(addr, &ao_hit);
    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(true), "{doc:?}");
    let gov = format!(
        r#"{{"id":"gov-1","solver":"governor","platform":{PLATFORM},"options":{{"governor_horizon":10.0,"governor_warmup":5.0,"governor_control_period":0.01}}}}"#
    );
    let doc = roundtrip(addr, &gov);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");

    // The stats op now reports latency quantiles for those three solves.
    let stats = roundtrip(addr, r#"{"id":"s","op":"stats"}"#);
    let payload = stats.get("stats").expect("stats payload");
    assert_eq!(payload.get("requests").and_then(Value::as_usize), Some(3), "{payload:?}");
    assert!(payload.get("p50_ms").and_then(Value::as_f64).unwrap() > 0.0, "{payload:?}");
    assert!(
        payload.get("max_ms").and_then(Value::as_f64).unwrap()
            >= payload.get("p99_ms").and_then(Value::as_f64).unwrap(),
        "{payload:?}"
    );

    // The metrics op returns Prometheus text whose per-op total-phase
    // counts sum to the number of solve requests served.
    let metrics = roundtrip(addr, r#"{"id":"m","op":"metrics"}"#);
    let text = metrics.get("metrics").and_then(Value::as_str).expect("metrics text").to_owned();
    assert!(text.contains("# TYPE mosc_serve_latency_seconds histogram"), "{text}");
    assert!(text.contains("mosc_serve_requests_total 3"), "{text}");
    let mut total_phase_count = 0u64;
    for line in text.lines() {
        if line.starts_with("mosc_serve_latency_seconds_count")
            && line.contains("phase=\"total\"")
            && !line.contains("op=\"proto\"")
        {
            total_phase_count += line.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
        }
    }
    assert_eq!(total_phase_count, 3, "histogram counts must equal served solve requests\n{text}");
    // Bucket series are cumulative: every +Inf bucket equals its count.
    for (op, expect) in [("ao", 2u64), ("governor", 1u64)] {
        let needle = format!(
            "mosc_serve_latency_seconds_bucket{{op=\"{op}\",phase=\"total\",le=\"+Inf\"}} {expect}"
        );
        assert!(text.contains(&needle), "missing `{needle}` in\n{text}");
    }

    // Drain (writes the access-log trailer), then audit the log.
    roundtrip(addr, r#"{"id":"q","op":"shutdown"}"#);
    join.join().expect("server thread");
    let log = std::fs::read_to_string(&log_path).expect("access log exists");
    let _ = std::fs::remove_file(&log_path);

    let mut access_lines = 0;
    let mut saw_summary = false;
    let mut hist_lines = 0;
    for line in log.lines() {
        let doc = Value::parse(line).expect("access log line parses");
        match doc.get("type").and_then(Value::as_str) {
            Some("access") => {
                access_lines += 1;
                let f = |name: &str| doc.get(name).and_then(Value::as_f64).unwrap();
                let (qw, sv, total) = (f("queue_wait_s"), f("service_s"), f("total_s"));
                // The satellite invariant: phases nest inside the total on
                // one monotone clock (M070 checks the same thing).
                assert!(qw >= 0.0 && sv >= 0.0, "{line}");
                assert!(qw + sv <= total + 1e-6, "phase sum exceeds total: {line}");
                let id = doc.get("id").and_then(Value::as_str).unwrap();
                if id == "gov-1" {
                    assert!(f("expm_calls") > 0.0, "governor must report expm calls: {line}");
                    let spans = doc.get("spans").expect("slow request carries spans");
                    let span_text = format!("{spans:?}");
                    assert!(span_text.contains("reactive.simulate"), "{line}");
                }
                if id == "ao-1" {
                    assert!(f("period_map_matmuls") > 0.0, "{line}");
                    let spans = format!("{:?}", doc.get("spans").expect("spans"));
                    assert!(spans.contains("ao.solve"), "{line}");
                }
                if id == "ao-2" {
                    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(true), "{line}");
                }
            }
            Some("hist_snapshot") => {
                hist_lines += 1;
                let count = doc.get("count").and_then(Value::as_f64).unwrap();
                let buckets = match doc.get("buckets") {
                    Some(Value::Array(items)) => items,
                    other => panic!("buckets must be an array, got {other:?}"),
                };
                let mut prev = 0.0;
                for b in buckets {
                    let cum = b.get("cum").and_then(Value::as_f64).unwrap();
                    assert!(cum >= prev, "bucket series must be cumulative: {line}");
                    prev = cum;
                }
                assert_eq!(prev, count, "last bucket must equal the count: {line}");
            }
            Some("serve_summary") => {
                saw_summary = true;
                assert_eq!(doc.get("requests").and_then(Value::as_usize), Some(3), "{line}");
            }
            other => panic!("unexpected access-log line type {other:?}: {line}"),
        }
    }
    // 3 solves + stats + metrics + shutdown = 6 completed requests.
    assert_eq!(access_lines, 6, "one access line per request\n{log}");
    assert!(hist_lines > 0, "drain must snapshot the latency histograms");
    assert!(saw_summary, "drain must write the serve_summary trailer");
    mosc_obs::disable();
}
