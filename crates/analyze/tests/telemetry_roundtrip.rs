//! Property test: whatever the `mosc-obs` JSONL serializer emits must parse
//! through `mosc-analyze`'s JSON reader and agree with the live snapshot —
//! the contract that lets `analyze TELEMETRY.jsonl` consume `--obs=json`
//! output without a shared serialization library.
//!
//! Kept in its own integration-test binary: the recorder is process-global,
//! and this is the only test here that arms it.

use mosc_analyze::json::Value;
use mosc_analyze::{analyze_telemetry, Code};
use mosc_obs::{Counter, FieldValue, Gauge, Telemetry};
use mosc_testutil::propcheck_cases;

static COUNTERS: [Counter; 3] =
    [Counter::new("rt.calls"), Counter::new("rt.steps"), Counter::new("rt.nodes")];
static GAUGES: [Gauge; 2] = [Gauge::new("rt.ratio"), Gauge::new("rt.peak")];

/// Event names and string field values, including every escape class the
/// serializer handles (quotes, backslashes, newlines, control characters).
const EVENT_NAMES: [&str; 3] = ["rt.done", "rt.step \"quoted\"", "rt.path\\with\\slashes"];
const STR_VALUES: [&str; 4] = ["plain", "multi\nline", "tab\there", "ctrl\u{1}char"];
const SPAN_NAMES: [&str; 4] = ["rt.outer", "rt.mid", "rt.inner", "rt.leaf"];

fn random_activity(rng: &mut mosc_testutil::Rng64) {
    for c in &COUNTERS {
        if rng.gen_range(0..2usize) == 1 {
            c.add(rng.gen_range(0..1_000_000) as u64);
        }
    }
    for g in &GAUGES {
        if rng.gen_range(0..2usize) == 1 {
            g.set(rng.gen_range(-1e6..1e6));
        }
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let name = EVENT_NAMES[rng.gen_range(0..EVENT_NAMES.len())];
        mosc_obs::event(
            name,
            &[
                ("u", FieldValue::from(rng.gen_range(0..999usize))),
                ("f", FieldValue::from(rng.gen_range(-10.0..10.0))),
                ("s", FieldValue::from(STR_VALUES[rng.gen_range(0..STR_VALUES.len())])),
                ("b", FieldValue::from(rng.gen_range(0..2usize) == 1)),
            ],
        );
    }
    // A random span tree: sequential roots with random nesting depth.
    for _ in 0..rng.gen_range(1..4usize) {
        let _root = mosc_obs::span(SPAN_NAMES[0]);
        for d in 1..rng.gen_range(1..SPAN_NAMES.len() + 1) {
            let _child = mosc_obs::span(SPAN_NAMES[d.min(SPAN_NAMES.len() - 1)]);
        }
    }
}

/// Parses `{v:?}`-style JSON floats back; the serializer promises shortest
/// round-trip formatting, so equality is exact, not approximate.
fn field_f64(obj: &Value, key: &str) -> f64 {
    obj.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing {key} in {obj:?}"))
}

#[test]
fn jsonl_round_trips_through_the_analyze_parser() {
    mosc_obs::enable();
    propcheck_cases("obs JSONL round-trips through mosc-analyze", 32, |rng| {
        mosc_obs::reset();
        random_activity(rng);
        let t: Telemetry = mosc_obs::snapshot();
        let jsonl = t.to_jsonl();

        for line in jsonl.lines() {
            let v = Value::parse(line).unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
            let ty = v.get("type").and_then(Value::as_str).expect("line without type");
            let name = v.get("name").and_then(Value::as_str).unwrap_or_default();
            match ty {
                "counter" => {
                    let val = field_f64(&v, "value");
                    assert_eq!(Some(val as u64), t.counter(name), "{line}");
                }
                "gauge" => {
                    assert_eq!(Some(field_f64(&v, "value")), t.gauge(name), "{line}");
                }
                "span" => {
                    let path = v.get("path").and_then(Value::as_str).expect("span path");
                    let s = t.span_path(path).expect("span in snapshot");
                    assert_eq!(field_f64(&v, "calls") as u64, s.calls, "{line}");
                    assert_eq!(field_f64(&v, "total_s"), s.total.as_secs_f64(), "{line}");
                    assert_eq!(field_f64(&v, "self_s"), s.self_time.as_secs_f64(), "{line}");
                }
                "event" => {
                    // Escaped names must survive the trip exactly.
                    assert!(
                        t.events().iter().any(|e| e.name == name),
                        "event name {name:?} not in snapshot ({line})"
                    );
                    assert!(v.get("fields").is_some_and(Value::is_object), "{line}");
                }
                "meta" => {}
                other => panic!("unknown record type {other} in {line}"),
            }
        }

        // The stream as a whole must satisfy the M05x structural contract:
        // parseable, and with no span-timing (M053) findings.
        let report = analyze_telemetry(&jsonl).expect("structurally valid telemetry");
        assert!(!report.has_code(Code::SpanTimingInvalid), "M053 on serializer output:\n{report}");
    });
    mosc_obs::disable();
    mosc_obs::reset();
}
