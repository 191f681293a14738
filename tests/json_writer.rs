//! The appending JSON writers produce the bytes the recursive serializers
//! they replaced did.
//!
//! `reference` below is a verbatim copy of the earlier `value_to_json`,
//! `canonical_json` and `json_string`, which built one `String` per node and
//! joined them. Over random [`Value`] trees — nesting, duplicate and
//! unsorted keys, escapes, every control character, non-ASCII text, `-0.0`,
//! subnormals, values near ±1e308 and non-finite numbers — the current
//! writers, and [`ObjectWriter`] for flat objects, must match it byte for
//! byte.

use mosc::analyze::json::{canonical_json, json_string, value_to_json, ObjectWriter, Value};
use mosc_testutil::{propcheck_cases, Rng64};

/// The serializers as they were before the appending writers.
mod reference {
    use mosc::analyze::json::Value;

    pub fn value_to_json(v: &Value) -> String {
        match v {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => {
                if n.is_finite() {
                    format!("{n:?}")
                } else {
                    "null".to_owned()
                }
            }
            Value::String(s) => json_string(s),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(value_to_json).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Object(members) => {
                let inner: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), value_to_json(v)))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }

    pub fn canonical_json(v: &Value) -> String {
        match v {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => {
                if n.is_finite() {
                    format!("{n:?}")
                } else {
                    // JSON has no non-finite literals; the parser never produces
                    // them, so this only defends hand-built values.
                    "null".to_owned()
                }
            }
            Value::String(s) => json_string(s),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(canonical_json).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Object(members) => {
                let mut sorted: Vec<&(String, Value)> = members.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                let inner: Vec<String> = sorted
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), canonical_json(v)))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }

    pub fn json_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

/// Characters a generated string draws from: plain ASCII, JSON
/// metacharacters, every control character, and 2-, 3- and 4-byte UTF-8.
fn random_char(rng: &mut Rng64) -> char {
    match rng.below(6) {
        0 | 1 => char::from(b'a' + rng.below(26) as u8),
        2 => ['"', '\\', '/', ' ', ':', ',', '{', ']'][rng.below(8) as usize],
        3 => char::from(rng.below(0x20) as u8),
        4 => ['é', 'ß', 'Ω', '\u{7f}', '\u{80}', '\u{2028}'][rng.below(6) as usize],
        _ => ['中', '€', '😀', '\u{10FFFF}', '\u{FEFF}'][rng.below(5) as usize],
    }
}

fn random_string(rng: &mut Rng64) -> String {
    let len = rng.below(12) as usize;
    (0..len).map(|_| random_char(rng)).collect()
}

/// Numbers at the edges of `{:?}` formatting as well as ordinary ones.
fn random_number(rng: &mut Rng64) -> f64 {
    match rng.below(12) {
        0 => -0.0,
        1 => 0.0,
        2 => f64::MIN_POSITIVE * rng.next_f64(), // subnormal
        3 => -5e-324,
        4 => f64::MAX * (1.0 - 1e-3 * rng.next_f64()),
        5 => -1e308 * (1.0 + 0.7 * rng.next_f64()),
        6 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize],
        7 => rng.below(1 << 20) as f64,
        8 => 1e-7 * rng.next_f64(),
        9 => 1e16 * rng.next_f64(),
        _ => (rng.next_f64() - 0.5) * 200.0,
    }
}

/// Object keys from a small alphabet, so duplicates and unsorted orders
/// are common.
fn random_key(rng: &mut Rng64) -> String {
    match rng.below(4) {
        0 => random_string(rng),
        _ => ["a", "b", "B", "aa", "", "é", "t_max_c", "rows"][rng.below(8) as usize].to_owned(),
    }
}

fn random_value(rng: &mut Rng64, depth: usize) -> Value {
    let scalar_only = depth == 0;
    match rng.below(if scalar_only { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Number(random_number(rng)),
        3 => Value::String(random_string(rng)),
        4 => Value::Array((0..rng.below(5)).map(|_| random_value(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(6)).map(|_| (random_key(rng), random_value(rng, depth - 1))).collect(),
        ),
    }
}

#[test]
fn writers_match_the_reference_serializers() {
    propcheck_cases("json writers match the reference", 400, |rng| {
        let v = random_value(rng, 4);
        assert_eq!(value_to_json(&v), reference::value_to_json(&v), "{v:?}");
        assert_eq!(canonical_json(&v), reference::canonical_json(&v), "{v:?}");
        let s = random_string(rng);
        assert_eq!(json_string(&s), reference::json_string(&s), "{s:?}");
    });
}

#[test]
fn every_control_character_escapes_like_the_reference() {
    for b in 0u8..0x80 {
        let s = format!("x{}y", char::from(b));
        assert_eq!(json_string(&s), reference::json_string(&s), "byte {b:#04x}");
    }
}

#[test]
fn object_writer_matches_the_reference_on_flat_objects() {
    propcheck_cases("object writer matches the reference", 200, |rng| {
        let mut members = Vec::new();
        let mut line = String::new();
        let mut w = ObjectWriter::new(&mut line);
        for _ in 0..rng.below(8) {
            let key = random_key(rng);
            let value = match rng.below(5) {
                0 => {
                    w.null(&key);
                    Value::Null
                }
                1 => {
                    let b = rng.below(2) == 0;
                    w.bool(&key, b);
                    Value::Bool(b)
                }
                2 => {
                    let n = random_number(rng);
                    w.num(&key, n);
                    Value::Number(n)
                }
                3 => {
                    let id = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
                    w.hex(&key, id, 32);
                    Value::String(format!("{id:032x}"))
                }
                _ => {
                    let s = random_string(rng);
                    w.str(&key, &s);
                    Value::String(s)
                }
            };
            members.push((key, value));
        }
        w.finish();
        assert_eq!(line, reference::value_to_json(&Value::Object(members)));
    });
}
