//! Trace exporters: JSONL and chrome://tracing (`trace_event` format).
//!
//! The chrome exporter emits the JSON-array form of the Trace Event
//! Format: one `"X"` (complete) event per hop — laid out on the *sending
//! node's* track with microsecond timestamps — plus `"s"`/`"t"` flow
//! events stitching each causal chain together so chrome://tracing (or
//! <https://ui.perfetto.dev>) draws arrows along every multicast tree.
//! Engine scheduler activity can be overlaid as instant events on a
//! dedicated track via `ticks`.

use crate::record::{RecordKind, TraceRecord};
use serde_json::Value;
use std::io::{self, Write};

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn class_name(class: u8, class_names: &[&str]) -> String {
    class_names.get(class as usize).map_or_else(|| format!("class{class}"), |n| n.to_string())
}

/// Write one JSON object per line, one line per record. Every field of
/// [`TraceRecord`] is preserved; `class` is additionally resolved to its
/// name for grep-ability.
pub fn write_jsonl<W: Write>(
    w: &mut W,
    records: &[TraceRecord],
    class_names: &[&str],
) -> io::Result<()> {
    for rec in records {
        let line = obj(vec![
            ("id", Value::U64(rec.id.0)),
            ("parent", rec.parent.map_or(Value::Null, |p| Value::U64(p.0))),
            (
                "kind",
                Value::Str(
                    match rec.kind {
                        RecordKind::Origin => "origin",
                        RecordKind::Hop => "hop",
                    }
                    .to_string(),
                ),
            ),
            ("class", Value::Str(class_name(rec.class, class_names))),
            ("from", Value::U64(rec.from)),
            ("to", Value::U64(rec.to)),
            ("sent_ms", Value::U64(rec.sent_ms)),
            ("recv_ms", Value::U64(rec.recv_ms)),
            ("depth", Value::U64(rec.depth as u64)),
            (
                "hops_class",
                rec.hops_class.map_or(Value::Null, |c| Value::Str(class_name(c, class_names))),
            ),
        ]);
        writeln!(w, "{}", serde_json::to_string(&line).map_err(io::Error::other)?)?;
    }
    Ok(())
}

fn flow_event(ph: &str, rec: &TraceRecord, class_names: &[&str], ts_us: u64) -> Value {
    obj(vec![
        ("name", Value::Str(class_name(rec.class, class_names))),
        ("cat", Value::Str("flow".to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("id", Value::U64(rec.id.0)),
        ("ts", Value::U64(ts_us)),
        ("pid", Value::U64(0)),
        ("tid", Value::U64(rec.from)),
    ])
}

/// Write a chrome://tracing-loadable JSON array. `ticks` (optional) are
/// `(sim_ms, seq)` pairs from the simulation engine's tick log, rendered
/// as instant events on a dedicated `engine` track (tid = `u64::MAX`).
pub fn write_chrome_trace<W: Write>(
    w: &mut W,
    records: &[TraceRecord],
    class_names: &[&str],
    ticks: &[(u64, u64)],
) -> io::Result<()> {
    let mut events: Vec<Value> = Vec::with_capacity(records.len() * 2 + ticks.len());
    for rec in records {
        let ts = rec.sent_ms * 1_000;
        match rec.kind {
            RecordKind::Origin => {
                events.push(obj(vec![
                    ("name", Value::Str(format!("{}+", class_name(rec.class, class_names)))),
                    ("cat", Value::Str("origin".to_string())),
                    ("ph", Value::Str("i".to_string())),
                    ("s", Value::Str("t".to_string())),
                    ("ts", Value::U64(ts)),
                    ("pid", Value::U64(0)),
                    ("tid", Value::U64(rec.from)),
                    ("args", obj(vec![("id", Value::U64(rec.id.0))])),
                ]));
                // Chains flow out of the origin.
                events.push(flow_event("s", rec, class_names, ts));
            }
            RecordKind::Hop => {
                events.push(obj(vec![
                    ("name", Value::Str(class_name(rec.class, class_names))),
                    ("cat", Value::Str("overlay".to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::U64(ts)),
                    ("dur", Value::U64((rec.recv_ms - rec.sent_ms) * 1_000)),
                    ("pid", Value::U64(0)),
                    ("tid", Value::U64(rec.from)),
                    (
                        "args",
                        obj(vec![
                            ("id", Value::U64(rec.id.0)),
                            ("parent", rec.parent.map_or(Value::Null, |p| Value::U64(p.0))),
                            ("to", Value::U64(rec.to)),
                            ("depth", Value::U64(rec.depth as u64)),
                        ]),
                    ),
                ]));
                events.push(flow_event("t", rec, class_names, ts));
            }
        }
    }
    for &(ms, seq) in ticks {
        events.push(obj(vec![
            ("name", Value::Str("tick".to_string())),
            ("cat", Value::Str("engine".to_string())),
            ("ph", Value::Str("i".to_string())),
            ("s", Value::Str("t".to_string())),
            ("ts", Value::U64(ms * 1_000)),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(u64::MAX)),
            ("args", obj(vec![("seq", Value::U64(seq))])),
        ]));
    }
    let doc = serde_json::to_string(&Value::Array(events)).map_err(io::Error::other)?;
    w.write_all(doc.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::disabled();
        t.enable(64);
        t.set_now_ms(100);
        let rt = t.route(&[1, 2, 3], 0, 2, true).unwrap();
        t.hop(rt.tail, 1, 3, 4, Some(1));
        t
    }

    #[test]
    fn jsonl_emits_one_parseable_line_per_record() {
        let t = sample_tracer();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &t.snapshot(), &["A", "B", "C"]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), t.len());
        for line in lines {
            let v = serde_json::parse(line).unwrap();
            let Value::Object(fields) = &v else { panic!("expected object, got {v:?}") };
            assert!(fields.iter().any(|(k, _)| k == "class"));
        }
        assert!(text.contains("\"A\""));
    }

    #[test]
    fn chrome_trace_is_a_json_array_with_flow_events() {
        let t = sample_tracer();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &t.snapshot(), &["A", "B", "C"], &[(100, 1)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = serde_json::parse(&text).unwrap();
        let Value::Array(events) = &v else { panic!("expected array, got {v:?}") };
        // origin: i + s; 3 hops: X + t each; 1 engine tick.
        assert_eq!(events.len(), 2 + 3 * 2 + 1);
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"s\""));
        assert!(text.contains("\"engine\""));
    }
}
