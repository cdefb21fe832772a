//! Chrome-trace (Perfetto / `chrome://tracing`) export and schema
//! validation.
//!
//! Export writes the JSON Object Format: `{"traceEvents":[...]}` with
//! `B`/`E` duration events, `i` instants, `C` counter samples, and `M`
//! metadata records naming every process and thread. Timestamps are
//! microseconds (fractional — nanosecond precision survives). Each
//! [`TrackDump`](crate::TrackDump) becomes one `(pid, tid)` timeline row, so a single-boot
//! trace renders with one track per pipeline worker and a fleet trace with
//! one process group per simulated server.

use crate::json::{self, escape, fmt_f64, Json};
use crate::span::{AttrValue, EventKind};
use crate::trace::Trace;

fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => format!("{n}"),
        AttrValue::I64(n) => format!("{n}"),
        AttrValue::F64(n) => fmt_f64(*n),
        AttrValue::Bool(b) => format!("{b}"),
        AttrValue::Str(s) => format!("\"{}\"", escape(s)),
    }
}

fn args_json(attrs: &[(&'static str, AttrValue)]) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), attr_json(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

impl Trace {
    /// Renders the trace as Chrome-trace JSON, rebased so the earliest
    /// event sits at t=0.
    pub fn to_chrome_json(&self) -> String {
        let base = self
            .tracks
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.ts_ns))
            .min()
            .unwrap_or(0);
        let mut events: Vec<String> = Vec::new();

        // Process metadata: one record per pid, named by the first track
        // that carries a process name.
        let mut pids: Vec<(u32, String)> = Vec::new();
        for t in &self.tracks {
            if !pids.iter().any(|(p, _)| *p == t.pid) {
                let name = self
                    .tracks
                    .iter()
                    .filter(|o| o.pid == t.pid)
                    .find_map(|o| o.process_name.clone())
                    .unwrap_or_else(|| format!("process {}", t.pid));
                pids.push((t.pid, name));
            }
        }
        for (pid, name) in &pids {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            ));
        }
        for t in &self.tracks {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                t.pid,
                t.id,
                escape(&t.name)
            ));
        }

        for t in &self.tracks {
            for ev in &t.events {
                let ts = ts_us(ev.ts_ns - base);
                let name = escape(&ev.name);
                let head = format!(
                    "\"pid\":{},\"tid\":{},\"ts\":{ts},\"name\":\"{name}\"",
                    t.pid, t.id
                );
                let line = match &ev.kind {
                    EventKind::Begin => {
                        format!("{{\"ph\":\"B\",{head},\"args\":{}}}", args_json(&ev.attrs))
                    }
                    EventKind::End if ev.attrs.is_empty() => format!("{{\"ph\":\"E\",{head}}}"),
                    EventKind::End => {
                        format!("{{\"ph\":\"E\",{head},\"args\":{}}}", args_json(&ev.attrs))
                    }
                    EventKind::Instant => format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",{head},\"args\":{}}}",
                        args_json(&ev.attrs)
                    ),
                    EventKind::Counter(v) => format!(
                        "{{\"ph\":\"C\",{head},\"args\":{{\"value\":{}}}}}",
                        fmt_f64(*v)
                    ),
                };
                events.push(line);
            }
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }
}

/// What [`validate_chrome`] measured while checking a trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events (including metadata).
    pub events: usize,
    /// Distinct `(pid, tid)` tracks carrying timed events.
    pub tracks: usize,
    /// Matched begin/end pairs.
    pub span_pairs: usize,
    /// Instant events.
    pub instants: usize,
}

/// Validates Chrome-trace JSON against the event schema: well-formed
/// JSON, a `traceEvents` array (or a bare array), required fields per
/// event, strictly matched B/E pairs per `(pid, tid)` track, and
/// non-decreasing timestamps per track.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_chrome(text: &str) -> Result<ChromeSummary, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = match &doc {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing `traceEvents` array")?,
        _ => return Err("top level must be an object or array".into()),
    };
    let mut summary = ChromeSummary {
        events: events.len(),
        ..Default::default()
    };
    // Per-track open-span stacks and timestamp high-water marks.
    let mut stacks: Vec<((u64, u64), Vec<String>)> = Vec::new();
    let mut last_ts: Vec<((u64, u64), f64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing `ph`"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("missing numeric `pid`"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("missing numeric `tid`"))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing `name`"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric `ts`"))?;
        if ts < 0.0 {
            return Err(ctx("negative `ts`"));
        }
        let key = (pid, tid);
        match last_ts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(ctx(&format!(
                        "timestamp regressed on track pid={pid} tid={tid} ({ts} < {last})"
                    )));
                }
                *last = ts;
            }
            None => {
                last_ts.push((key, ts));
                summary.tracks += 1;
            }
        }
        match ph {
            "B" => match stacks.iter_mut().find(|(k, _)| *k == key) {
                Some((_, stack)) => stack.push(name.to_string()),
                None => stacks.push((key, vec![name.to_string()])),
            },
            "E" => {
                let stack = stacks
                    .iter_mut()
                    .find(|(k, _)| *k == key)
                    .map(|(_, s)| s)
                    .ok_or_else(|| ctx("`E` with no open span on its track"))?;
                let open = stack
                    .pop()
                    .ok_or_else(|| ctx("`E` with no open span on its track"))?;
                if open != name {
                    return Err(ctx(&format!("`E` named `{name}` closes span `{open}`")));
                }
                summary.span_pairs += 1;
            }
            "i" | "I" => summary.instants += 1,
            "C" => {
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("counter without numeric `args.value`"))?;
            }
            other => return Err(ctx(&format!("unknown phase `{other}`"))),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "track pid={pid} tid={tid} ended with {} unmatched `B` events (first open: `{}`)",
                stack.len(),
                stack[0]
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Event;
    use crate::trace::TrackDump;
    use std::borrow::Cow;

    fn ev(kind: EventKind, name: &'static str, ts: u64) -> Event {
        Event {
            kind,
            name: Cow::Borrowed(name),
            ts_ns: ts,
            attrs: Vec::new(),
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            tracks: vec![
                TrackDump {
                    id: 1,
                    pid: 1,
                    name: "main".into(),
                    process_name: Some("boot".into()),
                    events: vec![
                        ev(EventKind::Begin, "pipeline", 1_000),
                        ev(EventKind::Instant, "ready", 1_500),
                        ev(EventKind::Counter(0.5), "rps", 1_600),
                        ev(EventKind::End, "pipeline", 2_000),
                    ],
                },
                TrackDump {
                    id: 2,
                    pid: 1,
                    name: "worker 0".into(),
                    process_name: None,
                    events: vec![
                        ev(EventKind::Begin, "translate", 1_100),
                        ev(EventKind::End, "translate", 1_900),
                    ],
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn export_validates_and_rebases() {
        let json = sample_trace().to_chrome_json();
        let summary = validate_chrome(&json).expect("schema-valid");
        assert_eq!(summary.span_pairs, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.tracks, 2);
        // Rebased: earliest event at ts 0.
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"boot\""));
    }

    #[test]
    fn validator_rejects_unmatched_and_regressing() {
        let unmatched = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":0,"name":"a","args":{}}
        ]}"#;
        assert!(validate_chrome(unmatched)
            .unwrap_err()
            .contains("unmatched"));

        let regress = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":10,"name":"a","args":{}},
            {"ph":"E","pid":1,"tid":1,"ts":5,"name":"a"}
        ]}"#;
        assert!(validate_chrome(regress).unwrap_err().contains("regressed"));

        let crossed = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":0,"name":"a","args":{}},
            {"ph":"E","pid":1,"tid":1,"ts":5,"name":"b"}
        ]}"#;
        assert!(validate_chrome(crossed)
            .unwrap_err()
            .contains("closes span"));

        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{}").is_err());
    }

    #[test]
    fn attrs_render_typed() {
        let mut t = sample_trace();
        t.tracks[0].events[0].attrs = vec![
            ("func", AttrValue::U64(7)),
            ("tag", AttrValue::Str("a\"b".into())),
            ("hot", AttrValue::Bool(true)),
            ("frac", AttrValue::F64(0.25)),
        ];
        let json = t.to_chrome_json();
        assert!(json.contains("\"func\":7"));
        assert!(json.contains("\"tag\":\"a\\\"b\""));
        assert!(json.contains("\"hot\":true"));
        assert!(json.contains("\"frac\":0.25"));
        validate_chrome(&json).expect("still valid");
    }
}
