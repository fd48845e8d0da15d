//! Chrome trace-event (Perfetto-compatible) JSON export.
//!
//! Emits the classic `{"traceEvents": [...]}` object format that both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! open directly. Std-only, hand-serialized (the same discipline as
//! `lq_telemetry`'s exporters): every string we write comes from a
//! fixed vocabulary or an integer, so no general JSON escaping is
//! needed — asserted in debug builds anyway.
//!
//! Track mapping:
//!
//! * **pid 0 "control"** — the submitting / serving-loop thread
//!   ([`Track::Control`]).
//! * **pid 1 "pool"** — one tid per worker slot ([`Track::Worker`]).
//! * **pid 2 "requests"** — one tid per request ID
//!   ([`Track::Request`]), so each request's lifecycle renders as its
//!   own lane.
//!
//! Span kinds ([`crate::EventKind::is_span`]) become complete slices
//! (`"ph": "X"`) with microsecond `ts`/`dur`; the rest become
//! thread-scoped instants (`"ph": "i"`, `"s": "t"`). Payloads ride in
//! `args` (`corr`, `a`, `b`, and `vts_us` when a virtual timestamp is
//! present) so they are inspectable in the Perfetto slice panel.

use crate::{Event, Track};
use std::fmt::Write as _;

fn push_us(out: &mut String, key: &str, ns: u64) {
    // Microseconds with nanosecond precision; Perfetto's `ts` unit.
    let _ = write!(out, "\"{key}\":{}.{:03}", ns / 1_000, ns % 1_000);
}

fn track_ids(t: Track) -> (u64, u64) {
    match t {
        Track::Control => (0, 0),
        Track::Worker(w) => (1, u64::from(w)),
        Track::Request(r) => (2, r),
    }
}

fn push_event(out: &mut String, ev: &Event) {
    let (pid, tid) = track_ids(ev.track);
    let name = ev.kind.name();
    debug_assert!(
        name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
        "event names must not need JSON escaping"
    );
    out.push_str("{\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"cat\":\"lq\",");
    if ev.kind.is_span() {
        out.push_str("\"ph\":\"X\",");
        push_us(out, "dur", ev.dur_ns);
        out.push(',');
    } else {
        out.push_str("\"ph\":\"i\",\"s\":\"t\",");
    }
    push_us(out, "ts", ev.ts_ns);
    let _ = write!(
        out,
        ",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"corr\":{},\"a\":{},\"b\":{}",
        ev.corr, ev.a, ev.b
    );
    if ev.vts_ns != 0 {
        out.push(',');
        push_us(out, "vts_us", ev.vts_ns);
    }
    out.push_str("}}");
}

fn push_meta(out: &mut String, name: &str, pid: u64, tid: Option<u64>, label: &str) {
    let _ = write!(out, "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},");
    if let Some(tid) = tid {
        let _ = write!(out, "\"tid\":{tid},");
    }
    let _ = write!(out, "\"args\":{{\"name\":\"{label}\"}}}}");
}

/// Serialize `events` as a Chrome trace-event JSON document. The
/// result is a complete, self-contained file body — write it to disk
/// and drag it into Perfetto.
#[must_use]
pub fn export(events: &[Event]) -> String {
    // Name every track we are about to reference, workers and requests
    // sorted so the Perfetto track order is stable run-to-run.
    let mut workers: Vec<u64> = Vec::new();
    let mut requests: Vec<u64> = Vec::new();
    for ev in events {
        match ev.track {
            Track::Control => {}
            Track::Worker(w) => {
                if !workers.contains(&u64::from(w)) {
                    workers.push(u64::from(w));
                }
            }
            Track::Request(r) => {
                if !requests.contains(&r) {
                    requests.push(r);
                }
            }
        }
    }
    workers.sort_unstable();
    requests.sort_unstable();

    let mut out = String::with_capacity(events.len() * 128 + 1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    sep(&mut out);
    push_meta(&mut out, "process_name", 0, None, "control");
    sep(&mut out);
    push_meta(&mut out, "process_name", 1, None, "pool");
    sep(&mut out);
    push_meta(&mut out, "process_name", 2, None, "requests");
    sep(&mut out);
    push_meta(&mut out, "thread_name", 0, Some(0), "submit");
    for &w in &workers {
        sep(&mut out);
        push_meta(&mut out, "thread_name", 1, Some(w), &format!("worker {w}"));
    }
    for &r in &requests {
        sep(&mut out);
        push_meta(&mut out, "thread_name", 2, Some(r), &format!("request {r}"));
    }
    for ev in events {
        sep(&mut out);
        push_event(&mut out, ev);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, EventKind};

    fn ev(kind: EventKind, track: Track, ts: u64, dur: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            vts_ns: if matches!(kind, EventKind::ReqIngest) {
                1_500
            } else {
                0
            },
            kind,
            track,
            corr: 9,
            a: 1,
            b: 2,
        }
    }

    #[test]
    fn export_is_valid_json_with_expected_shapes() {
        let events = [
            ev(EventKind::JobSubmit, Track::Control, 1_000, 0),
            ev(EventKind::JobFinish, Track::Worker(3), 2_500, 40_000),
            ev(EventKind::ReqIngest, Track::Request(12), 3_000, 0),
        ];
        let s = export(&events);
        json::validate(&s).expect("exporter must emit valid JSON");
        // Span → complete slice with microsecond duration.
        assert!(s.contains("\"ph\":\"X\",\"dur\":40.000,\"ts\":2.500"));
        // Instant → thread-scoped.
        assert!(s.contains("\"ph\":\"i\",\"s\":\"t\""));
        // Track metadata names every referenced lane.
        assert!(s.contains("\"args\":{\"name\":\"worker 3\"}"));
        assert!(s.contains("\"args\":{\"name\":\"request 12\"}"));
        // Virtual timestamps surface in args.
        assert!(s.contains("\"vts_us\":1.500"));
    }

    #[test]
    fn empty_trace_is_still_a_valid_document() {
        let s = export(&[]);
        json::validate(&s).expect("empty export must stay valid");
        assert!(s.starts_with("{\"traceEvents\":["));
    }
}
