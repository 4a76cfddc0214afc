//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Layout: one *process* per shard (`pid` = shard id), one *thread* per
//! request (`tid` = request id), duration spans (`"ph":"B"`/`"E"`) for
//! the lifecycle stages (queued → prefill → decode, interrupted by
//! swap-wait / migration-wait spans), and instants for point events
//! (submitted, rejected, swap-out, prefill chunks, finished). The
//! events that belong to no request — a shard going down or up, a
//! prefix-cache entry expiring — are process-scoped instants on their
//! shard, with no thread lane.
//! Timestamps are the virtual tick rendered as microseconds, so one
//! tick = 1µs on the Perfetto timeline. A migrated request's wait span
//! closes on the source shard and its resumed stage opens on the
//! destination shard, keeping begin/end nesting valid per track.
//!
//! The export is a pure function of the event slice: the same events
//! produce the same bytes (determinism invariant #8).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceEventKind};
use crate::json::Json;

/// An open duration span on some request's track.
struct Open {
    stage: &'static str,
    pid: u32,
}

/// Append one event of the `traceEvents` array, one line each.
fn push(out: &mut String, event: Json) {
    let _ = writeln!(out, "  {event},");
}

/// Where an event lands: shard `pid`, request `tid`, tick `ts`.
type At = (u32, u64, u64);

/// An event on request `tid`'s lane of shard `pid`: a span edge (`B`,
/// `E`) or an instant (`i`, thread-scoped).
fn lane(out: &mut String, name: &str, ph: &str, (pid, tid, ts): At, args: Option<Json>) {
    let fields = [("name", name.into()), ("cat", "request".into()), ("ph", ph.into())]
        .into_iter()
        .chain((ph == "i").then(|| ("s", "t".into())))
        .chain([("ts", ts.into()), ("pid", pid.into()), ("tid", tid.into())])
        .chain(args.map(|args| ("args", args)));
    push(out, Json::obj(fields));
}

fn begin(out: &mut String, stage: &str, at: At, cycles: u64) {
    lane(out, stage, "B", at, Some(Json::obj([("cycles", cycles.into())])));
}

fn end(out: &mut String, stage: &str, at: At) {
    lane(out, stage, "E", at, None);
}

fn instant<const N: usize>(out: &mut String, name: &str, at: At, args: [(&str, Json); N]) {
    lane(out, name, "i", at, Some(Json::obj(args)));
}

/// An instant on shard `pid` as a whole.
fn process_instant(out: &mut String, name: &str, pid: u32, ts: u64, args: [(&str, Json); 1]) {
    push(
        out,
        Json::obj([
            ("name", name.into()),
            ("cat", "shard".into()),
            ("ph", "i".into()),
            ("s", "p".into()),
            ("ts", ts.into()),
            ("pid", pid.into()),
            ("args", Json::obj(args)),
        ]),
    );
}

/// Render an event stream as a complete Chrome trace-event JSON
/// document. Pure and deterministic: equal event slices yield equal
/// strings. Spans left open by a truncated run are closed at the
/// largest observed timestamp so the file always loads.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut body = String::new();
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    let mut resume: BTreeMap<u64, &'static str> = BTreeMap::new();
    let mut shards: BTreeSet<u32> = BTreeSet::new();
    let mut tracks: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut max_ts = 0u64;

    // Close the request's open span, remembering its stage for resume.
    let close = |body: &mut String, open: &mut BTreeMap<u64, Open>, req: u64, ts: u64| {
        if let Some(o) = open.remove(&req) {
            end(body, o.stage, (o.pid, req, ts));
            o.stage
        } else {
            "decode"
        }
    };

    for ev in events {
        let (ts, pid, req, cyc) = (ev.tick, ev.shard, ev.request, ev.cycles);
        let at = (pid, req, ts);
        shards.insert(pid);
        max_ts = max_ts.max(ts);
        let body = &mut body;
        match ev.kind {
            TraceEventKind::Submitted { prompt_tokens, max_new_tokens, priority } => {
                let args = [
                    ("prompt_tokens", prompt_tokens.into()),
                    ("max_new_tokens", max_new_tokens.into()),
                    ("priority", priority.into()),
                ];
                instant(body, "submitted", at, args);
            }
            TraceEventKind::Queued => {
                begin(body, "queued", at, cyc);
                open.insert(req, Open { stage: "queued", pid });
            }
            TraceEventKind::Admitted { est_bytes } => {
                close(body, &mut open, req, ts);
                instant(body, "admitted", at, [("est_bytes", est_bytes.into())]);
                begin(body, "prefill", at, cyc);
                open.insert(req, Open { stage: "prefill", pid });
            }
            TraceEventKind::Rejected { reason } => {
                close(body, &mut open, req, ts);
                instant(body, "rejected", at, [("reason", reason.into())]);
            }
            TraceEventKind::PrefillChunk { tokens, remaining } => {
                let args = [("tokens", tokens.into()), ("remaining", remaining.into())];
                instant(body, "prefill chunk", at, args);
            }
            TraceEventKind::FirstToken => {
                close(body, &mut open, req, ts);
                begin(body, "decode", at, cyc);
                open.insert(req, Open { stage: "decode", pid });
            }
            TraceEventKind::DecodeTick { .. } => {
                // One instant per token would swamp the timeline; the
                // decode span plus Finished's token count carry the story.
            }
            TraceEventKind::Preempted => {
                let was = close(body, &mut open, req, ts);
                resume.insert(req, was);
                begin(body, "swap wait", at, cyc);
                open.insert(req, Open { stage: "swap wait", pid });
            }
            TraceEventKind::SwapOutStart { bytes } => {
                instant(body, "swap out", at, [("bytes", bytes.into())]);
            }
            TraceEventKind::SwapInComplete { wait_ticks } => {
                close(body, &mut open, req, ts);
                instant(body, "swap in", at, [("wait_ticks", wait_ticks.into())]);
                let stage = resume.remove(&req).unwrap_or("decode");
                begin(body, stage, at, cyc);
                open.insert(req, Open { stage, pid });
            }
            TraceEventKind::MigrationStart { to_shard, bytes } => {
                let was = close(body, &mut open, req, ts);
                resume.insert(req, was);
                let args = [("to_shard", to_shard.into()), ("bytes", bytes.into())];
                instant(body, "migration out", at, args);
                begin(body, "migration wait", at, cyc);
                open.insert(req, Open { stage: "migration wait", pid });
            }
            TraceEventKind::MigrationLand { from_shard, wait_ticks } => {
                // The wait span closes on the *source* pid it opened on;
                // the resumed stage opens on the destination pid.
                close(body, &mut open, req, ts);
                let args = [("from_shard", from_shard.into()), ("wait_ticks", wait_ticks.into())];
                instant(body, "migration land", at, args);
                let stage = resume.remove(&req).unwrap_or("decode");
                begin(body, stage, at, cyc);
                open.insert(req, Open { stage, pid });
            }
            TraceEventKind::Finished { generated_tokens } => {
                close(body, &mut open, req, ts);
                instant(body, "finished", at, [("generated_tokens", generated_tokens.into())]);
            }
            TraceEventKind::Paused
            | TraceEventKind::Resumed
            | TraceEventKind::Extracted
            | TraceEventKind::Adopted => {
                // Engine-internal; the serving-level events above already
                // draw the corresponding spans.
            }
            // `req` carries a shard id or a cache entry id for the next
            // three, not a request: they skip the lane bookkeeping below.
            TraceEventKind::ShardDown { lost } => {
                process_instant(body, "shard down", pid, ts, [("lost", lost.into())]);
                continue;
            }
            TraceEventKind::ShardUp { down_ticks } => {
                process_instant(body, "shard up", pid, ts, [("down_ticks", down_ticks.into())]);
                continue;
            }
            TraceEventKind::PrefixExpired { bytes } => {
                process_instant(body, "prefix expired", pid, ts, [("bytes", bytes.into())]);
                continue;
            }
            TraceEventKind::TimedOut { deadline } => {
                close(body, &mut open, req, ts);
                resume.remove(&req);
                instant(body, "timed out", at, [("deadline", deadline.into())]);
            }
            TraceEventKind::Retried { attempt } => {
                // The lost attempt's span ends here (a timeout already
                // closed it); the retry's `Queued` opens the next one.
                close(body, &mut open, req, ts);
                resume.remove(&req);
                instant(body, "retried", at, [("attempt", attempt.into())]);
            }
            TraceEventKind::Shed => {
                close(body, &mut open, req, ts);
                resume.remove(&req);
                instant(body, "shed", at, []);
            }
            TraceEventKind::DeadLetter { attempts } => {
                close(body, &mut open, req, ts);
                resume.remove(&req);
                instant(body, "dead letter", at, [("attempts", attempts.into())]);
            }
            TraceEventKind::Recovered { recovery_ticks } => {
                instant(body, "recovered", at, [("recovery_ticks", recovery_ticks.into())]);
            }
            TraceEventKind::PrefixSpill { bytes } => {
                instant(body, "prefix spill", at, [("bytes", bytes.into())]);
            }
            TraceEventKind::PrefixFill { bytes } => {
                instant(body, "prefix fill", at, [("bytes", bytes.into())]);
            }
        }
        tracks.insert((pid, req));
    }

    // A truncated run can leave spans open; close them so the file loads.
    for (req, o) in &open {
        end(&mut body, o.stage, (o.pid, *req, max_ts));
    }

    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for &pid in &shards {
        let meta = |name: &str, args: Json| {
            Json::obj([("name", name.into()), ("ph", "M".into()), ("pid", pid.into()), ("args", args)])
        };
        push(&mut out, meta("process_name", Json::obj([("name", Json::Str(format!("shard {pid}")))])));
        push(&mut out, meta("process_sort_index", Json::obj([("sort_index", pid.into())])));
    }
    for &(pid, tid) in &tracks {
        push(
            &mut out,
            Json::obj([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", pid.into()),
                ("tid", tid.into()),
                ("args", Json::obj([("name", Json::Str(format!("request {tid}")))])),
            ]),
        );
    }
    out.push_str(&body);
    // The last event takes no comma.
    if let Some(len) = out.strip_suffix(",\n").map(str::len) {
        out.truncate(len);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceEventKind};

    fn ev(tick: u64, shard: u32, request: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { tick, cycles: tick * 10, shard, request, kind }
    }

    #[test]
    fn lifecycle_exports_valid_balanced_json() {
        let events = vec![
            ev(0, 0, 7, TraceEventKind::Submitted { prompt_tokens: 8, max_new_tokens: 4, priority: 1 }),
            ev(0, 0, 7, TraceEventKind::Queued),
            ev(1, 0, 7, TraceEventKind::Admitted { est_bytes: 512 }),
            ev(2, 0, 7, TraceEventKind::FirstToken),
            ev(3, 0, 7, TraceEventKind::Preempted),
            ev(3, 0, 7, TraceEventKind::SwapOutStart { bytes: 256 }),
            ev(6, 0, 7, TraceEventKind::SwapInComplete { wait_ticks: 3 }),
            ev(7, 0, 7, TraceEventKind::MigrationStart { to_shard: 1, bytes: 256 }),
            ev(9, 1, 7, TraceEventKind::MigrationLand { from_shard: 0, wait_ticks: 2 }),
            ev(11, 1, 7, TraceEventKind::Finished { generated_tokens: 4 }),
        ];
        let json = chrome_trace_json(&events);
        Json::parse(&json).expect("chrome trace must parse");
        // Determinism: same events, same bytes.
        assert_eq!(json, chrome_trace_json(&events));
        // One process track per shard seen.
        assert_eq!(json.matches("process_name").count(), 2);
        assert!(json.contains("\"shard 0\""));
        assert!(json.contains("\"shard 1\""));
        // Balanced spans.
        assert_eq!(json.matches("\"ph\": \"B\"").count(), json.matches("\"ph\": \"E\"").count());
        // The migration-wait span ends on the source pid, and the resumed
        // decode span opens on the destination pid.
        assert!(json.contains(
            "{\"name\": \"migration wait\", \"cat\": \"request\", \"ph\": \"E\", \"ts\": 9, \
             \"pid\": 0, \"tid\": 7}"
        ));
        assert!(json.contains("\"finished\""));
    }

    #[test]
    fn a_retry_closes_the_lost_attempts_span() {
        // A crash loses the attempt mid-decode, on shard 1; the retry is
        // stamped on the home shard 0 and re-queued there. Without the
        // close at `Retried`, the retry's `Queued` would replace the open
        // decode span and leave it unbalanced.
        let events = vec![
            ev(0, 0, 4, TraceEventKind::Queued),
            ev(1, 1, 4, TraceEventKind::Admitted { est_bytes: 64 }),
            ev(2, 1, 4, TraceEventKind::FirstToken),
            ev(5, 0, 4, TraceEventKind::Retried { attempt: 1 }),
            ev(7, 0, 4, TraceEventKind::Queued),
            ev(8, 0, 4, TraceEventKind::Admitted { est_bytes: 64 }),
            ev(9, 0, 4, TraceEventKind::Finished { generated_tokens: 2 }),
        ];
        let json = chrome_trace_json(&events);
        Json::parse(&json).expect("must parse");
        // queued, prefill, decode; then queued and prefill again.
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 5);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 5);
        // The lost decode span ends at the retry, on the shard it ran on.
        assert!(json.contains(
            "{\"name\": \"decode\", \"cat\": \"request\", \"ph\": \"E\", \"ts\": 5, \
             \"pid\": 1, \"tid\": 4}"
        ));
    }

    #[test]
    fn truncated_run_closes_open_spans() {
        let events = vec![
            ev(0, 0, 1, TraceEventKind::Queued),
            ev(2, 0, 2, TraceEventKind::Queued),
            ev(5, 0, 2, TraceEventKind::Admitted { est_bytes: 64 }),
        ];
        let json = chrome_trace_json(&events);
        Json::parse(&json).expect("must parse");
        assert_eq!(json.matches("\"ph\": \"B\"").count(), json.matches("\"ph\": \"E\"").count());
    }

    #[test]
    fn shard_and_cache_events_get_no_request_lane() {
        // The cluster stamps `ShardDown`/`ShardUp` with the shard id and
        // the engine stamps `PrefixExpired` with the cache entry id, in
        // the request field: the ids 0 and 5 are no requests.
        let events = vec![
            ev(1, 0, 3, TraceEventKind::Queued),
            ev(2, 0, 0, TraceEventKind::ShardDown { lost: 1 }),
            ev(4, 0, 5, TraceEventKind::PrefixExpired { bytes: 64 }),
            ev(9, 0, 0, TraceEventKind::ShardUp { down_ticks: 7 }),
        ];
        let doc = Json::parse(&chrome_trace_json(&events)).expect("must parse");
        let Some(Json::Arr(trace)) = doc.get("traceEvents") else { panic!("no traceEvents in {doc}") };
        let named =
            |name: &'static str| trace.iter().filter(move |e| e.get("name") == Some(&Json::from(name)));
        let lanes: Vec<_> = named("thread_name").filter_map(|e| e.get("args")?.get("name")).collect();
        assert_eq!(lanes, [&Json::from("request 3")]);
        for name in ["shard down", "prefix expired", "shard up"] {
            let event = named(name).next().unwrap_or_else(|| panic!("no {name:?} in {doc}"));
            assert_eq!(event.get("s"), Some(&Json::from("p")), "{event}");
            assert_eq!(event.get("pid"), Some(&Json::U64(0)), "{event}");
            assert_eq!(event.get("tid"), None, "{event}");
        }
    }

    #[test]
    fn empty_stream_is_still_a_valid_trace() {
        let json = chrome_trace_json(&[]);
        Json::parse(&json).expect("must parse");
        assert!(json.contains("traceEvents"));
    }
}
