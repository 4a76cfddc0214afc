//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Layout: one *process* per shard (`pid` = shard id), one *thread* per
//! request (`tid` = request id), duration spans (`"ph":"B"`/`"E"`) for
//! the lifecycle stages (queued → prefill → decode, interrupted by
//! swap-wait / migration-wait spans), and instants for point events
//! (submitted, rejected, swap-out, prefill chunks, finished).
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

/// An open duration span on some request's track.
struct Open {
    stage: &'static str,
    pid: u32,
}

fn begin(parts: &mut Vec<String>, stage: &str, pid: u32, tid: u64, ts: u64, cycles: u64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"name\": \"{stage}\", \"cat\": \"request\", \"ph\": \"B\", \"ts\": {ts}, \
         \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"cycles\": {cycles}}}}}"
    );
    parts.push(s);
    stage.to_string()
}

fn end(parts: &mut Vec<String>, stage: &str, pid: u32, tid: u64, ts: u64) {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"name\": \"{stage}\", \"cat\": \"request\", \"ph\": \"E\", \"ts\": {ts}, \
         \"pid\": {pid}, \"tid\": {tid}}}"
    );
    parts.push(s);
}

fn instant(parts: &mut Vec<String>, name: &str, pid: u32, tid: u64, ts: u64, args: &str) {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"name\": \"{name}\", \"cat\": \"request\", \"ph\": \"i\", \"s\": \"t\", \
         \"ts\": {ts}, \"pid\": {pid}, \"tid\": {tid}, \"args\": {{{args}}}}}"
    );
    parts.push(s);
}

/// Render an event stream as a complete Chrome trace-event JSON
/// document. Pure and deterministic: equal event slices yield equal
/// strings. Spans left open by a truncated run are closed at the
/// largest observed timestamp so the file always loads.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    let mut resume: BTreeMap<u64, &'static str> = BTreeMap::new();
    let mut shards: BTreeSet<u32> = BTreeSet::new();
    let mut tracks: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut max_ts = 0u64;

    // Close the request's open span, remembering its stage for resume.
    let close = |parts: &mut Vec<String>, open: &mut BTreeMap<u64, Open>, req: u64, ts: u64| {
        if let Some(o) = open.remove(&req) {
            end(parts, o.stage, o.pid, req, ts);
            o.stage
        } else {
            "decode"
        }
    };

    for ev in events {
        let (ts, pid, req, cyc) = (ev.tick, ev.shard, ev.request, ev.cycles);
        shards.insert(pid);
        tracks.insert((pid, req));
        max_ts = max_ts.max(ts);
        match ev.kind {
            TraceEventKind::Submitted { prompt_tokens, max_new_tokens, priority } => {
                let args = format!(
                    "\"prompt_tokens\": {prompt_tokens}, \"max_new_tokens\": {max_new_tokens}, \
                     \"priority\": {priority}"
                );
                instant(&mut parts, "submitted", pid, req, ts, &args);
            }
            TraceEventKind::Queued => {
                begin(&mut parts, "queued", pid, req, ts, cyc);
                open.insert(req, Open { stage: "queued", pid });
            }
            TraceEventKind::Admitted { est_bytes } => {
                close(&mut parts, &mut open, req, ts);
                instant(&mut parts, "admitted", pid, req, ts, &format!("\"est_bytes\": {est_bytes}"));
                begin(&mut parts, "prefill", pid, req, ts, cyc);
                open.insert(req, Open { stage: "prefill", pid });
            }
            TraceEventKind::Rejected { reason } => {
                close(&mut parts, &mut open, req, ts);
                instant(&mut parts, "rejected", pid, req, ts, &format!("\"reason\": \"{reason}\""));
            }
            TraceEventKind::PrefillChunk { tokens, remaining } => {
                let args = format!("\"tokens\": {tokens}, \"remaining\": {remaining}");
                instant(&mut parts, "prefill chunk", pid, req, ts, &args);
            }
            TraceEventKind::FirstToken => {
                close(&mut parts, &mut open, req, ts);
                begin(&mut parts, "decode", pid, req, ts, cyc);
                open.insert(req, Open { stage: "decode", pid });
            }
            TraceEventKind::DecodeTick { .. } => {
                // One instant per token would swamp the timeline; the
                // decode span plus Finished's token count carry the story.
            }
            TraceEventKind::Preempted => {
                let was = close(&mut parts, &mut open, req, ts);
                resume.insert(req, was);
                begin(&mut parts, "swap wait", pid, req, ts, cyc);
                open.insert(req, Open { stage: "swap wait", pid });
            }
            TraceEventKind::SwapOutStart { bytes } => {
                instant(&mut parts, "swap out", pid, req, ts, &format!("\"bytes\": {bytes}"));
            }
            TraceEventKind::SwapInComplete { wait_ticks } => {
                close(&mut parts, &mut open, req, ts);
                instant(&mut parts, "swap in", pid, req, ts, &format!("\"wait_ticks\": {wait_ticks}"));
                let stage = resume.remove(&req).unwrap_or("decode");
                begin(&mut parts, stage, pid, req, ts, cyc);
                open.insert(req, Open { stage, pid });
            }
            TraceEventKind::MigrationStart { to_shard, bytes } => {
                let was = close(&mut parts, &mut open, req, ts);
                resume.insert(req, was);
                let args = format!("\"to_shard\": {to_shard}, \"bytes\": {bytes}");
                instant(&mut parts, "migration out", pid, req, ts, &args);
                begin(&mut parts, "migration wait", pid, req, ts, cyc);
                open.insert(req, Open { stage: "migration wait", pid });
            }
            TraceEventKind::MigrationLand { from_shard, wait_ticks } => {
                // The wait span closes on the *source* pid it opened on;
                // the resumed stage opens on the destination pid.
                close(&mut parts, &mut open, req, ts);
                let args = format!("\"from_shard\": {from_shard}, \"wait_ticks\": {wait_ticks}");
                instant(&mut parts, "migration land", pid, req, ts, &args);
                let stage = resume.remove(&req).unwrap_or("decode");
                begin(&mut parts, stage, pid, req, ts, cyc);
                open.insert(req, Open { stage, pid });
            }
            TraceEventKind::Finished { generated_tokens } => {
                close(&mut parts, &mut open, req, ts);
                let args = format!("\"generated_tokens\": {generated_tokens}");
                instant(&mut parts, "finished", pid, req, ts, &args);
            }
            TraceEventKind::Paused
            | TraceEventKind::Resumed
            | TraceEventKind::Extracted
            | TraceEventKind::Adopted => {
                // Engine-internal; the serving-level events above already
                // draw the corresponding spans.
            }
            TraceEventKind::ShardDown { lost } => {
                // Cluster-plane event: `req` carries the shard id, so it
                // lands on a dedicated per-shard track.
                instant(&mut parts, "shard down", pid, req, ts, &format!("\"lost\": {lost}"));
            }
            TraceEventKind::ShardUp { down_ticks } => {
                instant(&mut parts, "shard up", pid, req, ts, &format!("\"down_ticks\": {down_ticks}"));
            }
            TraceEventKind::TimedOut { deadline } => {
                close(&mut parts, &mut open, req, ts);
                resume.remove(&req);
                instant(&mut parts, "timed out", pid, req, ts, &format!("\"deadline\": \"{deadline}\""));
            }
            TraceEventKind::Retried { attempt } => {
                // The lost attempt's span ends here (a timeout already
                // closed it); the retry's `Queued` opens the next one.
                close(&mut parts, &mut open, req, ts);
                resume.remove(&req);
                instant(&mut parts, "retried", pid, req, ts, &format!("\"attempt\": {attempt}"));
            }
            TraceEventKind::Shed => {
                close(&mut parts, &mut open, req, ts);
                resume.remove(&req);
                instant(&mut parts, "shed", pid, req, ts, "");
            }
            TraceEventKind::DeadLetter { attempts } => {
                close(&mut parts, &mut open, req, ts);
                resume.remove(&req);
                instant(&mut parts, "dead letter", pid, req, ts, &format!("\"attempts\": {attempts}"));
            }
            TraceEventKind::Recovered { recovery_ticks } => {
                let args = format!("\"recovery_ticks\": {recovery_ticks}");
                instant(&mut parts, "recovered", pid, req, ts, &args);
            }
            TraceEventKind::PrefixSpill { bytes } => {
                instant(&mut parts, "prefix spill", pid, req, ts, &format!("\"bytes\": {bytes}"));
            }
            TraceEventKind::PrefixFill { bytes } => {
                instant(&mut parts, "prefix fill", pid, req, ts, &format!("\"bytes\": {bytes}"));
            }
            TraceEventKind::PrefixExpired { bytes } => {
                // `req` carries the cache entry id, not a request id; the
                // instant still lands on a per-id track on the shard.
                instant(&mut parts, "prefix expired", pid, req, ts, &format!("\"bytes\": {bytes}"));
            }
        }
    }

    // A truncated run can leave spans open; close them so the file loads.
    for (req, o) in &open {
        end(&mut parts, o.stage, o.pid, *req, max_ts);
    }

    let mut meta: Vec<String> = Vec::new();
    for &pid in &shards {
        meta.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \
             \"args\": {{\"name\": \"shard {pid}\"}}}}"
        ));
        meta.push(format!(
            "{{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": {pid}, \
             \"args\": {{\"sort_index\": {pid}}}}}"
        ));
    }
    for &(pid, tid) in &tracks {
        meta.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"request {tid}\"}}}}"
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    for part in meta.iter().chain(parts.iter()) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(part);
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
        crate::json::validate(&json).expect("chrome trace must parse");
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
        crate::json::validate(&json).expect("must parse");
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
        crate::json::validate(&json).expect("must parse");
        assert_eq!(json.matches("\"ph\": \"B\"").count(), json.matches("\"ph\": \"E\"").count());
    }

    #[test]
    fn empty_stream_is_still_a_valid_trace() {
        let json = chrome_trace_json(&[]);
        crate::json::validate(&json).expect("must parse");
        assert!(json.contains("traceEvents"));
    }
}
