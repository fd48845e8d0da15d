//! Trace analysis: critical paths and stall attribution.
//!
//! Turns a drained event stream into the two summaries the ROADMAP's
//! APEX4-style rebalancing work needs:
//!
//! * [`pool_attribution`] — where pool jobs spent their lives:
//!   **queueing** (publish → start on whichever worker claimed the
//!   tile) and **compute** (start → finish), plus the
//!   **worker-overlap ratio**
//!   (aggregate compute ÷ workers × wall — 1.0 means every worker was
//!   busy for the whole trace window).
//! * [`request_paths`] — per-request latency decomposition on the
//!   serving runtime's *virtual* clock: admission queueing, prefill,
//!   decode-iteration wait, and an `other` residual (batch-mate
//!   prefills, scheduler passes, idle jumps). The total equals the
//!   `lq_serving_request_latency_ns` histogram's per-request sample by
//!   construction, which is what the acceptance check in
//!   `examples/trace.rs` pins to within 5%.
//! * [`shard_collectives`] — per-collective shard-skew attribution for
//!   tensor-parallel GEMM calls: each `AllGather`/`AllReduce` barrier
//!   emits one span per shard, and the wait the barrier pays is the
//!   slowest-minus-fastest gap (`skew_ns`). A well-balanced sharded
//!   layer keeps `skew_ns` small relative to `slowest_ns`.

use crate::{Event, EventKind, Track};
use std::collections::HashMap;

/// Where the pool's jobs spent their time (all nanoseconds, summed
/// over every job in the trace).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolAttribution {
    /// Jobs that both started and finished inside the trace window.
    pub jobs: u64,
    /// Submit → start delay.
    pub queue_ns: u64,
    /// Start → finish execution time.
    pub compute_ns: u64,
    /// Trace window: first job start to last job finish.
    pub wall_ns: u64,
    /// Distinct worker slots that finished at least one job.
    pub workers: u64,
    /// `compute_ns / (workers * wall_ns)` — fraction of the pool's
    /// capacity spent computing. 1.0 is perfect overlap.
    pub overlap_ratio: f64,
}

/// One request's latency decomposition (virtual-clock nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestPath {
    /// Request ID (the `Track::Request` lane).
    pub id: u64,
    /// Completion status code (see [`crate::status_code`]); `u64::MAX`
    /// when the trace window closed before the request completed.
    pub status: u64,
    /// Ingest → admission (time spent in the arrival queue).
    pub queue_ns: u64,
    /// Measured prefill span for this request.
    pub prefill_ns: u64,
    /// Summed decode-iteration waits (each iteration costs the full
    /// batched step, which is exactly what the request's latency sees).
    pub decode_ns: u64,
    /// Residual: batch-mate prefills, scheduler passes, idle jumps.
    pub other_ns: u64,
    /// Ingest → completion on the virtual clock — matches the
    /// `lq_serving_request_latency_ns` histogram sample.
    pub total_ns: u64,
    /// Decode iterations this request participated in.
    pub decode_steps: u64,
}

/// Compute pool-side attribution from a drained event stream. Events
/// may be unsorted; jobs missing either endpoint (submitted before the
/// trace started, still running at drain) are ignored.
#[must_use]
pub fn pool_attribution(events: &[Event]) -> PoolAttribution {
    // job id → (submit ts, start ts, finish span).
    #[derive(Default, Clone, Copy)]
    struct JobRec {
        submit: Option<u64>,
        start: Option<u64>,
        finish: Option<(u64, u64)>,
    }
    let mut jobs: HashMap<u64, JobRec> = HashMap::new();
    let mut workers: Vec<u32> = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::JobSubmit => jobs.entry(ev.a).or_default().submit = Some(ev.ts_ns),
            EventKind::JobStart => jobs.entry(ev.a).or_default().start = Some(ev.ts_ns),
            EventKind::JobFinish => {
                jobs.entry(ev.a).or_default().finish = Some((ev.ts_ns, ev.dur_ns));
                if let Track::Worker(w) = ev.track {
                    if !workers.contains(&w) {
                        workers.push(w);
                    }
                }
            }
            _ => {}
        }
    }

    let mut out = PoolAttribution {
        workers: workers.len() as u64,
        ..Default::default()
    };
    let mut window: Option<(u64, u64)> = None;
    for rec in jobs.values() {
        let (Some(start), Some((fts, fdur))) = (rec.start, rec.finish) else {
            continue;
        };
        out.jobs += 1;
        out.compute_ns += fdur;
        if let Some(submit) = rec.submit {
            out.queue_ns += start.saturating_sub(submit);
        }
        let (lo, hi) = window.unwrap_or((u64::MAX, 0));
        window = Some((lo.min(fts), hi.max(fts + fdur)));
    }
    if let Some((lo, hi)) = window {
        out.wall_ns = hi - lo;
    }
    if out.workers > 0 && out.wall_ns > 0 {
        out.overlap_ratio = out.compute_ns as f64 / (out.workers * out.wall_ns) as f64;
    }
    out
}

/// Reconstruct per-request critical paths from the serving-lifecycle
/// events, sorted by request ID. Requests without both an ingest and a
/// completion inside the window are skipped.
#[must_use]
pub fn request_paths(events: &[Event]) -> Vec<RequestPath> {
    #[derive(Default)]
    struct ReqRec {
        ingest_vts: Option<u64>,
        admit_vts: Option<u64>,
        complete: Option<(u64, u64)>, // (vts, status)
        prefill_ns: u64,
        decode_ns: u64,
        decode_steps: u64,
    }
    let mut reqs: HashMap<u64, ReqRec> = HashMap::new();
    for ev in events {
        let Track::Request(id) = ev.track else {
            continue;
        };
        let r = reqs.entry(id).or_default();
        match ev.kind {
            EventKind::ReqIngest => r.ingest_vts = Some(ev.vts_ns),
            EventKind::ReqAdmit => r.admit_vts = Some(ev.vts_ns),
            EventKind::ReqPrefill => r.prefill_ns += ev.dur_ns,
            EventKind::ReqDecodeIter => {
                r.decode_ns += ev.dur_ns;
                r.decode_steps += 1;
            }
            EventKind::ReqComplete => r.complete = Some((ev.vts_ns, ev.a)),
            _ => {}
        }
    }

    let mut out: Vec<RequestPath> = reqs
        .into_iter()
        .filter_map(|(id, r)| {
            let ingest = r.ingest_vts?;
            let (complete_vts, status) = r.complete?;
            let total_ns = complete_vts.saturating_sub(ingest);
            let queue_ns = r.admit_vts.map_or(0, |a| a.saturating_sub(ingest));
            let accounted = queue_ns + r.prefill_ns + r.decode_ns;
            Some(RequestPath {
                id,
                status,
                queue_ns,
                prefill_ns: r.prefill_ns,
                decode_ns: r.decode_ns,
                other_ns: total_ns.saturating_sub(accounted),
                total_ns,
                decode_steps: r.decode_steps,
            })
        })
        .collect();
    out.sort_unstable_by_key(|r| r.id);
    out
}

/// One tensor-parallel collective (all shards of one barrier) and its
/// skew attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCollective {
    /// Correlation ID the collective's spans carried.
    pub corr: u64,
    /// `AllGather` (column-parallel concat) or `AllReduce`
    /// (row-parallel exact sum).
    pub kind: EventKind,
    /// Shard count (`b` on every span of the group).
    pub shards: u64,
    /// Slowest shard's span duration — the barrier's cost.
    pub slowest_ns: u64,
    /// Fastest shard's span duration.
    pub fastest_ns: u64,
    /// `slowest - fastest`: wall time the fastest shard spent waiting
    /// on the barrier (shard-skew wait).
    pub skew_ns: u64,
}

/// Group `AllGather`/`AllReduce` spans into per-call collectives and
/// attribute shard-skew wait time.
///
/// Spans group by `(corr, kind)` and then chunk in start-time order
/// into groups of `b` (the shard count each span carries) — valid
/// because a sharded GEMM call joins all its shards before returning,
/// so same-correlation calls never interleave. Trailing partial groups
/// (a call in flight at drain) are dropped.
#[must_use]
pub fn shard_collectives(events: &[Event]) -> Vec<ShardCollective> {
    let mut groups: HashMap<(u64, bool), Vec<&Event>> = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::AllGather => groups.entry((ev.corr, false)).or_default().push(ev),
            EventKind::AllReduce => groups.entry((ev.corr, true)).or_default().push(ev),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for ((corr, reduce), mut evs) in groups {
        evs.sort_by_key(|e| e.ts_ns);
        let mut at = 0;
        while at < evs.len() {
            let shards = evs[at].b.max(1) as usize;
            if at + shards > evs.len() {
                break; // call still in flight at drain
            }
            let chunk = &evs[at..at + shards];
            let slowest = chunk.iter().map(|e| e.dur_ns).max().unwrap_or(0);
            let fastest = chunk.iter().map(|e| e.dur_ns).min().unwrap_or(0);
            out.push(ShardCollective {
                corr,
                kind: if reduce {
                    EventKind::AllReduce
                } else {
                    EventKind::AllGather
                },
                shards: shards as u64,
                slowest_ns: slowest,
                fastest_ns: fastest,
                skew_ns: slowest - fastest,
            });
            at += shards;
        }
    }
    out.sort_unstable_by_key(|c| (c.corr, c.kind as u64, c.slowest_ns));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status_code;

    fn e(kind: EventKind, track: Track, ts: u64, dur: u64, vts: u64, a: u64, b: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            vts_ns: vts,
            kind,
            track,
            corr: 0,
            a,
            b,
        }
    }

    #[test]
    fn pool_attribution_splits_queue_compute() {
        let evs = [
            // Job 1: 100ns queue, 400ns compute.
            e(EventKind::JobSubmit, Track::Control, 0, 0, 0, 1, 0),
            e(EventKind::JobStart, Track::Worker(0), 100, 0, 0, 1, 0),
            e(EventKind::JobFinish, Track::Worker(0), 100, 400, 0, 1, 0),
            // Job 2: 250ns queue, 250ns compute.
            e(EventKind::JobSubmit, Track::Control, 50, 0, 0, 2, 0),
            e(EventKind::JobStart, Track::Worker(1), 300, 0, 0, 2, 0),
            e(EventKind::JobFinish, Track::Worker(1), 300, 250, 0, 2, 0),
            // Job 3: still running at drain — ignored.
            e(EventKind::JobSubmit, Track::Control, 60, 0, 0, 3, 0),
            e(EventKind::JobStart, Track::Worker(0), 600, 0, 0, 3, 0),
        ];
        let a = pool_attribution(&evs);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.queue_ns, 350);
        assert_eq!(a.compute_ns, 650);
        // Window: first finish-start 100 → last finish-end 550.
        assert_eq!(a.wall_ns, 450);
        assert_eq!(a.workers, 2);
        let expect = 650.0 / (2.0 * 450.0);
        assert!((a.overlap_ratio - expect).abs() < 1e-12);
    }

    #[test]
    fn request_paths_decompose_and_sum_to_total() {
        let rid = 7;
        let t = Track::Request(rid);
        let evs = [
            e(EventKind::ReqIngest, t, 0, 0, 1_000, 16, 64),
            e(EventKind::ReqAdmit, t, 10, 0, 1_400, 80, 0),
            e(EventKind::ReqPrefill, t, 20, 300, 1_400, 0, 0),
            e(EventKind::ReqDecodeIter, t, 40, 500, 1_700, 99, 4),
            e(EventKind::ReqDecodeIter, t, 60, 600, 2_200, 100, 4),
            e(
                EventKind::ReqComplete,
                t,
                80,
                0,
                3_000,
                status_code(true, false, false),
                64,
            ),
        ];
        let paths = request_paths(&evs);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.id, rid);
        assert_eq!(p.status, 0);
        assert_eq!(p.queue_ns, 400);
        assert_eq!(p.prefill_ns, 300);
        assert_eq!(p.decode_ns, 1_100);
        assert_eq!(p.decode_steps, 2);
        assert_eq!(p.total_ns, 2_000);
        assert_eq!(
            p.queue_ns + p.prefill_ns + p.decode_ns + p.other_ns,
            p.total_ns,
            "decomposition must sum to the total"
        );
    }

    fn coll(kind: EventKind, corr: u64, ts: u64, dur: u64, shard: u64, shards: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            vts_ns: 0,
            kind,
            track: Track::Control,
            corr,
            a: shard,
            b: shards,
        }
    }

    #[test]
    fn shard_collectives_attribute_skew_per_call() {
        let evs = [
            // Call 1 (corr 9): 2-shard all-gather, durations 100/140.
            coll(EventKind::AllGather, 9, 10, 140, 0, 2),
            coll(EventKind::AllGather, 9, 12, 100, 1, 2),
            // Call 2 (corr 9, same corr — later in time): durations 200/200.
            coll(EventKind::AllGather, 9, 500, 200, 0, 2),
            coll(EventKind::AllGather, 9, 501, 200, 1, 2),
            // A 3-shard all-reduce on another correlation.
            coll(EventKind::AllReduce, 4, 50, 300, 0, 3),
            coll(EventKind::AllReduce, 4, 51, 250, 1, 3),
            coll(EventKind::AllReduce, 4, 52, 330, 2, 3),
            // In-flight at drain: only 1 of 2 spans present — dropped.
            coll(EventKind::AllGather, 7, 900, 50, 0, 2),
        ];
        let cs = shard_collectives(&evs);
        assert_eq!(cs.len(), 3);
        let reduce = cs.iter().find(|c| c.kind == EventKind::AllReduce).unwrap();
        assert_eq!((reduce.corr, reduce.shards), (4, 3));
        assert_eq!(
            (reduce.slowest_ns, reduce.fastest_ns, reduce.skew_ns),
            (330, 250, 80)
        );
        let gathers: Vec<_> = cs
            .iter()
            .filter(|c| c.kind == EventKind::AllGather)
            .collect();
        assert_eq!(gathers.len(), 2);
        assert!(gathers.iter().all(|c| c.corr == 9));
        assert_eq!(gathers[0].skew_ns, 40);
        assert_eq!(gathers[1].skew_ns, 0);
    }

    #[test]
    fn shard_collectives_ignore_unrelated_events() {
        let evs = [e(EventKind::JobSubmit, Track::Control, 0, 0, 0, 1, 0)];
        assert!(shard_collectives(&evs).is_empty());
    }

    #[test]
    fn incomplete_requests_are_skipped() {
        let evs = [e(
            EventKind::ReqIngest,
            Track::Request(1),
            0,
            0,
            1_000,
            4,
            4,
        )];
        assert!(request_paths(&evs).is_empty());
    }
}
