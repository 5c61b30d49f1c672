//! Per-request span breakdown: where each request's latency went.
//!
//! Every frame the shards extract gets a [`RequestSpan`] — a handful of
//! monotonic timestamps threaded through the existing dispatch path (shard →
//! handler task → reactor write closure).  When the reply write completes
//! (or a fast path answers early), the span is folded into the shared
//! [`SpanRecorder`]: per-class per-phase latency histograms plus a bounded
//! top-K slow-request log.  The admin endpoint exports both
//! ([`crate::telemetry`]).
//!
//! # Phases
//!
//! | phase | interval |
//! |-------|----------|
//! | `decode` | frame extracted → body decoded/classified |
//! | `queue` | decoded → handler starts on a worker (admission + runqueue) |
//! | `infer` | λ⁴ᵢ parse → infer front half (0 for app ops and cache hits) |
//! | `execute` | handler run time minus the infer share |
//! | `reply-write` | handler done → response frame written to the socket |
//!
//! Marks are taken in order from one monotonic clock and each mark defaults
//! to its predecessor when skipped, so phases are non-negative and their sum
//! telescopes to the span total **by construction** — the invariants the
//! phase tests assert cannot be violated by a lost mark.
//!
//! Fast-path answers (shed, malformed, draining) never reach a worker: their
//! spans record the `decode` and `queue` phases only, so the
//! `infer`/`execute`/`reply-write` histograms aggregate *executed* requests
//! exclusively.

use crate::lock;
use crate::protocol::RequestClass;
use rp_sim::stats::LatencyStats;
use std::sync::Mutex;
use std::time::Instant;

/// The number of phases a span is broken into.
pub const PHASES: usize = 5;

/// How many slow requests the recorder keeps by default.
pub const DEFAULT_SLOW_LOG: usize = 32;

/// One latency phase of a request's life (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Frame extraction → decode/classification done.
    Decode,
    /// Decoded → handler started (admission check + runqueue wait).
    Queue,
    /// The λ⁴ᵢ parse → infer front half (0 for app ops and cache hits).
    Infer,
    /// Handler run time, excluding the infer share.
    Execute,
    /// Handler done → response frame on the socket.
    ReplyWrite,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Decode,
        Phase::Queue,
        Phase::Infer,
        Phase::Execute,
        Phase::ReplyWrite,
    ];

    /// The phase's index into `[_; PHASES]` arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Decode => 0,
            Phase::Queue => 1,
            Phase::Infer => 2,
            Phase::Execute => 3,
            Phase::ReplyWrite => 4,
        }
    }

    /// A short stable name for exposition labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Queue => "queue",
            Phase::Infer => "infer",
            Phase::Execute => "execute",
            Phase::ReplyWrite => "reply-write",
        }
    }
}

/// How a request's span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanOutcome {
    /// Executed and answered (success or an `Internal` error — both ran).
    Executed,
    /// Answered `Overloaded` by the admission fast path; never executed.
    Shed,
}

impl SpanOutcome {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Executed => "executed",
            SpanOutcome::Shed => "shed",
        }
    }
}

/// The timestamps of one request's trip through the server.  Created by the
/// shard when it extracts the frame; marked at each pipeline stage; folded
/// into the [`SpanRecorder`] when the reply write completes (or a fast path
/// answers).
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    /// The envelope request id (for the slow log).
    id: u64,
    received: Instant,
    decoded: Option<Instant>,
    started: Option<Instant>,
    executed: Option<Instant>,
    /// Nanoseconds the λ⁴ᵢ front half (parse → infer) took, measured inside
    /// the handler; 0 for app ops and cache hits.
    infer_ns: u64,
}

impl RequestSpan {
    /// Starts a span: `received` is now.
    pub fn begin(id: u64) -> RequestSpan {
        RequestSpan {
            id,
            received: Instant::now(),
            decoded: None,
            started: None,
            executed: None,
            infer_ns: 0,
        }
    }

    /// Marks the body decoded (or classified as undecodable).
    pub fn mark_decoded(&mut self) {
        self.decoded = Some(Instant::now());
    }

    /// Marks the handler started on a worker.
    pub fn mark_started(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Attributes `ns` of the handler's run time to the λ⁴ᵢ parse → infer
    /// front half.
    pub fn add_infer_ns(&mut self, ns: u64) {
        self.infer_ns = self.infer_ns.saturating_add(ns);
    }

    /// Marks the handler finished (response computed, write pending).
    pub fn mark_executed(&mut self) {
        self.executed = Some(Instant::now());
    }

    /// Resolves the marks into per-phase nanoseconds plus the total, as of
    /// `written` = now.  Missing marks collapse onto their predecessor, so
    /// every phase is non-negative and the phases sum to the total exactly.
    fn resolve(&self) -> ([u64; PHASES], u64) {
        let received = self.received;
        let decoded = self.decoded.unwrap_or(received).max(received);
        let started = self.started.unwrap_or(decoded).max(decoded);
        let executed = self.executed.unwrap_or(started).max(started);
        let written = Instant::now().max(executed);
        let run_ns = (executed - started).as_nanos() as u64;
        let infer_ns = self.infer_ns.min(run_ns);
        let mut phase_ns = [0u64; PHASES];
        phase_ns[Phase::Decode.index()] = (decoded - received).as_nanos() as u64;
        phase_ns[Phase::Queue.index()] = (started - decoded).as_nanos() as u64;
        phase_ns[Phase::Infer.index()] = infer_ns;
        phase_ns[Phase::Execute.index()] = run_ns - infer_ns;
        phase_ns[Phase::ReplyWrite.index()] = (written - executed).as_nanos() as u64;
        ((phase_ns), (written - received).as_nanos() as u64)
    }
}

/// One slow-log entry: the span's breakdown plus enough identity to chase
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowEntry {
    /// The envelope request id.
    pub id: u64,
    /// The request's class.
    pub class: RequestClass,
    /// Executed or shed.
    pub outcome: SpanOutcome,
    /// Per-phase nanoseconds, indexed by [`Phase::index`].
    pub phase_ns: [u64; PHASES],
    /// End-to-end nanoseconds (frame extracted → reply written).
    pub total_ns: u64,
    /// The live mean replay bound-slack of the request's dispatch level at
    /// completion time, when streaming trace is on.  Subgraphs retire
    /// asynchronously (milliseconds after the reply), so this is the
    /// level's *gauge* at completion, not an exact per-request figure.
    pub bound_slack: Option<f64>,
}

/// One class's span aggregates.
#[derive(Debug, Default)]
struct ClassSpans {
    /// Per-phase latency histograms, indexed by [`Phase::index`].  Fast-path
    /// spans feed only `decode` and `queue`.
    phases: [LatencyStats; PHASES],
    /// End-to-end latency of *executed* requests.
    total: LatencyStats,
    /// Spans that executed.
    executed: u64,
    /// Spans answered by the shed fast path.
    shed: u64,
}

/// A point-in-time copy of one class's span aggregates.
#[derive(Debug, Clone, Default)]
pub struct ClassSpanSnapshot {
    /// Per-phase latency histograms, indexed by [`Phase::index`].
    pub phases: [LatencyStats; PHASES],
    /// End-to-end latency of executed requests.
    pub total: LatencyStats,
    /// Spans that executed.
    pub executed: u64,
    /// Spans answered by the shed fast path.
    pub shed: u64,
}

/// A point-in-time copy of the whole recorder.
#[derive(Debug, Clone, Default)]
pub struct SpanSnapshot {
    /// Per-class aggregates, indexed by [`RequestClass::tag`].
    pub classes: [ClassSpanSnapshot; 3],
    /// The slowest requests so far, descending by total latency.
    pub slow: Vec<SlowEntry>,
    /// Spans finished without a decoded class (malformed bodies, frames
    /// answered during drain) — counted, not histogrammed.
    pub unclassified: u64,
}

/// The shared span aggregator: per-class per-phase histograms plus a bounded
/// top-K slow log.  One mutex per class keeps completions of different
/// classes from contending; the slow log has its own.
#[derive(Debug)]
pub struct SpanRecorder {
    classes: [Mutex<ClassSpans>; 3],
    slow: Mutex<Vec<SlowEntry>>,
    slow_capacity: usize,
    unclassified: Mutex<u64>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new(DEFAULT_SLOW_LOG)
    }
}

impl SpanRecorder {
    /// A recorder keeping at most `slow_capacity` slow-log entries
    /// (minimum 1).
    pub fn new(slow_capacity: usize) -> SpanRecorder {
        SpanRecorder {
            classes: Default::default(),
            slow: Mutex::new(Vec::new()),
            slow_capacity: slow_capacity.max(1),
            unclassified: Mutex::new(0),
        }
    }

    /// Folds one finished span in.  `class` is `None` when the request never
    /// decoded (malformed body, drain fast path); `bound_slack` is the
    /// dispatch level's live slack gauge, when streaming trace is on.
    pub fn record(
        &self,
        span: &RequestSpan,
        class: Option<RequestClass>,
        outcome: SpanOutcome,
        bound_slack: Option<f64>,
    ) {
        let (mut phase_ns, mut total_ns) = span.resolve();
        if outcome == SpanOutcome::Shed {
            // Never reached a worker: only the front-of-pipeline phases
            // carry information.  The tail the resolver attributed to the
            // error write is folded out, so shed spans show decode + queue
            // only — in the histograms and in the slow log alike.
            for phase in [Phase::Infer, Phase::Execute, Phase::ReplyWrite] {
                phase_ns[phase.index()] = 0;
            }
            total_ns = phase_ns[Phase::Decode.index()] + phase_ns[Phase::Queue.index()];
        }
        let Some(class) = class else {
            *lock(&self.unclassified) += 1;
            return;
        };
        {
            let mut spans = lock(&self.classes[class.tag() as usize]);
            match outcome {
                SpanOutcome::Executed => {
                    for phase in Phase::ALL {
                        spans.phases[phase.index()].record_ns(phase_ns[phase.index()]);
                    }
                    spans.total.record_ns(total_ns);
                    spans.executed += 1;
                }
                SpanOutcome::Shed => {
                    spans.phases[Phase::Decode.index()].record_ns(phase_ns[Phase::Decode.index()]);
                    spans.phases[Phase::Queue.index()].record_ns(phase_ns[Phase::Queue.index()]);
                    spans.shed += 1;
                }
            }
        }
        self.note_slow(SlowEntry {
            id: span.id,
            class,
            outcome,
            phase_ns,
            total_ns,
            bound_slack,
        });
    }

    /// Inserts into the slow log if the entry beats (or fits beside) the
    /// current top-K by total latency.
    fn note_slow(&self, entry: SlowEntry) {
        let mut slow = lock(&self.slow);
        if slow.len() >= self.slow_capacity {
            // Index of the fastest retained entry.
            let (min_idx, min) = slow
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total_ns)
                .map(|(i, e)| (i, e.total_ns))
                .expect("slow log is non-empty at capacity");
            if entry.total_ns <= min {
                return;
            }
            slow.swap_remove(min_idx);
        }
        slow.push(entry);
    }

    /// A point-in-time copy: per-class aggregates plus the slow log sorted
    /// descending by total latency.
    pub fn snapshot(&self) -> SpanSnapshot {
        let classes = std::array::from_fn(|i| {
            let spans = lock(&self.classes[i]);
            ClassSpanSnapshot {
                phases: spans.phases.clone(),
                total: spans.total.clone(),
                executed: spans.executed,
                shed: spans.shed,
            }
        });
        let mut slow = lock(&self.slow).clone();
        slow.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
        SpanSnapshot {
            classes,
            slow,
            unclassified: *lock(&self.unclassified),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phases_are_monotone_and_sum_to_total() {
        let mut span = RequestSpan::begin(7);
        span.mark_decoded();
        std::thread::sleep(Duration::from_millis(2));
        span.mark_started();
        std::thread::sleep(Duration::from_millis(1));
        span.add_infer_ns(200_000);
        span.mark_executed();
        let (phase_ns, total_ns) = span.resolve();
        let sum: u64 = phase_ns.iter().sum();
        assert_eq!(sum, total_ns, "phases telescope to the total");
        assert!(phase_ns[Phase::Queue.index()] >= 2_000_000);
        assert_eq!(phase_ns[Phase::Infer.index()], 200_000);
    }

    #[test]
    fn missing_marks_collapse_instead_of_corrupting() {
        // A span finished with no marks at all (e.g. a fast path that
        // answered before decode): every phase is 0 except none are
        // negative, and the total is just elapsed time.
        let span = RequestSpan::begin(1);
        let (phase_ns, total_ns) = span.resolve();
        assert_eq!(phase_ns[Phase::Queue.index()], 0);
        assert_eq!(phase_ns[Phase::Infer.index()], 0);
        assert_eq!(phase_ns[Phase::Execute.index()], 0);
        // Everything lands in reply-write (last known mark → now).
        assert_eq!(
            phase_ns.iter().sum::<u64>(),
            total_ns,
            "telescoping holds with no marks"
        );
    }

    #[test]
    fn infer_never_exceeds_run_time() {
        let mut span = RequestSpan::begin(2);
        span.mark_decoded();
        span.mark_started();
        span.add_infer_ns(u64::MAX); // absurd claim
        span.mark_executed();
        let (phase_ns, _) = span.resolve();
        let run = phase_ns[Phase::Infer.index()] + phase_ns[Phase::Execute.index()];
        assert!(phase_ns[Phase::Infer.index()] <= run);
    }

    #[test]
    fn recorder_buckets_executed_and_shed_differently() {
        let recorder = SpanRecorder::new(8);
        let mut exec = RequestSpan::begin(1);
        exec.mark_decoded();
        exec.mark_started();
        exec.mark_executed();
        recorder.record(&exec, Some(RequestClass::App), SpanOutcome::Executed, None);

        let mut shed = RequestSpan::begin(2);
        shed.mark_decoded();
        recorder.record(&shed, Some(RequestClass::Lambda), SpanOutcome::Shed, None);

        recorder.record(&RequestSpan::begin(3), None, SpanOutcome::Executed, None);

        let snap = recorder.snapshot();
        let app = &snap.classes[RequestClass::App.tag() as usize];
        assert_eq!((app.executed, app.shed), (1, 0));
        assert_eq!(app.total.count(), 1);
        assert_eq!(app.phases[Phase::Execute.index()].count(), 1);

        let lambda = &snap.classes[RequestClass::Lambda.tag() as usize];
        assert_eq!((lambda.executed, lambda.shed), (0, 1));
        assert_eq!(lambda.total.count(), 0, "shed spans skip the total");
        assert_eq!(lambda.phases[Phase::Decode.index()].count(), 1);
        assert_eq!(lambda.phases[Phase::Queue.index()].count(), 1);
        assert_eq!(
            lambda.phases[Phase::Execute.index()].count(),
            0,
            "shed spans record queue+decode only"
        );
        assert_eq!(snap.unclassified, 1);
        // Executed and shed spans both reach the slow log.
        assert_eq!(snap.slow.len(), 2);
    }

    #[test]
    fn slow_log_keeps_the_top_k_by_total() {
        let recorder = SpanRecorder::new(2);
        // Three spans with strictly increasing totals (sleep forces it).
        for (id, sleep_ms) in [(1u64, 0u64), (2, 3), (3, 6)] {
            let mut span = RequestSpan::begin(id);
            span.mark_decoded();
            span.mark_started();
            std::thread::sleep(Duration::from_millis(sleep_ms));
            span.mark_executed();
            recorder.record(&span, Some(RequestClass::App), SpanOutcome::Executed, None);
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.slow.len(), 2, "bounded at capacity");
        let ids: Vec<u64> = snap.slow.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![3, 2], "slowest first, fastest evicted");
        assert!(snap.slow[0].total_ns >= snap.slow[1].total_ns);
    }
}
