//! The telemetry plane: assembling and rendering admin-endpoint answers.
//!
//! A [`TelemetrySnapshot`] is one consistent-enough point-in-time view of
//! everything the server knows about itself: wire counters
//! ([`NetStatsSnapshot`]), admission state ([`AdmissionSnapshot`]), compile
//! cache hit rates ([`CacheStats`]), the runtime's per-level latency
//! histograms ([`MetricsSnapshot`]), the per-request span aggregates
//! ([`SpanSnapshot`]), and — when streaming trace is on — the live
//! Theorem 2.3 bound-slack gauges ([`StreamStatsSnapshot`]).
//!
//! Two renderings share that snapshot:
//!
//! * [`TelemetrySnapshot::to_json`] — a structured JSON document
//!   (`rp-stat --once --json`, the BENCH `telemetry` sections);
//! * [`TelemetrySnapshot::to_prometheus`] — Prometheus-style text
//!   exposition (`# HELP`/`# TYPE` + `name{label="v"} value` samples), the
//!   format the live `rp-stat` dashboard parses.
//!
//! All histogram quantiles come from [`LogHistogram::percentile`] — O(1)
//! bucket walks, never a sort — and are accurate to
//! [`LogHistogram::MAX_RELATIVE_ERROR`].
//!
//! The JSON here is assembled by hand (`write!` into a `String`): the
//! workspace has no serialization crate, and the document's shape is fixed,
//! so one would buy nothing.
//!
//! [`LogHistogram::percentile`]: rp_sim::histogram::LogHistogram::percentile
//! [`LogHistogram::MAX_RELATIVE_ERROR`]: rp_sim::histogram::LogHistogram::MAX_RELATIVE_ERROR

use crate::admission::AdmissionSnapshot;
use crate::protocol::{
    decode_response, encode_admin_request, AdminOp, AdminRequest, RequestClass, Response,
};
use crate::server::{NetStatsSnapshot, StreamStatsSnapshot};
use crate::span::{Phase, SlowEntry, SpanSnapshot};
use rp_apps::harness::{take_socket_frame, write_socket_frame};
use rp_icilk::metrics::MetricsSnapshot;
use rp_lambda4i::pipeline::CacheStats;
use rp_sim::stats::LatencyStats;
use std::fmt::Write as _;
use std::io::Read as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The quantiles every exported histogram is summarized at, as
/// `(percentile, exposition label)`.
pub const QUANTILES: [(f64, &str); 3] = [(50.0, "0.5"), (95.0, "0.95"), (99.0, "0.99")];

/// One point-in-time view of the whole server, ready to render.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// `"running"` or `"draining"` — a draining server still answers here.
    pub lifecycle: &'static str,
    /// The wire counters.
    pub net: NetStatsSnapshot,
    /// Admission-control state and counters.
    pub admission: AdmissionSnapshot,
    /// Compile-cache hit/miss counters.
    pub cache: CacheStats,
    /// The runtime's per-level response/compute histograms.
    pub metrics: MetricsSnapshot,
    /// The runtime's level names, lowest first (labels for `metrics`).
    pub levels: Vec<String>,
    /// Per-request span aggregates and the slow log.
    pub spans: SpanSnapshot,
    /// The streaming-trace pipeline, when enabled.
    pub stream: Option<StreamStatsSnapshot>,
}

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number, or `null` for missing/non-finite values.
fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// `{"count":…,"mean":…,"p50":…,"p95":…,"p99":…,"min":…,"max":…}` for one
/// histogram (nanosecond samples).
fn stats_json(s: &LatencyStats) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"min\":{},\"max\":{}}}",
        s.count(),
        opt_num(s.mean()),
        opt_num(s.percentile(50.0)),
        opt_num(s.percentile(95.0)),
        opt_num(s.percentile(99.0)),
        opt_num(s.min().map(|v| v as f64)),
        opt_num(s.max().map(|v| v as f64)),
    )
}

/// One slow-log entry as a JSON object.
fn slow_entry_json(e: &SlowEntry) -> String {
    let mut phases = String::new();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        let _ = write!(phases, "\"{}\":{}", phase.name(), e.phase_ns[phase.index()]);
    }
    format!(
        "{{\"id\":{},\"class\":\"{}\",\"outcome\":\"{}\",\"total_ns\":{},\"bound_slack\":{},\"phases_ns\":{{{}}}}}",
        e.id,
        e.class.name(),
        e.outcome.name(),
        e.total_ns,
        opt_num(e.bound_slack),
        phases,
    )
}

/// The streaming section as a JSON value (`null` when streaming is off).
fn stream_json(stream: Option<&StreamStatsSnapshot>, levels: &[String]) -> String {
    let Some(s) = stream else {
        return "null".to_string();
    };
    let mut out = String::new();
    let a = &s.aggregates;
    let c = &s.counters;
    let t = &s.trace;
    let _ = write!(
        out,
        "{{\"retired_subgraphs\":{},\"retired_threads\":{},\"retired_vertices\":{},\
         \"counterexamples\":{},\"ingest_errors\":{},",
        a.retired_subgraphs,
        a.retired_threads,
        a.retired_vertices,
        a.counterexamples,
        s.ingest_errors,
    );
    let _ = write!(
        out,
        "\"counters\":{{\"ingested_events\":{},\"committed_events\":{},\"pending_events\":{},\
         \"orphan_events\":{},\"unresolved_events\":{},\"live_tasks\":{},\"live_components\":{},\
         \"epoch\":{}}},",
        c.ingested_events,
        c.committed_events,
        c.pending_events,
        c.orphan_events,
        c.unresolved_events,
        c.live_tasks,
        c.live_components,
        c.epoch,
    );
    let _ = write!(
        out,
        "\"trace\":{{\"recorded_events\":{},\"drained_events\":{},\"dropped_events\":{},\
         \"buffered_events\":{}}},",
        t.recorded_events, t.drained_events, t.dropped_events, t.buffered_events,
    );
    out.push_str("\"levels\":[");
    let mut first = true;
    for (i, level) in a.levels.iter().enumerate() {
        if level.threads == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let name = levels.get(i).map(String::as_str).unwrap_or("?");
        let _ = write!(
            out,
            "{{\"level\":\"{}\",\"threads\":{},\"slack_mean\":{},\"slack_max\":{},\
             \"slack_samples\":{},\"counterexamples\":{}}}",
            esc(name),
            level.threads,
            opt_num(level.mean_slack()),
            opt_num((level.slack_samples > 0).then_some(level.slack_max)),
            level.slack_samples,
            level.counterexamples,
        );
    }
    out.push_str("]}");
    out
}

impl TelemetrySnapshot {
    /// The full snapshot as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n  \"version\": 1,\n  \"lifecycle\": \"{}\",\n",
            self.lifecycle
        );
        let n = &self.net;
        let _ = write!(
            out,
            "  \"server\": {{\"connections_accepted\":{},\"frames_received\":{},\
             \"responses_sent\":{},\"decode_errors\":{},\"admin_requests\":{},\
             \"trace_dropped_events\":{},\"retired_subgraphs\":{},",
            n.connections_accepted,
            n.frames_received,
            n.responses_sent,
            n.decode_errors,
            n.admin_requests,
            n.trace_dropped_events,
            n.retired_subgraphs,
        );
        let per_class = |vals: [u64; 3]| {
            let mut s = String::new();
            for (i, class) in RequestClass::ALL.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", class.name(), vals[i]);
            }
            s
        };
        let _ = writeln!(
            out,
            "\"per_class\":{{{}}},\"shed_per_class\":{{{}}}}},",
            per_class(n.per_class),
            per_class(n.shed_per_class),
        );
        // Admission.
        let a = &self.admission;
        let _ = write!(out, "  \"admission\": {{\"enabled\":{},", a.enabled);
        out.push_str("\"per_class\":[");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"admitted\":{},\"completed\":{},\"shed\":{},\
                 \"shedding\":{},\"predicted_response_micros\":{},\"work_estimate_micros\":{},\
                 \"span_fraction\":{},\"bound_slack\":{}}}",
                class.name(),
                a.admitted[i],
                a.completed[i],
                a.shed[i],
                a.shedding[i],
                opt_num(a.predicted_response_micros[i]),
                opt_num(a.work_estimate_micros[i]),
                opt_num(Some(a.span_fraction[i])),
                opt_num(a.bound_slack[i]),
            );
        }
        out.push_str("]},\n");
        // Cache.
        let _ = writeln!(
            out,
            "  \"cache\": {{\"hits\":{},\"misses\":{},\"entries\":{}}},",
            self.cache.hits, self.cache.misses, self.cache.entries
        );
        // Per-level runtime latency (levels with completed work only).
        out.push_str("  \"levels\": [");
        let mut first = true;
        for (i, name) in self.levels.iter().enumerate() {
            let completed = self.metrics.completed.get(i).copied().unwrap_or(0);
            if completed == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let response = self.metrics.response.get(i).cloned().unwrap_or_default();
            let _ = write!(
                out,
                "{{\"level\":\"{}\",\"completed\":{},\"response_ns\":{}}}",
                esc(name),
                completed,
                stats_json(&response),
            );
        }
        out.push_str("],\n");
        // Spans.
        out.push_str("  \"spans\": {\"per_class\":[");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let c = &self.spans.classes[i];
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"executed\":{},\"shed\":{},\"total_ns\":{},\"phases\":{{",
                class.name(),
                c.executed,
                c.shed,
                stats_json(&c.total),
            );
            for (j, phase) in Phase::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{}\":{}",
                    phase.name(),
                    stats_json(&c.phases[phase.index()])
                );
            }
            out.push_str("}}");
        }
        let _ = writeln!(out, "],\"unclassified\":{}}},", self.spans.unclassified);
        // Slow log.
        out.push_str("  \"slow_log\": [");
        for (i, e) in self.spans.slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&slow_entry_json(e));
        }
        out.push_str("],\n");
        // Streaming.
        let _ = write!(
            out,
            "  \"stream\": {}\n}}\n",
            stream_json(self.stream.as_ref(), &self.levels)
        );
        out
    }

    /// The snapshot as Prometheus-style text exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "rp_connections_accepted_total",
            "Connections handed to shards.",
            self.net.connections_accepted,
        );
        counter(
            "rp_frames_received_total",
            "Complete request frames extracted.",
            self.net.frames_received,
        );
        counter(
            "rp_responses_sent_total",
            "Response frames written to sockets.",
            self.net.responses_sent,
        );
        counter(
            "rp_decode_errors_total",
            "Bodies that failed to decode.",
            self.net.decode_errors,
        );
        counter(
            "rp_admin_requests_total",
            "Telemetry-plane requests served (kept out of the data-plane counters).",
            self.net.admin_requests,
        );
        counter(
            "rp_trace_dropped_events_total",
            "Trace events dropped to full shard buffers.",
            self.net.trace_dropped_events,
        );
        counter(
            "rp_retired_subgraphs_total",
            "Request subgraphs retired by the streaming reconstructor.",
            self.net.retired_subgraphs,
        );
        counter(
            "rp_cache_hits_total",
            "Compile-cache hits.",
            self.cache.hits,
        );
        counter(
            "rp_cache_misses_total",
            "Compile-cache misses.",
            self.cache.misses,
        );

        let _ = writeln!(out, "# HELP rp_lifecycle 0 = running, 1 = draining.");
        let _ = writeln!(out, "# TYPE rp_lifecycle gauge");
        let _ = writeln!(
            out,
            "rp_lifecycle {}",
            if self.lifecycle == "draining" { 1 } else { 0 }
        );
        let _ = writeln!(out, "# HELP rp_cache_entries Distinct memoized sources.");
        let _ = writeln!(out, "# TYPE rp_cache_entries gauge");
        let _ = writeln!(out, "rp_cache_entries {}", self.cache.entries);

        let _ = writeln!(out, "# HELP rp_requests_total Requests decoded, per class.");
        let _ = writeln!(out, "# TYPE rp_requests_total counter");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "rp_requests_total{{class=\"{}\"}} {}",
                class.name(),
                self.net.per_class[i]
            );
        }
        let _ = writeln!(
            out,
            "# HELP rp_requests_shed_total Requests rejected Overloaded, per class."
        );
        let _ = writeln!(out, "# TYPE rp_requests_shed_total counter");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "rp_requests_shed_total{{class=\"{}\"}} {}",
                class.name(),
                self.net.shed_per_class[i]
            );
        }

        let _ = writeln!(
            out,
            "# HELP rp_admission_shedding Whether the shed mask covers the class."
        );
        let _ = writeln!(out, "# TYPE rp_admission_shedding gauge");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "rp_admission_shedding{{class=\"{}\"}} {}",
                class.name(),
                u8::from(self.admission.shedding[i])
            );
        }
        let class_gauge = |out: &mut String, name: &str, help: &str, vals: [Option<f64>; 3]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (i, class) in RequestClass::ALL.iter().enumerate() {
                if let Some(v) = vals[i].filter(|v| v.is_finite()) {
                    let _ = writeln!(out, "{name}{{class=\"{}\"}} {v}", class.name());
                }
            }
        };
        class_gauge(
            &mut out,
            "rp_admission_predicted_response_micros",
            "Predicted per-class response time (Theorem 2.3 evaluated online).",
            self.admission.predicted_response_micros,
        );
        class_gauge(
            &mut out,
            "rp_admission_work_estimate_micros",
            "EWMA per-request work estimate.",
            self.admission.work_estimate_micros,
        );
        class_gauge(
            &mut out,
            "rp_admission_bound_slack",
            "Predicted response over budget (> 1 = budget predicted violated).",
            self.admission.bound_slack,
        );

        // Per-level runtime latency quantiles (non-empty levels only).
        let _ = writeln!(
            out,
            "# HELP rp_level_response_ns Task response-time quantiles per runtime level."
        );
        let _ = writeln!(out, "# TYPE rp_level_response_ns summary");
        for (i, name) in self.levels.iter().enumerate() {
            let Some(stats) = self.metrics.response.get(i) else {
                continue;
            };
            if stats.is_empty() {
                continue;
            }
            for (q, label) in QUANTILES {
                if let Some(v) = stats.percentile(q).filter(|v| v.is_finite()) {
                    let _ = writeln!(
                        out,
                        "rp_level_response_ns{{level=\"{name}\",quantile=\"{label}\"}} {v}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "rp_level_response_ns_count{{level=\"{name}\"}} {}",
                stats.count()
            );
        }

        // Per-class span totals and per-phase quantiles.
        let _ = writeln!(
            out,
            "# HELP rp_request_latency_ns End-to-end request latency quantiles per class."
        );
        let _ = writeln!(out, "# TYPE rp_request_latency_ns summary");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            let c = &self.spans.classes[i];
            for (q, label) in QUANTILES {
                if let Some(v) = c.total.percentile(q).filter(|v| v.is_finite()) {
                    let _ = writeln!(
                        out,
                        "rp_request_latency_ns{{class=\"{}\",quantile=\"{label}\"}} {v}",
                        class.name()
                    );
                }
            }
            let _ = writeln!(
                out,
                "rp_request_latency_ns_count{{class=\"{}\"}} {}",
                class.name(),
                c.total.count()
            );
        }
        let _ = writeln!(
            out,
            "# HELP rp_request_phase_ns Per-phase latency quantiles per class."
        );
        let _ = writeln!(out, "# TYPE rp_request_phase_ns summary");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            let c = &self.spans.classes[i];
            for phase in Phase::ALL {
                let stats = &c.phases[phase.index()];
                if stats.is_empty() {
                    continue;
                }
                for (q, label) in QUANTILES {
                    if let Some(v) = stats.percentile(q).filter(|v| v.is_finite()) {
                        let _ = writeln!(
                            out,
                            "rp_request_phase_ns{{class=\"{}\",phase=\"{}\",quantile=\"{label}\"}} {v}",
                            class.name(),
                            phase.name()
                        );
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP rp_spans_executed_total Spans that reached a worker, per class."
        );
        let _ = writeln!(out, "# TYPE rp_spans_executed_total counter");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "rp_spans_executed_total{{class=\"{}\"}} {}",
                class.name(),
                self.spans.classes[i].executed
            );
        }
        let _ = writeln!(out, "# HELP rp_slow_log_entries Slow-log entries retained.");
        let _ = writeln!(out, "# TYPE rp_slow_log_entries gauge");
        let _ = writeln!(out, "rp_slow_log_entries {}", self.spans.slow.len());

        // Streaming bound-slack gauges.
        if let Some(stream) = &self.stream {
            let _ = writeln!(
                out,
                "# HELP rp_stream_bound_slack_mean Mean replay bound-slack per level (<= 1 = inside Theorem 2.3)."
            );
            let _ = writeln!(out, "# TYPE rp_stream_bound_slack_mean gauge");
            for (i, level) in stream.aggregates.levels.iter().enumerate() {
                if let Some(v) = level.mean_slack().filter(|v| v.is_finite()) {
                    let name = self.levels.get(i).map(String::as_str).unwrap_or("?");
                    let _ = writeln!(out, "rp_stream_bound_slack_mean{{level=\"{name}\"}} {v}");
                }
            }
            let _ = writeln!(
                out,
                "# HELP rp_stream_bound_slack_max Max replay bound-slack per level."
            );
            let _ = writeln!(out, "# TYPE rp_stream_bound_slack_max gauge");
            for (i, level) in stream.aggregates.levels.iter().enumerate() {
                if level.slack_samples > 0 && level.slack_max.is_finite() {
                    let name = self.levels.get(i).map(String::as_str).unwrap_or("?");
                    let _ = writeln!(
                        out,
                        "rp_stream_bound_slack_max{{level=\"{name}\"}} {}",
                        level.slack_max
                    );
                }
            }
            let mut gauge = |name: &str, help: &str, value: u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {value}");
            };
            gauge(
                "rp_stream_counterexamples_total",
                "Theorem 2.3 counterexamples across retired subgraphs.",
                stream.aggregates.counterexamples,
            );
            gauge(
                "rp_stream_pending_events",
                "Events held by the reorder window.",
                stream.counters.pending_events,
            );
            gauge(
                "rp_stream_live_tasks",
                "Tasks spawned but not yet retired.",
                stream.counters.live_tasks,
            );
            gauge(
                "rp_stream_live_components",
                "Live components in the reconstructor.",
                stream.counters.live_components,
            );
            gauge(
                "rp_stream_ingest_errors_total",
                "Batches the reconstructor rejected.",
                stream.ingest_errors,
            );
        }
        out
    }

    /// The `TraceSummary` op's JSON body.
    pub fn trace_summary_json(&self) -> String {
        format!(
            "{{\"lifecycle\":\"{}\",\"stream\":{}}}\n",
            self.lifecycle,
            stream_json(self.stream.as_ref(), &self.levels)
        )
    }

    /// The `SlowLog` op's JSON body, bounded to `max` entries.
    pub fn slow_log_json(&self, max: usize) -> String {
        let mut out = String::from("{\"slow_log\":[");
        for (i, e) in self.spans.slow.iter().take(max).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&slow_entry_json(e));
        }
        out.push_str("]}\n");
        out
    }
}

/// The `Health` op's JSON body (rendered without a full snapshot — health
/// must stay cheap and allocation-light even under overload).
pub fn health_json(lifecycle: &str, frames_received: u64, responses_sent: u64) -> String {
    format!(
        "{{\"state\":\"{lifecycle}\",\"frames_received\":{frames_received},\
         \"responses_sent\":{responses_sent}}}\n"
    )
}

/// Scrapes one admin op from a server's telemetry plane: connects, sends
/// the request, and returns the text body.
///
/// # Errors
///
/// I/O errors propagate; a non-admin answer (e.g. a version-mismatch error
/// response) or a timeout becomes an [`std::io::Error`] with a descriptive
/// message.
pub fn scrape(addr: SocketAddr, op: AdminOp, timeout: Duration) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    scrape_on(stream, op, timeout)
}

/// Like [`scrape`], but reusing an already-connected stream (the dashboard
/// polls on one connection).
pub fn scrape_on(mut stream: TcpStream, op: AdminOp, timeout: Duration) -> std::io::Result<String> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    write_socket_frame(
        &mut stream,
        0,
        &encode_admin_request(&AdminRequest::new(op)),
    )?;
    let deadline = Instant::now() + timeout;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Ok(Some((_, body))) = take_socket_frame(&mut buf) {
            return match decode_response(&body) {
                Ok(Response::Admin { text }) => Ok(text),
                Ok(Response::Error { code, message }) => Err(std::io::Error::other(format!(
                    "admin request rejected ({code}): {message}"
                ))),
                Ok(other) => Err(std::io::Error::other(format!(
                    "unexpected admin answer: {other:?}"
                ))),
                Err(e) => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("undecodable admin answer: {e}"),
                )),
            };
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "admin scrape timed out",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "admin connection closed mid-scrape",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            lifecycle: "running",
            net: NetStatsSnapshot {
                connections_accepted: 3,
                frames_received: 10,
                responses_sent: 9,
                decode_errors: 1,
                per_class: [5, 3, 1],
                shed_per_class: [0, 2, 0],
                admin_requests: 2,
                trace_dropped_events: 0,
                retired_subgraphs: 4,
            },
            admission: AdmissionSnapshot {
                enabled: true,
                admitted: [5, 1, 1],
                completed: [5, 1, 1],
                shed: [0, 2, 0],
                shedding: [false, true, false],
                predicted_response_micros: [Some(310.5), None, None],
                work_estimate_micros: [Some(200.0), None, None],
                span_fraction: [1.0, 1.0, 1.0],
                bound_slack: [Some(0.4), None, None],
                stream_work_vertices: [None, None, None],
                stream_span_vertices: [None, None, None],
            },
            cache: CacheStats {
                hits: 2,
                misses: 1,
                entries: 1,
            },
            metrics: MetricsSnapshot {
                response: vec![LatencyStats::new()],
                compute: vec![LatencyStats::new()],
                completed: vec![0],
            },
            levels: vec!["main".to_string()],
            spans: SpanSnapshot::default(),
            stream: None,
        }
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let mut snap = empty_snapshot();
        let json = snap.to_json();
        // Brace/bracket balance is a cheap proxy for well-formedness given
        // no parser exists in-tree.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"lifecycle\": \"running\""));
        assert!(json.contains("\"frames_received\":10"));
        assert!(json.contains("\"shedding\":true"));
        assert!(json.contains("\"stream\": null"));
        // Levels with no completed work are elided.
        assert!(!json.contains("\"level\":\"main\""));

        snap.lifecycle = "draining";
        assert!(snap.to_json().contains("\"lifecycle\": \"draining\""));
    }

    #[test]
    fn prometheus_rendering_has_counters_and_labels() {
        let mut snap = empty_snapshot();
        let mut stats = LatencyStats::new();
        for v in [1_000u64, 2_000, 50_000] {
            stats.record_ns(v);
        }
        snap.spans.classes[0].total = stats.clone();
        snap.spans.classes[0].phases[Phase::Execute.index()] = stats;
        let text = snap.to_prometheus();
        assert!(text.contains("rp_frames_received_total 10"));
        assert!(text.contains("rp_requests_total{class=\"app\"} 5"));
        assert!(text.contains("rp_requests_shed_total{class=\"lambda\"} 2"));
        assert!(text.contains("rp_admission_shedding{class=\"lambda\"} 1"));
        assert!(text.contains("rp_lifecycle 0"));
        assert!(text.contains("rp_request_latency_ns{class=\"app\",quantile=\"0.5\"}"));
        assert!(
            text.contains("rp_request_phase_ns{class=\"app\",phase=\"execute\",quantile=\"0.95\"}")
        );
        assert!(text.contains("rp_request_latency_ns_count{class=\"app\"} 3"));
        // Quantiles are monotone in the exposition.
        let grab = |label: &str| -> f64 {
            text.lines()
                .find(|l| {
                    l.starts_with(&format!(
                        "rp_request_latency_ns{{class=\"app\",quantile=\"{label}\"}}"
                    ))
                })
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("quantile sample present")
        };
        assert!(grab("0.5") <= grab("0.95"));
        assert!(grab("0.95") <= grab("0.99"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
