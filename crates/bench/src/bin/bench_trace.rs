//! Traced-proxy bound check: runs the proxy case study under the runtime
//! cost-graph tracer, reconstructs a `CostDag` + `Schedule` from each run,
//! and checks the Theorem 2.3 response-time bound per thread against both
//! the observed execution and a replayed prompt admissible schedule.  Any
//! `is_counterexample()` report — hypotheses hold, bound fails — means the
//! scheduler, tracer, or bound analysis is buggy, so the binary prints the
//! offending reports and **exits non-zero**.
//!
//! Usage: `bench_trace [--quick] [--out PATH]`
//!
//! * `--quick` shrinks the sweep for CI smoke runs;
//! * `--out PATH` writes the JSON report (default `BENCH_trace.json`).
//!
//! The JSON records, per swept configuration, the reconstructed graph's
//! size, which hypotheses held, bound-slack percentiles (observed steps over
//! the adjusted bound, ≤ 1 when the bound holds), and wall-clock response
//! measurements.
//!
//! The binary also runs a **streaming sweep**: a traced socket server with
//! the incremental reconstructor on, driven at a constant request rate for
//! 30 s (2 s under `--quick`).  It fails on any Theorem 2.3 counterexample,
//! dropped trace event, or ingest error, and on a memory-bound violation —
//! the reconstructor's live working set must stay bounded by in-flight work
//! while retired subgraphs track completed requests.
//!
//! Timings live in the repository benchmark (`benchmark/`): the tracer's
//! cost is `rig.trace_overhead_pct` and `icilk.tracer_overhead_pct`, the
//! two reconstructors' throughput `core.reconstruct_{posthoc,stream}_events_s`.

use rp_apps::harness::{
    collect_trace, shutdown_runtime, take_socket_frame, write_socket_frame, ExperimentConfig,
    OpenLoopConfig, TraceRunReport,
};
use rp_apps::proxy;
use rp_icilk::runtime::{Runtime, RuntimeConfig};
use rp_net::protocol::encode_request;
use rp_net::{AppOp, NetServer, NetServerConfig, Request};
use rp_sim::latency::LatencyModel;
use std::fmt::Write as _;
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x7ACE_D00D;

fn base_config(workers: usize, connections: usize, requests: usize) -> ExperimentConfig {
    ExperimentConfig {
        workers,
        connections,
        requests_per_connection: requests,
        io_latency: LatencyModel::Uniform { lo: 200, hi: 1_200 },
        seed: SEED,
        ..ExperimentConfig::default()
    }
}

struct SweepRow {
    name: &'static str,
    workers: usize,
    mode: &'static str,
    rate_per_sec: Option<f64>,
    threads: usize,
    vertices: usize,
    edges: usize,
    skipped: usize,
    steals: u64,
    well_formed: bool,
    observed_admissible: bool,
    observed_prompt: bool,
    observed_hypotheses_held: usize,
    observed_counterexamples: usize,
    replay_counterexamples: usize,
    slack: Vec<f64>,
    measured_mean_micros: f64,
    measured_max_micros: f64,
}

fn summarise(
    name: &'static str,
    workers: usize,
    mode: &'static str,
    rate_per_sec: Option<f64>,
    report: &TraceRunReport,
) -> SweepRow {
    let (admissible, prompt, well_formed) = report
        .observed
        .first()
        .map(|r| (r.report.admissible, r.report.prompt, r.report.well_formed))
        .unwrap_or((false, false, false));
    // Bound slack over the replayed prompt schedule: the configuration the
    // theorem speaks about.  ≤ 1 everywhere unless something is broken.
    let mut slack: Vec<f64> = report
        .replay
        .iter()
        .filter(|r| r.report.hypotheses_hold())
        .filter_map(|r| r.slack_ratio())
        .collect();
    slack.sort_by(|a, b| a.partial_cmp(b).expect("slack ratios are finite"));
    let measured: Vec<f64> = report
        .run
        .tasks
        .iter()
        .filter(|t| !t.is_io)
        .map(|t| t.measured_response_nanos() as f64 / 1_000.0)
        .collect();
    let measured_mean_micros = if measured.is_empty() {
        0.0
    } else {
        measured.iter().sum::<f64>() / measured.len() as f64
    };
    let measured_max_micros = measured.iter().cloned().fold(0.0, f64::max);
    SweepRow {
        name,
        workers,
        mode,
        rate_per_sec,
        threads: report.run.dag.thread_count(),
        vertices: report.run.dag.vertex_count(),
        edges: report.run.dag.edges().len(),
        skipped: report.run.skipped,
        steals: report.run.steals,
        well_formed,
        observed_admissible: admissible,
        observed_prompt: prompt,
        observed_hypotheses_held: report.observed_hypotheses_held(),
        observed_counterexamples: report
            .observed
            .iter()
            .filter(|r| r.report.is_counterexample())
            .count(),
        replay_counterexamples: report
            .replay
            .iter()
            .filter(|r| r.report.is_counterexample())
            .count(),
        slack,
        measured_mean_micros,
        measured_max_micros,
    }
}

fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// A fully sequential spawn/touch/I-O chain on one worker and one priority
/// level.  With a single level and `P = 1` the observed schedule is prompt
/// by construction, so this is the configuration where Theorem 2.3 applies
/// to the observed execution *directly* (not just to the replay) — every
/// thread's hypotheses must hold and every bound must be respected.
fn run_chain_traced(links: u64) -> Result<TraceRunReport, String> {
    let rt = Arc::new(Runtime::start(
        RuntimeConfig::new(1, 1)
            .with_level_names(["only"])
            .with_tracing(true)
            .with_io_latency(LatencyModel::Constant { micros: 150 }, SEED),
    ));
    let p = rt.priority_by_name("only").expect("level exists");
    let rt2 = Arc::clone(&rt);
    let root = rt.fcreate(p, move || {
        let mut acc = 0u64;
        for i in 0..links {
            let child = rt2.fcreate(p, move || i);
            acc = acc.wrapping_add(rt2.ftouch(&child));
            let io = rt2.submit_io(p, move || i);
            acc = acc.wrapping_add(rt2.ftouch(&io));
        }
        acc
    });
    let _ = rt.ftouch_blocking(&root);
    let drained = rt.drain(Duration::from_secs(10));
    let report = collect_trace(&rt);
    shutdown_runtime(rt, Duration::from_secs(10));
    if !drained {
        // An undrained runtime leaves tasks mid-flight; the reconstruction
        // would skip them and the hypotheses check below would fail with a
        // misleading message.  Report the real cause instead.
        return Err("runtime did not drain within 10 s".to_string());
    }
    report.map_err(|e| format!("reconstruction failed: {e}"))
}

/// One batch of mixed app requests for the streaming sweep: two proxy
/// fetches (one unique URL forcing origin I/O, one repeat hitting the
/// cache), two email operations, and a CPU-heavy jserver job.
fn sweep_batch(round: u64) -> Vec<Request> {
    vec![
        Request::App(AppOp::ProxyGet {
            url: format!("http://origin/{round}"),
            body_if_missed: bytes::Bytes::from(format!("page {round}").into_bytes()),
        }),
        Request::App(AppOp::ProxyGet {
            url: "http://origin/hot".to_string(),
            body_if_missed: bytes::Bytes::from_static(b"hot page"),
        }),
        Request::App(AppOp::EmailCompress { user: 0, msg: 0 }),
        Request::App(AppOp::EmailPrint { user: 0, msg: 0 }),
        Request::App(AppOp::JserverJob {
            class: 1,
            seed: round & 0x7,
        }),
    ]
}

/// What the streaming sweep observed, for the JSON report.
struct StreamingSweep {
    duration_millis: f64,
    requests: u64,
    retired_subgraphs: u64,
    retired_threads: u64,
    retired_vertices: u64,
    counterexamples: u64,
    dropped_events: u64,
    ingest_errors: u64,
    unresolved_events: u64,
    max_live_tasks: u64,
    max_pending_events: u64,
    slack_max: f64,
    slack_samples: u64,
}

/// The reconstructor's live working set must be bounded by in-flight work.
/// One closed-loop connection keeps at most one batch in flight, so even a
/// very loose cap separates "bounded" from "retirement stopped keeping up".
const STREAM_LIVE_TASK_CAP: u64 = 1_024;

/// Drives a streaming-traced socket server closed-loop for `duration`,
/// sampling the live gauges per batch, then waits for quiescence and reads
/// the final aggregates.  Pushes one failure string per violated invariant.
fn run_streaming_sweep(duration: Duration, failures: &mut Vec<String>) -> Option<StreamingSweep> {
    let fail = |failures: &mut Vec<String>, msg: String| {
        failures.push(format!("streaming: {msg}"));
        None
    };
    let server = match NetServer::start(NetServerConfig {
        shards: 2,
        workers: 2,
        tracing: true,
        streaming_trace: true,
        io_latency: LatencyModel::Constant { micros: 200 },
        ..NetServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => return fail(failures, format!("server failed to start: {e:?}")),
    };

    let mut stream = match TcpStream::connect(server.addr()) {
        Ok(s) => s,
        Err(e) => return fail(failures, format!("connect: {e}")),
    };
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .expect("timeout");

    let started = Instant::now();
    let hard_deadline = started + duration + Duration::from_secs(60);
    let mut id = 0u64;
    let mut responses = 0u64;
    let mut max_live_tasks = 0u64;
    let mut max_pending = 0u64;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while started.elapsed() < duration {
        let batch = sweep_batch(id);
        for req in &batch {
            if let Err(e) = write_socket_frame(&mut stream, id, &encode_request(req)) {
                return fail(failures, format!("send: {e}"));
            }
            id += 1;
        }
        // Closed loop: wait for the whole batch before the next one.
        while responses < id {
            if Instant::now() > hard_deadline {
                return fail(failures, format!("stalled with {responses}/{id} responses"));
            }
            match stream.read(&mut chunk) {
                Ok(0) => return fail(failures, "server closed the connection".to_string()),
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    while let Ok(Some(_)) = take_socket_frame(&mut buf) {
                        responses += 1;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return fail(failures, format!("read: {e}")),
            }
        }
        let live = server.stream_stats().expect("streaming is on");
        max_live_tasks = max_live_tasks.max(live.counters.live_tasks);
        max_pending = max_pending.max(live.counters.pending_events);
    }
    drop(stream);

    if !server.drain(Duration::from_secs(30)) {
        return fail(failures, "server did not drain".to_string());
    }
    // The drain thread flushes the reorder-window tail at quiescence; wait
    // for the working set to hit zero.
    let quiesce_deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let s = server.stream_stats().expect("streaming is on");
        if s.counters.live_components == 0 && s.counters.pending_events == 0 {
            break s;
        }
        if Instant::now() > quiesce_deadline {
            return fail(failures, format!("never quiesced: {:?}", s.counters));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let elapsed = started.elapsed();
    server.shutdown();

    let slack_max = stats
        .aggregates
        .levels
        .iter()
        .fold(0.0f64, |m, l| m.max(l.slack_max));
    let sweep = StreamingSweep {
        duration_millis: elapsed.as_secs_f64() * 1_000.0,
        requests: id,
        retired_subgraphs: stats.aggregates.retired_subgraphs,
        retired_threads: stats.aggregates.retired_threads,
        retired_vertices: stats.aggregates.retired_vertices,
        counterexamples: stats.aggregates.counterexamples,
        dropped_events: stats.trace.dropped_events,
        ingest_errors: stats.ingest_errors,
        unresolved_events: stats.counters.unresolved_events,
        max_live_tasks,
        max_pending_events: max_pending,
        slack_max,
        slack_samples: stats
            .aggregates
            .levels
            .iter()
            .map(|l| l.slack_samples)
            .sum(),
    };

    if sweep.counterexamples > 0 {
        failures.push(format!(
            "streaming: {} Theorem 2.3 counterexample(s) in retired subgraphs",
            sweep.counterexamples
        ));
    }
    if sweep.dropped_events > 0 {
        failures.push(format!(
            "streaming: tracer dropped {} event(s) — ring buffers overflowed",
            sweep.dropped_events
        ));
    }
    if sweep.ingest_errors > 0 {
        failures.push(format!(
            "streaming: {} drain-loop ingest error(s)",
            sweep.ingest_errors
        ));
    }
    if sweep.unresolved_events > 0 {
        failures.push(format!(
            "streaming: {} orphan event(s) dropped past grace",
            sweep.unresolved_events
        ));
    }
    if sweep.retired_subgraphs < sweep.requests {
        failures.push(format!(
            "streaming: retired only {} subgraph(s) for {} completed requests",
            sweep.retired_subgraphs, sweep.requests
        ));
    }
    if sweep.max_live_tasks > STREAM_LIVE_TASK_CAP {
        failures.push(format!(
            "streaming: live-task peak {} exceeds {} — memory not bounded by in-flight work",
            sweep.max_live_tasks, STREAM_LIVE_TASK_CAP
        ));
    }
    Some(sweep)
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4}"),
        None => "null".to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_trace.json".to_string());

    let (connections, requests, rates) = if quick {
        (4usize, 3usize, vec![200.0f64, 500.0])
    } else {
        (8, 4, vec![300.0, 800.0, 1_500.0])
    };
    let (warmup_millis, measure_millis) = if quick { (20, 100) } else { (50, 250) };

    println!(
        "bench_trace: traced proxy runs, Theorem 2.3 as an executable oracle (seed {SEED:#x})"
    );
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // The prompt-by-construction chain: hypotheses must hold on *every*
    // thread of the observed schedule, not just vacuously.
    let chain_links = if quick { 8 } else { 24 };
    match run_chain_traced(chain_links) {
        Ok(report) => {
            for c in report.counterexamples() {
                failures.push(format!("chain-p1: {c:?}"));
            }
            let row = summarise("chain-p1", 1, "chain", None, &report);
            if row.observed_hypotheses_held != row.threads {
                failures.push(format!(
                    "chain-p1: hypotheses held on only {}/{} threads of a prompt-by-construction run",
                    row.observed_hypotheses_held, row.threads
                ));
            }
            rows.push(row);
        }
        Err(e) => failures.push(format!("chain-p1: {e}")),
    }

    // Closed loop on 1 and 2 workers.
    for workers in [1usize, 2] {
        let config = base_config(workers, connections, requests);
        let name: &'static str = if workers == 1 {
            "closed-p1"
        } else {
            "closed-p2"
        };
        match proxy::run_traced(&config) {
            Ok(report) => {
                for c in report.counterexamples() {
                    failures.push(format!("{name}: {c:?}"));
                }
                rows.push(summarise(name, workers, "closed", None, &report));
            }
            Err(e) => failures.push(format!("{name}: reconstruction failed: {e}")),
        }
    }
    // Open loop at swept arrival rates on 2 workers.
    let open_names: [&'static str; 3] = ["open-r0", "open-r1", "open-r2"];
    for (i, &rate) in rates.iter().enumerate() {
        let config = base_config(2, connections, requests).open_loop(OpenLoopConfig {
            arrival_rate_per_sec: rate,
            warmup_millis,
            measure_millis,
        });
        let name = open_names[i.min(open_names.len() - 1)];
        match proxy::run_traced(&config) {
            Ok(report) => {
                for c in report.counterexamples() {
                    failures.push(format!("{name}: {c:?}"));
                }
                rows.push(summarise(name, 2, "open", Some(rate), &report));
            }
            Err(e) => failures.push(format!("{name}: reconstruction failed: {e}")),
        }
    }

    // Every swept run drains before its snapshot, so a reconstruction that
    // skips tasks means the tracer lost events — the oracle would then be
    // checking a shrunken graph while still reporting zero counterexamples.
    // Fail loudly instead of letting the check go silently vacuous.
    for row in &rows {
        if row.skipped > 0 {
            failures.push(format!(
                "{}: reconstruction skipped {} incomplete task(s) after a drained run — \
                 the tracer lost events",
                row.name, row.skipped
            ));
        }
    }

    for row in &rows {
        println!(
            "{:<10} P={} threads {:>5} vertices {:>6} steals {:>4}  wf {}  obs prompt {}  hyp held {:>4}/{:<4}  cex obs {} replay {}  slack p95 {}",
            row.name,
            row.workers,
            row.threads,
            row.vertices,
            row.steals,
            row.well_formed,
            row.observed_prompt,
            row.observed_hypotheses_held,
            row.threads,
            row.observed_counterexamples,
            row.replay_counterexamples,
            fmt_opt(percentile(&row.slack, 95.0)),
        );
    }

    // Streaming sweep: constant-rate traced socket load with the
    // incremental reconstructor retiring request subgraphs live.
    let stream_duration = Duration::from_secs(if quick { 2 } else { 30 });
    let streaming = run_streaming_sweep(stream_duration, &mut failures);
    if let Some(s) = &streaming {
        println!(
            "streaming  {:.1} s: {} requests, {} subgraphs retired ({} threads, {} vertices), \
             live-task peak {}, pending peak {}, slack max {:.4} over {} samples, \
             cex {} dropped {} ingest-errors {}",
            s.duration_millis / 1_000.0,
            s.requests,
            s.retired_subgraphs,
            s.retired_threads,
            s.retired_vertices,
            s.max_live_tasks,
            s.max_pending_events,
            s.slack_max,
            s.slack_samples,
            s.counterexamples,
            s.dropped_events,
            s.ingest_errors,
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"kernel\": \"bench_trace\",\n  \"app\": \"proxy\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"workers\": {}, \"mode\": \"{}\", \"rate_per_sec\": {}, \
             \"threads\": {}, \"vertices\": {}, \"edges\": {}, \"skipped\": {}, \"steals\": {}, \
             \"well_formed\": {}, \"observed_admissible\": {}, \"observed_prompt\": {}, \
             \"observed_hypotheses_held\": {}, \"observed_counterexamples\": {}, \
             \"replay_counterexamples\": {}, \
             \"bound_slack\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"max\": {}}}, \
             \"measured_response_micros\": {{\"mean\": {:.1}, \"max\": {:.1}}}}}",
            row.name,
            row.workers,
            row.mode,
            fmt_opt(row.rate_per_sec),
            row.threads,
            row.vertices,
            row.edges,
            row.skipped,
            row.steals,
            row.well_formed,
            row.observed_admissible,
            row.observed_prompt,
            row.observed_hypotheses_held,
            row.observed_counterexamples,
            row.replay_counterexamples,
            row.slack.len(),
            fmt_opt(percentile(&row.slack, 50.0)),
            fmt_opt(percentile(&row.slack, 95.0)),
            fmt_opt(row.slack.last().copied()),
            row.measured_mean_micros,
            row.measured_max_micros,
        );
        let _ = writeln!(json, "{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ],\n");
    if let Some(s) = &streaming {
        json.push_str("  \"streaming\": {\n");
        let _ = writeln!(json, "    \"duration_millis\": {:.1},", s.duration_millis);
        let _ = writeln!(json, "    \"requests\": {},", s.requests);
        let _ = writeln!(json, "    \"retired_subgraphs\": {},", s.retired_subgraphs);
        let _ = writeln!(json, "    \"retired_threads\": {},", s.retired_threads);
        let _ = writeln!(json, "    \"retired_vertices\": {},", s.retired_vertices);
        let _ = writeln!(json, "    \"counterexamples\": {},", s.counterexamples);
        let _ = writeln!(json, "    \"dropped_events\": {},", s.dropped_events);
        let _ = writeln!(json, "    \"ingest_errors\": {},", s.ingest_errors);
        let _ = writeln!(json, "    \"unresolved_events\": {},", s.unresolved_events);
        let _ = writeln!(json, "    \"max_live_tasks\": {},", s.max_live_tasks);
        let _ = writeln!(
            json,
            "    \"max_pending_events\": {},",
            s.max_pending_events
        );
        let _ = writeln!(json, "    \"slack_max\": {:.4},", s.slack_max);
        let _ = writeln!(json, "    \"slack_samples\": {}", s.slack_samples);
        json.push_str("  },\n");
    }
    let _ = writeln!(json, "  \"counterexamples\": {}", failures.len());
    json.push_str("}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    if !failures.is_empty() {
        eprintln!("bench_trace: {} FAILURE(S):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!("a counterexample to Theorem 2.3 means the scheduler, tracer, or bound analysis is buggy");
        std::process::exit(1);
    }
}
