//! Streaming vs post-hoc equivalence: the incremental reconstructor, fed the
//! same event log in arbitrary batch sizes, must retire exactly the request
//! subgraphs the post-hoc per-component path produces — same tasks, same
//! graphs, same observed schedules, and bit-identical Theorem 2.3 verdicts.
//!
//! The suite covers every trace source the repo has: the proxy case study in
//! closed and open loop, the email case study, a λ⁴ᵢ program through the
//! full pipeline, and a real socket run.  One test runs the proxy through
//! the live drain loop of [`collect_trace_streaming`]; a final test
//! exercises epoch-based retirement live against a streaming
//! [`NetServer`]: under wave-by-wave load the reconstructor's working set
//! must return to zero between waves while the retired-subgraph gauge
//! keeps growing.

use rp_apps::harness::{
    collect_trace_streaming, shutdown_runtime, take_socket_frame, write_socket_frame,
    ExperimentConfig, OpenLoopConfig,
};
use rp_apps::{email, proxy};
use rp_core::stream::{IncrementalReconstructor, StreamConfig, SubgraphReport};
use rp_core::trace::{ExecutionTrace, ReconstructedRun, TaskKey};
use rp_icilk::runtime::SchedulerKind;
use rp_lambda4i::compile::CompileConfig;
use rp_lambda4i::pipeline::{run_source, PipelineConfig};
use rp_net::protocol::{decode_response, encode_request};
use rp_net::{AppOp, NetServer, NetServerConfig, Request, Response};
use rp_sim::latency::LatencyModel;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch sizes used to chunk-feed the streaming reconstructor.  A small odd
/// size maximises drain-boundary splits, a medium size mimics real drains,
/// and `usize::MAX` degenerates to a single batch.
const CHUNK_SIZES: [usize; 3] = [23, 257, usize::MAX];

fn min_task_key(run: &ReconstructedRun) -> TaskKey {
    run.tasks.iter().map(|t| t.key).min().unwrap_or(0)
}

/// Feeds `trace` to an [`IncrementalReconstructor`] in `chunk` sized batches
/// and returns every retired subgraph, sorted by smallest task key.
fn stream_in_chunks(trace: &ExecutionTrace, chunk: usize) -> Vec<SubgraphReport> {
    let config = StreamConfig {
        // A tight window and short grace keep the test fast; correctness
        // must not depend on either because the input is already sorted.
        reorder_window_nanos: 100_000,
        grace_epochs: 1,
        ..StreamConfig::new(trace.level_names.clone(), trace.num_workers)
    };
    let mut recon = IncrementalReconstructor::new(config).expect("valid stream config");
    let mut reports = Vec::new();
    for batch in trace.events.chunks(chunk.min(trace.events.len().max(1))) {
        reports.extend(recon.ingest(batch).expect("ingest succeeds"));
    }
    reports.extend(recon.finalize().expect("finalize succeeds"));

    let counters = recon.counters();
    assert_eq!(counters.unresolved_events, 0, "no orphan was ever dropped");
    assert_eq!(counters.live_tasks, 0, "finalize retires every task");
    assert_eq!(counters.live_components, 0);
    assert_eq!(counters.pending_events, 0);
    assert_eq!(recon.aggregates().skipped_tasks, 0, "drained trace");

    reports.sort_by_key(SubgraphReport::min_key);
    reports
}

/// Asserts that streaming reconstruction of `trace` — at every chunk size —
/// retires exactly the components the post-hoc path produces, with
/// bit-identical Theorem 2.3 verdicts.
fn assert_streaming_matches_post_hoc(trace: &ExecutionTrace, label: &str) {
    let mut post_hoc = trace
        .reconstruct_components()
        .expect("post-hoc components reconstruct");
    // Retirement order is completion order, so align both sides on the
    // component's smallest task key before comparing.
    post_hoc.sort_by_key(min_task_key);

    for chunk in CHUNK_SIZES {
        let streamed = stream_in_chunks(trace, chunk);
        assert_eq!(
            streamed.len(),
            post_hoc.len(),
            "{label}/chunk={chunk}: component count"
        );
        for (s, p) in streamed.iter().zip(&post_hoc) {
            let key = min_task_key(p);
            assert_eq!(
                s.run.tasks, p.tasks,
                "{label}/chunk={chunk}/component={key}: task metadata"
            );
            assert_eq!(
                s.run.dag.vertex_count(),
                p.dag.vertex_count(),
                "{label}/chunk={chunk}/component={key}: vertex count"
            );
            assert_eq!(
                format!("{:?}", s.run.schedule.steps),
                format!("{:?}", p.schedule.steps),
                "{label}/chunk={chunk}/component={key}: observed schedule"
            );
            assert_eq!(s.run.skipped, p.skipped);
            // Verdicts must be bit-identical, floats included, which Debug
            // formatting captures exactly.
            assert_eq!(
                format!("{:?}", s.observed),
                format!("{:?}", p.check_observed()),
                "{label}/chunk={chunk}/component={key}: observed verdicts"
            );
            assert_eq!(
                format!("{:?}", s.replay),
                format!("{:?}", p.check_replay(trace.num_workers)),
                "{label}/chunk={chunk}/component={key}: replay verdicts"
            );
            assert_eq!(s.counterexamples(), 0, "{label}: Theorem 2.3 holds");
        }
    }
}

fn app_config() -> ExperimentConfig {
    ExperimentConfig {
        workers: 2,
        connections: 3,
        requests_per_connection: 3,
        io_latency: LatencyModel::Constant { micros: 200 },
        seed: 0x5EED_57EA,
        ..ExperimentConfig::default()
    }
    .traced()
}

/// Runs `drive` on a freshly started traced runtime and returns the drained
/// trace snapshot.
fn traced_app_run(
    config: &ExperimentConfig,
    levels: &[&str],
    drive: impl FnOnce(&Arc<rp_icilk::runtime::Runtime>),
) -> ExecutionTrace {
    let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, levels));
    drive(&rt);
    assert!(rt.drain(Duration::from_secs(10)), "runtime drains");
    let trace = rt.trace_snapshot().expect("tracing enabled");
    shutdown_runtime(rt, Duration::from_secs(10));
    trace
}

#[test]
fn proxy_closed_loop_streams_identically_to_post_hoc() {
    let config = app_config();
    let trace = traced_app_run(&config, &proxy::LEVELS, |rt| {
        let state = proxy::ProxyState::new();
        proxy::drive(rt, &state, &config);
    });
    assert_streaming_matches_post_hoc(&trace, "proxy-closed");
}

/// The background drain loop ingests while the proxy runs; once the runtime
/// drains, every request has retired with no loss and no counterexample.
#[test]
fn proxy_closed_loop_through_the_live_collector_loses_nothing() {
    let config = app_config();
    let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, &proxy::LEVELS));
    let collector = collect_trace_streaming(&rt).expect("config is traced");
    let state = proxy::ProxyState::new();
    proxy::drive(&rt, &state, &config);
    assert!(rt.drain(Duration::from_secs(10)), "runtime drains");
    let report = collector.stop();
    shutdown_runtime(rt, Duration::from_secs(10));
    assert_eq!(report.aggregates.counterexamples, 0, "Theorem 2.3 holds");
    assert_eq!(report.trace.dropped_events, 0, "no tracer overflow");
    assert_eq!(report.ingest_errors, 0);
    assert_eq!(report.aggregates.skipped_tasks, 0, "drained run");
    assert!(report.aggregates.retired_subgraphs > 0);
}

#[test]
fn proxy_open_loop_streams_identically_to_post_hoc() {
    let config = app_config().open_loop(OpenLoopConfig {
        arrival_rate_per_sec: 300.0,
        warmup_millis: 10,
        measure_millis: 60,
    });
    let trace = traced_app_run(&config, &proxy::LEVELS, |rt| {
        let state = proxy::ProxyState::new();
        proxy::drive(rt, &state, &config);
    });
    assert_streaming_matches_post_hoc(&trace, "proxy-open");
}

#[test]
fn email_closed_loop_streams_identically_to_post_hoc() {
    let config = app_config();
    let trace = traced_app_run(&config, &email::LEVELS, |rt| {
        let state = email::EmailState::generate(3, 3, config.seed);
        email::drive(rt, &state, &config);
    });
    assert_streaming_matches_post_hoc(&trace, "email-closed");
}

#[test]
fn lambda4i_pipeline_streams_identically_to_post_hoc() {
    let src = "\
priorities: bg < fg
program streamed : nat
main @ fg:
  a <- cmd[fg]{fcreate[p; nat]{ret 9}};
  b <- cmd[fg]{fcreate[q; nat]{ret 4}};
  x <- cmd[fg]{ftouch a};
  y <- cmd[fg]{ftouch b};
  ret (x + y)
";
    let config = PipelineConfig {
        runtime: CompileConfig {
            tracing: true,
            ..CompileConfig::default()
        },
        ..PipelineConfig::default()
    };
    let report = run_source(src, &config).expect("pipeline runs");
    let trace = report.runtime.trace.as_ref().expect("tracing enabled");
    assert_streaming_matches_post_hoc(trace, "lambda4i");
}

// ---------------------------------------------------------------------------
// Socket mode.
// ---------------------------------------------------------------------------

/// Sends `requests` over one connection and collects every response.
fn roundtrip(addr: SocketAddr, requests: &[Request]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .expect("timeout");
    for (i, req) in requests.iter().enumerate() {
        write_socket_frame(&mut stream, i as u64, &encode_request(req)).expect("send");
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut responses = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while responses.len() < requests.len() {
        assert!(
            Instant::now() < deadline,
            "timed out with {}/{} responses",
            responses.len(),
            requests.len()
        );
        match stream.read(&mut chunk) {
            Ok(0) => panic!("server closed the connection"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some((_, body)) = take_socket_frame(&mut buf).expect("valid frames") {
                    responses.push(decode_response(&body).expect("valid response"));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
    }
    responses
}

fn wave(seed: u64) -> Vec<Request> {
    vec![
        Request::App(AppOp::ProxyGet {
            url: format!("http://site/{seed}"),
            body_if_missed: bytes::Bytes::from(format!("body {seed}").into_bytes()),
        }),
        Request::App(AppOp::EmailCompress { user: 0, msg: 0 }),
        Request::App(AppOp::JserverJob {
            class: 1,
            seed: seed & 0x7,
        }),
        Request::App(AppOp::EmailPrint { user: 0, msg: 0 }),
    ]
}

#[test]
fn socket_run_streams_identically_to_post_hoc() {
    // Tracing on, streaming off: the server buffers the whole run so the
    // post-hoc snapshot sees every event, and we stream the same snapshot.
    let server = NetServer::start(NetServerConfig {
        shards: 2,
        workers: 2,
        tracing: true,
        io_latency: LatencyModel::Constant { micros: 200 },
        ..NetServerConfig::default()
    })
    .expect("server starts");
    let responses = roundtrip(server.addr(), &wave(7));
    assert_eq!(responses.len(), 4);
    assert!(server.drain(Duration::from_secs(10)));
    let trace = server.runtime().trace_snapshot().expect("tracing enabled");
    server.shutdown();
    assert_streaming_matches_post_hoc(&trace, "socket");
}

/// Epoch-based retirement live: under wave-by-wave socket load the
/// reconstructor's working set (live tasks, live components, pending
/// events) returns to zero between waves, while the retired-subgraph gauge
/// grows by at least one subgraph per request.  Memory is bounded by
/// in-flight work, not run length.
#[test]
fn streaming_server_working_set_plateaus_under_waves() {
    let server = NetServer::start(NetServerConfig {
        shards: 2,
        workers: 2,
        tracing: true,
        streaming_trace: true,
        io_latency: LatencyModel::Constant { micros: 200 },
        ..NetServerConfig::default()
    })
    .expect("server starts");

    const WAVES: u64 = 3;
    let per_wave = wave(0).len() as u64;
    let mut retired_after_wave = Vec::new();
    let mut max_live_tasks = 0;
    for w in 0..WAVES {
        let responses = roundtrip(server.addr(), &wave(w));
        assert_eq!(responses.len(), per_wave as usize);
        // Wait for the drain thread to flush and retire the whole wave.
        let deadline = Instant::now() + Duration::from_secs(30);
        let stats = loop {
            let s = server.stream_stats().expect("streaming is on");
            max_live_tasks = max_live_tasks.max(s.counters.live_tasks);
            if s.counters.live_components == 0
                && s.counters.pending_events == 0
                && s.aggregates.retired_subgraphs >= (w + 1) * per_wave
            {
                break s;
            }
            assert!(
                Instant::now() < deadline,
                "wave {w} never fully retired: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(stats.counters.live_tasks, 0, "working set returns to zero");
        assert_eq!(stats.trace.dropped_events, 0, "no tracer overflow");
        assert_eq!(stats.ingest_errors, 0);
        assert_eq!(stats.aggregates.counterexamples, 0, "Theorem 2.3 holds");
        retired_after_wave.push(stats.aggregates.retired_subgraphs);
    }

    // The gauge is monotone and grows by at least one subgraph per request,
    // so memory (∝ live tasks) stays bounded while history keeps growing.
    for pair in retired_after_wave.windows(2) {
        assert!(
            pair[1] >= pair[0] + per_wave,
            "retired gauge stalled: {retired_after_wave:?}"
        );
    }
    // The peak working set is on the order of one wave of in-flight
    // requests, not the whole run: a very loose cap still proves the point
    // against unbounded accumulation.
    assert!(
        max_live_tasks <= 64 * per_wave,
        "live-task peak {max_live_tasks} suggests retirement is not keeping up"
    );
    server.shutdown();
}
