//! End-to-end tests of the telemetry plane: admin scrapes against a live
//! loaded server, the DRAINING health regression, span phase invariants
//! observed over the wire, and shed-request span bucketing.

use rp_apps::harness::{take_socket_frame, write_socket_frame};
use rp_net::admission::{AdmissionConfig, ClassBudget};
use rp_net::protocol::{
    decode_response, encode_admin_request, encode_request, AdminOp, AdminRequest, AppOp, ErrorCode,
    MetricsFormat, Request, Response,
};
use rp_net::server::{NetServer, NetServerConfig};
use rp_net::span::Phase;
use rp_net::telemetry::scrape;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

const PROG: &str = "\
priorities: lo < hi
program telemetry-test : nat
main @ lo:
  t <- cmd[lo]{fcreate[worker; nat]{ret 21}};
  v <- cmd[lo]{ftouch t};
  ret (v + v)
";

/// Pipelines `requests` down one connection and collects every response.
fn roundtrip(addr: SocketAddr, requests: &[Request]) -> HashMap<u64, Response> {
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
    let mut responses = HashMap::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while responses.len() < requests.len() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out with {}/{} responses; missing ids {:?}",
            responses.len(),
            requests.len(),
            (0..requests.len() as u64)
                .filter(|i| !responses.contains_key(i))
                .collect::<Vec<_>>()
        );
        match stream.read(&mut chunk) {
            Ok(0) => panic!("server closed the connection"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some((id, body)) = take_socket_frame(&mut buf).expect("valid frames") {
                    responses.insert(id, decode_response(&body).expect("valid response"));
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

/// A mixed blend over every request class.  Each email compress targets a
/// *distinct* message (`user` = the caller's lane, `msg` sequential): three
/// or more in-flight compressions of the same message can wedge on the
/// slot chain under work-helping — a pre-existing scheduler limitation
/// documented by `same_message_compress_storm_documents_the_helping_deadlock`
/// in `rp_apps::email` — and this test suite is about the telemetry plane,
/// not that bug.  Servers driven with this load need
/// `email_messages >= n / 4`.
fn mixed_load(n: u64, lane: u32) -> Vec<Request> {
    (0..n)
        .map(|i| match i % 4 {
            0 => Request::App(AppOp::JserverJob {
                class: (i % 4) as u8,
                seed: i,
            }),
            1 => Request::App(AppOp::EmailCompress {
                user: lane,
                msg: (i / 4) as u32,
            }),
            2 => Request::LambdaCached {
                source: PROG.into(),
            },
            _ => Request::Lambda {
                source: PROG.into(),
            },
        })
        .collect()
}

#[test]
fn health_reports_draining_during_two_phase_shutdown() {
    let server = NetServer::start(NetServerConfig {
        shards: 1,
        workers: 1,
        ..NetServerConfig::default()
    })
    .expect("server starts");
    let admin = server.admin_addr();

    let before = scrape(admin, AdminOp::Health, SCRAPE_TIMEOUT).expect("health before drain");
    assert!(before.contains("\"state\":\"running\""), "{before}");

    // Phase 1 of the PR 6 two-phase shutdown: DRAINING, not a vague
    // "shutting down" — the data plane rejects, the admin plane reports.
    server.enter_drain();
    let during = scrape(admin, AdminOp::Health, SCRAPE_TIMEOUT).expect("health while draining");
    assert!(during.contains("\"state\":\"draining\""), "{during}");

    // The data plane meanwhile answers ShuttingDown.
    let responses = roundtrip(
        server.addr(),
        &[Request::App(AppOp::JserverJob { class: 0, seed: 1 })],
    );
    assert_eq!(
        responses[&0],
        Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is shutting down".into()
        }
    );

    // Metrics also keep flowing during the drain window.
    let metrics = scrape(
        admin,
        AdminOp::Metrics {
            format: MetricsFormat::Prometheus,
        },
        SCRAPE_TIMEOUT,
    )
    .expect("metrics while draining");
    assert!(metrics.contains("rp_lifecycle 1"), "draining gauge set");
    server.shutdown();
}

#[test]
fn admin_is_served_on_the_data_port_without_touching_data_counters() {
    let server = NetServer::start(NetServerConfig {
        shards: 1,
        workers: 1,
        ..NetServerConfig::default()
    })
    .expect("server starts");
    let before = server.stats();
    let text = scrape(
        server.addr(), // the DATA port: dispatch routes admin inline
        AdminOp::Metrics {
            format: MetricsFormat::Prometheus,
        },
        SCRAPE_TIMEOUT,
    )
    .expect("admin over the data port");
    assert!(text.contains("rp_frames_received_total"), "{text}");
    let after = server.stats();
    assert_eq!(
        after.frames_received, before.frames_received,
        "admin frames stay out of the data-plane counters"
    );
    assert_eq!(after.responses_sent, before.responses_sent);
    assert_eq!(after.admin_requests, before.admin_requests + 1);
    server.shutdown();
}

#[test]
fn unsupported_admin_versions_are_answered_malformed() {
    let server = NetServer::start(NetServerConfig {
        shards: 1,
        workers: 1,
        ..NetServerConfig::default()
    })
    .expect("server starts");
    let mut stream = TcpStream::connect(server.admin_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .expect("timeout");
    let req = AdminRequest {
        version: 99,
        op: AdminOp::Health,
    };
    write_socket_frame(&mut stream, 7, &encode_admin_request(&req)).expect("send");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let resp = loop {
        assert!(std::time::Instant::now() < deadline, "no response");
        match stream.read(&mut chunk) {
            Ok(0) => panic!("closed"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some((id, body)) = take_socket_frame(&mut buf).expect("frame") {
                    assert_eq!(id, 7);
                    break decode_response(&body).expect("response");
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
    };
    match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(
                message.contains("unsupported admin version 99"),
                "{message}"
            );
        }
        other => panic!("expected an error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn span_phase_invariants_hold_over_the_wire() {
    let server = NetServer::start(NetServerConfig {
        shards: 2,
        workers: 2,
        tracing: true,
        streaming_trace: true,
        email_users: 3,
        email_messages: 12,
        ..NetServerConfig::default()
    })
    .expect("server starts");
    // Two phases.  The slow log samples a level's live slack gauge as each
    // entry is recorded, and the gauge is empty until the streaming
    // reconstructor retires a first request subgraph — which one quick
    // burst can finish ahead of.  So the second phase starts only once the
    // first has retired, and the two together fit the 32-entry slow log,
    // so every second-phase entry is in it.
    let first = mixed_load(8, 0);
    let second = mixed_load(24, 1);
    assert!(first.len() + second.len() <= rp_net::span::DEFAULT_SLOW_LOG);
    assert_eq!(roundtrip(server.addr(), &first).len(), first.len());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().retired_subgraphs == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no request subgraph retired within 10 s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(roundtrip(server.addr(), &second).len(), second.len());
    let load: Vec<Request> = first.into_iter().chain(second).collect();
    assert!(server.drain(Duration::from_secs(10)), "drain completes");

    let spans = server.spans();
    let mut executed_total = 0;
    for (i, class) in rp_net::protocol::RequestClass::ALL.iter().enumerate() {
        let c = &spans.classes[i];
        assert!(c.executed > 0, "{} executed none", class.name());
        assert_eq!(c.shed, 0, "nothing shed in this run");
        executed_total += c.executed;
        // Every phase histogram saw exactly the executed requests; the
        // end-to-end histogram too.
        assert_eq!(c.total.count() as u64, c.executed, "{}", class.name());
        for phase in Phase::ALL {
            assert_eq!(
                c.phases[phase.index()].count() as u64,
                c.executed,
                "{} {}",
                class.name(),
                phase.name()
            );
        }
        // Phase means telescope into the total: the per-request phases sum
        // exactly to the request's total by construction, so the means do
        // too (up to histogram bucketing on each term).
        let phase_mean_sum: f64 = Phase::ALL
            .iter()
            .map(|p| c.phases[p.index()].mean().unwrap_or(0.0))
            .sum();
        let total_mean = c.total.mean().expect("executed > 0");
        let tolerance = 0.1 * total_mean + 1000.0;
        assert!(
            (phase_mean_sum - total_mean).abs() <= tolerance,
            "{}: phase means sum {phase_mean_sum} vs total mean {total_mean}",
            class.name()
        );
    }
    assert_eq!(executed_total, load.len() as u64);

    // The lambda classes actually timed an infer phase; app never does.
    let lambda = &spans.classes[rp_net::protocol::RequestClass::Lambda.tag() as usize];
    assert!(
        lambda.phases[Phase::Infer.index()].mean().unwrap_or(0.0) > 0.0,
        "uncached lambda inference takes measurable time"
    );
    let app = &spans.classes[rp_net::protocol::RequestClass::App.tag() as usize];
    assert_eq!(
        app.phases[Phase::Infer.index()].max(),
        Some(0),
        "app requests have no infer phase"
    );

    // The slow log is populated, sorted, and self-consistent: phases
    // telescope to the total exactly.
    assert!(!spans.slow.is_empty());
    for pair in spans.slow.windows(2) {
        assert!(pair[0].total_ns >= pair[1].total_ns, "slow log sorted");
    }
    for entry in &spans.slow {
        let sum: u64 = entry.phase_ns.iter().sum();
        assert_eq!(sum, entry.total_ns, "phases telescope exactly");
        if let Some(slack) = entry.bound_slack {
            assert!(slack.is_finite() && slack >= 0.0);
        }
    }
    // Streaming trace was on, so at least one retired entry carries the
    // live bound-slack gauge.
    assert!(
        spans.slow.iter().any(|e| e.bound_slack.is_some()),
        "some slow entries carry a bound-slack gauge"
    );
    server.shutdown();
}

#[test]
fn shed_requests_record_queue_and_decode_phases_only() {
    // A lambda budget no real request can meet, evaluated immediately:
    // admission starts shedding lambdas as soon as the first completions
    // land, while the exempt app class keeps flowing.
    let server = NetServer::start(NetServerConfig {
        shards: 1,
        workers: 1,
        admission: AdmissionConfig {
            enabled: true,
            budgets: [
                ClassBudget::exempt(Duration::from_secs(5)),
                ClassBudget::budgeted(Duration::from_micros(1)),
                ClassBudget::budgeted(Duration::from_micros(1)),
            ],
            refresh_interval: Duration::from_millis(1),
            min_completed: 1,
            ..AdmissionConfig::default()
        },
        ..NetServerConfig::default()
    })
    .expect("server starts");

    // Keep sending lambdas until the shed mask engages and sheds some.
    let mut shed_seen = 0;
    for round in 0..50 {
        let load: Vec<Request> = (0..8)
            .map(|_| Request::Lambda {
                source: PROG.into(),
            })
            .collect();
        let responses = roundtrip(server.addr(), &load);
        shed_seen += responses
            .values()
            .filter(|r| {
                matches!(
                    r,
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        ..
                    }
                )
            })
            .count();
        if shed_seen >= 4 {
            break;
        }
        assert!(
            round < 49,
            "admission never shed under an impossible budget"
        );
    }
    assert!(server.drain(Duration::from_secs(10)), "drain completes");

    let spans = server.spans();
    let lambda = &spans.classes[rp_net::protocol::RequestClass::Lambda.tag() as usize];
    assert!(lambda.shed >= 4, "sheds recorded: {}", lambda.shed);
    // Shed spans contribute decode + queue observations only: the
    // execute/infer/reply-write histograms and the end-to-end histogram
    // cover exactly the executed requests.
    assert_eq!(
        lambda.phases[Phase::Decode.index()].count() as u64,
        lambda.executed + lambda.shed
    );
    assert_eq!(
        lambda.phases[Phase::Queue.index()].count() as u64,
        lambda.executed + lambda.shed
    );
    assert_eq!(
        lambda.phases[Phase::Infer.index()].count() as u64,
        lambda.executed
    );
    assert_eq!(
        lambda.phases[Phase::Execute.index()].count() as u64,
        lambda.executed
    );
    assert_eq!(
        lambda.phases[Phase::ReplyWrite.index()].count() as u64,
        lambda.executed
    );
    assert_eq!(lambda.total.count() as u64, lambda.executed);
    // Shed entries in the slow log carry no execute time at all.
    for entry in spans.slow.iter().filter(|e| e.outcome.name() == "shed") {
        assert_eq!(entry.phase_ns[Phase::Infer.index()], 0);
        assert_eq!(entry.phase_ns[Phase::Execute.index()], 0);
        assert_eq!(entry.phase_ns[Phase::ReplyWrite.index()], 0);
    }
    server.shutdown();
}

#[test]
fn admin_scrapes_survive_a_flood_and_counters_reconcile() {
    let server = NetServer::start(NetServerConfig {
        shards: 2,
        workers: 2,
        tracing: true,
        streaming_trace: true,
        email_users: 3,
        email_messages: 12,
        ..NetServerConfig::default()
    })
    .expect("server starts");
    let admin = server.admin_addr();

    // A client flood on the data plane...
    let addr = server.addr();
    let load_threads: Vec<_> = (0..3u32)
        .map(|lane| {
            std::thread::spawn(move || {
                let load = mixed_load(32 + u64::from(lane), lane);
                roundtrip(addr, &load).len()
            })
        })
        .collect();

    // ...while the telemetry plane is polled concurrently: every scrape
    // must succeed, and the counters must be monotone from poll to poll.
    let mut last_frames = 0u64;
    let mut last_responses = 0u64;
    let mut scrapes = 0u64;
    while load_threads.iter().any(|t| !t.is_finished()) {
        let json = scrape(
            admin,
            AdminOp::Metrics {
                format: MetricsFormat::Json,
            },
            SCRAPE_TIMEOUT,
        )
        .expect("scrape under load");
        assert!(json.contains("\"version\": 1"), "{json}");
        scrapes += 1;
        let stats = server.stats();
        assert!(stats.frames_received >= last_frames, "monotone frames");
        assert!(stats.responses_sent >= last_responses, "monotone responses");
        last_frames = stats.frames_received;
        last_responses = stats.responses_sent;
        std::thread::sleep(Duration::from_millis(5));
    }
    let answered: usize = load_threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(answered, 32 + 33 + 34);
    assert!(scrapes > 0, "at least one scrape raced the load");
    assert!(server.drain(Duration::from_secs(10)), "drain completes");

    // Totals reconcile with the client's own counts: every issued frame
    // was received and answered, and the per-class counters partition the
    // total.  Admin scrapes stayed in their own counter.
    let stats = server.stats();
    assert_eq!(stats.frames_received, answered as u64);
    assert_eq!(stats.responses_sent, answered as u64);
    assert_eq!(stats.per_class.iter().sum::<u64>(), answered as u64);
    assert!(stats.admin_requests >= scrapes);
    server.shutdown();
}
