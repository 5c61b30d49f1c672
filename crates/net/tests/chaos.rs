//! Chaos suite: seeded evil clients and server-side fault injection.
//!
//! Every test here fixes its seed and asserts *liveness*, not specific
//! fault sequences: the server never wedges, never leaks shard / reactor /
//! refresher threads, and answers — or cleanly closes — every surviving
//! connection.  The fault streams themselves are deterministic per
//! `(seed, connection)` (see [`rp_apps::faults`]), so a failure
//! reproduces under the same seed.
//!
//! The thread-leak checks count the server's threads under
//! `/proc/self/task` — every thread `rp_net` and `rp_icilk` start is named
//! `rp-…` or `icilk-…` — so the test harness's own threads, which come and
//! go as it schedules tests around the gate, never count as leaks.  Since
//! the harness runs tests of one binary concurrently in one process, every
//! test takes a global lock and measures its baseline inside it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_apps::faults::FaultConfig;
use rp_apps::harness::{
    drive_socket_open, take_socket_frame, write_socket_frame, ResilienceConfig, SocketLoadConfig,
};
use rp_net::protocol::{
    decode_request, decode_response, encode_admin_request, encode_request, AdminOp, AdminRequest,
    AppOp, ErrorCode, MetricsFormat, Request, Response,
};
use rp_net::server::{NetServer, NetServerConfig};
use rp_sim::latency::LatencyModel;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serializes the tests so `/proc/self/task` baselines are not polluted by
/// sibling tests' servers.  A failing test poisons it; the others recover
/// the guard, so one fault is reported once rather than as `PoisonError`s.
static GATE: Mutex<()> = Mutex::new(());

/// Live threads of this process started by the server or its runtimes.
fn thread_count() -> usize {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    entries
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("rp-") || name.starts_with("icilk-"))
        .count()
}

/// Asserts the process thread count settles back to at most `baseline`
/// (worker/shard/reactor threads all joined) within a grace period.
fn assert_threads_settle(baseline: usize, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = thread_count();
        if now <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: {now} threads alive, baseline {baseline} — leaked threads"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn small_server(faults: Option<FaultConfig>) -> NetServer {
    NetServer::start(NetServerConfig {
        shards: 2,
        workers: 2,
        io_latency: LatencyModel::Constant { micros: 100 },
        faults,
        ..NetServerConfig::default()
    })
    .expect("server starts")
}

fn cheap_request(seed: u64) -> Vec<u8> {
    encode_request(&Request::App(AppOp::JserverJob { class: 1, seed }))
}

/// Sends one well-formed request and waits for its answer — the canonical
/// "is the server still alive?" probe.
fn probe_roundtrip(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("fresh connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    write_socket_frame(&mut stream, 1, &cheap_request(7)).expect("probe send");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "probe request never answered");
        match stream.read(&mut chunk) {
            Ok(0) => panic!("probe connection closed without an answer"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some((id, body)) = take_socket_frame(&mut buf).expect("valid frame") {
                    assert_eq!(id, 1);
                    let resp = decode_response(&body).expect("valid response");
                    assert!(matches!(resp, Response::App { .. }), "probe: {resp:?}");
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("probe read: {e}"),
        }
    }
}

/// Reads until the connection closes (EOF or reset), failing on a hang.
/// Well-formed response frames arriving before the close are permitted.
fn drain_until_close(stream: &mut TcpStream, context: &str) {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) if Instant::now() >= deadline => return,
            Ok(0) => return, // orderly close
            Ok(_) => {}      // late answers are fine; the close must follow
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                assert!(
                    Instant::now() < deadline,
                    "{context}: connection neither answered nor closed — wedged"
                );
            }
            Err(_) => return, // reset also counts as closed
        }
    }
}

/// Evil clients with seed-determined behaviours: random garbage, truncated
/// frames, mid-frame disconnects, a slow-loris sender, and a corrupted
/// body.  The server must drop the unrecoverable ones, answer the
/// recoverable ones, and keep serving everyone else throughout.
#[test]
fn evil_clients_cannot_wedge_the_server() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let baseline = thread_count();
    let server = small_server(None);
    let addr = server.addr();
    let mut rng = StdRng::seed_from_u64(0xE51A_C0FF_EE00);

    // 1. Pure garbage: an impossible envelope — the shard must drop the
    //    connection without answering.
    let mut garbage = TcpStream::connect(addr).expect("connect");
    let mut junk: Vec<u8> = (0..256).map(|_| rng.gen_range(0..=255u8)).collect();
    junk[0] = 0; // length < 8: unambiguously malformed
    junk[1] = 0;
    junk[2] = 0;
    junk[3] = 1;
    garbage.write_all(&junk).expect("send garbage");
    drain_until_close(&mut garbage, "garbage client");

    // 2. Truncated frame: a valid header promising more bytes than ever
    //    arrive, then a close.  The server just sees EOF mid-frame.
    let mut trunc = TcpStream::connect(addr).expect("connect");
    let body = cheap_request(1);
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::try_from(8 + body.len()).unwrap().to_be_bytes());
    frame.extend_from_slice(&2u64.to_be_bytes());
    frame.extend_from_slice(&body[..body.len() / 2]);
    trunc.write_all(&frame).expect("send truncated frame");
    drop(trunc); // disconnect mid-frame

    // 3. Slow-loris: one valid frame dripped a few bytes at a time.  The
    //    server buffers partial frames per connection, so the answer must
    //    still arrive once the frame completes.
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let body = cheap_request(3);
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::try_from(8 + body.len()).unwrap().to_be_bytes());
    frame.extend_from_slice(&3u64.to_be_bytes());
    frame.extend_from_slice(&body);
    for chunk in frame.chunks(3) {
        loris.write_all(chunk).expect("drip");
        loris.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "slow-loris frame never answered");
        match loris.read(&mut chunk) {
            Ok(0) => panic!("slow-loris connection closed without an answer"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some((id, body)) = take_socket_frame(&mut buf).expect("valid frame") {
                    assert_eq!(id, 3);
                    assert!(matches!(
                        decode_response(&body).expect("valid response"),
                        Response::App { .. }
                    ));
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("slow-loris read: {e}"),
        }
    }

    // 4. Corrupted body inside a valid envelope: answered `Malformed`, and
    //    the connection survives for the next (valid) request.
    let mut corrupt = TcpStream::connect(addr).expect("connect");
    corrupt
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let mut bad_body = cheap_request(4);
    bad_body[0] = 0xEE; // unknown class tag
    write_socket_frame(&mut corrupt, 40, &bad_body).expect("send corrupt");
    write_socket_frame(&mut corrupt, 41, &cheap_request(4)).expect("send valid");
    let mut buf = Vec::new();
    let mut got = std::collections::HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while got.len() < 2 {
        assert!(Instant::now() < deadline, "corrupt-body client starved");
        match corrupt.read(&mut chunk) {
            Ok(0) => panic!("connection dropped on a malformed *body*"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some((id, body)) = take_socket_frame(&mut buf).expect("valid frame") {
                    got.insert(id, decode_response(&body).expect("valid response"));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("corrupt-body read: {e}"),
        }
    }
    assert!(
        matches!(
            got[&40],
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "corrupted body: {:?}",
        got[&40]
    );
    assert!(matches!(got[&41], Response::App { .. }));

    // Throughout all of it, a fresh well-behaved client is still served.
    probe_roundtrip(addr);
    assert!(server.drain(Duration::from_secs(10)));
    let stats = server.stats();
    assert!(stats.decode_errors >= 1, "the corrupt body was counted");
    server.shutdown();
    assert_threads_settle(baseline, "evil clients");
}

/// Server-side fault injection under the resilient client driver: reads
/// delayed/corrupted/truncated, writes torn or dropped, connections killed
/// — the driver must finish (no hang), the server must stay serviceable,
/// and shutdown must reclaim every thread.
#[test]
fn server_side_faults_never_wedge_or_leak() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let baseline = thread_count();
    let server = small_server(Some(FaultConfig::chaos(0xFA_15_7E_5D, 0.05)));
    let addr = server.addr();

    let mut socket = SocketLoadConfig::at_rate(1_500.0);
    socket.open.warmup_millis = 50;
    socket.open.measure_millis = 250;
    socket.clients = 4;
    socket.resilience = ResilienceConfig::robust(Some(Duration::from_millis(500)));
    let outcome =
        drive_socket_open(&socket, 0xBEEF, addr, |i| cheap_request(i as u64)).expect("driver runs");

    assert!(outcome.issued > 0, "arrivals were injected");
    assert!(
        outcome.measured > 0,
        "some requests completed despite the faults: {outcome:?}"
    );
    assert!(
        outcome.reconnects > 0,
        "chaos at 5% per op must have killed at least one connection: {outcome:?}"
    );

    // The server is still serviceable afterwards: a fresh probe may itself
    // be faulted, so allow a few attempts (each either answers or closes).
    let mut served = false;
    for _ in 0..10 {
        let ok = std::panic::catch_unwind(|| probe_roundtrip(addr)).is_ok();
        if ok {
            served = true;
            break;
        }
    }
    assert!(
        served,
        "no probe survived on a 5% fault rate — server wedged"
    );

    assert!(server.drain(Duration::from_secs(10)));
    server.shutdown();
    assert_threads_settle(baseline, "server-side faults");
}

/// Satellite: a seeded byte-level mutation sweep over protocol decode.  No
/// mutated body may panic the decoder, and — because the envelope stays
/// well-formed — every mutated frame must be *answered*: `Malformed` when
/// the decoder rejects it, any response at all when the mutation still
/// parses.
#[test]
fn mutation_sweep_over_decode_never_panics_and_is_always_answered() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let baseline = thread_count();
    let bases = [
        encode_request(&Request::App(AppOp::JserverJob { class: 1, seed: 5 })),
        encode_request(&Request::App(AppOp::EmailPrint { user: 0, msg: 0 })),
        encode_request(&Request::App(AppOp::ProxyGet {
            url: "http://site/m".into(),
            body_if_missed: bytes::Bytes::from(b"mutation sweep".to_vec()),
        })),
        encode_request(&Request::Lambda {
            source: "priorities: a\nprogram m : nat\nmain @ a:\n  ret 1\n".into(),
        }),
    ];
    let mut rng = StdRng::seed_from_u64(0x5EED_F00D);
    let mut mutated = Vec::new();
    for i in 0..300 {
        let mut body = bases[i % bases.len()].clone();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..body.len());
            body[at] ^= 1u8 << rng.gen_range(0..8u8);
        }
        // In-process: the decoder must reject or accept, never panic.
        let locally_rejected = decode_request(&body).is_err();
        mutated.push((body, locally_rejected));
    }

    let server = small_server(None);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    for (id, (body, _)) in mutated.iter().enumerate() {
        write_socket_frame(&mut stream, id as u64, body).expect("send mutated frame");
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut answered = std::collections::HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while answered.len() < mutated.len() {
        assert!(
            Instant::now() < deadline,
            "only {}/{} mutated frames answered — the rest wedged",
            answered.len(),
            mutated.len()
        );
        match stream.read(&mut chunk) {
            Ok(0) => panic!(
                "connection dropped after {} answers; well-formed envelopes must be answered",
                answered.len()
            ),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some((id, body)) = take_socket_frame(&mut buf).expect("valid frame") {
                    answered.insert(id, decode_response(&body).expect("decodable response"));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("mutation sweep read: {e}"),
        }
    }
    let mut malformed = 0u64;
    for (id, (_, locally_rejected)) in mutated.iter().enumerate() {
        let resp = &answered[&(id as u64)];
        if *locally_rejected {
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: ErrorCode::Malformed,
                        ..
                    }
                ),
                "frame {id} rejected locally but answered {resp:?}"
            );
            malformed += 1;
        }
    }
    assert!(malformed > 0, "the sweep never produced a rejected mutant");
    assert_eq!(
        server.stats().decode_errors,
        malformed,
        "server and local decoder must agree on what is malformed"
    );
    server.shutdown();
    assert_threads_settle(baseline, "mutation sweep");
}

/// Satellite: the telemetry plane under fire.  Mutated admin bodies inside
/// intact envelopes, a data-plane body on the admin port, a wrong admin
/// version, a malformed envelope, and a mid-frame disconnect — all while
/// the *data* plane runs with server-side fault injection enabled.  The
/// admin listener must answer every complete frame (or cleanly drop the
/// connection on a broken envelope), keep serving afterwards, reconcile
/// `admin_requests` exactly, never touch the data-plane counters, and its
/// dedicated thread must not leak on shutdown.
#[test]
fn mutated_admin_frames_never_wedge_the_admin_plane_or_touch_data_counters() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let baseline = thread_count();
    // Data-plane fault injection on: the admin plane must be immune to it.
    let server = small_server(Some(FaultConfig::chaos(0xAD_31_7E_57, 0.05)));
    let admin_addr = server.admin_addr();
    let before = server.stats();

    // Phase 1: mutated admin bodies inside intact envelopes.  Every frame
    // reaches `serve_admin` and must be answered — `Malformed` when the
    // mutation breaks the body, a normal answer when it still parses.
    let bases = [
        encode_admin_request(&AdminRequest::new(AdminOp::Health)),
        encode_admin_request(&AdminRequest::new(AdminOp::Metrics {
            format: MetricsFormat::Json,
        })),
        encode_admin_request(&AdminRequest::new(AdminOp::Metrics {
            format: MetricsFormat::Prometheus,
        })),
        encode_admin_request(&AdminRequest::new(AdminOp::TraceSummary)),
        encode_admin_request(&AdminRequest::new(AdminOp::SlowLog { max: 4 })),
        // Wrong version byte: decodes, then fails the version policy.
        encode_admin_request(&AdminRequest {
            version: 0xEE,
            op: AdminOp::Health,
        }),
        // A data-plane body on the admin port: not admin-tagged, must be
        // answered `Malformed`, not routed into the runtime.
        cheap_request(3),
    ];
    let mut rng = StdRng::seed_from_u64(0xAD_F0_0D);
    let mut sent = 0u64;
    let mut stream = TcpStream::connect(admin_addr).expect("admin connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    for i in 0..120usize {
        let mut body = bases[i % bases.len()].clone();
        for _ in 0..rng.gen_range(0..3) {
            if body.is_empty() {
                break;
            }
            let at = rng.gen_range(0..body.len());
            body[at] ^= 1u8 << rng.gen_range(0..8u8);
        }
        write_socket_frame(&mut stream, i as u64, &body).expect("send admin frame");
        sent += 1;
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut answered = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while answered < sent {
        assert!(
            Instant::now() < deadline,
            "only {answered}/{sent} admin frames answered — admin plane wedged"
        );
        match stream.read(&mut chunk) {
            Ok(0) => panic!("admin connection dropped after {answered} answers"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some((_, body)) = take_socket_frame(&mut buf).expect("valid frame") {
                    let resp = decode_response(&body).expect("decodable admin response");
                    assert!(
                        matches!(resp, Response::Admin { .. } | Response::Error { .. }),
                        "admin port answered a data-plane response: {resp:?}"
                    );
                    answered += 1;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("admin storm read: {e}"),
        }
    }
    drop(stream);

    // Phase 2: a malformed envelope (length field below the 8-byte id
    // minimum) — the connection must be dropped, not served or wedged.
    let mut evil = TcpStream::connect(admin_addr).expect("admin connect");
    evil.write_all(&[0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef])
        .expect("send malformed envelope");
    drain_until_close(&mut evil, "admin malformed envelope");

    // Phase 3: a mid-frame disconnect — a length promising more bytes than
    // ever arrive, then a hangup.  The listener must just reclaim it.
    let mut torn = TcpStream::connect(admin_addr).expect("admin connect");
    torn.write_all(&[0, 0, 1, 0, 0, 0])
        .expect("send torn frame");
    drop(torn);

    // The admin plane is still alive: a fresh well-formed Health probe is
    // answered first try (no fault injection exists on this plane).
    let mut probe = TcpStream::connect(admin_addr).expect("admin probe connect");
    probe
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    write_socket_frame(
        &mut probe,
        7,
        &encode_admin_request(&AdminRequest::new(AdminOp::Health)),
    )
    .expect("probe send");
    let mut buf = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    let health = loop {
        assert!(
            Instant::now() < deadline,
            "admin health probe never answered"
        );
        match probe.read(&mut chunk) {
            Ok(0) => panic!("admin probe connection closed without an answer"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some((id, body)) = take_socket_frame(&mut buf).expect("valid frame") {
                    assert_eq!(id, 7);
                    break decode_response(&body).expect("valid response");
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("admin probe read: {e}"),
        }
    };
    assert!(
        matches!(health, Response::Admin { .. }),
        "health probe after the storm: {health:?}"
    );

    // Counter reconciliation: the storm was admin-only, so the data-plane
    // counters are untouched, and `admin_requests` counts exactly the
    // complete frames that reached `serve_admin` (the storm + the probe;
    // the malformed envelope and the torn frame never completed a frame).
    let after = server.stats();
    assert_eq!(after.frames_received, before.frames_received);
    assert_eq!(after.responses_sent, before.responses_sent);
    assert_eq!(after.decode_errors, before.decode_errors);
    assert_eq!(after.per_class, before.per_class);
    assert_eq!(
        after.admin_requests,
        before.admin_requests + sent + 1,
        "admin_requests must reconcile against the frames actually served"
    );

    // The data plane still works too (its faults may close a probe's
    // connection, so allow retries, as in the fault test above).
    let addr = server.addr();
    let served = (0..10).any(|_| std::panic::catch_unwind(|| probe_roundtrip(addr)).is_ok());
    assert!(served, "data plane wedged after an admin-only storm");

    server.shutdown();
    assert_threads_settle(baseline, "admin storm");
}

/// `(utime + stime in clock ticks, voluntary context switches)` of this
/// process's thread whose name starts with `name` (the kernel keeps the
/// first 15 bytes of a thread name).
fn thread_cpu(name: &str) -> (u64, u64) {
    let prefix = &name[..name.len().min(15)];
    for entry in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = entry.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if comm.trim_end() != prefix {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
        // Fields after the parenthesised name start at field 3 (state);
        // utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
            .split_whitespace()
            .collect();
        let ticks =
            fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
        let status = std::fs::read_to_string(dir.join("status")).expect("task status");
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .map_or(0, |v| v.trim().parse().expect("switch count"));
        return (ticks, switches);
    }
    panic!("no thread named {name}");
}

/// An idle admin plane blocks in `accept` instead of polling: over a
/// second with no scraper connected — after one scraper has come and gone —
/// its thread uses at most one clock tick of CPU and barely wakes.  The
/// polling loop it replaced slept 200 µs at a time, about 5000 wake-ups and
/// 22–40 ms of CPU per second.  Shutdown still wakes and joins it.
#[test]
fn idle_admin_plane_sleeps_in_accept() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let baseline = thread_count();
    let server = small_server(None);
    let health = rp_net::telemetry::scrape(
        server.admin_addr(),
        AdminOp::Health,
        Duration::from_secs(10),
    )
    .expect("health scrape");
    assert!(health.contains("\"state\""), "{health}");
    // Let the admin thread see the scraper hang up and go back to `accept`.
    std::thread::sleep(Duration::from_millis(100));
    let (ticks0, switches0) = thread_cpu("rp-net-admin-plane");
    std::thread::sleep(Duration::from_secs(1));
    let (ticks1, switches1) = thread_cpu("rp-net-admin-plane");
    assert!(
        ticks1 - ticks0 <= 1,
        "idle admin plane used {} clock ticks of CPU in 1 s",
        ticks1 - ticks0
    );
    assert!(
        switches1 - switches0 <= 20,
        "idle admin plane woke {} times in 1 s",
        switches1 - switches0
    );
    server.shutdown();
    assert_threads_settle(baseline, "idle admin plane shutdown");
}
