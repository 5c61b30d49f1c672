//! The two socket workloads, `wire_small` and `wire_mixed`: a `NetServer`
//! started in-process, driven over loopback by at most two client threads.

use crate::gen::{self, WireOp};
use crate::json::Metric;
use crate::oracle::{reply_is, WireOracle};
use crate::rig::{self, LatRecorder, SpanLog, Window, WindowClock};
use crate::{Outcome, RunCfg};
use bytes::Bytes;
use rp_apps::harness::{take_socket_frame, write_socket_frame};
use rp_icilk::runtime::SchedulerKind;
use rp_net::protocol::{encode_request, AppOp, Request, RequestClass};
use rp_net::server::{NetServer, NetServerConfig};
use rp_net::span::Phase;
use rp_sim::latency::LatencyModel;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests each `wire_small` connection and the `wire_mixed` background
/// connection keep outstanding.
pub const OUTSTANDING: usize = 8;
/// Warm-up requests per `wire_small` connection (fixed count, in set-up).
const SMALL_WARMUP: u64 = 1_000;
/// Warm-up requests of the `wire_mixed` background connection.
const MIXED_WARMUP_BG: u64 = 150;
/// Warm-up requests of the `wire_mixed` interactive connection.
const MIXED_WARMUP_FG: u64 = 30;
/// A reply that takes longer than this is a wedge, not a slow request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Simulated origin latency of a proxy miss, microseconds.
const ORIGIN_MICROS: u64 = 300;

/// The frozen server shape, sized on a 2-core machine.
pub fn server_config(seed: u64, traced: bool) -> NetServerConfig {
    NetServerConfig {
        shards: 1,
        workers: 2,
        scheduler: SchedulerKind::ICilk,
        tracing: traced,
        streaming_trace: traced,
        io_latency: LatencyModel::Constant {
            micros: ORIGIN_MICROS,
        },
        seed,
        email_users: gen::EMAIL_USERS,
        email_messages: gen::EMAIL_MESSAGES,
        ..NetServerConfig::default()
    }
}

/// One loopback connection with the envelope framing of
/// `rp_apps::harness`, counting what it sends and receives.
pub struct WireClient {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Frames written.
    pub sent: u64,
    /// Frames read.
    pub received: u64,
}

impl WireClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(WireClient {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            sent: 0,
            received: 0,
        })
    }

    /// Writes one request frame.
    pub fn send(&mut self, id: u64, body: &[u8]) -> std::io::Result<()> {
        write_socket_frame(&mut self.stream, id, body)?;
        self.sent += 1;
        Ok(())
    }

    /// Blocks until the next response frame arrives.
    pub fn recv(&mut self) -> std::io::Result<(u64, Vec<u8>)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = take_socket_frame(&mut self.buf)? {
                self.received += 1;
                return Ok(frame);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Request bodies encoded once at set-up, so the load generator spends its
/// share of the two cores on the socket, not on re-encoding.
struct Encoded {
    hits: Vec<Vec<u8>>,
    print: Vec<Vec<u8>>,
    compress: Vec<Vec<Vec<u8>>>,
    sort: Vec<Vec<u8>>,
    sw: Vec<Vec<u8>>,
}

impl Encoded {
    fn new(seed: u64, pool: &[(String, Bytes)]) -> Encoded {
        let app = |op: AppOp| encode_request(&Request::App(op));
        let job = |class: u8| -> Vec<Vec<u8>> {
            (0..gen::JOB_SEEDS)
                .map(|k| {
                    app(AppOp::JserverJob {
                        class,
                        seed: gen::job_seed(seed, k),
                    })
                })
                .collect()
        };
        Encoded {
            hits: pool
                .iter()
                .map(|(url, _)| encode_request(&gen::hit_request(url)))
                .collect(),
            print: (0..gen::EMAIL_MESSAGES as u32)
                .map(|msg| app(AppOp::EmailPrint { user: 0, msg }))
                .collect(),
            compress: (0..gen::EMAIL_USERS as u32)
                .map(|user| {
                    (0..gen::EMAIL_MESSAGES as u32)
                        .map(|msg| app(AppOp::EmailCompress { user, msg }))
                        .collect()
                })
                .collect(),
            sort: job(gen::JOB_SORT),
            sw: job(gen::JOB_SW),
        }
    }

    fn body(&self, op: &WireOp) -> std::borrow::Cow<'_, [u8]> {
        use std::borrow::Cow::{Borrowed, Owned};
        match op {
            WireOp::Hit(i) => Borrowed(&self.hits[*i]),
            WireOp::Miss(url, body) => Owned(encode_request(&gen::fill_request(url, body))),
            WireOp::Print(_, m) => Borrowed(&self.print[*m as usize]),
            WireOp::Compress(u, m) => Borrowed(&self.compress[*u as usize][*m as usize]),
            WireOp::Job(gen::JOB_SORT, k) => Borrowed(&self.sort[*k]),
            WireOp::Job(_, k) => Borrowed(&self.sw[*k]),
        }
    }
}

/// A started server with its warm connections and expected values.
pub struct WireSystem {
    server: NetServer,
    conns: Vec<WireClient>,
    oracle: WireOracle,
    encoded: Encoded,
    seed: u64,
    /// `wire_mixed` rather than `wire_small`.
    mixed: bool,
    /// Requests sent so far per connection (continues the request stream
    /// across warm-up and measurement).
    next: [u64; 2],
    /// Verified / failed so far (warm-up included).
    attempted: u64,
    failed: u64,
}

/// What both drivers saw over one `measure`.
struct Measured {
    /// The workload's view of each window (`wire_small`: both connections
    /// pooled; `wire_mixed`: background jobs as operations, interactive
    /// requests as latency).
    windows: Vec<Window>,
    /// The other view of the same windows: interactive rate, background
    /// latency.
    other: Vec<Window>,
    spans: SpanLog,
    /// Cores the process kept busy in each window: CPU time over wall time,
    /// as the background connection's driver read them at the window edges.
    busy_cores: Vec<f64>,
}

/// What one connection's driver saw.
struct ConnRun {
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
    /// The time and the process's CPU milliseconds when each window opened
    /// and closed (one more entry than windows).
    cpu_marks: Vec<(Instant, f64)>,
    spans: SpanLog,
}

struct InFlight {
    id: u64,
    expected: u64,
    sent_at: Instant,
}

/// How long a driver runs: a fixed request count (warm-up) or the window
/// grid (measurement).
enum Stop<'a> {
    Count(u64),
    Clock(&'a WindowClock),
}

/// Drives one connection in a closed loop with `outstanding` requests in
/// flight.  `plan(i)` names the `i`-th request.  Every reply is checked
/// against the oracle; a request that gets no reply counts as failed.
#[allow(clippy::too_many_arguments)]
fn drive_conn(
    client: &mut WireClient,
    conn_ix: u64,
    first: u64,
    outstanding: usize,
    oracle: &WireOracle,
    encoded: &Encoded,
    plan: &dyn Fn(u64) -> WireOp,
    stop: Stop<'_>,
    span_epoch: Option<Instant>,
) -> (ConnRun, u64) {
    let mut run = ConnRun {
        windows: Vec::new(),
        attempted: 0,
        failed: 0,
        cpu_marks: Vec::new(),
        spans: SpanLog::new(span_epoch.unwrap_or_else(Instant::now), 1 << 20),
    };
    let mut inflight: Vec<InFlight> = Vec::with_capacity(outstanding);
    let mut next = first;
    let send = |client: &mut WireClient, inflight: &mut Vec<InFlight>, next: &mut u64| {
        let op = plan(*next);
        let body = encoded.body(&op);
        let sent_at = Instant::now();
        let ok = client.send(*next, &body).is_ok();
        inflight.push(InFlight {
            id: *next,
            expected: oracle.expected(&op),
            sent_at,
        });
        *next += 1;
        ok
    };
    let (budget, clock) = match stop {
        Stop::Count(n) => (n, None),
        Stop::Clock(c) => (u64::MAX, Some(c)),
    };
    let mut alive = true;
    while alive && inflight.len() < outstanding && next - first < budget {
        alive = send(client, &mut inflight, &mut next);
    }

    let mut w = 0usize;
    let mut win_start = Instant::now();
    if clock.is_some() {
        run.cpu_marks.push((win_start, rig::Usage::now().cpu_ms));
    }
    let (mut win_ops, mut win_lat) = (0u64, LatRecorder::default());
    while alive && !inflight.is_empty() {
        let Ok((id, body)) = client.recv() else {
            break;
        };
        let now = Instant::now();
        let Some(pos) = inflight.iter().position(|f| f.id == id) else {
            run.attempted += 1;
            run.failed += 1; // a reply to nothing we sent
            continue;
        };
        let req = inflight.swap_remove(pos);
        run.attempted += 1;
        if reply_is(&body, req.expected) {
            win_ops += 1;
            win_lat.record((now - req.sent_at).as_nanos() as u64);
        } else {
            run.failed += 1;
        }
        if span_epoch.is_some() {
            run.spans
                .record_between("client.request", "", conn_ix << 56 | id, req.sent_at, now);
        }
        let mut more = next - first < budget;
        if let Some(clock) = clock {
            if w < clock.count && now >= clock.end_of(w) {
                let secs = (now - win_start).as_secs_f64();
                run.windows.push(Window::close(win_ops, secs, &mut win_lat));
                run.cpu_marks.push((now, rig::Usage::now().cpu_ms));
                (win_ops, win_start, w) = (0, now, w + 1);
            }
            more = w < clock.count;
        }
        if more {
            alive = send(client, &mut inflight, &mut next);
        }
    }
    // Whatever is still in flight never got its reply.
    run.attempted += inflight.len() as u64;
    run.failed += inflight.len() as u64;
    (run, next)
}

impl WireSystem {
    /// Generates the inputs from the configuration's seed, starts the
    /// server, connects, fills the proxy pool and runs the fixed-count
    /// warm-up.
    fn setup(config: NetServerConfig, mixed: bool) -> std::io::Result<WireSystem> {
        let seed = config.seed;
        let pool = gen::page_pool(seed);
        let oracle = WireOracle::new(seed, &pool);
        let encoded = Encoded::new(seed, &pool);
        let server = NetServer::start(config)?;
        let conns = vec![
            WireClient::connect(server.addr())?,
            WireClient::connect(server.addr())?,
        ];
        let mut sys = WireSystem {
            server,
            conns,
            oracle,
            encoded,
            seed,
            mixed,
            next: [0, 0],
            attempted: 0,
            failed: 0,
        };
        // Fill: one miss per pooled URL, then wait until the low-priority
        // cache inserts have run, so everything after is a hit.
        const FILL_BASE: u64 = 1 << 40;
        let fill = |i: u64| {
            let (url, page) = &pool[(i - FILL_BASE) as usize];
            WireOp::Miss(url.clone(), page.clone())
        };
        let (run, _) = drive_conn(
            &mut sys.conns[0],
            0,
            FILL_BASE,
            OUTSTANDING,
            &sys.oracle,
            &sys.encoded,
            &fill,
            Stop::Count(pool.len() as u64),
            None,
        );
        sys.attempted += run.attempted;
        sys.failed += run.failed;
        if !sys.server.drain(Duration::from_secs(10)) {
            sys.failed += 1;
        }
        let warm = if mixed {
            [MIXED_WARMUP_FG, MIXED_WARMUP_BG]
        } else {
            [SMALL_WARMUP, SMALL_WARMUP]
        };
        sys.drive(warm.map(Stop::Count), None);
        Ok(sys)
    }

    /// Runs both connections, each on its own thread, and folds what they
    /// verified into the running totals.
    fn drive(&mut self, stops: [Stop<'_>; 2], span_epoch: Option<Instant>) -> [ConnRun; 2] {
        type Plan = Box<dyn Fn(u64) -> WireOp + Send>;
        let seed = self.seed;
        // Per connection: what its i-th request is, and how many it keeps
        // outstanding.
        let plans: [(Plan, usize); 2] = if self.mixed {
            [
                (Box::new(move |i| gen::interactive_op(seed, i)), 1),
                (Box::new(gen::background_op), OUTSTANDING),
            ]
        } else {
            [0, 1].map(|conn| {
                let plan: Plan = Box::new(move |i| gen::small_op(seed, conn, i));
                (plan, OUTSTANDING)
            })
        };
        let (oracle, encoded, next) = (&self.oracle, &self.encoded, &self.next);
        let conns = self.conns.iter_mut().zip(plans).zip(stops).enumerate();
        let runs: Vec<(ConnRun, u64)> = std::thread::scope(|s| {
            let drivers: Vec<_> = conns
                .map(|(ix, ((conn, (plan, outstanding)), stop))| {
                    s.spawn(move || {
                        drive_conn(
                            conn,
                            ix as u64,
                            next[ix],
                            outstanding,
                            oracle,
                            encoded,
                            &*plan,
                            stop,
                            span_epoch,
                        )
                    })
                })
                .collect();
            drivers
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let [(run_a, next_a), (run_b, next_b)]: [(ConnRun, u64); 2] =
            runs.try_into().ok().expect("two connections");
        self.next = [next_a, next_b];
        self.attempted += run_a.attempted + run_b.attempted;
        self.failed += run_a.failed + run_b.failed;
        [run_a, run_b]
    }

    /// Measures across the clock's windows.
    fn measure(&mut self, clock: &WindowClock, span_epoch: Option<Instant>) -> Measured {
        let mixed = self.mixed;
        let [a, b] = self.drive([Stop::Clock(clock), Stop::Clock(clock)], span_epoch);
        let pairs = || a.windows.iter().zip(&b.windows);
        let windows = pairs()
            .map(|(wa, wb)| {
                if mixed {
                    Window {
                        ops: wb.ops,
                        ops_per_s: wb.ops_per_s,
                        lat: wa.lat.clone(),
                        p50_ns: wa.p50_ns,
                    }
                } else {
                    let mut w = wa.clone();
                    w.absorb(wb);
                    w
                }
            })
            .collect();
        let other = pairs()
            .map(|(wa, wb)| Window {
                ops: wa.ops,
                ops_per_s: wa.ops_per_s,
                lat: wb.lat.clone(),
                p50_ns: wb.p50_ns,
            })
            .collect();
        let busy_cores = b
            .cpu_marks
            .windows(2)
            .map(|m| (m[1].1 - m[0].1) / ((m[1].0 - m[0].0).as_secs_f64() * 1e3))
            .collect();
        let mut spans = a.spans;
        spans.absorb(b.spans);
        Measured {
            windows,
            other,
            spans,
            busy_cores,
        }
    }

    /// Reads the server's counters against the clients', then stops the
    /// server.  Returns `(reconcile mismatches, decode errors, shed,
    /// Theorem 2.3 counterexamples seen by the streaming reconstructor)`.
    fn finish(self) -> (u64, u64, u64, u64) {
        let _ = self.server.drain(Duration::from_secs(10));
        let stats = self.server.stats();
        let sent: u64 = self.conns.iter().map(|c| c.sent).sum();
        let received: u64 = self.conns.iter().map(|c| c.received).sum();
        let mismatches =
            stats.frames_received.abs_diff(sent) + stats.responses_sent.abs_diff(received);
        let shed: u64 = stats.shed_per_class.iter().sum();
        let counterexamples = self
            .server
            .stream_stats()
            .map_or(0, |s| s.aggregates.counterexamples + s.ingest_errors);
        drop(self.conns);
        self.server.shutdown();
        (mismatches, stats.decode_errors, shed, counterexamples)
    }
}

/// Runs `wire_small` (`mixed == false`) or `wire_mixed`.
pub fn run(cfg: &RunCfg, mixed: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(cfg, mixed, &mut out) {
        out.notes.push(format!("socket error: {e}"));
        out.attempted += 1;
        out.failed += 1;
    }
    out
}

fn run_into(cfg: &RunCfg, mixed: bool, out: &mut Outcome) -> std::io::Result<()> {
    // Set-up, repeated; the last system is the one measured.
    let mut sys: Option<WireSystem> = None;
    for _ in 0..cfg.setup_reps() {
        if let Some(old) = sys.take() {
            out.fold_finish(old.attempted, old.failed, old.finish());
        }
        let t = Instant::now();
        sys = Some(WireSystem::setup(server_config(cfg.seed, false), mixed)?);
        out.setups.push(t.elapsed().as_secs_f64());
    }
    let mut sys = sys.expect("at least one set-up");

    let usage0 = rig::Usage::now();
    if !cfg.traced {
        let clock = WindowClock::start(cfg.seconds, rig::WINDOWS);
        let m = sys.measure(&clock, None);
        out.usage = rig::Usage::since(usage0);
        if mixed {
            mixed_layer(out, &m.other, &m.busy_cores);
        }
        out.windows = m.windows;
        out.fold_finish(sys.attempted, sys.failed, sys.finish());
        return Ok(());
    }

    // Traced run: a second system with the program's tracing on; windows
    // alternate between the two so their ratio is not a drift artefact.
    let mut traced = WireSystem::setup(server_config(cfg.seed, true), mixed)?;
    let epoch = Instant::now();
    let window_s = cfg.seconds / (2 * rig::WINDOWS) as f64;
    let (mut other, mut busy_cores) = (Vec::new(), Vec::new());
    rig::count_allocs(true);
    let (a0, b0) = rig::alloc_counts();
    for _ in 0..rig::TRACED_WINDOWS {
        let m = sys.measure(&WindowClock::start(window_s, 1), Some(epoch));
        out.windows.extend(m.windows);
        other.extend(m.other);
        busy_cores.extend(m.busy_cores);
        out.spans.absorb(m.spans);
        let m = traced.measure(&WindowClock::start(window_s, 1), None);
        out.traced_windows.extend(m.windows);
    }
    let (a1, b1) = rig::alloc_counts();
    rig::count_allocs(false);
    out.usage = rig::Usage::since(usage0);
    if mixed {
        mixed_layer(out, &other, &busy_cores);
    } else {
        small_layer(out, &sys.server, (a1 - a0, b1 - b0));
    }
    out.fold_finish(traced.attempted, traced.failed, traced.finish());
    out.fold_finish(sys.attempted, sys.failed, sys.finish());
    Ok(())
}

/// The layer metrics `wire_small` owns: the server's own per-phase spans
/// (cumulative since its start, read from outside through
/// `NetServer::spans()`), the part of the client's latency no span covers,
/// and the allocations counted over the traced windows.
fn small_layer(out: &mut Outcome, server: &NetServer, (allocs, alloc_bytes): (u64, u64)) {
    let snap = server.spans();
    let app = &snap.classes[RequestClass::App.tag() as usize];
    let p50_us = |s: &rp_sim::stats::LatencyStats| s.median().unwrap_or(0.0) / 1e3;
    let phase = |p: Phase| p50_us(&app.phases[p.index()]);
    let total = p50_us(&app.total);
    let p50s: Vec<f64> = out.windows.iter().map(|w| w.p50_ns).collect();
    let client_p50 = rig::median(&p50s) / 1e3;
    let samples: u64 = out.windows.iter().map(|w| w.lat.count()).sum();
    let requests: u64 = out
        .windows
        .iter()
        .chain(&out.traced_windows)
        .map(|w| w.ops)
        .sum();
    let per_req = |v: u64| v as f64 / requests.max(1) as f64;
    out.layer.extend([
        Metric::new("net.queue_p50_us", phase(Phase::Queue), "us"),
        Metric::new("net.decode_p50_us", phase(Phase::Decode), "us"),
        Metric::new("net.execute_p50_us", phase(Phase::Execute), "us"),
        Metric::new("net.reply_write_p50_us", phase(Phase::ReplyWrite), "us"),
        Metric::new("net.span_total_p50_us", total, "us"),
        Metric::new("net.wire_gap_p50_us", client_p50 - total, "us"),
        Metric::new("net.allocs_per_req", per_req(allocs), "count"),
        Metric::new("net.alloc_bytes_per_req", per_req(alloc_bytes), "B"),
    ]);
    let phases: f64 = Phase::ALL.iter().map(|&p| phase(p)).sum();
    out.notes.push(format!(
        "span accounting: phases {phases:.1} us + wire gap {:.1} us = {:.1} us vs client p50 {client_p50:.1} us ({samples} samples)",
        client_p50 - total,
        phases + client_p50 - total,
    ));
}

/// Fewest cores `wire_mixed` may keep busy in any window.  With the
/// background saturating both workers the process uses both cores all the
/// time; `wire_small`, which does not saturate them, reads 1.3.
const MIXED_MIN_BUSY_CORES: f64 = 1.5;

/// The layer metrics `wire_mixed` owns, and its saturation check: a core
/// left idle in some window means a worker waited for work there, which
/// brings back the bimodal interactive latency of a non-saturating
/// background.
fn mixed_layer(out: &mut Outcome, other: &[Window], busy_cores: &[f64]) {
    let bg_p50: Vec<f64> = other.iter().map(|w| w.p50_ns).collect();
    let fg_rate: Vec<f64> = other.iter().map(|w| w.ops_per_s).collect();
    let min_busy = busy_cores.iter().copied().fold(f64::INFINITY, f64::min);
    out.layer.extend([
        Metric::new("apps.bg_lat_p50_us", rig::median(&bg_p50) / 1e3, "us"),
        Metric::new("apps.interactive_ops_per_s", rig::median(&fg_rate), "ops/s"),
        Metric::new("apps.busy_cores_min", min_busy, "cores"),
    ]);
    out.notes.push(format!(
        "cores busy per window {:.2?}, lowest {min_busy:.2}",
        busy_cores
    ));
    out.attempted += 1;
    if busy_cores.is_empty() || min_busy < MIXED_MIN_BUSY_CORES {
        out.failed += 1;
    }
}

/// The paper's Figure 13 ratio on the `wire_mixed` load: the interactive
/// connection's median latency under the priority-oblivious baseline
/// scheduler over that under the I-Cilk scheduler, windows alternating.
/// Above 1 means the prioritized scheduler answers sooner.  0 when a
/// system could not be set up.
pub fn responsiveness_vs_baseline(seed: u64) -> f64 {
    let start = |scheduler| {
        let config = NetServerConfig {
            scheduler,
            ..server_config(seed, false)
        };
        WireSystem::setup(config, true)
    };
    let (Ok(mut icilk), Ok(mut baseline)) =
        (start(SchedulerKind::ICilk), start(SchedulerKind::Baseline))
    else {
        return 0.0;
    };
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (sys, lat) in [(&mut icilk, &mut fast), (&mut baseline, &mut slow)] {
            let clock = WindowClock::start(0.4, 1);
            let m = sys.measure(&clock, None);
            lat.extend(m.windows.iter().map(|w| w.p50_ns));
        }
    }
    let (slow, fast) = (rig::median(&slow), rig::median(&fast));
    let ratio = if fast > 0.0 { slow / fast } else { 0.0 };
    let failed = icilk.failed + baseline.failed;
    icilk.finish();
    baseline.finish();
    if failed == 0 {
        ratio
    } else {
        0.0
    }
}
