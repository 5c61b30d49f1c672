//! Shared experiment harness: run a case study on I-Cilk and on the
//! baseline, collect per-level statistics, and compute the ratios the paper
//! plots.
//!
//! Two load-generation modes are supported:
//!
//! * **closed loop** — each simulated connection issues its next request only
//!   after the previous reply arrives (`connections ×
//!   requests_per_connection` requests total).  Simple, but the offered load
//!   adapts to the server: a slow server sees *fewer* requests per second,
//!   which hides latency problems;
//! * **open loop** — requests are injected at the times of a seeded Poisson
//!   arrival process regardless of how the server is doing, the paper's
//!   actual workload model ("simulates user inputs using a Poisson
//!   process").  [`drive_open_loop`] implements the injection with
//!   warmup/measurement windows and *coordinated-omission-corrected*
//!   latencies: each response time is measured from the request's *intended*
//!   arrival time, not from when the injector actually managed to send it,
//!   so injector stalls behind a slow server count against the server
//!   instead of silently dropping the worst samples.

use crate::lock;
use rp_core::stream::{IncrementalReconstructor, StreamAggregates, StreamConfig, StreamCounters};
use rp_core::trace::{ReconstructedRun, TraceBoundReport, TraceError};
use rp_icilk::master::MasterConfig;
use rp_icilk::runtime::{Runtime, RuntimeConfig, SchedulerKind};
use rp_icilk::trace::TraceStats;
use rp_icilk::IFuture;
use rp_sim::clock::VirtualTime;
use rp_sim::latency::LatencyModel;
use rp_sim::poisson::PoissonProcess;
use rp_sim::stats::{ratio, LatencyStats, RatioSummary};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the load generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LoadMode {
    /// Closed loop: `connections × requests_per_connection` requests, each
    /// connection waiting for its reply before issuing the next request.
    #[default]
    Closed,
    /// Open loop: Poisson arrivals at a fixed rate, independent of server
    /// progress.
    Open(OpenLoopConfig),
}

/// Parameters of the open-loop injector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// Mean arrival rate in requests per second.
    pub arrival_rate_per_sec: f64,
    /// Warmup window: arrivals in the first `warmup_millis` are issued but
    /// not measured (caches fill, the master's allotments settle).
    pub warmup_millis: u64,
    /// Measurement window length, after the warmup.
    pub measure_millis: u64,
}

impl OpenLoopConfig {
    /// A config with the given arrival rate and the default 100 ms warmup /
    /// 400 ms measurement windows.
    pub fn at_rate(arrival_rate_per_sec: f64) -> Self {
        OpenLoopConfig {
            arrival_rate_per_sec,
            warmup_millis: 100,
            measure_millis: 400,
        }
    }

    /// Total injection horizon (warmup + measurement).
    pub fn horizon(&self) -> Duration {
        Duration::from_millis(self.warmup_millis + self.measure_millis)
    }
}

/// Parameters of the socket open-loop injector ([`drive_socket_open`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketLoadConfig {
    /// The Poisson arrival schedule (shared with the in-process open loop).
    pub open: OpenLoopConfig,
    /// Number of client threads; the global arrival schedule is split
    /// round-robin, each client owning one persistent loopback connection.
    pub clients: usize,
    /// Client-side fault handling (deadlines, `Overloaded` retries,
    /// reconnects); the default is fully passive — errors propagate exactly
    /// as they did before this knob existed.
    pub resilience: ResilienceConfig,
}

impl SocketLoadConfig {
    /// A config with the given arrival rate, the default open-loop windows,
    /// 4 client connections, and passive (non-resilient) fault handling.
    pub fn at_rate(arrival_rate_per_sec: f64) -> Self {
        SocketLoadConfig {
            open: OpenLoopConfig::at_rate(arrival_rate_per_sec),
            clients: 4,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Retry pacing for requests the server answered `Overloaded`: capped
/// exponential backoff with deterministic jitter (see [`backoff_delay`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total send attempts per request (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before attempt 2; doubles per further attempt.
    pub base: Duration,
    /// Upper bound of the exponential backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::from_micros(500),
            cap: Duration::from_millis(10),
        }
    }
}

/// Client-side resilience of the socket open loop.  Everything defaults to
/// off: no deadline, no retries, no reconnect — the driver then behaves
/// exactly as it did before resilience existed (any connection error aborts
/// the run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Per-request deadline, measured from the *intended* arrival time; a
    /// request unanswered past it is abandoned and counted in
    /// [`OpenLoopOutcome::timed_out`] (and in `unfinished`).
    pub deadline: Option<Duration>,
    /// Retry pacing for responses the classifier marks
    /// [`ResponseVerdict::Overloaded`].
    pub retry: RetryPolicy,
    /// Reconnect transparently when the connection breaks.  Requests that
    /// were awaiting a reply on the broken connection are recorded as
    /// unfinished **immediately** (never silently resent: the server may
    /// have executed them); requests merely queued for a backoff resend
    /// carry over to the new connection.
    pub reconnect: bool,
}

impl ResilienceConfig {
    /// The shape the overload bench and chaos tests use: reconnects on,
    /// a handful of retry attempts, and the given per-request deadline.
    pub fn robust(deadline: Option<Duration>) -> Self {
        ResilienceConfig {
            deadline,
            retry: RetryPolicy {
                max_attempts: 4,
                base: Duration::from_micros(200),
                cap: Duration::from_millis(5),
            },
            reconnect: true,
        }
    }
}

/// How the driver should treat one response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseVerdict {
    /// A final answer (success or error): the request is complete.
    Answered,
    /// The server shed the request; retry it under the
    /// [`RetryPolicy`], or count it rejected once attempts run out.
    Overloaded,
}

/// The deterministic jittered backoff before `attempt` (≥ 2) of a request:
/// `min(base · 2^(attempt−2), cap)` scaled by a jitter factor in
/// `[0.5, 1.0)` drawn from a stateless hash of `(seed, request, attempt)`.
/// Being a pure function — no RNG state shared across requests — the delay
/// a given retry backs off for is independent of how requests interleave,
/// which keeps seeded runs reproducible.
pub fn backoff_delay(policy: &RetryPolicy, seed: u64, request: u64, attempt: u32) -> Duration {
    let doublings = attempt.saturating_sub(2).min(20);
    let exp = policy.base.saturating_mul(1 << doublings).min(policy.cap);
    // SplitMix64 finalizer over the three inputs.
    let mut x = seed ^ request.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let unit = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    exp.mul_f64(0.5 + 0.5 * unit)
}

/// Configuration shared by all three case studies.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of worker threads for the server.
    pub workers: usize,
    /// Number of simulated client connections (proxy / email) or arrival
    /// intensity scale (jserver).
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// How the load generator paces requests (closed or open loop).
    pub mode: LoadMode,
    /// Simulated I/O latency model.
    pub io_latency: LatencyModel,
    /// Seed for all randomised pieces of the workload.
    pub seed: u64,
    /// Master scheduler parameters (quantum, threshold, γ).
    pub quantum_micros: u64,
    /// Utilization threshold for the master.
    pub utilization_threshold: f64,
    /// Growth parameter γ.
    pub growth: f64,
    /// Whether the runtime records an execution trace (see
    /// [`collect_trace`]).
    pub trace: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            workers: 4,
            connections: 16,
            requests_per_connection: 8,
            mode: LoadMode::Closed,
            io_latency: LatencyModel::Uniform { lo: 200, hi: 1_500 },
            seed: 42,
            quantum_micros: 500,
            utilization_threshold: 0.9,
            growth: 2.0,
            trace: false,
        }
    }
}

impl ExperimentConfig {
    /// The master-scheduler configuration implied by this experiment config.
    pub fn master(&self) -> MasterConfig {
        MasterConfig {
            quantum: Duration::from_micros(self.quantum_micros),
            utilization_threshold: self.utilization_threshold,
            growth: self.growth,
        }
    }

    /// Builds the runtime configuration for the given scheduler flavour and
    /// priority level names (lowest first).
    pub fn runtime_config(&self, scheduler: SchedulerKind, level_names: &[&str]) -> RuntimeConfig {
        RuntimeConfig::new(self.workers, level_names.len())
            .with_level_names(level_names.to_vec())
            .with_scheduler(scheduler)
            .with_master(self.master())
            .with_io_latency(self.io_latency, self.seed)
            .with_tracing(self.trace)
    }

    /// Starts a runtime for this experiment.
    pub fn start_runtime(&self, scheduler: SchedulerKind, level_names: &[&str]) -> Runtime {
        Runtime::start(self.runtime_config(scheduler, level_names))
    }

    /// This config with the load mode switched to open loop at the given
    /// arrival parameters.
    pub fn open_loop(mut self, open: OpenLoopConfig) -> Self {
        self.mode = LoadMode::Open(open);
        self
    }

    /// This config with execution tracing enabled.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// What one open-loop run produced.
#[derive(Debug, Clone)]
pub struct OpenLoopOutcome {
    /// Coordinated-omission-corrected response times (intended arrival →
    /// observed completion) of the requests in the measurement window.
    pub latency: LatencyStats,
    /// Requests injected over the whole horizon (warmup + measurement).
    pub issued: usize,
    /// Requests measured (intended arrival inside the measurement window
    /// and completed before the tail deadline).
    pub measured: usize,
    /// Requests still incomplete when the tail deadline expired (0 on a
    /// healthy run).  For the socket driver this includes requests lost to
    /// a broken connection and requests abandoned at their deadline.
    pub unfinished: usize,
    /// Requests whose final answer was `Overloaded` after retries ran out
    /// (socket driver only; they are absent from [`Self::latency`]).
    pub rejected: usize,
    /// Requests abandoned because their per-request deadline expired
    /// (subset of [`Self::unfinished`]; socket driver only).
    pub timed_out: usize,
    /// Total retry sends after `Overloaded` answers (socket driver only).
    pub retries: usize,
    /// Transparent reconnects performed (socket driver only).
    pub reconnects: usize,
}

impl OpenLoopOutcome {
    /// Warns on stderr when requests never completed: their latencies are
    /// *absent* from [`Self::latency`], so tail percentiles understate an
    /// overloaded server.  Callers that reduce the outcome to bare stats
    /// (the `drive()` dispatchers) must not let that loss pass silently.
    pub fn warn_if_lossy(&self, app: &str) {
        if self.unfinished > 0 {
            eprintln!(
                "warning: {app} open-loop run: {} of {} requests never completed; \
                 measured latencies exclude them, so tail percentiles are understated",
                self.unfinished, self.issued
            );
        }
    }
}

/// Waits up to `timeout` for `rt` to finish every pending task, as each app
/// driver does after its last request.  The driver's result does not depend
/// on the drain, but a failed one means some task is stuck, so the driver
/// name and the tasks completed per level go to stderr, where the stuck
/// level can be read off.
pub(crate) fn drain_or_warn(rt: &Runtime, app: &str, timeout: Duration) {
    if !rt.drain(timeout) {
        eprintln!(
            "warning: {app}: runtime did not drain within {timeout:?}; \
             tasks completed per level: {:?}",
            rt.metrics().completed
        );
    }
}

/// How long after the last injection the driver keeps waiting for
/// still-running requests before giving up on them.
const OPEN_LOOP_TAIL_TIMEOUT: Duration = Duration::from_secs(10);

/// Completion-poll granularity of the injector while it waits for the next
/// intended arrival time (bounds the measurement error of each sample).
const OPEN_LOOP_POLL: Duration = Duration::from_micros(200);

/// Runs an open-loop injection: `issue(i)` is called at (or as soon as
/// possible after) the `i`-th arrival time of a Poisson process seeded with
/// `seed`, and every returned future's completion is awaited.
///
/// The arrival *schedule* is drawn up front, so the number of issued
/// requests is a deterministic function of `(open, seed)` — the injector
/// falling behind real time changes measured latencies, never the workload
/// shape.  Latency is measured from the **intended** arrival time
/// (coordinated-omission correction): if the injector stalls because the
/// server is saturated, the stall is charged to the affected requests
/// instead of being dropped from the distribution.
pub fn drive_open_loop<T, F>(open: &OpenLoopConfig, seed: u64, mut issue: F) -> OpenLoopOutcome
where
    T: Clone + Send + 'static,
    F: FnMut(usize) -> IFuture<T>,
{
    let warmup = Duration::from_millis(open.warmup_millis);
    let horizon = VirtualTime::from_micros(open.horizon().as_micros() as u64);
    let offsets =
        PoissonProcess::with_rate_per_sec(open.arrival_rate_per_sec, seed).arrivals_until(horizon);

    let start = Instant::now();
    let mut latency = LatencyStats::new();
    let mut measured = 0usize;
    // (intended arrival, inside the measurement window, future)
    let mut in_flight: Vec<(Instant, bool, IFuture<T>)> = Vec::new();

    fn poll_completions<T: Clone + Send + 'static>(
        in_flight: &mut Vec<(Instant, bool, IFuture<T>)>,
        latency: &mut LatencyStats,
        measured: &mut usize,
    ) {
        in_flight.retain(|(intended, measure, fut)| {
            if !fut.is_ready() {
                return true;
            }
            if *measure {
                latency.record(Instant::now().saturating_duration_since(*intended));
                *measured += 1;
            }
            false
        });
    }

    for (i, offset) in offsets.iter().enumerate() {
        let offset = Duration::from_micros(offset.as_micros());
        let intended = start + offset;
        // Harvest at least once per arrival — even when behind schedule —
        // so a completion is observed within one arrival interval of
        // happening and a backlogged injector does not inflate the
        // latencies of already-finished requests.
        poll_completions(&mut in_flight, &mut latency, &mut measured);
        // Wait for the intended arrival, harvesting completions meanwhile.
        // When behind schedule this loop exits immediately and the request
        // is injected late — with its latency still measured from
        // `intended`.
        loop {
            let now = Instant::now();
            if now >= intended {
                break;
            }
            std::thread::sleep((intended - now).min(OPEN_LOOP_POLL));
            poll_completions(&mut in_flight, &mut latency, &mut measured);
        }
        let fut = issue(i);
        in_flight.push((intended, offset >= warmup, fut));
    }

    let deadline = Instant::now() + OPEN_LOOP_TAIL_TIMEOUT;
    while !in_flight.is_empty() && Instant::now() < deadline {
        poll_completions(&mut in_flight, &mut latency, &mut measured);
        if !in_flight.is_empty() {
            std::thread::sleep(OPEN_LOOP_POLL);
        }
    }

    OpenLoopOutcome {
        latency,
        issued: offsets.len(),
        measured,
        unfinished: in_flight.len(),
        rejected: 0,
        timed_out: 0,
        retries: 0,
        reconnects: 0,
    }
}

// ---------------------------------------------------------------------------
// Socket open loop: the same Poisson schedule, over real TCP.
// ---------------------------------------------------------------------------

/// The wire **envelope** shared by this driver and the `rp_net` server: a
/// frame is a 4-byte big-endian length (of everything after it), an 8-byte
/// big-endian request id, and an opaque body.  Responses echo the request
/// id, so clients may pipeline requests on one connection and match replies
/// out of order.  `rp_net::protocol` implements the same envelope on the
/// server side (the body layout — request class tags and payloads — lives
/// only there; this driver treats bodies as opaque).
pub const SOCKET_FRAME_HEADER_BYTES: usize = 4;

/// Largest envelope length field either side accepts.  A header past this
/// bound cannot be a real frame, so the peer is broken or hostile — without
/// the cap, one bogus 4-byte header would make the reader buffer up to
/// 4 GiB waiting for a frame that never completes.
pub const SOCKET_FRAME_MAX_BYTES: usize = 64 << 20;

/// The peer sent an envelope header no valid frame can have (length < the
/// 8-byte request id, or past [`SOCKET_FRAME_MAX_BYTES`]).  The only sane
/// recovery is to drop the connection: the stream cannot be re-synchronised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedFrame {
    /// The impossible length field.
    pub len: u32,
}

impl std::fmt::Display for MalformedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed envelope: length field {} outside 8..={SOCKET_FRAME_MAX_BYTES}",
            self.len
        )
    }
}

impl std::error::Error for MalformedFrame {}

impl From<MalformedFrame> for std::io::Error {
    fn from(e: MalformedFrame) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Writes one envelope frame (`id` + `body`) to `w`.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_socket_frame<W: Write>(w: &mut W, id: u64, body: &[u8]) -> std::io::Result<()> {
    let len = 8 + body.len();
    assert!(len <= SOCKET_FRAME_MAX_BYTES, "frame body too large");
    let mut frame = Vec::with_capacity(SOCKET_FRAME_HEADER_BYTES + len);
    frame.extend_from_slice(&u32::try_from(len).expect("frame fits in u32").to_be_bytes());
    frame.extend_from_slice(&id.to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Extracts the next complete envelope frame from the front of `buf`,
/// returning the request id and body; `Ok(None)` when the buffer holds no
/// complete frame yet.
///
/// # Errors
///
/// Returns [`MalformedFrame`] on an impossible length field.  The caller
/// must drop the connection — the bytes are left in the buffer, so calling
/// again just returns the same error.
pub fn take_socket_frame(buf: &mut Vec<u8>) -> Result<Option<(u64, Vec<u8>)>, MalformedFrame> {
    if buf.len() < SOCKET_FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let len_field = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes"));
    let len = len_field as usize;
    if !(8..=SOCKET_FRAME_MAX_BYTES).contains(&len) {
        return Err(MalformedFrame { len: len_field });
    }
    if buf.len() < SOCKET_FRAME_HEADER_BYTES + len {
        return Ok(None);
    }
    let frame: Vec<u8> = buf.drain(..SOCKET_FRAME_HEADER_BYTES + len).collect();
    let id = u64::from_be_bytes(frame[4..12].try_into().expect("8 bytes"));
    Ok(Some((id, frame[12..].to_vec())))
}

/// What one client thread of [`drive_socket_open`] produced.
#[derive(Default)]
struct ClientOutcome {
    latency: LatencyStats,
    measured: usize,
    unfinished: usize,
    rejected: usize,
    timed_out: usize,
    retries: usize,
    reconnects: usize,
}

/// Runs an open-loop injection **over real loopback sockets**: the global
/// Poisson arrival schedule (identical to [`drive_open_loop`]'s for the
/// same `(open, seed)`) is split round-robin across `socket.clients` client
/// threads, each owning one persistent TCP connection to `addr`.  The
/// `i`-th arrival sends the body `encode(i)` wrapped in the wire envelope
/// with request id `i`; a request completes when a response frame echoing
/// its id arrives on the same connection.
///
/// Latencies are coordinated-omission corrected exactly like the in-process
/// open loop: measured from each request's *intended* arrival time, so a
/// saturated server (or a stalled client thread) charges the delay to the
/// affected requests.  Requests pipeline freely — a client does not wait
/// for a reply before sending the next request.
///
/// # Errors
///
/// Returns the first connection/send error any client thread hit.  Requests
/// whose responses never arrive are counted in
/// [`OpenLoopOutcome::unfinished`], not treated as errors.
pub fn drive_socket_open<F>(
    socket: &SocketLoadConfig,
    seed: u64,
    addr: SocketAddr,
    encode: F,
) -> std::io::Result<OpenLoopOutcome>
where
    F: Fn(usize) -> Vec<u8> + Send + Sync,
{
    drive_socket_open_with(socket, seed, addr, encode, |_| ResponseVerdict::Answered)
}

/// [`drive_socket_open`] with a response classifier: `classify` inspects
/// each response body and decides whether it is a final answer or an
/// `Overloaded` rejection to retry under
/// [`ResilienceConfig::retry`].  The driver treats bodies as opaque apart
/// from this verdict, so the protocol layering stays one-way
/// (`rp_net::protocol::body_is_overloaded` is the intended classifier for
/// `rp_net` servers).
///
/// # Errors
///
/// Returns the first connection/send error any client thread hit (with
/// [`ResilienceConfig::reconnect`] enabled, only errors that persist
/// through the reconnect attempts surface here).
pub fn drive_socket_open_with<F, C>(
    socket: &SocketLoadConfig,
    seed: u64,
    addr: SocketAddr,
    encode: F,
    classify: C,
) -> std::io::Result<OpenLoopOutcome>
where
    F: Fn(usize) -> Vec<u8> + Send + Sync,
    C: Fn(&[u8]) -> ResponseVerdict + Send + Sync,
{
    let open = socket.open;
    let clients = socket.clients.max(1);
    let warmup = Duration::from_millis(open.warmup_millis);
    let horizon = VirtualTime::from_micros(open.horizon().as_micros() as u64);
    let offsets =
        PoissonProcess::with_rate_per_sec(open.arrival_rate_per_sec, seed).arrivals_until(horizon);
    let issued = offsets.len();
    let encode = &encode;
    let classify = &classify;
    let offsets = &offsets;
    let resilience = &socket.resilience;

    let start = Instant::now();
    let outcomes: Vec<std::io::Result<ClientOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    socket_client_loop(
                        client, clients, addr, start, warmup, offsets, encode, classify,
                        resilience, seed,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("socket client thread"))
            .collect()
    });

    let mut total = ClientOutcome::default();
    for outcome in outcomes {
        let outcome = outcome?;
        total.latency.merge(&outcome.latency);
        total.measured += outcome.measured;
        total.unfinished += outcome.unfinished;
        total.rejected += outcome.rejected;
        total.timed_out += outcome.timed_out;
        total.retries += outcome.retries;
        total.reconnects += outcome.reconnects;
    }
    Ok(OpenLoopOutcome {
        latency: total.latency,
        issued,
        measured: total.measured,
        unfinished: total.unfinished,
        rejected: total.rejected,
        timed_out: total.timed_out,
        retries: total.retries,
        reconnects: total.reconnects,
    })
}

/// One request awaiting its reply (or its backoff resend).
struct Pending {
    intended: Instant,
    measure: bool,
    /// The encoded body, kept only when retries are enabled.
    body: Option<Vec<u8>>,
    /// Send attempts so far.
    attempts: u32,
    /// Abandon the request past this instant.
    deadline: Option<Instant>,
    /// `Some(when)` — queued for a backoff resend at `when`; `None` — sent,
    /// awaiting the reply.
    resend_at: Option<Instant>,
}

/// The mutable state of one socket client thread, factored out so the
/// connection-error path (record losses, reconnect, carry queued resends
/// over) is one method instead of a closure pyramid.
struct ClientState<'a> {
    resilience: &'a ResilienceConfig,
    seed: u64,
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    in_flight: HashMap<u64, Pending>,
    /// Requests lost to a broken connection (recorded the moment the break
    /// is observed, not at the tail deadline).
    lost: usize,
    out: ClientOutcome,
}

impl ClientState<'_> {
    fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OPEN_LOOP_POLL))?;
        Ok(stream)
    }

    /// One poll step: read with `wait` as the pacing timeout, complete any
    /// arrived responses, expire deadlines, flush due resends.
    fn poll(
        &mut self,
        wait: Duration,
        classify: &(impl Fn(&[u8]) -> ResponseVerdict + Sync),
    ) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(wait))?;
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => self.on_conn_error(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection with requests in flight",
            ))?,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                loop {
                    match take_socket_frame(&mut self.buf) {
                        Ok(Some((id, body))) => self.on_frame(id, &body, classify),
                        Ok(None) => break,
                        Err(e) => {
                            self.on_conn_error(e.into())?;
                            break;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => self.on_conn_error(e)?,
        }
        self.expire_deadlines();
        self.flush_resends()
    }

    fn on_frame(
        &mut self,
        id: u64,
        body: &[u8],
        classify: &(impl Fn(&[u8]) -> ResponseVerdict + Sync),
    ) {
        let Some(mut pending) = self.in_flight.remove(&id) else {
            return; // duplicate (a retried request answered twice)
        };
        match classify(body) {
            ResponseVerdict::Answered => {
                if pending.measure {
                    self.out
                        .latency
                        .record(Instant::now().saturating_duration_since(pending.intended));
                    self.out.measured += 1;
                }
            }
            ResponseVerdict::Overloaded => {
                let retriable = pending.body.is_some()
                    && pending.attempts < self.resilience.retry.max_attempts
                    && pending.deadline.is_none_or(|d| Instant::now() < d);
                if retriable {
                    pending.attempts += 1;
                    pending.resend_at = Some(
                        Instant::now()
                            + backoff_delay(
                                &self.resilience.retry,
                                self.seed,
                                id,
                                pending.attempts,
                            ),
                    );
                    self.out.retries += 1;
                    self.in_flight.insert(id, pending);
                } else {
                    self.out.rejected += 1;
                }
            }
        }
    }

    /// Abandons requests whose per-request deadline has passed.
    fn expire_deadlines(&mut self) {
        if self.resilience.deadline.is_none() {
            return;
        }
        let now = Instant::now();
        let timed_out = &mut self.out.timed_out;
        self.in_flight.retain(|_, p| {
            let expired = p.deadline.is_some_and(|d| now >= d);
            if expired {
                *timed_out += 1;
            }
            !expired
        });
    }

    /// Sends every request whose (re)send is due.
    fn flush_resends(&mut self) -> std::io::Result<()> {
        let now = Instant::now();
        let due: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, p)| p.resend_at.is_some_and(|t| t <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            match self.in_flight[&id].body.clone() {
                Some(body) => self.send(id, &body)?,
                None => {
                    // Queued without a kept body (a failed initial send with
                    // retries off): the request cannot be resent — lost.
                    self.in_flight.remove(&id);
                    self.lost += 1;
                }
            }
        }
        Ok(())
    }

    /// Writes one frame for a request currently marked queued
    /// (`resend_at: Some`); on success the request switches to
    /// awaiting-reply.  A failed write goes through the connection-error
    /// path — the queued marker protects the request from being counted
    /// lost there — after which it is re-queued (body kept) or recorded
    /// lost (body not kept).
    fn send(&mut self, id: u64, body: &[u8]) -> std::io::Result<()> {
        if write_socket_frame(&mut self.stream, id, body).is_ok() {
            if let Some(p) = self.in_flight.get_mut(&id) {
                p.resend_at = None;
            }
            return Ok(());
        }
        self.on_conn_error(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "send failed",
        ))?;
        if let Some(p) = self.in_flight.get_mut(&id) {
            if p.body.is_some() {
                p.resend_at = Some(Instant::now());
            } else {
                self.in_flight.remove(&id);
                self.lost += 1;
            }
        }
        Ok(())
    }

    /// The connection broke.  Without [`ResilienceConfig::reconnect`] the
    /// error propagates (the historical behaviour).  With it, requests
    /// awaiting a reply are recorded lost *now* — the server may have
    /// executed them, so they are never resent — queued resends carry over,
    /// and the connection is re-established with a short bounded backoff.
    fn on_conn_error(&mut self, e: std::io::Error) -> std::io::Result<()> {
        if !self.resilience.reconnect {
            return Err(e);
        }
        let lost = &mut self.lost;
        self.in_flight.retain(|_, p| {
            let awaiting = p.resend_at.is_none();
            if awaiting {
                *lost += 1;
            }
            !awaiting
        });
        self.buf.clear();
        let mut wait = Duration::from_millis(1);
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match Self::connect(self.addr) {
                Ok(stream) => {
                    self.stream = stream;
                    self.out.reconnects += 1;
                    return Ok(());
                }
                Err(err) if Instant::now() < deadline => {
                    std::thread::sleep(wait);
                    wait = (wait * 2).min(Duration::from_millis(50));
                    let _ = err;
                }
                Err(err) => return Err(err),
            }
        }
    }
}

/// One client thread of the socket open loop: sends its round-robin share
/// of the arrival schedule down one connection, matching responses by id.
#[allow(clippy::too_many_arguments)]
fn socket_client_loop(
    client: usize,
    clients: usize,
    addr: SocketAddr,
    start: Instant,
    warmup: Duration,
    offsets: &[VirtualTime],
    encode: &(impl Fn(usize) -> Vec<u8> + Send + Sync),
    classify: &(impl Fn(&[u8]) -> ResponseVerdict + Send + Sync),
    resilience: &ResilienceConfig,
    seed: u64,
) -> std::io::Result<ClientOutcome> {
    let mut state = ClientState {
        resilience,
        seed,
        addr,
        stream: ClientState::connect(addr)?,
        buf: Vec::new(),
        in_flight: HashMap::new(),
        lost: 0,
        out: ClientOutcome::default(),
    };
    let keep_bodies = resilience.retry.max_attempts > 1;

    for (i, offset) in offsets.iter().enumerate() {
        if i % clients != client {
            continue;
        }
        let offset = Duration::from_micros(offset.as_micros());
        let intended = start + offset;
        // Wait for the intended arrival; the timed-out read is the sleep.
        // The timeout is capped at the time remaining (like the in-process
        // injector's `sleep(min(intended - now, OPEN_LOOP_POLL))`), so a
        // send is never held past its intended time by a full poll
        // interval — without the cap every sample would carry up to 200 µs
        // of client-side skew.  A 1 µs floor keeps the read from blocking
        // indefinitely (a zero timeout means "no timeout") while still
        // harvesting at least once per arrival even when behind schedule.
        loop {
            let remaining = intended.saturating_duration_since(Instant::now());
            let wait = remaining.min(OPEN_LOOP_POLL).max(Duration::from_micros(1));
            state.poll(wait, classify)?;
            if Instant::now() >= intended {
                break;
            }
        }
        let body = encode(i);
        state.in_flight.insert(
            i as u64,
            Pending {
                intended,
                measure: offset >= warmup,
                body: keep_bodies.then(|| body.clone()),
                attempts: 1,
                deadline: resilience.deadline.map(|d| intended + d),
                // Marked queued until the write below lands, so a write
                // failure routes through the same queued/lost logic as a
                // resend.
                resend_at: Some(Instant::now()),
            },
        );
        state.send(i as u64, &body)?;
    }

    let deadline = Instant::now() + OPEN_LOOP_TAIL_TIMEOUT;
    while !state.in_flight.is_empty() && Instant::now() < deadline {
        state.poll(OPEN_LOOP_POLL, classify)?;
    }

    let mut out = state.out;
    out.unfinished = state.in_flight.len() + state.lost + out.timed_out;
    Ok(out)
}

/// Why harvesting a trace from a runtime failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceHarvestError {
    /// The runtime was started without tracing (`ExperimentConfig::trace`
    /// was false).
    NotTracing,
    /// The event log could not be reconstructed into a cost graph.
    Reconstruct(TraceError),
}

impl std::fmt::Display for TraceHarvestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceHarvestError::NotTracing => write!(f, "runtime was not started with tracing"),
            TraceHarvestError::Reconstruct(e) => write!(f, "trace reconstruction failed: {e}"),
        }
    }
}

impl std::error::Error for TraceHarvestError {}

/// What a traced run produced: the reconstructed cost graph and schedule,
/// plus Theorem 2.3 reports against both the observed execution and a
/// replayed prompt admissible schedule on the same number of cores.
#[derive(Debug)]
pub struct TraceRunReport {
    /// The reconstructed graph, observed schedule, and per-task metadata.
    pub run: ReconstructedRun,
    /// Bound reports against the observed schedule (indexed by thread).
    pub observed: Vec<TraceBoundReport>,
    /// Bound reports against the replayed weak-respecting prompt schedule.
    pub replay: Vec<TraceBoundReport>,
}

impl TraceRunReport {
    /// Reports (observed and replay alike) that are counterexamples to
    /// Theorem 2.3 — the hypotheses held and the bound still failed.  A
    /// non-empty result means the scheduler, tracer, or bound analysis has a
    /// bug; callers should fail loudly.
    pub fn counterexamples(&self) -> Vec<&TraceBoundReport> {
        self.observed
            .iter()
            .chain(&self.replay)
            .filter(|r| r.report.is_counterexample())
            .collect()
    }

    /// How many threads' hypotheses held under the observed schedule (the
    /// rest are vacuous: their bound was not applicable as observed).
    pub fn observed_hypotheses_held(&self) -> usize {
        self.observed
            .iter()
            .filter(|r| r.report.hypotheses_hold())
            .count()
    }
}

/// Harvests a drained, tracing runtime into a [`TraceRunReport`]: snapshots
/// the event log, reconstructs the cost graph and observed schedule, and
/// checks the Theorem 2.3 bound per thread against both the observed
/// schedule and a replayed prompt admissible schedule.
///
/// Call after [`Runtime::drain`] so no task is mid-flight (incomplete tasks
/// would be skipped by reconstruction).
///
/// # Errors
///
/// Returns [`TraceHarvestError::NotTracing`] when the runtime records no
/// trace and [`TraceHarvestError::Reconstruct`] when the event log cannot be
/// rebuilt into a graph.
pub fn collect_trace(rt: &Runtime) -> Result<TraceRunReport, TraceHarvestError> {
    let trace = rt.trace_snapshot().ok_or(TraceHarvestError::NotTracing)?;
    let run = trace
        .reconstruct()
        .map_err(TraceHarvestError::Reconstruct)?;
    let (observed, replay) = run.check_observed_and_replay(run.schedule.num_cores);
    Ok(TraceRunReport {
        run,
        observed,
        replay,
    })
}

/// Default drain interval of [`collect_trace_streaming`].
const STREAM_DRAIN_INTERVAL: Duration = Duration::from_millis(1);

/// Consecutive empty drains before the streaming collector treats the
/// runtime as trace-quiescent and flushes the reorder-window tail.
const STREAM_IDLE_FLUSH: u32 = 2;

/// The running (or final) state of a [`StreamingTraceCollector`]: the
/// reconstructor's aggregates and memory gauges plus the tracer's own
/// counters.
#[derive(Debug, Clone)]
pub struct StreamingTraceReport {
    /// Running totals over every retired request subgraph, including the
    /// per-level bound-slack statistics and counterexample counts.
    pub aggregates: StreamAggregates,
    /// The reconstructor's live memory and progress gauges.
    pub counters: StreamCounters,
    /// The tracer's recorded/drained/dropped/buffered counters.
    pub trace: TraceStats,
    /// Drained batches the reconstructor rejected (recording bugs; a
    /// healthy run keeps it 0).
    pub ingest_errors: u64,
}

/// State shared between the drain thread and the collector handle.
#[derive(Debug)]
struct StreamShared {
    recon: Mutex<IncrementalReconstructor>,
    ingest_errors: AtomicU64,
}

impl StreamShared {
    fn report(&self, rt: &Runtime) -> StreamingTraceReport {
        let recon = lock(&self.recon);
        StreamingTraceReport {
            aggregates: recon.aggregates().clone(),
            counters: recon.counters(),
            trace: rt.trace_stats().unwrap_or_default(),
            ingest_errors: self.ingest_errors.load(Ordering::Relaxed),
        }
    }

    /// One drain → ingest (or quiescent flush) step.
    fn step(&self, rt: &Runtime, idle: &mut u32) {
        let Some(batch) = rt.drain_trace_events() else {
            return;
        };
        let mut recon = lock(&self.recon);
        let result = if batch.events.is_empty() {
            *idle += 1;
            let counters = recon.counters();
            if *idle >= STREAM_IDLE_FLUSH
                && (counters.pending_events > 0 || counters.live_components > 0)
            {
                recon.flush()
            } else {
                Ok(Vec::new())
            }
        } else {
            *idle = 0;
            recon.ingest(&batch.events)
        };
        if result.is_err() {
            self.ingest_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Streaming counterpart of [`collect_trace`]: a background thread drains
/// the runtime's trace buffers into an [`IncrementalReconstructor`] *while
/// the workload runs*, retiring each request subgraph (and checking its
/// Theorem 2.3 bound) as soon as it completes.  Trace memory stays bounded
/// by in-flight work instead of total history, so arbitrarily long runs can
/// be checked.  Obtain one from [`collect_trace_streaming`]; read
/// [`StreamingTraceCollector::snapshot`] during the run and
/// [`StreamingTraceCollector::stop`] after [`Runtime::drain`].
#[derive(Debug)]
pub struct StreamingTraceCollector {
    runtime: Arc<Runtime>,
    stop_flag: Arc<std::sync::atomic::AtomicBool>,
    shared: Arc<StreamShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StreamingTraceCollector {
    /// The live aggregates, gauges, and tracer counters, mid-run.
    pub fn snapshot(&self) -> StreamingTraceReport {
        self.shared.report(&self.runtime)
    }

    /// Stops the drain thread, sweeps the remaining events, finalizes the
    /// reconstructor (incomplete tasks are skipped and counted, exactly as
    /// post-hoc reconstruction skips them), and returns the final report.
    /// Call after [`Runtime::drain`] so nothing is mid-flight.
    pub fn stop(mut self) -> StreamingTraceReport {
        self.stop_flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        if let Some(batch) = self.runtime.drain_trace_events() {
            let mut recon = lock(&self.shared.recon);
            if recon.ingest(&batch.events).is_err() {
                self.shared.ingest_errors.fetch_add(1, Ordering::Relaxed);
            }
            if recon.finalize().is_err() {
                self.shared.ingest_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.shared.report(&self.runtime)
    }
}

impl Drop for StreamingTraceCollector {
    fn drop(&mut self) {
        self.stop_flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Starts streaming trace collection on a tracing runtime: spawns the
/// background drain thread and returns its handle.  The thread drains every
/// millisecond and flushes the reconstructor's reorder-window tail when the
/// runtime goes trace-quiescent, so subgraphs retire promptly even when
/// traffic pauses.
///
/// # Errors
///
/// [`TraceHarvestError::NotTracing`] when the runtime records no trace;
/// [`TraceHarvestError::Reconstruct`] when the runtime's level declaration
/// cannot seed a reconstructor.
pub fn collect_trace_streaming(
    rt: &Arc<Runtime>,
) -> Result<StreamingTraceCollector, TraceHarvestError> {
    let (level_names, num_workers) = rt.trace_topology().ok_or(TraceHarvestError::NotTracing)?;
    let recon = IncrementalReconstructor::new(StreamConfig::new(level_names, num_workers))
        .map_err(TraceHarvestError::Reconstruct)?;
    let shared = Arc::new(StreamShared {
        recon: Mutex::new(recon),
        ingest_errors: AtomicU64::new(0),
    });
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handle = {
        let rt = Arc::clone(rt);
        let shared = Arc::clone(&shared);
        let stop_flag = Arc::clone(&stop_flag);
        std::thread::Builder::new()
            .name("rp-trace-drain".to_string())
            .spawn(move || {
                let mut idle = 0u32;
                while !stop_flag.load(Ordering::SeqCst) {
                    std::thread::sleep(STREAM_DRAIN_INTERVAL);
                    shared.step(&rt, &mut idle);
                }
            })
            .expect("spawning the trace drain thread")
    };
    Ok(StreamingTraceCollector {
        runtime: Arc::clone(rt),
        stop_flag,
        shared,
        handle: Some(handle),
    })
}

/// Waits for spawned task closures to release their clones of the runtime
/// handle, then shuts the runtime down.
///
/// A task body that captured an `Arc<Runtime>` drops it only when the
/// closure itself is dropped, which can trail `Runtime::drain` by a moment —
/// so a bare `Arc::try_unwrap(rt).expect("sole owner")` right after a drain
/// is a race.  This retries until sole ownership is reached.
///
/// # Panics
///
/// Panics if the runtime is still shared after `timeout` (a stuck task).
pub fn shutdown_runtime(mut rt: Arc<Runtime>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        match Arc::try_unwrap(rt) {
            Ok(owned) => {
                owned.shutdown();
                return;
            }
            Err(shared) => {
                assert!(
                    Instant::now() < deadline,
                    "runtime handle still shared after {timeout:?} — a task is stuck"
                );
                rt = shared;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Per-priority-level results of one run of one application on one
/// scheduler.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// The level's name.
    pub name: String,
    /// The level's index (0 = lowest).
    pub level: usize,
    /// Compute-time statistics of tasks at this level.
    pub compute: LatencyStats,
    /// Response-time statistics of tasks at this level.
    pub response: LatencyStats,
}

/// The results of running one application once on one scheduler.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which scheduler ran it.
    pub scheduler: SchedulerKind,
    /// Client-observed response times (request issued → reply delivered) for
    /// the highest-priority interactive path.
    pub client_response: LatencyStats,
    /// Per-level task statistics, lowest level first.
    pub levels: Vec<LevelReport>,
}

/// The paired comparison the figures plot: baseline (Cilk-F) over treatment
/// (I-Cilk), so values above 1 mean I-Cilk is better.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Application name.
    pub app: String,
    /// The configuration used.
    pub config: ExperimentConfig,
    /// The I-Cilk run.
    pub icilk: RunReport,
    /// The baseline run.
    pub baseline: RunReport,
}

impl ExperimentReport {
    /// The responsiveness ratio (baseline / I-Cilk) of client-observed
    /// response times — the quantity of Figure 13.
    pub fn responsiveness_ratio(&self) -> Option<RatioSummary> {
        ratio(&self.baseline.client_response, &self.icilk.client_response)
    }

    /// The compute-time ratio (baseline / I-Cilk) for one priority level —
    /// the quantity of Figure 14.
    pub fn compute_ratio(&self, level: usize) -> Option<RatioSummary> {
        let b = &self.baseline.levels.get(level)?.compute;
        let t = &self.icilk.levels.get(level)?.compute;
        ratio(b, t)
    }

    /// Renders one figure-style row: app, connections, then mean/p95 ratios.
    pub fn figure13_row(&self) -> String {
        match self.responsiveness_ratio() {
            Some(r) => format!(
                "{:<8} conns={:<4} responsiveness ratio: mean {:.2}x  p95 {:.2}x  (I-Cilk mean {:.0}µs)",
                self.app,
                self.config.connections,
                r.mean_ratio,
                r.p95_ratio,
                self.icilk.client_response.mean_micros().unwrap_or(0.0)
            ),
            None => format!("{:<8} conns={:<4} (no samples)", self.app, self.config.connections),
        }
    }

    /// Renders Figure 14 style rows: one per level, highest priority first.
    pub fn figure14_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for level in (0..self.icilk.levels.len()).rev() {
            let name = &self.icilk.levels[level].name;
            match self.compute_ratio(level) {
                Some(r) => rows.push(format!(
                    "{:<8} conns={:<4} level {:<12} compute ratio: mean {:.2}x  p95 {:.2}x",
                    self.app, self.config.connections, name, r.mean_ratio, r.p95_ratio
                )),
                None => rows.push(format!(
                    "{:<8} conns={:<4} level {:<12} (no samples)",
                    self.app, self.config.connections, name
                )),
            }
        }
        rows
    }
}

/// Builds a [`RunReport`] from a runtime's metrics snapshot plus the
/// client-side response samples gathered by the application driver.
pub fn run_report(
    scheduler: SchedulerKind,
    rt: &Runtime,
    level_names: &[&str],
    client_response: LatencyStats,
) -> RunReport {
    let snap = rt.metrics();
    let levels = level_names
        .iter()
        .enumerate()
        .map(|(i, name)| LevelReport {
            name: (*name).to_string(),
            level: i,
            compute: snap.compute.get(i).cloned().unwrap_or_default(),
            response: snap.response.get(i).cloned().unwrap_or_default(),
        })
        .collect();
    RunReport {
        scheduler,
        client_response,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn default_config_is_sane() {
        let c = ExperimentConfig::default();
        assert!(c.workers >= 1);
        assert_eq!(c.mode, LoadMode::Closed);
        assert_eq!(c.master().growth, 2.0);
        assert_eq!(c.master().quantum, Duration::from_micros(500));
        let open = c.open_loop(OpenLoopConfig::at_rate(500.0));
        match open.mode {
            LoadMode::Open(o) => {
                assert_eq!(o.arrival_rate_per_sec, 500.0);
                assert_eq!(o.horizon(), Duration::from_millis(500));
            }
            _ => panic!("open_loop() must switch the mode"),
        }
    }

    fn tiny_runtime() -> Arc<Runtime> {
        Arc::new(Runtime::start(
            RuntimeConfig::new(2, 2)
                .with_level_names(["bg", "ui"])
                .with_io_latency(LatencyModel::Constant { micros: 100 }, 1),
        ))
    }

    #[test]
    fn open_loop_issues_a_deterministic_schedule() {
        let open = OpenLoopConfig {
            arrival_rate_per_sec: 1_000.0,
            warmup_millis: 20,
            measure_millis: 80,
        };
        let run = || {
            let rt = tiny_runtime();
            let ui = rt.priority_by_name("ui").unwrap();
            let outcome = drive_open_loop(&open, 7, |i| rt.fcreate(ui, move || i as u64));
            rt.drain(Duration::from_secs(5));
            outcome
        };
        let a = run();
        let b = run();
        assert!(a.issued > 20, "~100 arrivals expected, got {}", a.issued);
        assert_eq!(a.issued, b.issued, "arrival schedule is seed-determined");
        assert_eq!(a.unfinished, 0);
        assert_eq!(b.unfinished, 0);
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.latency.count(), a.measured);
        assert!(
            a.measured < a.issued,
            "warmup arrivals are issued but not measured"
        );
    }

    /// Coordinated-omission correction: when the injector falls behind (here
    /// because issuing itself is artificially slow), the backlog delay must
    /// show up in the measured latencies — they are measured from the
    /// *intended* arrival times.  Measuring from the actual send time would
    /// report near-zero latencies for these instantly-completing requests.
    #[test]
    fn open_loop_charges_injector_stalls_to_latency() {
        let open = OpenLoopConfig {
            arrival_rate_per_sec: 1_000.0,
            warmup_millis: 0,
            measure_millis: 100,
        };
        let rt = tiny_runtime();
        let ui = rt.priority_by_name("ui").unwrap();
        let outcome = drive_open_loop(&open, 3, |i| {
            // A stalled injector: each send takes ~2 ms against a 1 ms mean
            // inter-arrival gap, so intended arrivals pile up behind it.
            std::thread::sleep(Duration::from_millis(2));
            rt.fcreate(ui, move || i as u64)
        });
        rt.drain(Duration::from_secs(5));
        assert_eq!(outcome.unfinished, 0);
        let p95 = outcome.latency.p95().unwrap();
        assert!(
            p95 >= 10_000_000.0,
            "p95 {p95}ns should reflect the ≥10 ms injection backlog, \
             not the near-zero service time"
        );
    }

    /// A minimal frame-echo server: accepts `conns` connections, each served
    /// by a thread that echoes every envelope frame back unchanged.
    fn spawn_echo_server(conns: usize) -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) => return,
                };
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => {
                                buf.extend_from_slice(&chunk[..n]);
                                loop {
                                    match take_socket_frame(&mut buf) {
                                        Ok(Some((id, body))) => {
                                            if write_socket_frame(&mut stream, id, &body).is_err() {
                                                return;
                                            }
                                        }
                                        Ok(None) => break,
                                        Err(_) => return,
                                    }
                                }
                            }
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn socket_frames_roundtrip_through_a_buffer() {
        let mut wire = Vec::new();
        write_socket_frame(&mut wire, 7, b"hello").unwrap();
        write_socket_frame(&mut wire, u64::MAX, b"").unwrap();
        // A partial frame is not extracted.
        let mut partial = wire[..5].to_vec();
        assert_eq!(take_socket_frame(&mut partial), Ok(None));
        let (id, body) = take_socket_frame(&mut wire).unwrap().unwrap();
        assert_eq!((id, body.as_slice()), (7, b"hello".as_slice()));
        let (id, body) = take_socket_frame(&mut wire).unwrap().unwrap();
        assert_eq!((id, body.len()), (u64::MAX, 0));
        assert_eq!(take_socket_frame(&mut wire), Ok(None));
        assert!(wire.is_empty());
    }

    /// An impossible length field is an error, not an incomplete frame:
    /// treating it as incomplete would wedge the connection forever
    /// (length 0 never completes) or buffer up to 4 GiB (length
    /// `u32::MAX`).
    #[test]
    fn malformed_envelope_lengths_are_rejected() {
        // Length 0: smaller than the 8-byte request id.
        let mut zero = 0u32.to_be_bytes().to_vec();
        zero.extend_from_slice(&[1, 2, 3]);
        assert_eq!(take_socket_frame(&mut zero), Err(MalformedFrame { len: 0 }));
        // Absurdly large: past SOCKET_FRAME_MAX_BYTES.
        let mut huge = u32::MAX.to_be_bytes().to_vec();
        assert_eq!(
            take_socket_frame(&mut huge),
            Err(MalformedFrame { len: u32::MAX })
        );
        // The error converts into an io::Error for the client driver.
        let io: std::io::Error = MalformedFrame { len: 0 }.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn socket_open_loop_issues_the_same_schedule_as_in_process() {
        let socket = SocketLoadConfig {
            open: OpenLoopConfig {
                arrival_rate_per_sec: 1_000.0,
                warmup_millis: 20,
                measure_millis: 80,
            },
            clients: 3,
            resilience: ResilienceConfig::default(),
        };
        let addr = spawn_echo_server(socket.clients);
        let outcome =
            drive_socket_open(&socket, 7, addr, |i| i.to_be_bytes().to_vec()).expect("socket run");
        // The schedule is the in-process one: same (open, seed) ⇒ same count.
        let horizon = VirtualTime::from_micros(socket.open.horizon().as_micros() as u64);
        let expected = PoissonProcess::with_rate_per_sec(socket.open.arrival_rate_per_sec, 7)
            .arrivals_until(horizon)
            .len();
        assert_eq!(outcome.issued, expected);
        assert!(outcome.issued > 20, "~100 arrivals expected");
        assert_eq!(outcome.unfinished, 0, "echo server answers everything");
        assert_eq!(outcome.latency.count(), outcome.measured);
        assert!(
            outcome.measured < outcome.issued,
            "warmup arrivals are issued but not measured"
        );
    }

    #[test]
    fn backoff_delay_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
        };
        // Pure function: same inputs, same delay — however calls interleave.
        assert_eq!(
            backoff_delay(&policy, 42, 7, 2),
            backoff_delay(&policy, 42, 7, 2)
        );
        // Exponential growth with jitter in [0.5, 1.0)·exp, capped.
        for attempt in 2..=10u32 {
            let exp = policy
                .base
                .saturating_mul(1 << (attempt - 2).min(20))
                .min(policy.cap);
            for request in 0..50u64 {
                let d = backoff_delay(&policy, 42, request, attempt);
                assert!(
                    d >= exp / 2,
                    "attempt {attempt} req {request}: {d:?} < {exp:?}/2"
                );
                assert!(d < exp, "attempt {attempt} req {request}: {d:?} >= {exp:?}");
            }
        }
        // Jitter decorrelates requests (and seeds).
        let delays: Vec<Duration> = (0..16).map(|r| backoff_delay(&policy, 42, r, 2)).collect();
        assert!(
            delays.windows(2).any(|w| w[0] != w[1]),
            "all 16 requests drew identical jitter"
        );
        assert_ne!(
            backoff_delay(&policy, 1, 7, 2),
            backoff_delay(&policy, 2, 7, 2)
        );
    }

    /// A server that echoes frames but closes the connection the moment it
    /// reads a request with `id % 3 == 0`, leaving that request (and any
    /// pipelined ones) unanswered.  Accepts forever so reconnects land.
    fn spawn_flaky_server() -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        std::thread::spawn(move || loop {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            while let Ok(Some((id, body))) = take_socket_frame(&mut buf) {
                                if id % 3 == 0 {
                                    return; // mid-stream disconnect
                                }
                                if write_socket_frame(&mut stream, id, &body).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                }
            });
        });
        addr
    }

    /// Regression (mid-stream disconnect): a request lost to a connection
    /// reset must be recorded unfinished the moment the break is observed —
    /// not parked in flight until the 10 s tail timeout — and with
    /// reconnects enabled the driver must finish the schedule instead of
    /// erroring out.
    #[test]
    fn socket_driver_records_reset_losses_immediately_and_reconnects() {
        let socket = SocketLoadConfig {
            open: OpenLoopConfig {
                arrival_rate_per_sec: 1_000.0,
                warmup_millis: 0,
                measure_millis: 100,
            },
            clients: 2,
            resilience: ResilienceConfig {
                reconnect: true,
                ..ResilienceConfig::default()
            },
        };
        let addr = spawn_flaky_server();
        let started = Instant::now();
        let outcome =
            drive_socket_open(&socket, 11, addr, |i| i.to_be_bytes().to_vec()).expect("resilient");
        let elapsed = started.elapsed();
        assert!(
            outcome.reconnects > 0,
            "the flaky server must force reconnects"
        );
        assert!(
            outcome.unfinished >= outcome.issued / 6,
            "every id % 3 == 0 is lost: {} unfinished of {}",
            outcome.unfinished,
            outcome.issued
        );
        assert!(
            outcome.measured > 0,
            "surviving requests still complete across reconnects"
        );
        // The immediacy half of the regression: losses are recorded at
        // break time, so the run ends well before the 10 s tail timeout
        // (pre-fix, lost requests sat in flight until it expired).
        assert!(
            elapsed < Duration::from_secs(5),
            "run took {elapsed:?} — lost requests waited out the tail timeout"
        );
    }

    /// Without reconnects the historical contract holds: a broken
    /// connection aborts the run with the underlying error.
    #[test]
    fn socket_driver_without_reconnect_propagates_connection_errors() {
        let socket = SocketLoadConfig {
            open: OpenLoopConfig {
                arrival_rate_per_sec: 1_000.0,
                warmup_millis: 0,
                measure_millis: 20,
            },
            clients: 1,
            resilience: ResilienceConfig::default(),
        };
        let addr = spawn_flaky_server();
        let result = drive_socket_open(&socket, 11, addr, |i| i.to_be_bytes().to_vec());
        assert!(result.is_err(), "id 0 disconnects the only client");
    }

    /// A server that answers the first attempt of every id with the single
    /// byte `0xFF` (the test's "overloaded" marker) and echoes the retry.
    fn spawn_overload_once_server() -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        std::thread::spawn(move || loop {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            std::thread::spawn(move || {
                let mut seen = std::collections::HashSet::new();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            while let Ok(Some((id, body))) = take_socket_frame(&mut buf) {
                                let reply: &[u8] = if seen.insert(id) { &[0xFF] } else { &body };
                                if write_socket_frame(&mut stream, id, reply).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                }
            });
        });
        addr
    }

    #[test]
    fn socket_driver_retries_overloaded_answers_with_backoff() {
        let socket = SocketLoadConfig {
            open: OpenLoopConfig {
                arrival_rate_per_sec: 800.0,
                warmup_millis: 20,
                measure_millis: 80,
            },
            clients: 2,
            resilience: ResilienceConfig {
                retry: RetryPolicy {
                    max_attempts: 3,
                    base: Duration::from_micros(100),
                    cap: Duration::from_millis(1),
                },
                ..ResilienceConfig::default()
            },
        };
        let addr = spawn_overload_once_server();
        let outcome = drive_socket_open_with(
            &socket,
            5,
            addr,
            |i| i.to_be_bytes().to_vec(),
            |body| {
                if body == [0xFF] {
                    ResponseVerdict::Overloaded
                } else {
                    ResponseVerdict::Answered
                }
            },
        )
        .expect("retried run");
        assert_eq!(outcome.unfinished, 0);
        assert_eq!(
            outcome.rejected, 0,
            "one retry suffices against this server"
        );
        assert_eq!(
            outcome.retries, outcome.issued,
            "every request is shed exactly once"
        );
        assert_eq!(outcome.latency.count(), outcome.measured);
        assert!(outcome.measured > 0 && outcome.measured < outcome.issued);
    }

    #[test]
    fn socket_driver_counts_rejections_once_retries_run_out() {
        let socket = SocketLoadConfig {
            open: OpenLoopConfig {
                arrival_rate_per_sec: 500.0,
                warmup_millis: 0,
                measure_millis: 40,
            },
            clients: 1,
            resilience: ResilienceConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    base: Duration::from_micros(100),
                    cap: Duration::from_millis(1),
                },
                ..ResilienceConfig::default()
            },
        };
        // The echo server never stops answering 0xFF: every request burns
        // its retry and ends rejected.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        while let Ok(Some((id, _))) = take_socket_frame(&mut buf) {
                            if write_socket_frame(&mut stream, id, &[0xFF]).is_err() {
                                return;
                            }
                        }
                    }
                }
            }
        });
        let outcome = drive_socket_open_with(
            &socket,
            5,
            addr,
            |i| i.to_be_bytes().to_vec(),
            |body| {
                if body == [0xFF] {
                    ResponseVerdict::Overloaded
                } else {
                    ResponseVerdict::Answered
                }
            },
        )
        .expect("rejected run");
        assert_eq!(outcome.rejected, outcome.issued, "no request ever succeeds");
        assert_eq!(outcome.retries, outcome.issued, "one retry each");
        assert_eq!(outcome.measured, 0);
        assert_eq!(outcome.unfinished, 0, "rejections are a final disposition");
    }

    /// Per-request deadlines: a server that swallows some requests must not
    /// stall the run for the 10 s tail timeout — the swallowed requests are
    /// abandoned at their deadline and counted.
    #[test]
    fn socket_driver_abandons_requests_at_their_deadline() {
        let socket = SocketLoadConfig {
            open: OpenLoopConfig {
                arrival_rate_per_sec: 800.0,
                warmup_millis: 0,
                measure_millis: 60,
            },
            clients: 2,
            resilience: ResilienceConfig {
                deadline: Some(Duration::from_millis(30)),
                ..ResilienceConfig::default()
            },
        };
        // Echoes everything except ids divisible by 5, which it swallows.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        std::thread::spawn(move || loop {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            while let Ok(Some((id, body))) = take_socket_frame(&mut buf) {
                                if id % 5 != 0
                                    && write_socket_frame(&mut stream, id, &body).is_err()
                                {
                                    return;
                                }
                            }
                        }
                    }
                }
            });
        });
        let started = Instant::now();
        let outcome =
            drive_socket_open(&socket, 13, addr, |i| i.to_be_bytes().to_vec()).expect("deadlines");
        assert!(outcome.timed_out > 0, "swallowed requests must time out");
        assert_eq!(
            outcome.unfinished, outcome.timed_out,
            "every loss here is a deadline expiry"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadlines must beat the tail timeout"
        );
    }

    #[test]
    fn runtime_config_carries_levels_and_scheduler() {
        let c = ExperimentConfig::default();
        let rc = c.runtime_config(SchedulerKind::Baseline, &["a", "b", "c"]);
        assert_eq!(rc.levels, 3);
        assert_eq!(rc.scheduler, SchedulerKind::Baseline);
    }

    #[test]
    fn report_ratios_and_rows() {
        let mut fast = LatencyStats::new();
        let mut slow = LatencyStats::new();
        for v in [10_000u64, 20_000, 30_000] {
            fast.record_value(v);
            slow.record_value(v * 3);
        }
        let mk_run = |sched, client: &LatencyStats| RunReport {
            scheduler: sched,
            client_response: client.clone(),
            levels: vec![LevelReport {
                name: "only".into(),
                level: 0,
                compute: client.clone(),
                response: client.clone(),
            }],
        };
        let report = ExperimentReport {
            app: "test".into(),
            config: ExperimentConfig::default(),
            icilk: mk_run(SchedulerKind::ICilk, &fast),
            baseline: mk_run(SchedulerKind::Baseline, &slow),
        };
        let r = report.responsiveness_ratio().unwrap();
        assert!((r.mean_ratio - 3.0).abs() < 1e-9);
        assert!(report.figure13_row().contains("responsiveness ratio"));
        assert_eq!(report.figure14_rows().len(), 1);
        assert!(report.compute_ratio(0).is_some());
        assert!(report.compute_ratio(7).is_none());
    }
}
