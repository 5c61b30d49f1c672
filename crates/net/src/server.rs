//! The TCP server: acceptor + connection shards in front of the runtime.
//!
//! Thread model (all `std::net`):
//!
//! * one **acceptor** thread owns the listener and hands accepted
//!   connections round-robin to the shards;
//! * N **shard** threads each own a set of non-blocking connections.  A
//!   shard sweeps its connections, buffers whatever bytes each has,
//!   extracts complete envelope frames, and dispatches each request as an
//!   `fcreate` task on the runtime at a priority chosen per request class;
//!   a sweep that reads nothing sleeps a poll interval.  (Not a blocking
//!   read with a short timeout: the kernel rounds that timeout up to whole
//!   scheduler ticks — 8 ms for 200 µs on a 2-vCPU Linux VM — so one idle
//!   connection would stall every other connection of its shard.)  Shards
//!   never run request bodies themselves;
//! * **workers** execute the request tasks (cache lookups, Huffman coding,
//!   jserver kernels, λ⁴ᵢ pipelines);
//! * the **I/O reactor** writes every response frame:  the handler task
//!   hands the encoded response to
//!   [`Runtime::submit_io_now`](rp_icilk::runtime::Runtime::submit_io_now),
//!   so socket writes happen off the workers and traced runs reconstruct
//!   each network round-trip as an I/O thread in the cost DAG.
//!
//! Per-connection response writes are serialized by a mutex around the
//! write half, so pipelined responses interleave only at frame granularity.
//! Keep clients reading: the reactor is one thread, and a response write
//! into a full socket buffer would stall every pending completion behind
//! it.
//!
//! Two protection layers sit in front of dispatch:
//!
//! * **admission control** ([`crate::admission`]) — when enabled, a
//!   dedicated refresh thread keeps per-class work estimates current and
//!   evaluates the Theorem 2.3 response-time bound predictively; requests
//!   of a shed class are answered with an explicit
//!   [`ErrorCode::Overloaded`] response instead of executing;
//! * **lifecycle** — [`NetServer::shutdown`] first switches the server to
//!   *draining*: shards keep polling, frames arriving during the drain are
//!   answered [`ErrorCode::ShuttingDown`], and the runtime drains so every
//!   in-flight response reaches its socket.  Only then do the shards exit
//!   and drop their connections, so a client blocked on a read observes an
//!   orderly EOF (or a `ShuttingDown` answer) rather than a hang or a lost
//!   response.
//!
//! For chaos testing, [`NetServerConfig::faults`] wires a seeded
//! [`FaultPlan`] into the server's own I/O: shard reads can be delayed,
//! corrupted, truncated, or turned into disconnects, and reactor writes can
//! be torn mid-frame — all deterministic per `(seed, connection)`.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionSnapshot};
use crate::lock;
use crate::protocol::{
    body_is_admin, decode_admin_request, decode_request, encode_response, AdminOp, AppOp,
    ErrorCode, MetricsFormat, Request, RequestClass, Response, ADMIN_VERSION,
};
use crate::span::{RequestSpan, SpanOutcome, SpanRecorder, SpanSnapshot};
use crate::telemetry::{health_json, TelemetrySnapshot};
use rp_apps::faults::{FaultConfig, FaultPlan, FaultSession, ReadFault, WriteFault};
use rp_apps::harness::write_socket_frame;
use rp_apps::harness::{shutdown_runtime, take_socket_frame};
use rp_apps::jserver::JobClass;
use rp_apps::{email, proxy};
use rp_core::stream::{
    IncrementalReconstructor, LevelAggregate, StreamAggregates, StreamConfig, StreamCounters,
};
use rp_icilk::runtime::{Runtime, RuntimeConfig, SchedulerKind};
use rp_icilk::trace::TraceStats;
use rp_lambda4i::pipeline::{
    run_inferred, CacheStats, CompileCache, PipelineConfig, PipelineError,
};
use rp_lambda4i::pretty::expr_to_string;
use rp_priority::Priority;
use rp_sim::latency::LatencyModel;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server runtime's priority levels, lowest first: the union of the
/// proxy and email case studies' level names (both apps' internal orders
/// are preserved), plus the two λ⁴ᵢ dispatch levels.  Request dispatch
/// priorities per class: `app` operations run on the levels the in-process
/// drivers use (`event` for proxy requests, `compress` for email
/// compress/print, a per-class mapping for jserver jobs);
/// λ⁴ᵢ pipelines run at `lambda` / `lambda-cached`, below every
/// interactive level — a compile farm must not starve the request path.
pub const LEVELS: [&str; 10] = [
    "main",
    "lambda",
    "lambda-cached",
    "check",
    "logging",
    "compress",
    "sort",
    "fetch",
    "send",
    "event",
];

/// How long a shard sleeps after a sweep that read nothing, and the admin
/// plane's read timeout.
const SHARD_POLL: Duration = Duration::from_micros(200);

/// The shard's sleep while its connections are busy — some connection
/// delivered bytes within the last [`SHARD_HOT`].  Short, because a
/// closed-loop client's next request follows its reply within
/// microseconds; the long [`SHARD_POLL`] keeps an idle shard cheap.
const SHARD_POLL_HOT: Duration = Duration::from_micros(20);

/// How recently a connection must have delivered bytes for its shard to
/// poll at the [`SHARD_POLL_HOT`] rate.
const SHARD_HOT: Duration = Duration::from_millis(2);

/// How often the streaming-trace drain thread empties the tracer's shard
/// buffers into the incremental reconstructor.
const TRACE_DRAIN_INTERVAL: Duration = Duration::from_millis(1);

/// After this many consecutive *empty* drains the runtime is trace-quiescent
/// (the record-side race window is sub-microsecond, drains are a millisecond
/// apart), so the reconstructor may flush the tail its reorder window holds.
const TRACE_IDLE_FLUSH: u32 = 2;

/// Lifecycle: the server is accepting and executing requests.
const RUNNING: u8 = 0;
/// Lifecycle: [`NetServer::shutdown`] is draining — new frames are answered
/// [`ErrorCode::ShuttingDown`] while in-flight responses finish writing.
const DRAINING: u8 = 1;

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Number of connection-shard threads.
    pub shards: usize,
    /// Number of runtime worker threads.
    pub workers: usize,
    /// Scheduler flavour of the runtime behind the sockets.
    pub scheduler: SchedulerKind,
    /// Whether the runtime records an execution trace (harvest it with
    /// [`rp_apps::harness::collect_trace`] after [`NetServer::drain`]).
    pub tracing: bool,
    /// Stream the trace instead of snapshotting it: a dedicated drain
    /// thread empties the tracer's buffers into an
    /// [`IncrementalReconstructor`] while the server runs, keeping trace
    /// memory bounded by in-flight work and feeding the admission
    /// controller live aggregates (read them with
    /// [`NetServer::stream_stats`]).  Requires [`NetServerConfig::tracing`];
    /// note that drains *consume* the buffered events, so a post-hoc
    /// [`rp_apps::harness::collect_trace`] on a streaming server only sees
    /// the not-yet-drained tail.
    pub streaming_trace: bool,
    /// Latency model of the *simulated* I/O the app handlers perform
    /// (proxy origin fetches, email SMTP); the socket I/O is real.
    pub io_latency: LatencyModel,
    /// Seed for the simulated I/O and the generated email state.
    pub seed: u64,
    /// Number of generated email users.
    pub email_users: usize,
    /// Messages per generated mailbox.
    pub email_messages: usize,
    /// The λ⁴ᵢ pipeline configuration used by both lambda classes.  The
    /// default disables tracing of the *nested* per-request runtimes (the
    /// front-end's machine-graph bound check still runs); the server's own
    /// runtime is traced via [`NetServerConfig::tracing`].
    pub pipeline: PipelineConfig,
    /// Bound-driven admission control; disabled by default (every request
    /// admitted, no refresh thread started).
    pub admission: AdmissionConfig,
    /// Seeded fault injection on the server's own socket I/O (chaos
    /// testing); `None` — the default — injects nothing.
    pub faults: Option<FaultConfig>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        let mut pipeline = PipelineConfig::default();
        pipeline.runtime.tracing = false;
        pipeline.runtime.drain_secs = 10;
        NetServerConfig {
            shards: 2,
            workers: 4,
            scheduler: SchedulerKind::ICilk,
            tracing: false,
            streaming_trace: false,
            io_latency: LatencyModel::Uniform { lo: 200, hi: 1_500 },
            seed: 42,
            email_users: 4,
            email_messages: 4,
            pipeline,
            admission: AdmissionConfig::default(),
            faults: None,
        }
    }
}

/// Monotonic counters of one server's lifetime.
#[derive(Debug, Default)]
struct NetStats {
    connections_accepted: AtomicU64,
    frames_received: AtomicU64,
    responses_sent: AtomicU64,
    decode_errors: AtomicU64,
    per_class: [AtomicU64; 3],
    /// Telemetry-plane requests served (either port).  Deliberately *not*
    /// folded into `frames_received`/`responses_sent`: those reconcile
    /// against client-side data-plane counts, and concurrent scrapes must
    /// not skew them.
    admin_requests: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections the acceptor handed to shards.
    pub connections_accepted: u64,
    /// Complete request frames decoded (including malformed bodies).
    pub frames_received: u64,
    /// Response frames handed to the reactor for writing.
    pub responses_sent: u64,
    /// Bodies that failed to decode (answered with an error response).
    pub decode_errors: u64,
    /// Requests per class, indexed by [`crate::protocol::RequestClass::tag`].
    pub per_class: [u64; 3],
    /// Requests rejected `Overloaded` by admission control, per class
    /// (indexed by [`crate::protocol::RequestClass::tag`]).
    pub shed_per_class: [u64; 3],
    /// Telemetry-plane (admin) requests served; counted separately so
    /// data-plane totals keep reconciling with client-side counts while
    /// scrapes run.
    pub admin_requests: u64,
    /// Trace events the runtime's tracer dropped because a shard buffer was
    /// full (0 on untraced servers; a healthy streamed run keeps it 0).
    pub trace_dropped_events: u64,
    /// Request subgraphs the streaming reconstructor has retired (0 unless
    /// [`NetServerConfig::streaming_trace`] is on).
    pub retired_subgraphs: u64,
}

/// A point-in-time copy of the streaming-trace pipeline: the
/// reconstructor's running aggregates (per-level bound-slack statistics,
/// (W, S) sums, counterexamples), its memory gauges, and the tracer's own
/// drop counters.  `None` from [`NetServer::stream_stats`] unless
/// [`NetServerConfig::streaming_trace`] is on.
#[derive(Debug, Clone)]
pub struct StreamStatsSnapshot {
    /// Running totals over every retired request subgraph.
    pub aggregates: StreamAggregates,
    /// The reconstructor's live memory and progress gauges.
    pub counters: StreamCounters,
    /// The tracer's recorded/drained/dropped/buffered counters.
    pub trace: TraceStats,
    /// Drained batches the reconstructor rejected (recording bugs; a
    /// healthy run keeps it 0).
    pub ingest_errors: u64,
}

/// Shared state of the streaming-trace pipeline: the reconstructor behind a
/// mutex taken by the drain thread per batch (and briefly by snapshot
/// readers), plus the ingest-error counter.
struct StreamState {
    recon: Mutex<IncrementalReconstructor>,
    ingest_errors: AtomicU64,
}

/// Everything the handler tasks share.
struct ServerCtx {
    runtime: Arc<Runtime>,
    proxy: Arc<proxy::ProxyState>,
    email: Arc<email::EmailState>,
    jobs: [JobClass; 4],
    cache: CompileCache,
    pipeline: PipelineConfig,
    stats: NetStats,
    /// Per-request span aggregates and the slow log (the telemetry plane's
    /// per-class per-phase histograms).
    spans: SpanRecorder,
    admission: AdmissionController,
    /// The streaming-trace pipeline; `Some` only when both
    /// [`NetServerConfig::tracing`] and [`NetServerConfig::streaming_trace`]
    /// are on.
    stream: Option<StreamState>,
    /// [`RUNNING`] or [`DRAINING`].
    lifecycle: AtomicU8,
    faults: Option<FaultPlan>,
    /// Dispatch priorities, resolved once at startup.
    event: Priority,
    compress: Priority,
    lambda: Priority,
    lambda_cached: Priority,
}

/// The priority a jserver job class dispatches at: the four kernels map
/// onto the server's unified level list in the same relative order as the
/// standalone jserver's own four levels.
fn job_priority(ctx: &ServerCtx, job: &JobClass) -> Priority {
    let name = match job {
        JobClass::Sw { .. } => "check",
        JobClass::Sort { .. } => "sort",
        JobClass::Fib { .. } => "fetch",
        JobClass::Matmul { .. } => "event",
    };
    ctx.runtime
        .priority_by_name(name)
        .expect("LEVELS contains every dispatch level")
}

impl ServerCtx {
    fn dispatch_priority(&self, req: &Request) -> Priority {
        match req {
            Request::App(AppOp::ProxyGet { .. }) => self.event,
            Request::App(AppOp::EmailCompress { .. } | AppOp::EmailPrint { .. }) => self.compress,
            Request::App(AppOp::JserverJob { class, .. }) => {
                match self.jobs.get(*class as usize) {
                    Some(job) => job_priority(self, job),
                    // Out-of-range classes are answered with an error at
                    // the event level (the error path is cheap).
                    None => self.event,
                }
            }
            Request::Lambda { .. } => self.lambda,
            Request::LambdaCached { .. } => self.lambda_cached,
        }
    }

    /// Runs one request to completion on the current worker.  While a touch
    /// waits it helps only with queued work no lower than the request's
    /// level (or the touched future's, if lower), and otherwise blocks — see
    /// `Runtime::ftouch`.  The lambda classes time their parse → infer
    /// front half into the span's infer phase, so the telemetry plane can
    /// show how much of a lambda request the compile cache actually saves.
    fn execute(self: &Arc<Self>, req: Request, span: &mut RequestSpan) -> Response {
        match req {
            Request::App(AppOp::ProxyGet {
                url,
                body_if_missed,
            }) => {
                let fut = proxy::handle_request(&self.runtime, &self.proxy, url, body_if_missed);
                Response::App {
                    result: self.runtime.ftouch(&fut),
                }
            }
            Request::App(AppOp::EmailCompress { user, msg }) => {
                self.email_op(user, msg, email::compress_message)
            }
            Request::App(AppOp::EmailPrint { user, msg }) => {
                self.email_op(user, msg, email::print_message)
            }
            Request::App(AppOp::JserverJob { class, seed }) => {
                match self.jobs.get(class as usize) {
                    Some(job) => Response::App {
                        result: job.execute(seed),
                    },
                    None => Response::error(
                        ErrorCode::Malformed,
                        format!("unknown jserver job class {class}"),
                    ),
                }
            }
            Request::Lambda { source } => {
                let t0 = Instant::now();
                let front = rp_lambda4i::pipeline::infer_source(&source);
                span.add_infer_ns(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                match front {
                    Ok(inference) => lambda_response(run_inferred(inference, &self.pipeline)),
                    Err(e) => Response::error(ErrorCode::Internal, e.to_string()),
                }
            }
            Request::LambdaCached { source } => {
                let t0 = Instant::now();
                let front = self.cache.inference(&source);
                span.add_infer_ns(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                match front {
                    Ok(inference) => lambda_response(run_inferred(inference, &self.pipeline)),
                    Err(e) => Response::error(ErrorCode::Internal, e.to_string()),
                }
            }
        }
    }

    fn email_op(
        &self,
        user: u32,
        msg: u32,
        op: impl FnOnce(&Arc<Runtime>, Arc<email::Message>) -> rp_icilk::IFuture<u64>,
    ) -> Response {
        let Some(mailbox) = self.email.mailboxes.get(user as usize) else {
            return Response::error(ErrorCode::Malformed, format!("unknown email user {user}"));
        };
        if msg as usize >= mailbox.len() {
            return Response::error(
                ErrorCode::Malformed,
                format!("user {user} has no message {msg}"),
            );
        }
        let ticket = op(&self.runtime, mailbox.message(msg as usize));
        Response::App {
            result: self.runtime.ftouch(&ticket),
        }
    }
}

fn lambda_response(
    result: Result<rp_lambda4i::pipeline::PipelineReport, PipelineError>,
) -> Response {
    match result {
        Ok(report) => Response::Lambda {
            counterexamples: report.counterexamples() as u64,
            value: expr_to_string(report.value()),
        },
        Err(e) => Response::error(ErrorCode::Internal, e.to_string()),
    }
}

/// One connection owned by a shard: the buffered read half plus the
/// mutex-serialized write half the reactor uses for responses.  Under a
/// fault plan each connection also carries its two deterministic fault
/// streams — reads are judged on the shard thread, writes on the reactor.
struct Conn {
    stream: TcpStream,
    writer: Arc<Mutex<ConnWriter>>,
    buf: Vec<u8>,
    /// Read-side fault stream (shard thread only).
    read_fault: Option<FaultSession>,
    /// Write-side fault stream, shared with the reactor's write closures.
    write_fault: Option<Arc<Mutex<FaultSession>>>,
    /// Injected read delay: bytes already in `buf` are withheld from the
    /// parser until this instant.
    delay_until: Option<Instant>,
}

/// The write half of a connection.  It shares the non-blocking flag of the
/// shard's read half, so a write into a full socket buffer waits and
/// retries here instead of failing mid-frame: to the reactor it is a
/// blocking socket.
struct ConnWriter(TcpStream);

impl Write for ConnWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.0.write(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(SHARD_POLL_HOT);
                }
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// The TCP front end: a listener on loopback, shard threads, and the
/// runtime the requests execute on.
pub struct NetServer {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    admin_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    refresher: Option<JoinHandle<()>>,
    trace_drainer: Option<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds a listener on an ephemeral loopback port, starts the runtime,
    /// the acceptor, and the shard threads.
    ///
    /// # Errors
    ///
    /// Propagates listener/bind errors.
    pub fn start(config: NetServerConfig) -> std::io::Result<NetServer> {
        // Bind before starting the runtime: a bind failure must not leak a
        // started runtime's worker/reactor threads.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // The telemetry plane listens on its own ephemeral port, served by
        // a dedicated thread that never touches the runtime.
        let admin_listener = TcpListener::bind("127.0.0.1:0")?;
        let admin_addr = admin_listener.local_addr()?;
        let runtime = Arc::new(Runtime::start(
            RuntimeConfig::new(config.workers, LEVELS.len())
                .with_level_names(LEVELS)
                .with_scheduler(config.scheduler)
                .with_io_latency(config.io_latency, config.seed)
                .with_tracing(config.tracing),
        ));
        let by_name = |name: &str| {
            runtime
                .priority_by_name(name)
                .expect("LEVELS contains every dispatch level")
        };
        let refresh_interval = config
            .admission
            .enabled
            .then_some(config.admission.refresh_interval);
        let stream = (config.tracing && config.streaming_trace)
            .then(|| {
                let stream_config = StreamConfig::new(
                    LEVELS.iter().map(|&s| s.to_string()).collect(),
                    config.workers.max(1),
                );
                IncrementalReconstructor::new(stream_config).map(|recon| StreamState {
                    recon: Mutex::new(recon),
                    ingest_errors: AtomicU64::new(0),
                })
            })
            .transpose()
            .expect("LEVELS is a valid streaming level declaration");
        let ctx = Arc::new(ServerCtx {
            event: by_name("event"),
            compress: by_name("compress"),
            lambda: by_name("lambda"),
            lambda_cached: by_name("lambda-cached"),
            proxy: proxy::ProxyState::new(),
            email: email::EmailState::generate(
                config.email_users.max(1),
                config.email_messages.max(1),
                config.seed,
            ),
            jobs: JobClass::default_mix(),
            cache: CompileCache::new(),
            pipeline: config.pipeline.clone(),
            stats: NetStats::default(),
            spans: SpanRecorder::new(crate::span::DEFAULT_SLOW_LOG),
            admission: AdmissionController::new(config.admission, config.workers, &LEVELS),
            lifecycle: AtomicU8::new(RUNNING),
            faults: config.faults.map(FaultPlan::new),
            stream,
            runtime,
        });

        let shutdown = Arc::new(AtomicBool::new(false));

        let shard_count = config.shards.max(1);
        let mut senders = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let (tx, rx) = mpsc::channel::<(u64, TcpStream)>();
            senders.push(tx);
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("rp-net-shard-{shard}"))
                    .spawn(move || shard_loop(ctx, shutdown, rx))
                    .expect("spawning a shard thread"),
            );
        }

        let acceptor = {
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("rp-net-acceptor".to_string())
                .spawn(move || accept_loop(listener, ctx, shutdown, senders))
                .expect("spawning the acceptor thread")
        };

        let refresher = refresh_interval.map(|interval| {
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("rp-net-admission".to_string())
                .spawn(move || admission_refresh_loop(ctx, shutdown, interval))
                .expect("spawning the admission refresh thread")
        });

        let trace_drainer = ctx.stream.is_some().then(|| {
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("rp-net-trace-drain".to_string())
                .spawn(move || trace_drain_loop(ctx, shutdown))
                .expect("spawning the trace drain thread")
        });

        let admin = {
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("rp-net-admin-plane".to_string())
                .spawn(move || admin_loop(admin_listener, ctx, shutdown))
                .expect("spawning the admin plane thread")
        };

        Ok(NetServer {
            ctx,
            addr,
            admin_addr,
            shutdown,
            acceptor: Some(acceptor),
            shards,
            refresher,
            trace_drainer,
            admin: Some(admin),
        })
    }

    /// The loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The telemetry plane's loopback address: admin requests sent here
    /// are served by a dedicated thread that never enters the runtime and
    /// keeps answering while the data plane drains or sheds.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// The runtime behind the sockets (for draining, metrics, and trace
    /// harvesting).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.ctx.runtime
    }

    /// Waits (bounded by `timeout`) until no request tasks are pending and
    /// no I/O — simulated or response writes — is in flight.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.ctx.runtime.drain(timeout)
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        net_stats_snapshot(&self.ctx)
    }

    /// A snapshot of the streaming-trace pipeline — live bound-slack
    /// statistics per priority level, retirement counters, and the memory
    /// gauges.  `None` unless [`NetServerConfig::streaming_trace`] is on.
    pub fn stream_stats(&self) -> Option<StreamStatsSnapshot> {
        stream_stats_snapshot(&self.ctx)
    }

    /// The full telemetry snapshot the admin `Metrics` op renders —
    /// available in-process for harnesses that want the exact exported
    /// numbers without a socket round-trip.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        telemetry_snapshot(&self.ctx)
    }

    /// A snapshot of the per-request span aggregates: per-class per-phase
    /// latency histograms plus the top-K slow-request log.
    pub fn spans(&self) -> SpanSnapshot {
        self.ctx.spans.snapshot()
    }

    /// Enters the first shutdown phase without stopping anything: the
    /// lifecycle flips to DRAINING, data-plane frames are answered
    /// `ShuttingDown`, and the admin plane reports `"draining"`.
    /// Idempotent; [`NetServer::shutdown`] begins with exactly this step.
    pub fn enter_drain(&self) {
        self.ctx.lifecycle.store(DRAINING, Ordering::SeqCst);
    }

    /// A snapshot of the admission controller: work/span estimates,
    /// per-class bound predictions, the current shed mask, and the
    /// admitted/completed/shed counters.
    pub fn admission(&self) -> AdmissionSnapshot {
        self.ctx.admission.snapshot()
    }

    /// Hit/miss counters of the cached-compilation class.
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.cache.stats()
    }

    /// Stops the server in two phases so live clients never observe a
    /// hang:
    ///
    /// 1. **drain** — the lifecycle flips to draining: shards keep
    ///    reading, frames that arrive now are answered `ShuttingDown`, and
    ///    the runtime drains so every in-flight response reaches its
    ///    socket;
    /// 2. **stop** — the acceptor and shards exit and drop their
    ///    connections (a blocked client sees an orderly EOF), the late
    ///    `ShuttingDown` writes drain, and the runtime shuts down.
    pub fn shutdown(mut self) {
        self.enter_drain();
        // The admin plane outlives this drain: its loop only watches the
        // `shutdown` flag, which flips after the drain completes, so
        // telemetry stays scrapeable for the whole DRAINING window.
        drain_or_report(&self.ctx.runtime, "drain before stop");
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor and an idle admin plane out of their blocking
        // accepts.
        let _ = TcpStream::connect(self.addr);
        let _ = TcpStream::connect(self.admin_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.refresher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.trace_drainer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.admin.take() {
            let _ = h.join();
        }
        // `ShuttingDown` answers to frames that raced the drain may still
        // sit with the reactor; flush them before tearing the runtime down.
        drain_or_report(&self.ctx.runtime, "drain after stop");
        // Sweep the trace tail the drain thread could not have seen (the
        // late `ShuttingDown` writes above) and settle every remaining
        // component, so the final aggregates cover the whole run.
        if let Some(state) = &self.ctx.stream {
            let mut recon = lock(&state.recon);
            if let Some(batch) = self.ctx.runtime.drain_trace_events() {
                if recon.ingest(&batch.events).is_err() {
                    state.ingest_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            if recon.finalize().is_err() {
                state.ingest_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        let runtime = Arc::clone(&self.ctx.runtime);
        drop(self.ctx);
        shutdown_runtime(runtime, Duration::from_secs(10));
    }
}

/// Drains the runtime for up to ten seconds; on a timeout, says on stderr
/// which shutdown drain expired and what the runtime still held.
fn drain_or_report(runtime: &Runtime, which: &str) {
    let timeout = Duration::from_secs(10);
    if !runtime.drain(timeout) {
        let (per_level, reactor_ops) = runtime.pending_work();
        eprintln!(
            "rp-net shutdown: {which} did not finish within {timeout:?}; \
             tasks pending per level {per_level:?}, reactor ops pending {reactor_ops}"
        );
    }
}

fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    shutdown: Arc<AtomicBool>,
    senders: Vec<mpsc::Sender<(u64, TcpStream)>>,
) {
    let mut next = 0usize;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Accept can fail persistently (fd exhaustion under many
                // clients); back off briefly instead of spinning a core on
                // the failing syscall.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            // The wake-up connection from `NetServer::shutdown` (or a late
            // client); drop it and exit.
            return;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue; // dropping the stream closes it
        }
        let conn_id = ctx
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        if senders[next % senders.len()]
            .send((conn_id, stream))
            .is_err()
        {
            return; // shard gone — only happens on shutdown
        }
        next = next.wrapping_add(1);
    }
}

fn shard_loop(
    ctx: Arc<ServerCtx>,
    shutdown: Arc<AtomicBool>,
    rx: mpsc::Receiver<(u64, TcpStream)>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut last_read = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        while let Ok((conn_id, stream)) = rx.try_recv() {
            match stream.try_clone() {
                Ok(writer) => conns.push(Conn {
                    stream,
                    writer: Arc::new(Mutex::new(ConnWriter(writer))),
                    buf: Vec::new(),
                    // Independent read- and write-side streams, so each
                    // side's verdicts stay a pure function of its own call
                    // count even though shard reads and reactor writes
                    // interleave across threads.
                    read_fault: ctx.faults.as_ref().map(|p| p.session(conn_id << 1)),
                    write_fault: ctx
                        .faults
                        .as_ref()
                        .map(|p| Arc::new(Mutex::new(p.session((conn_id << 1) | 1)))),
                    delay_until: None,
                }),
                Err(_) => continue, // dropping the stream closes it
            }
        }
        let mut read_any = false;
        conns.retain_mut(|conn| match poll_conn(&ctx, conn, &mut chunk) {
            Some(read) => {
                read_any |= read;
                true
            }
            None => false,
        });
        let now = Instant::now();
        if read_any {
            last_read = now;
        } else if now - last_read < SHARD_HOT {
            std::thread::sleep(SHARD_POLL_HOT);
        } else {
            std::thread::sleep(SHARD_POLL);
        }
    }
}

/// One poll of one connection: read whatever bytes are available (subject
/// to the read-side fault verdict), then pump complete frames into
/// [`dispatch`].  Returns whether bytes were read, or `None` when the
/// connection must be dropped.
fn poll_conn(ctx: &Arc<ServerCtx>, conn: &mut Conn, chunk: &mut [u8]) -> Option<bool> {
    let read = match conn.stream.read(chunk) {
        Ok(0) => return None, // peer closed
        Ok(n) => {
            let mut data = chunk[..n].to_vec();
            if let Some(fault) = conn.read_fault.as_mut() {
                match fault.on_read(&mut data) {
                    ReadFault::Disconnect => return None,
                    ReadFault::Delay(d) => {
                        let until = Instant::now() + d;
                        conn.delay_until = Some(conn.delay_until.map_or(until, |t| t.max(until)));
                    }
                    ReadFault::None => {}
                }
            }
            conn.buf.extend_from_slice(&data);
            true
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => return None,
    };
    if let Some(t) = conn.delay_until {
        if Instant::now() < t {
            return Some(read); // injected delay: withhold buffered bytes
        }
        conn.delay_until = None;
    }
    loop {
        match take_socket_frame(&mut conn.buf) {
            Ok(Some((id, body))) => dispatch(ctx, &conn.writer, &conn.write_fault, id, body),
            Ok(None) => return Some(read),
            // A malformed envelope cannot be re-synchronised; drop the
            // connection (malformed *bodies*, by contrast, get an error
            // response).
            Err(_) => return None,
        }
    }
}

/// The admission refresher: periodically folds fresh runtime metrics into
/// the controller's (W, S) estimates and re-evaluates the shed mask.  On a
/// streaming server it also folds the reconstructor's running aggregates
/// into the span fractions every tick — the aggregates are a fixed-size
/// summary, so this costs O(levels) regardless of run length (it replaced
/// an every-64th-tick full trace snapshot).
fn admission_refresh_loop(ctx: Arc<ServerCtx>, shutdown: Arc<AtomicBool>, interval: Duration) {
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        ctx.admission.refresh(&ctx.runtime.metrics());
        if let Some(state) = &ctx.stream {
            let aggregates = lock(&state.recon).aggregates().clone();
            ctx.admission.refresh_from_stream(&aggregates);
        }
    }
}

/// The streaming-trace drain thread: every [`TRACE_DRAIN_INTERVAL`] it
/// empties the tracer's shard buffers into the incremental reconstructor.
/// After [`TRACE_IDLE_FLUSH`] consecutive empty drains the runtime is
/// trace-quiescent, so the loop flushes the reorder-window tail — without
/// this, the last requests before a traffic pause would wait for the next
/// burst to advance the high-water mark.
fn trace_drain_loop(ctx: Arc<ServerCtx>, shutdown: Arc<AtomicBool>) {
    let mut idle = 0u32;
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(TRACE_DRAIN_INTERVAL);
        trace_drain_step(&ctx, &mut idle);
    }
    // One last sweep so the shutdown path only has to pick up events
    // recorded after the flag flipped.
    trace_drain_step(&ctx, &mut idle);
}

/// One drain → ingest (or quiescent flush) step of [`trace_drain_loop`].
fn trace_drain_step(ctx: &Arc<ServerCtx>, idle: &mut u32) {
    let Some(state) = &ctx.stream else { return };
    let Some(batch) = ctx.runtime.drain_trace_events() else {
        return;
    };
    let mut recon = lock(&state.recon);
    let result = if batch.events.is_empty() {
        *idle += 1;
        let counters = recon.counters();
        if *idle >= TRACE_IDLE_FLUSH
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
        state.ingest_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Decodes one frame and spawns its handler task; the task computes the
/// response and hands the write to the reactor.  Four fast paths answer
/// directly, without spawning a handler: **admin** frames (the telemetry
/// plane — served inline on the shard thread, before every other check,
/// with a direct synchronous write that bypasses the runtime and fault
/// injection entirely, so telemetry keeps answering while the data plane
/// drains, sheds, or wedges), frames arriving while the server drains
/// (`ShuttingDown`), bodies that fail to decode (`Malformed`), and classes
/// currently shed by admission control (`Overloaded`).
fn dispatch(
    ctx: &Arc<ServerCtx>,
    writer: &Arc<Mutex<ConnWriter>>,
    fault: &Option<Arc<Mutex<FaultSession>>>,
    id: u64,
    body: Vec<u8>,
) {
    if body_is_admin(&body) {
        let resp = serve_admin(ctx, &body);
        let mut w = lock(writer);
        write_admin_frame(&mut *w, id, &resp);
        return;
    }
    let mut span = RequestSpan::begin(id);
    ctx.stats.frames_received.fetch_add(1, Ordering::Relaxed);
    if ctx.lifecycle.load(Ordering::SeqCst) == DRAINING {
        let resp = Response::error(ErrorCode::ShuttingDown, "server is shutting down");
        respond(
            ctx,
            writer,
            fault,
            id,
            &resp,
            ctx.event,
            span,
            None,
            SpanOutcome::Executed,
        );
        return;
    }
    let req = match decode_request(&body) {
        Ok(req) => req,
        Err(e) => {
            ctx.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::error(ErrorCode::Malformed, e.to_string());
            respond(
                ctx,
                writer,
                fault,
                id,
                &resp,
                ctx.event,
                span,
                None,
                SpanOutcome::Executed,
            );
            return;
        }
    };
    span.mark_decoded();
    let class = req.class();
    ctx.stats.per_class[class.tag() as usize].fetch_add(1, Ordering::Relaxed);
    if !ctx.admission.admit(class) {
        let resp = Response::error(
            ErrorCode::Overloaded,
            format!("{} shed by admission control", class.name()),
        );
        // Sheds never start executing: close the queue phase here so the
        // admission decision time lands in it; the recorder keeps decode +
        // queue only for shed spans.
        span.mark_started();
        respond(
            ctx,
            writer,
            fault,
            id,
            &resp,
            ctx.event,
            span,
            Some(class),
            SpanOutcome::Shed,
        );
        return;
    }
    let priority = ctx.dispatch_priority(&req);
    let ctx2 = Arc::clone(ctx);
    let writer = Arc::clone(writer);
    let fault = fault.clone();
    ctx.runtime.fcreate(priority, move || {
        let mut span = span;
        span.mark_started();
        let response = ctx2.execute(req, &mut span);
        span.mark_executed();
        ctx2.admission.on_completed(class);
        respond(
            &ctx2,
            &writer,
            &fault,
            id,
            &response,
            priority,
            span,
            Some(class),
            SpanOutcome::Executed,
        );
    });
}

/// Hands one encoded response frame to the reactor for writing.  Write
/// errors are swallowed: the client hung up, and the server must outlive
/// its clients.  Under a fault plan the write-side verdict can tear the
/// frame ([`WriteFault::Partial`]) or kill the connection outright.
///
/// The request's span is finalized **inside** the write closure, after the
/// frame reached the socket, so the reply-write phase covers the reactor
/// queue plus the actual write; spans of frames that never made it (client
/// gone, injected fault) are discarded rather than polluting the
/// histograms with torn writes.
#[allow(clippy::too_many_arguments)]
fn respond(
    ctx: &Arc<ServerCtx>,
    writer: &Arc<Mutex<ConnWriter>>,
    fault: &Option<Arc<Mutex<FaultSession>>>,
    id: u64,
    response: &Response,
    priority: Priority,
    span: RequestSpan,
    class: Option<RequestClass>,
    outcome: SpanOutcome,
) {
    let body = encode_response(response);
    let ctx2 = Arc::clone(ctx);
    let writer = Arc::clone(writer);
    let fault = fault.clone();
    let level = priority.index();
    let _written = ctx.runtime.submit_io_now(priority, move || {
        let verdict = fault
            .as_ref()
            .map_or(WriteFault::Full, |f| lock(f).on_write(12 + body.len()));
        let mut w = lock(&writer);
        match verdict {
            WriteFault::Full => {
                let ok = write_socket_frame(&mut *w, id, &body).is_ok();
                if ok {
                    ctx2.stats.responses_sent.fetch_add(1, Ordering::Relaxed);
                    let slack = live_level_slack(&ctx2, level);
                    ctx2.spans.record(&span, class, outcome, slack);
                }
                ok
            }
            WriteFault::Partial(n) => {
                // Torn frame: a prefix of the envelope reaches the wire,
                // then the connection dies — the client must treat this as
                // a reset, never as a reply.
                let mut frame = Vec::with_capacity(12 + body.len());
                let len = u32::try_from(8 + body.len()).expect("frame fits in u32");
                frame.extend_from_slice(&len.to_be_bytes());
                frame.extend_from_slice(&id.to_be_bytes());
                frame.extend_from_slice(&body);
                let _ = w.write_all(&frame[..n.min(frame.len())]);
                let _ = w.0.shutdown(Shutdown::Both);
                false
            }
            WriteFault::Disconnect => {
                let _ = w.0.shutdown(Shutdown::Both);
                false
            }
        }
    });
}

/// The lifecycle gauge as the telemetry plane reports it.
fn lifecycle_str(ctx: &ServerCtx) -> &'static str {
    if ctx.lifecycle.load(Ordering::SeqCst) == DRAINING {
        "draining"
    } else {
        "running"
    }
}

/// Snapshot of the monotone server counters (shared by [`NetServer::stats`]
/// and the admin plane).
fn net_stats_snapshot(ctx: &ServerCtx) -> NetStatsSnapshot {
    let s = &ctx.stats;
    NetStatsSnapshot {
        connections_accepted: s.connections_accepted.load(Ordering::Relaxed),
        frames_received: s.frames_received.load(Ordering::Relaxed),
        responses_sent: s.responses_sent.load(Ordering::Relaxed),
        decode_errors: s.decode_errors.load(Ordering::Relaxed),
        per_class: [
            s.per_class[0].load(Ordering::Relaxed),
            s.per_class[1].load(Ordering::Relaxed),
            s.per_class[2].load(Ordering::Relaxed),
        ],
        shed_per_class: ctx.admission.snapshot().shed,
        admin_requests: s.admin_requests.load(Ordering::Relaxed),
        trace_dropped_events: ctx.runtime.trace_stats().map_or(0, |t| t.dropped_events),
        retired_subgraphs: ctx
            .stream
            .as_ref()
            .map_or(0, |s| lock(&s.recon).aggregates().retired_subgraphs),
    }
}

/// Snapshot of the streaming-trace pipeline, `None` when streaming is off
/// (shared by [`NetServer::stream_stats`] and the admin plane).
fn stream_stats_snapshot(ctx: &ServerCtx) -> Option<StreamStatsSnapshot> {
    let state = ctx.stream.as_ref()?;
    let recon = lock(&state.recon);
    Some(StreamStatsSnapshot {
        aggregates: recon.aggregates().clone(),
        counters: recon.counters(),
        trace: ctx
            .runtime
            .trace_stats()
            .expect("streaming implies tracing"),
        ingest_errors: state.ingest_errors.load(Ordering::Relaxed),
    })
}

/// Assembles the full telemetry snapshot the admin `Metrics` op renders.
fn telemetry_snapshot(ctx: &ServerCtx) -> TelemetrySnapshot {
    TelemetrySnapshot {
        lifecycle: lifecycle_str(ctx),
        net: net_stats_snapshot(ctx),
        admission: ctx.admission.snapshot(),
        cache: ctx.cache.stats(),
        metrics: ctx.runtime.metrics(),
        levels: LEVELS.iter().map(|&s| s.to_string()).collect(),
        spans: ctx.spans.snapshot(),
        stream: stream_stats_snapshot(ctx),
    }
}

/// The live mean bound-slack gauge of one dispatch level, read from the
/// incremental reconstructor's running aggregates.  This is the value the
/// slow log attaches to a request: an *approximation* — the request's own
/// subgraph retires some milliseconds after its reply-write, so the gauge
/// reflects recently retired neighbours at the same level, not the request
/// itself.  `None` when streaming trace is off or the level has no retired
/// samples yet.
fn live_level_slack(ctx: &ServerCtx, level: usize) -> Option<f64> {
    let state = ctx.stream.as_ref()?;
    let recon = lock(&state.recon);
    recon
        .aggregates()
        .levels
        .get(level)
        .and_then(LevelAggregate::mean_slack)
}

/// Writes one admin response frame directly (synchronously) to the
/// connection.  Admin writes deliberately bypass the reactor *and* fault
/// injection: telemetry must stay dependable while the data plane is
/// wedged, draining, or under a fault plan.
fn write_admin_frame(w: &mut impl Write, id: u64, resp: &Response) -> bool {
    write_socket_frame(w, id, &encode_response(resp)).is_ok()
}

/// Serves one admin request body.  Never enters the runtime: every op is
/// answered from atomics, lock-protected snapshots, and the histogram
/// buckets, all readable even while the data plane drains or sheds.
fn serve_admin(ctx: &Arc<ServerCtx>, body: &[u8]) -> Response {
    ctx.stats.admin_requests.fetch_add(1, Ordering::Relaxed);
    let req = match decode_admin_request(body) {
        Ok(req) => req,
        Err(e) => return Response::error(ErrorCode::Malformed, format!("admin: {e}")),
    };
    // The decoder carries unknown versions through; the version policy is
    // the server's, and this build speaks exactly one.
    if req.version != ADMIN_VERSION {
        return Response::error(
            ErrorCode::Malformed,
            format!(
                "unsupported admin version {} (this build speaks {ADMIN_VERSION})",
                req.version
            ),
        );
    }
    let text = match req.op {
        AdminOp::Health => {
            let s = &ctx.stats;
            health_json(
                lifecycle_str(ctx),
                s.frames_received.load(Ordering::Relaxed),
                s.responses_sent.load(Ordering::Relaxed),
            )
        }
        AdminOp::Metrics { format } => {
            let snap = telemetry_snapshot(ctx);
            match format {
                MetricsFormat::Json => snap.to_json(),
                MetricsFormat::Prometheus => snap.to_prometheus(),
            }
        }
        AdminOp::TraceSummary => telemetry_snapshot(ctx).trace_summary_json(),
        AdminOp::SlowLog { max } => telemetry_snapshot(ctx).slow_log_json(max as usize),
    };
    Response::Admin { text }
}

/// The dedicated admin listener: accepts connections on its own loopback
/// port and serves admin frames inline on this thread.  The loop only
/// watches the `shutdown` flag — which [`NetServer::shutdown`] flips
/// *after* the drain phase — so the telemetry plane keeps answering for
/// the whole DRAINING window.  Non-admin bodies sent here get a
/// `Malformed` error: the admin port carries telemetry only.
///
/// With no scraper connected the thread blocks in `accept`, so an idle
/// admin plane costs no CPU; `NetServer::shutdown` wakes it by connecting
/// once the flag is set.  While scrapers are connected, accepting turns
/// non-blocking and the loop polls their sockets.
fn admin_loop(listener: TcpListener, ctx: Arc<ServerCtx>, shutdown: Arc<AtomicBool>) {
    let mut conns: Vec<(TcpStream, Vec<u8>)> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while !shutdown.load(Ordering::SeqCst) {
        if conns.is_empty() {
            let _ = listener.set_nonblocking(false);
            match listener.accept() {
                Ok((stream, _)) => conns.push(admin_conn(stream)),
                // Out of descriptors or the like: retry after a pause
                // rather than spin.
                Err(_) => std::thread::sleep(SHARD_POLL),
            }
            let _ = listener.set_nonblocking(true);
        }
        while let Ok((stream, _)) = listener.accept() {
            conns.push(admin_conn(stream));
        }
        conns.retain_mut(|(stream, buf)| poll_admin_conn(&ctx, stream, buf, &mut chunk));
    }
}

/// Readies an accepted admin socket and its empty frame buffer.
fn admin_conn(stream: TcpStream) -> (TcpStream, Vec<u8>) {
    // Accepted sockets inherit the listener's non-blocking flag on some
    // platforms; admin reads block for up to a read timeout (rounded up to
    // a scheduler tick), which a handful of scrapers can afford.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SHARD_POLL));
    (stream, Vec::new())
}

/// One poll of one admin connection: read, frame, answer.  Returns `false`
/// when the connection must be dropped.
fn poll_admin_conn(
    ctx: &Arc<ServerCtx>,
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    chunk: &mut [u8],
) -> bool {
    match stream.read(chunk) {
        Ok(0) => return false,
        Ok(n) => buf.extend_from_slice(&chunk[..n]),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut => {}
        Err(_) => return false,
    }
    loop {
        match take_socket_frame(buf) {
            Ok(Some((id, body))) => {
                let resp = serve_admin(ctx, &body);
                if !write_admin_frame(stream, id, &resp) {
                    return false;
                }
            }
            Ok(None) => return true,
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_request};
    use rp_apps::harness::write_socket_frame;
    use std::collections::HashMap;
    use std::io::Read;

    /// A test client: sends the given requests pipelined down one
    /// connection and collects all responses (by request id).
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
                "timed out with {}/{} responses",
                responses.len(),
                requests.len()
            );
            match stream.read(&mut chunk) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    while let Some((id, body)) = take_socket_frame(&mut buf).expect("valid frames")
                    {
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

    fn small_server(tracing: bool) -> NetServer {
        NetServer::start(NetServerConfig {
            shards: 2,
            workers: 2,
            tracing,
            io_latency: LatencyModel::Constant { micros: 200 },
            ..NetServerConfig::default()
        })
        .expect("server starts")
    }

    #[test]
    fn app_requests_roundtrip_over_a_real_socket() {
        let server = small_server(false);
        let responses = roundtrip(
            server.addr(),
            &[
                Request::App(AppOp::ProxyGet {
                    url: "http://site/a".into(),
                    body_if_missed: bytes::Bytes::from(b"page body".to_vec()),
                }),
                Request::App(AppOp::ProxyGet {
                    // The same URL again: the second fetch hits the cache.
                    url: "http://site/a".into(),
                    body_if_missed: bytes::Bytes::from(b"page body".to_vec()),
                }),
                Request::App(AppOp::EmailCompress { user: 0, msg: 0 }),
                Request::App(AppOp::EmailPrint { user: 0, msg: 0 }),
                Request::App(AppOp::JserverJob { class: 1, seed: 9 }),
            ],
        );
        // Both proxy fetches checksum the same body.
        assert_eq!(responses[&0], responses[&1]);
        for id in 0..5u64 {
            assert!(
                matches!(responses[&id], Response::App { .. }),
                "request {id} failed: {:?}",
                responses[&id]
            );
        }
        // The fib job is deterministic.
        assert_eq!(responses[&4], Response::App { result: 10946 });
        let stats = server.stats();
        assert_eq!(stats.frames_received, 5);
        assert_eq!(stats.per_class, [5, 0, 0]);
        assert_eq!(stats.decode_errors, 0);
        assert!(server.drain(Duration::from_secs(10)));
        assert_eq!(server.stats().responses_sent, 5);
        server.shutdown();
    }

    const PROG: &str = "\
priorities: lo < hi
program net-test : nat
main @ lo:
  t <- cmd[lo]{fcreate[worker; nat]{ret 21}};
  v <- cmd[lo]{ftouch t};
  ret (v + v)
";

    #[test]
    fn lambda_requests_compile_and_run_with_and_without_the_cache() {
        let server = small_server(false);
        let expected = Response::Lambda {
            counterexamples: 0,
            value: "42".into(),
        };
        // Two concurrently-submitted cached requests could both miss, so
        // the second cached submission goes in a separate round trip —
        // its predecessor has completed (and populated the cache) by then.
        let first = roundtrip(
            server.addr(),
            &[
                Request::Lambda {
                    source: PROG.into(),
                },
                Request::LambdaCached {
                    source: PROG.into(),
                },
            ],
        );
        assert_eq!(first[&0], expected);
        assert_eq!(first[&1], expected);
        let second = roundtrip(
            server.addr(),
            &[Request::LambdaCached {
                source: PROG.into(),
            }],
        );
        assert_eq!(second[&0], expected);
        let cache = server.cache_stats();
        assert_eq!(
            (cache.hits, cache.misses, cache.entries),
            (1, 1, 1),
            "two cached submissions, one distinct source"
        );
        assert_eq!(server.stats().per_class, [0, 1, 2]);
        server.shutdown();
    }

    #[test]
    fn malformed_and_failing_requests_get_error_responses() {
        let server = small_server(false);
        let addr = server.addr();
        // A malformed body (unknown class tag), sent raw.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .expect("timeout");
        write_socket_frame(&mut stream, 77, &[99, 1, 2, 3]).expect("send");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let (id, body) = loop {
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => {
                    buf.extend_from_slice(&chunk[..n]);
                    if let Some(frame) = take_socket_frame(&mut buf).expect("valid frame") {
                        break frame;
                    }
                }
                _ => {}
            }
        };
        assert_eq!(id, 77);
        assert!(
            matches!(decode_response(&body), Ok(Response::Error { .. })),
            "malformed bodies are answered, not dropped"
        );
        // Requests that decode but fail stay on the same connection.
        let responses = roundtrip(
            addr,
            &[
                Request::App(AppOp::EmailCompress { user: 999, msg: 0 }),
                Request::App(AppOp::JserverJob {
                    class: 200,
                    seed: 0,
                }),
                Request::Lambda {
                    source: "priorities: a\nprogram p : nat\nmain @ a:\n  ret (".into(),
                },
            ],
        );
        for id in 0..3u64 {
            assert!(
                matches!(responses[&id], Response::Error { .. }),
                "request {id}: {:?}",
                responses[&id]
            );
        }
        assert_eq!(server.stats().decode_errors, 1);
        server.shutdown();
    }

    /// A connection sending an impossible envelope header (length < 8)
    /// cannot be re-synchronised: the shard must drop it — not loop on it
    /// forever, not buffer gigabytes — while the server keeps serving
    /// other connections.
    #[test]
    fn malformed_envelope_drops_the_connection_only() {
        use std::io::Write;
        let server = small_server(false);
        let addr = server.addr();
        let mut bad = TcpStream::connect(addr).expect("connect");
        bad.set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        bad.write_all(&[0, 0, 0, 0]).expect("send bogus header");
        let mut chunk = [0u8; 64];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match bad.read(&mut chunk) {
                Ok(0) => break, // dropped, as required
                Ok(_) => panic!("no response expected on a malformed envelope"),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "connection was not dropped"
                    );
                }
                Err(_) => break, // reset also counts as dropped
            }
        }
        // A fresh connection still gets served.
        let responses = roundtrip(
            addr,
            &[Request::App(AppOp::JserverJob { class: 1, seed: 7 })],
        );
        assert!(matches!(responses[&0], Response::App { .. }));
        server.shutdown();
    }

    /// Regression: shutting down with live, blocked clients must hand
    /// every one of them an orderly EOF (or a late `ShuttingDown` answer) —
    /// never leave a client hanging on a read, and never lose an in-flight
    /// response.
    #[test]
    fn shutdown_with_live_clients_gives_eof_not_hang() {
        let server = small_server(false);
        let addr = server.addr();
        // One roundtrip proves the connection is live before the shutdown.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        write_socket_frame(
            &mut stream,
            1,
            &encode_request(&Request::App(AppOp::JserverJob { class: 1, seed: 1 })),
        )
        .expect("send");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let first = std::time::Instant::now();
        loop {
            assert!(
                first.elapsed() < Duration::from_secs(30),
                "no response before shutdown"
            );
            match stream.read(&mut chunk) {
                Ok(0) => panic!("connection died before shutdown"),
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if take_socket_frame(&mut buf).expect("valid frame").is_some() {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read before shutdown: {e}"),
            }
        }
        // Shut down while this client sits blocked on its next read.
        let shut = std::thread::spawn(move || server.shutdown());
        let started = std::time::Instant::now();
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break, // orderly EOF, as required
                Ok(n) => {
                    // A late `ShuttingDown` answer is also acceptable.
                    buf.extend_from_slice(&chunk[..n]);
                    while let Ok(Some((_, body))) = take_socket_frame(&mut buf) {
                        let resp = decode_response(&body).expect("valid response");
                        assert!(
                            matches!(
                                resp,
                                Response::Error {
                                    code: ErrorCode::ShuttingDown,
                                    ..
                                }
                            ),
                            "unexpected response during shutdown: {resp:?}"
                        );
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    assert!(
                        started.elapsed() < Duration::from_secs(20),
                        "client still blocked 20s into shutdown — hang"
                    );
                }
                Err(_) => break, // a reset also unblocks the client
            }
        }
        shut.join().expect("shutdown completes");
    }

    #[test]
    fn traced_socket_run_reconstructs_with_io_threads_and_no_counterexamples() {
        let server = small_server(true);
        let responses = roundtrip(
            server.addr(),
            &[
                Request::App(AppOp::ProxyGet {
                    url: "http://site/t".into(),
                    body_if_missed: bytes::Bytes::from(b"traced body".to_vec()),
                }),
                Request::App(AppOp::JserverJob { class: 1, seed: 3 }),
            ],
        );
        assert_eq!(responses.len(), 2);
        assert!(server.drain(Duration::from_secs(10)));
        let report = rp_apps::harness::collect_trace(server.runtime()).expect("trace harvests");
        assert!(
            report.counterexamples().is_empty(),
            "Theorem 2.3 counterexample on a socket run"
        );
        // The response writes appear as I/O threads in the cost DAG: at
        // least one io-thread per request beyond the handler tasks.
        assert!(
            report.run.dag.thread_count() >= 4,
            "expected handler + response-write threads, got {}",
            report.run.dag.thread_count()
        );
        server.shutdown();
    }

    /// The streaming pipeline end to end over a real socket: requests are
    /// drained, reconstructed, bound-checked, and retired *while the server
    /// runs* — no drops, no ingest errors, no counterexamples, and the
    /// reconstructor's working set returns to zero once traffic stops.
    #[test]
    fn streaming_socket_run_retires_requests_live_with_zero_drops() {
        let server = NetServer::start(NetServerConfig {
            shards: 2,
            workers: 2,
            tracing: true,
            streaming_trace: true,
            io_latency: LatencyModel::Constant { micros: 200 },
            ..NetServerConfig::default()
        })
        .expect("server starts");
        let responses = roundtrip(
            server.addr(),
            &[
                Request::App(AppOp::ProxyGet {
                    url: "http://site/s".into(),
                    body_if_missed: bytes::Bytes::from(b"streamed body".to_vec()),
                }),
                Request::App(AppOp::EmailCompress { user: 0, msg: 0 }),
                Request::App(AppOp::JserverJob { class: 1, seed: 5 }),
            ],
        );
        assert_eq!(responses.len(), 3);
        assert!(server.drain(Duration::from_secs(10)));
        // The drain thread detects quiescence and flushes the reorder-window
        // tail on its own; wait for it to retire everything in flight.
        let deadline = Instant::now() + Duration::from_secs(30);
        let stats = loop {
            let s = server.stream_stats().expect("streaming is on");
            if s.counters.live_components == 0
                && s.counters.pending_events == 0
                && s.aggregates.retired_subgraphs > 0
            {
                break s;
            }
            assert!(
                Instant::now() < deadline,
                "streaming never retired the run: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(stats.aggregates.counterexamples, 0, "Theorem 2.3 holds");
        assert_eq!(stats.trace.dropped_events, 0, "no tracer overflow");
        assert_eq!(stats.ingest_errors, 0);
        assert_eq!(stats.counters.unresolved_events, 0);
        assert!(
            stats.aggregates.retired_subgraphs >= 3,
            "each request retires as its own subgraph, got {}",
            stats.aggregates.retired_subgraphs
        );
        // The live per-level slack gauges have real samples (≤ 1 means the
        // observed schedules sat inside their Theorem 2.3 bounds).
        let sampled: u64 = stats
            .aggregates
            .levels
            .iter()
            .map(|l| l.slack_samples)
            .sum();
        assert!(sampled > 0, "bound-slack gauges have samples");
        for level in &stats.aggregates.levels {
            assert!(level.slack_max <= 1.0, "slack gauge over 1: {level:?}");
        }
        let server_stats = server.stats();
        assert_eq!(server_stats.trace_dropped_events, 0);
        assert!(server_stats.retired_subgraphs >= 3);
        server.shutdown();
    }
}
