//! A TCP front end for the responsive-parallelism runtime: real sockets in
//! front of `rp_icilk`.
//!
//! Every workload before this crate ran in-process — the open-loop harness
//! called `drive()` functions directly, so no request ever crossed a
//! socket.  `rp_net` closes that gap with a small server built purely on
//! `std::net` (the build container is offline; no async stack, no new
//! vendor stubs):
//!
//! * [`protocol`] — the length-prefixed request protocol: the wire
//!   *envelope* (`u32` length + `u64` request id) is shared with the
//!   client driver in [`rp_apps::harness`], and the body layout defined
//!   here covers three request classes:
//!   1. **App** — raw case-study operations (proxy page fetches, email
//!      compress/print, jserver jobs);
//!   2. **Lambda** — λ⁴ᵢ source text, run through the full
//!      [`rp_lambda4i::pipeline::run_source`] front end;
//!   3. **LambdaCached** — the same, but with the parse → infer front half
//!      memoized per source ([`rp_lambda4i::pipeline::CompileCache`]).
//! * [`server`] — the server: one acceptor thread distributes connections
//!   round-robin to N *shard* threads; each shard buffers its connections'
//!   bytes, decodes complete frames, and feeds every request into the
//!   runtime as an `fcreate` task at a priority chosen per request class.
//!   Responses are fulfilled through
//!   [`rp_icilk::runtime::Runtime::submit_io_now`] — the socket write runs
//!   on the I/O reactor, off the workers, so a **traced** run reconstructs
//!   each network round-trip as an I/O thread in the cost DAG and
//!   Theorem 2.3 can be checked on executions that include genuine network
//!   I/O.
//! * [`span`] — per-request latency spans: monotonic phase timestamps
//!   (decode / queue / infer / execute / reply-write) threaded through the
//!   dispatch path, aggregated into per-class per-phase histograms and a
//!   bounded top-K slow-request log.
//! * [`telemetry`] — the telemetry plane: a versioned **admin** request
//!   class ([`protocol::ADMIN_TAG`]) served from a dedicated listener that
//!   never enters the runtime and keeps answering while the data plane
//!   drains or sheds; metrics render as JSON or Prometheus-style text
//!   exposition, with histogram quantiles exported straight from the
//!   log-bucketed histograms (no sorting).  The `rp-stat` binary
//!   (`crates/tools`) polls it into a live dashboard.
//!
//! Load generation lives on the client side:
//! [`rp_apps::harness::drive_socket_open`] replays the same Poisson
//! arrival schedule as the in-process open loop over real loopback
//! connections; `bench_overload` drives it past saturation, and the
//! repository benchmark's `wire_small` and `wire_mixed` workloads time the
//! whole path.
//!
//! # Example
//!
//! ```
//! use rp_net::protocol::{encode_request, AppOp, Request};
//! use rp_net::server::{NetServer, NetServerConfig};
//! use rp_apps::harness::{take_socket_frame, write_socket_frame};
//! use std::io::Read;
//!
//! let server = NetServer::start(NetServerConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//!
//! // One jserver job over the wire.
//! let body = encode_request(&Request::App(AppOp::JserverJob { class: 1, seed: 7 }));
//! write_socket_frame(&mut conn, 1, &body).unwrap();
//!
//! let mut buf = Vec::new();
//! let mut chunk = [0u8; 4096];
//! let (id, resp) = loop {
//!     let n = conn.read(&mut chunk).unwrap();
//!     buf.extend_from_slice(&chunk[..n]);
//!     if let Some(frame) = take_socket_frame(&mut buf).unwrap() {
//!         break frame;
//!     }
//! };
//! assert_eq!(id, 1);
//! assert_eq!(resp[0], 0, "status byte: ok");
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod protocol;
pub mod server;
pub mod span;
pub mod telemetry;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionSnapshot, ClassBudget};
pub use protocol::{
    AdminOp, AdminRequest, AppOp, ErrorCode, MetricsFormat, ProtocolError, Request, RequestClass,
    Response,
};
pub use server::{NetServer, NetServerConfig};
pub use span::{Phase, RequestSpan, SlowEntry, SpanRecorder, SpanSnapshot};
pub use telemetry::TelemetrySnapshot;
