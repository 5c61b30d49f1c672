//! The request/response body layout of the `rp_net` wire protocol.
//!
//! Framing is two-layered.  The outer **envelope** — a 4-byte big-endian
//! length followed by an 8-byte big-endian request id — is shared with the
//! client-side driver ([`rp_apps::harness::write_socket_frame`] /
//! [`rp_apps::harness::take_socket_frame`]), which treats bodies as opaque.
//! This module defines the **body**: a one-byte request-class tag followed
//! by a class-specific payload, and the matching response layout (a status
//! byte followed by a result, or — for errors — an [`ErrorCode`] byte and a
//! message).  All integers are big-endian; all text is UTF-8.
//!
//! | class | tag | payload |
//! |-------|-----|---------|
//! | [`Request::App`] | `0` | op tag + op payload (see [`AppOp`]) |
//! | [`Request::Lambda`] | `1` | λ⁴ᵢ source text |
//! | [`Request::LambdaCached`] | `2` | λ⁴ᵢ source text |
//! | [`AdminRequest`] | [`ADMIN_TAG`] (`3`) | version byte + admin op (see [`AdminOp`]) |
//!
//! The admin class is the **telemetry plane**: it is versioned
//! ([`ADMIN_VERSION`]), served inline by the listening thread (never
//! dispatched into the runtime), and answered even while the server drains
//! or sheds.  Admin responses (status byte `3`) carry a UTF-8 text body —
//! JSON or Prometheus-style exposition depending on the requested
//! [`MetricsFormat`].
//!
//! Error responses (status byte `2`) carry one [`ErrorCode`] byte so clients
//! can distinguish a *shed* request from a *broken* one:
//!
//! | code | tag | meaning | client action |
//! |------|-----|---------|---------------|
//! | [`ErrorCode::Malformed`] | `0` | undecodable body / unknown entity | don't retry |
//! | [`ErrorCode::Overloaded`] | `1` | shed by admission control, not executed | retry with backoff |
//! | [`ErrorCode::Internal`] | `2` | executed and failed (λ⁴ᵢ errors, …) | inspect message |
//! | [`ErrorCode::ShuttingDown`] | `3` | server draining, not executed | reconnect elsewhere/later |

use bytes::Bytes;
use std::fmt;

/// The three request classes the server dispatches at different priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Raw case-study operations (proxy / email / jserver).
    App,
    /// λ⁴ᵢ source through the full parse → infer → run pipeline.
    Lambda,
    /// λ⁴ᵢ source with the parse → infer front half memoized.
    LambdaCached,
}

impl RequestClass {
    /// All classes, in tag order.
    pub const ALL: [RequestClass; 3] = [
        RequestClass::App,
        RequestClass::Lambda,
        RequestClass::LambdaCached,
    ];

    /// The class's wire tag.
    pub fn tag(self) -> u8 {
        match self {
            RequestClass::App => 0,
            RequestClass::Lambda => 1,
            RequestClass::LambdaCached => 2,
        }
    }

    /// A short stable name for reports and the `class` label of the admin
    /// plane's metrics.
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::App => "app",
            RequestClass::Lambda => "lambda",
            RequestClass::LambdaCached => "lambda-cached",
        }
    }
}

/// A raw application operation — the in-process case-study entry points,
/// exposed over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppOp {
    /// A proxy page fetch: answered from the cache, or from simulated
    /// network I/O on a miss.  The client ships the page body the origin
    /// *would* return (the same convention as the in-process drivers, where
    /// the workload generator owns the page content).
    ProxyGet {
        /// The requested URL.
        url: String,
        /// The origin's page body, used on a cache miss.
        body_if_missed: Bytes,
    },
    /// Compress one message of one user's mailbox (Huffman).
    EmailCompress {
        /// Mailbox owner (index into the server's generated users).
        user: u32,
        /// Message index within the mailbox.
        msg: u32,
    },
    /// Print (checksum) one message, coordinating with any in-flight
    /// compression of the same message through its slot.
    EmailPrint {
        /// Mailbox owner.
        user: u32,
        /// Message index within the mailbox.
        msg: u32,
    },
    /// Run one job of the jserver mix.
    JserverJob {
        /// Index into [`rp_apps::jserver::JobClass::default_mix`] (0–3).
        class: u8,
        /// Seed for the job's input generator.
        seed: u64,
    },
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A raw application operation.
    App(AppOp),
    /// λ⁴ᵢ source for the full pipeline.
    Lambda {
        /// The `.l4i` source text.
        source: String,
    },
    /// λ⁴ᵢ source for the memoized pipeline.
    LambdaCached {
        /// The `.l4i` source text.
        source: String,
    },
}

impl Request {
    /// The request's class.
    pub fn class(&self) -> RequestClass {
        match self {
            Request::App(_) => RequestClass::App,
            Request::Lambda { .. } => RequestClass::Lambda,
            Request::LambdaCached { .. } => RequestClass::LambdaCached,
        }
    }
}

/// The request-body tag of the admin (telemetry-plane) class.  Deliberately
/// *not* a [`RequestClass`]: admin requests never enter the runtime, are
/// never counted against per-class budgets, and are answered even while the
/// server drains — they sit outside the data plane's class machinery.
pub const ADMIN_TAG: u8 = 3;

/// The admin body layout version this build speaks.  A request carrying a
/// different version byte is answered [`ErrorCode::Malformed`] — operators
/// upgrade `rp-stat` and the server together, and the mismatch is explicit
/// rather than a silently misparsed body.
pub const ADMIN_VERSION: u8 = 1;

/// The text format of a [`AdminOp::Metrics`] response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricsFormat {
    /// A structured JSON document (machine-readable snapshots, `--json`).
    Json,
    /// Prometheus-style text exposition (`# HELP`/`# TYPE` + samples).
    Prometheus,
}

impl MetricsFormat {
    /// The format's wire byte.
    pub fn tag(self) -> u8 {
        match self {
            MetricsFormat::Json => 0,
            MetricsFormat::Prometheus => 1,
        }
    }

    /// Decodes a wire byte.
    pub fn from_tag(tag: u8) -> Option<MetricsFormat> {
        match tag {
            0 => Some(MetricsFormat::Json),
            1 => Some(MetricsFormat::Prometheus),
            _ => None,
        }
    }
}

/// One telemetry-plane operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminOp {
    /// The full metrics snapshot: server counters, admission state, cache
    /// hit rates, per-level latency quantiles, per-class per-phase span
    /// quantiles, and the streaming bound-slack gauges.
    Metrics {
        /// JSON or Prometheus-style text.
        format: MetricsFormat,
    },
    /// A tiny liveness/lifecycle probe; reports `running` or `draining`
    /// explicitly (a draining server is *alive* — its telemetry plane keeps
    /// answering while the data plane says `ShuttingDown`).
    Health,
    /// The streaming-trace pipeline: per-level bound-slack gauges, retire
    /// counters, and memory gauges (empty levels elided).
    TraceSummary,
    /// The slowest requests seen so far (top-K by total latency), with
    /// per-phase breakdowns.
    SlowLog {
        /// Maximum entries to return (the server's own log bound still
        /// applies).
        max: u32,
    },
}

/// A decoded admin request: a version byte plus one [`AdminOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdminRequest {
    /// The body layout version the client speaks (see [`ADMIN_VERSION`]).
    pub version: u8,
    /// The requested operation.
    pub op: AdminOp,
}

impl AdminRequest {
    /// An admin request at this build's [`ADMIN_VERSION`].
    pub fn new(op: AdminOp) -> AdminRequest {
        AdminRequest {
            version: ADMIN_VERSION,
            op,
        }
    }
}

/// Whether an *encoded* request body is an admin request — the cheap
/// classifier the shard threads use to route telemetry traffic around the
/// data plane's drain/shed fast paths.
pub fn body_is_admin(body: &[u8]) -> bool {
    body.first() == Some(&ADMIN_TAG)
}

/// Encodes an admin request body (the envelope is the caller's job).
pub fn encode_admin_request(req: &AdminRequest) -> Vec<u8> {
    let mut out = vec![ADMIN_TAG, req.version];
    match req.op {
        AdminOp::Metrics { format } => {
            out.push(0);
            out.push(format.tag());
        }
        AdminOp::Health => out.push(1),
        AdminOp::TraceSummary => out.push(2),
        AdminOp::SlowLog { max } => {
            out.push(3);
            out.extend_from_slice(&max.to_be_bytes());
        }
    }
    out
}

/// Decodes an admin request body.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on truncated or mistagged input.  An
/// unsupported *version* decodes successfully (the version byte is carried
/// through) — version policy is the server's, so it can answer with a
/// precise message instead of a generic decode error.
pub fn decode_admin_request(body: &[u8]) -> Result<AdminRequest, ProtocolError> {
    let (&tag, rest) = body.split_first().ok_or(ProtocolError::Truncated)?;
    if tag != ADMIN_TAG {
        return Err(ProtocolError::UnknownTag(tag));
    }
    let (&version, rest) = rest.split_first().ok_or(ProtocolError::Truncated)?;
    let (&op, rest) = rest.split_first().ok_or(ProtocolError::Truncated)?;
    let op = match op {
        0 => {
            let (&fmt, _) = rest.split_first().ok_or(ProtocolError::Truncated)?;
            AdminOp::Metrics {
                format: MetricsFormat::from_tag(fmt).ok_or(ProtocolError::UnknownTag(fmt))?,
            }
        }
        1 => AdminOp::Health,
        2 => AdminOp::TraceSummary,
        3 => {
            let (max, _) = take_u32(rest)?;
            AdminOp::SlowLog { max }
        }
        t => return Err(ProtocolError::UnknownTag(t)),
    };
    Ok(AdminRequest { version, op })
}

/// Why an error response was sent — one byte on the wire, so clients can
/// tell a *shed* request (retry later, with backoff) from a *broken* one
/// (retrying the same bytes will fail again) without parsing the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request body could not be decoded, or named an entity that does
    /// not exist (unknown job class, unknown mailbox).  Retrying the same
    /// request is pointless.
    Malformed,
    /// The admission controller shed the request to protect the response-time
    /// budgets of higher-priority classes.  The request was *not* executed;
    /// retry after a backoff.
    Overloaded,
    /// The request was valid but its execution failed (λ⁴ᵢ parse/type/run
    /// errors, handler failures).  The server stayed up.
    Internal,
    /// The server is draining for shutdown; the request was not executed and
    /// the connection will close once in-flight responses are delivered.
    ShuttingDown,
}

impl ErrorCode {
    /// All codes, in tag order.
    pub const ALL: [ErrorCode; 4] = [
        ErrorCode::Malformed,
        ErrorCode::Overloaded,
        ErrorCode::Internal,
        ErrorCode::ShuttingDown,
    ];

    /// The code's wire byte.
    pub fn tag(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0,
            ErrorCode::Overloaded => 1,
            ErrorCode::Internal => 2,
            ErrorCode::ShuttingDown => 3,
        }
    }

    /// Decodes a wire byte.
    pub fn from_tag(tag: u8) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.tag() == tag)
    }

    /// A short stable name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// An app operation's checksum-ish result.
    App {
        /// The operation's `u64` result.
        result: u64,
    },
    /// A λ⁴ᵢ run's outcome.
    Lambda {
        /// Theorem 2.3 counterexamples across the machine graph, the
        /// observed runtime schedule, and the prompt replay (0 on a healthy
        /// build).
        counterexamples: u64,
        /// The pretty-printed final value.
        value: String,
    },
    /// The request failed; the server stayed up.
    Error {
        /// Why, machine-readably (shed vs malformed vs failed vs draining).
        code: ErrorCode,
        /// A human-readable description (parse errors, type errors, …).
        message: String,
    },
    /// A telemetry-plane answer: a UTF-8 text body (JSON or Prometheus
    /// exposition, per the request's [`MetricsFormat`]).
    Admin {
        /// The rendered telemetry document.
        text: String,
    },
}

impl Response {
    /// An error response with the given code and message.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }

    /// Whether this is an [`ErrorCode::Overloaded`] rejection — the one
    /// error class clients should retry (with backoff).
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        )
    }
}

/// Classifies an *encoded* response body without fully decoding it: `true`
/// exactly when the body is an error response carrying
/// [`ErrorCode::Overloaded`].  This is the hook the protocol-agnostic socket
/// driver ([`rp_apps::harness::drive_socket_open`]) needs to decide whether
/// a response means "done" or "shed — retry with backoff".
pub fn body_is_overloaded(body: &[u8]) -> bool {
    body.len() >= 2 && body[0] == 2 && body[1] == ErrorCode::Overloaded.tag()
}

/// Why a body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The body was empty or shorter than its layout requires.
    Truncated,
    /// An unknown request-class or op tag.
    UnknownTag(u8),
    /// Text payload was not UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "truncated body"),
            ProtocolError::UnknownTag(t) => write!(f, "unknown tag {t}"),
            ProtocolError::BadUtf8 => write!(f, "text payload is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn take_u32(b: &[u8]) -> Result<(u32, &[u8]), ProtocolError> {
    if b.len() < 4 {
        return Err(ProtocolError::Truncated);
    }
    Ok((
        u32::from_be_bytes(b[..4].try_into().expect("4 bytes")),
        &b[4..],
    ))
}

fn take_u64(b: &[u8]) -> Result<(u64, &[u8]), ProtocolError> {
    if b.len() < 8 {
        return Err(ProtocolError::Truncated);
    }
    Ok((
        u64::from_be_bytes(b[..8].try_into().expect("8 bytes")),
        &b[8..],
    ))
}

fn utf8(b: &[u8]) -> Result<String, ProtocolError> {
    String::from_utf8(b.to_vec()).map_err(|_| ProtocolError::BadUtf8)
}

/// Encodes a request body (the envelope is the caller's job).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = vec![req.class().tag()];
    match req {
        Request::App(op) => match op {
            AppOp::ProxyGet {
                url,
                body_if_missed,
            } => {
                out.push(0);
                out.extend_from_slice(
                    &u32::try_from(url.len())
                        .expect("url fits in u32")
                        .to_be_bytes(),
                );
                out.extend_from_slice(url.as_bytes());
                out.extend_from_slice(body_if_missed);
            }
            AppOp::EmailCompress { user, msg } => {
                out.push(1);
                out.extend_from_slice(&user.to_be_bytes());
                out.extend_from_slice(&msg.to_be_bytes());
            }
            AppOp::EmailPrint { user, msg } => {
                out.push(2);
                out.extend_from_slice(&user.to_be_bytes());
                out.extend_from_slice(&msg.to_be_bytes());
            }
            AppOp::JserverJob { class, seed } => {
                out.push(3);
                out.push(*class);
                out.extend_from_slice(&seed.to_be_bytes());
            }
        },
        Request::Lambda { source } | Request::LambdaCached { source } => {
            out.extend_from_slice(source.as_bytes());
        }
    }
    out
}

/// Decodes a request body.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on truncated, mistagged, or non-UTF-8 input.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    let (&class, rest) = body.split_first().ok_or(ProtocolError::Truncated)?;
    match class {
        0 => {
            let (&op, rest) = rest.split_first().ok_or(ProtocolError::Truncated)?;
            let op = match op {
                0 => {
                    let (url_len, rest) = take_u32(rest)?;
                    let url_len = url_len as usize;
                    if rest.len() < url_len {
                        return Err(ProtocolError::Truncated);
                    }
                    AppOp::ProxyGet {
                        url: utf8(&rest[..url_len])?,
                        body_if_missed: Bytes::from(rest[url_len..].to_vec()),
                    }
                }
                1 | 2 => {
                    let (user, rest) = take_u32(rest)?;
                    let (msg, _) = take_u32(rest)?;
                    if op == 1 {
                        AppOp::EmailCompress { user, msg }
                    } else {
                        AppOp::EmailPrint { user, msg }
                    }
                }
                3 => {
                    let (&class, rest) = rest.split_first().ok_or(ProtocolError::Truncated)?;
                    let (seed, _) = take_u64(rest)?;
                    AppOp::JserverJob { class, seed }
                }
                t => return Err(ProtocolError::UnknownTag(t)),
            };
            Ok(Request::App(op))
        }
        1 => Ok(Request::Lambda {
            source: utf8(rest)?,
        }),
        2 => Ok(Request::LambdaCached {
            source: utf8(rest)?,
        }),
        t => Err(ProtocolError::UnknownTag(t)),
    }
}

/// Encodes a response body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::App { result } => {
            let mut out = vec![0u8];
            out.extend_from_slice(&result.to_be_bytes());
            out
        }
        Response::Lambda {
            counterexamples,
            value,
        } => {
            let mut out = vec![1u8];
            out.extend_from_slice(&counterexamples.to_be_bytes());
            out.extend_from_slice(value.as_bytes());
            out
        }
        Response::Error { code, message } => {
            let mut out = vec![2u8, code.tag()];
            out.extend_from_slice(message.as_bytes());
            out
        }
        Response::Admin { text } => {
            let mut out = vec![3u8];
            out.extend_from_slice(text.as_bytes());
            out
        }
    }
}

/// Decodes a response body.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on truncated, mistagged, or non-UTF-8 input.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtocolError> {
    let (&status, rest) = body.split_first().ok_or(ProtocolError::Truncated)?;
    match status {
        0 => {
            let (result, _) = take_u64(rest)?;
            Ok(Response::App { result })
        }
        1 => {
            let (counterexamples, rest) = take_u64(rest)?;
            Ok(Response::Lambda {
                counterexamples,
                value: utf8(rest)?,
            })
        }
        2 => {
            let (&code, rest) = rest.split_first().ok_or(ProtocolError::Truncated)?;
            let code = ErrorCode::from_tag(code).ok_or(ProtocolError::UnknownTag(code))?;
            Ok(Response::Error {
                code,
                message: utf8(rest)?,
            })
        }
        3 => Ok(Response::Admin { text: utf8(rest)? }),
        t => Err(ProtocolError::UnknownTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let encoded = encode_request(&req);
        assert_eq!(decode_request(&encoded).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::App(AppOp::ProxyGet {
            url: "http://example/π".into(),
            body_if_missed: Bytes::from(b"<html>body</html>".to_vec()),
        }));
        roundtrip_request(Request::App(AppOp::ProxyGet {
            url: String::new(),
            body_if_missed: Bytes::new(),
        }));
        roundtrip_request(Request::App(AppOp::EmailCompress { user: 3, msg: 9 }));
        roundtrip_request(Request::App(AppOp::EmailPrint {
            user: u32::MAX,
            msg: 0,
        }));
        roundtrip_request(Request::App(AppOp::JserverJob {
            class: 2,
            seed: u64::MAX,
        }));
        roundtrip_request(Request::Lambda {
            source: "priorities: lo < hi\n…".into(),
        });
        roundtrip_request(Request::LambdaCached { source: "".into() });
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::App { result: 0 },
            Response::App { result: u64::MAX },
            Response::Lambda {
                counterexamples: 0,
                value: "ret 42".into(),
            },
            Response::Error {
                code: ErrorCode::Internal,
                message: "parse error: …".into(),
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: String::new(),
            },
            Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "draining".into(),
            },
            Response::Admin {
                text: "{\"state\":\"running\"}".into(),
            },
            Response::Admin {
                text: String::new(),
            },
        ] {
            let encoded = encode_response(&resp);
            assert_eq!(decode_response(&encoded).unwrap(), resp);
        }
    }

    #[test]
    fn admin_requests_roundtrip() {
        for op in [
            AdminOp::Metrics {
                format: MetricsFormat::Json,
            },
            AdminOp::Metrics {
                format: MetricsFormat::Prometheus,
            },
            AdminOp::Health,
            AdminOp::TraceSummary,
            AdminOp::SlowLog { max: 0 },
            AdminOp::SlowLog { max: u32::MAX },
        ] {
            let req = AdminRequest::new(op);
            let encoded = encode_admin_request(&req);
            assert!(body_is_admin(&encoded));
            assert_eq!(decode_admin_request(&encoded).unwrap(), req);
        }
        // Data-plane bodies are never misclassified as admin.
        let data = encode_request(&Request::Lambda { source: "x".into() });
        assert!(!body_is_admin(&data));
    }

    #[test]
    fn admin_versions_are_carried_not_rejected_by_the_decoder() {
        // A future-version body still decodes — the server (not the codec)
        // owns version policy and answers with a precise message.
        let mut encoded = encode_admin_request(&AdminRequest::new(AdminOp::Health));
        encoded[1] = ADMIN_VERSION + 1;
        let req = decode_admin_request(&encoded).unwrap();
        assert_eq!(req.version, ADMIN_VERSION + 1);
        assert_eq!(req.op, AdminOp::Health);
    }

    #[test]
    fn malformed_admin_bodies_are_rejected() {
        assert_eq!(decode_admin_request(&[]), Err(ProtocolError::Truncated));
        assert_eq!(
            decode_admin_request(&[0, 1, 1]),
            Err(ProtocolError::UnknownTag(0)),
            "data-plane tag is not admin"
        );
        assert_eq!(
            decode_admin_request(&[ADMIN_TAG]),
            Err(ProtocolError::Truncated)
        );
        assert_eq!(
            decode_admin_request(&[ADMIN_TAG, ADMIN_VERSION]),
            Err(ProtocolError::Truncated)
        );
        assert_eq!(
            decode_admin_request(&[ADMIN_TAG, ADMIN_VERSION, 9]),
            Err(ProtocolError::UnknownTag(9))
        );
        // Metrics with an unknown format byte.
        assert_eq!(
            decode_admin_request(&[ADMIN_TAG, ADMIN_VERSION, 0, 7]),
            Err(ProtocolError::UnknownTag(7))
        );
        // SlowLog with a truncated max.
        assert_eq!(
            decode_admin_request(&[ADMIN_TAG, ADMIN_VERSION, 3, 0, 0]),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn error_codes_are_stable_and_classifiable() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_tag(code.tag()), Some(code));
        }
        assert_eq!(ErrorCode::from_tag(200), None);
        // An error body with an unknown code byte is rejected, not guessed.
        assert_eq!(
            decode_response(&[2, 99]),
            Err(ProtocolError::UnknownTag(99))
        );
        // A bare error status byte with no code is truncated.
        assert_eq!(decode_response(&[2]), Err(ProtocolError::Truncated));
        // The cheap classifier agrees with a full decode.
        let shed = encode_response(&Response::error(ErrorCode::Overloaded, "shed"));
        assert!(body_is_overloaded(&shed));
        assert!(decode_response(&shed).unwrap().is_overloaded());
        let other = encode_response(&Response::error(ErrorCode::Internal, "boom"));
        assert!(!body_is_overloaded(&other));
        let ok = encode_response(&Response::App { result: 7 });
        assert!(!body_is_overloaded(&ok));
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked_on() {
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
        assert_eq!(decode_request(&[9]), Err(ProtocolError::UnknownTag(9)));
        assert_eq!(decode_request(&[0]), Err(ProtocolError::Truncated));
        assert_eq!(decode_request(&[0, 7]), Err(ProtocolError::UnknownTag(7)));
        // ProxyGet with a claimed URL length past the end of the body.
        assert_eq!(
            decode_request(&[0, 0, 0, 0, 0, 200, b'x']),
            Err(ProtocolError::Truncated)
        );
        assert_eq!(
            decode_request(&[1, 0xFF, 0xFE]),
            Err(ProtocolError::BadUtf8)
        );
        assert_eq!(decode_response(&[]), Err(ProtocolError::Truncated));
        assert_eq!(decode_response(&[0, 1]), Err(ProtocolError::Truncated));
        assert_eq!(decode_response(&[7]), Err(ProtocolError::UnknownTag(7)));
    }

    #[test]
    fn class_tags_and_names_are_stable() {
        for class in RequestClass::ALL {
            assert_eq!(RequestClass::ALL[class.tag() as usize], class);
        }
        assert_eq!(RequestClass::App.name(), "app");
        assert_eq!(RequestClass::Lambda.name(), "lambda");
        assert_eq!(RequestClass::LambdaCached.name(), "lambda-cached");
    }
}
