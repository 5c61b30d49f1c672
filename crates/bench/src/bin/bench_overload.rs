//! Overload benchmark: drive the socket front end **past saturation** and
//! show that bound-driven admission control degrades gracefully where the
//! unprotected server collapses.
//!
//! Usage: `bench_overload [--quick] [--out PATH]`
//!
//! The run calibrates first (a gentle lambda-only run estimates per-request
//! service time, hence the saturation rate; an app-only run establishes the
//! protected class's baseline tail), then sweeps a lambda *flood* at
//! multiples of saturation — 2×, 5×, 10× — with admission control off and
//! on ([`AdmissionConfig::protect_app`]): the app class is exempt, both
//! lambda classes carry a response-time budget derived from the calibrated
//! baseline.  A high-priority app load runs concurrently with every flood,
//! and both sides run the resilient client driver (deadlines, `Overloaded`
//! retries, reconnects), so client-side accounting distinguishes answered /
//! rejected / timed-out outcomes exactly.
//!
//! A final traced run repeats the 2× flood with shedding on and checks the
//! reconstructed cost DAG against Theorem 2.3.
//!
//! Every overload point is scraped concurrently over the **admin plane**
//! (20ms polls), which must answer every scrape even at 10× saturation —
//! that is the point of a plane that never enters the runtime.  The
//! report gains a `telemetry` section with the scrape tally.
//!
//! The process exits non-zero only for genuine protection failures:
//!
//! * an **exempt class missed its budget** — the app class's measured p95
//!   exceeded its (generous, calibration-derived) budget, or any app
//!   request was shed, in a run with shedding enabled;
//! * a **Theorem 2.3 counterexample** in the traced overload run;
//! * an **unanswered or incoherent admin scrape** during the flood;
//! * a **wire/process counter mismatch**: after a drained overload point,
//!   the last scrape disagrees with the server's in-process snapshot.
//!
//! A collapsing *unprotected* baseline is expected output, not a failure.

use bytes::Bytes;
use rp_apps::harness::{
    collect_trace, drive_socket_open_with, OpenLoopConfig, OpenLoopOutcome, ResilienceConfig,
    ResponseVerdict, RetryPolicy, SocketLoadConfig,
};
use rp_bench::telemetry::{reconcile, telemetry_json, ScrapeTally, Scraper};
use rp_net::admission::AdmissionConfig;
use rp_net::protocol::{body_is_overloaded, encode_request, AppOp, Request, RequestClass};
use rp_net::server::{NetServer, NetServerConfig};
use std::fmt::Write as _;
use std::time::Duration;

const SEED: u64 = 0x0BAD_10AD;

/// The λ⁴ᵢ program the flood submits: full parse → infer → run per request
/// (uncached), so each flood request costs a whole pipeline pass.
const LAMBDA_SOURCE: &str = "\
priorities: lo < hi
program bench-overload : nat
main @ lo:
  t <- cmd[lo]{fcreate[worker; nat]{ret 21}};
  v <- cmd[lo]{ftouch t};
  ret (v + v)
";

/// Deterministic page body for the `i`-th proxy request.
fn page_body(i: usize) -> Bytes {
    let mut body = Vec::with_capacity(256);
    let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    while body.len() < 256 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        body.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(body)
}

/// The high-priority app mix: proxy fetches, email ops, jserver jobs.
fn app_body(i: usize, users: usize, msgs: usize) -> Vec<u8> {
    let k = i / 4;
    let req = match i % 4 {
        0 => Request::App(AppOp::ProxyGet {
            url: format!("http://origin/page-{}", k % 64),
            body_if_missed: page_body(k % 64),
        }),
        1 => Request::App(AppOp::EmailCompress {
            user: (k % users) as u32,
            msg: ((k / users) % msgs) as u32,
        }),
        2 => Request::App(AppOp::EmailPrint {
            user: (k % users) as u32,
            msg: ((k / users) % msgs) as u32,
        }),
        _ => Request::App(AppOp::JserverJob {
            class: (k % 4) as u8,
            seed: i as u64,
        }),
    };
    encode_request(&req)
}

fn lambda_body(_i: usize) -> Vec<u8> {
    encode_request(&Request::Lambda {
        source: LAMBDA_SOURCE.to_string(),
    })
}

fn classify(body: &[u8]) -> ResponseVerdict {
    if body_is_overloaded(body) {
        ResponseVerdict::Overloaded
    } else {
        ResponseVerdict::Answered
    }
}

/// One driver's accounting, reduced to the JSON-facing numbers.
struct Side {
    issued: usize,
    measured: usize,
    unfinished: usize,
    rejected: usize,
    timed_out: usize,
    retries: usize,
    reconnects: usize,
    p50_micros: Option<f64>,
    p95_micros: Option<f64>,
}

impl Side {
    fn from(outcome: &OpenLoopOutcome) -> Side {
        Side {
            issued: outcome.issued,
            measured: outcome.measured,
            unfinished: outcome.unfinished,
            rejected: outcome.rejected,
            timed_out: outcome.timed_out,
            retries: outcome.retries,
            reconnects: outcome.reconnects,
            p50_micros: outcome.latency.median().map(|ns| ns / 1_000.0),
            p95_micros: outcome.latency.p95().map(|ns| ns / 1_000.0),
        }
    }
}

struct OverloadRow {
    multiplier: f64,
    shedding: bool,
    lambda_rate: f64,
    app: Side,
    lambda: Side,
    shed_per_class: [u64; 3],
    shedding_active: [bool; 3],
}

struct Windows {
    warmup_millis: u64,
    measure_millis: u64,
}

fn server_config(
    workers: usize,
    tracing: bool,
    admission: Option<AdmissionConfig>,
) -> NetServerConfig {
    NetServerConfig {
        workers,
        tracing,
        seed: SEED,
        admission: admission.unwrap_or_default(),
        ..NetServerConfig::default()
    }
}

/// A single-class run against a fresh, unprotected server — used for
/// calibration.
fn run_single(
    workers: usize,
    rate: f64,
    win: &Windows,
    encode: impl Fn(usize) -> Vec<u8> + Send + Sync,
) -> Side {
    let server = NetServer::start(server_config(workers, false, None)).expect("server starts");
    let socket = SocketLoadConfig {
        open: OpenLoopConfig {
            arrival_rate_per_sec: rate,
            warmup_millis: win.warmup_millis,
            measure_millis: win.measure_millis,
        },
        clients: 2,
        resilience: ResilienceConfig {
            deadline: Some(Duration::from_secs(2)),
            ..ResilienceConfig::default()
        },
    };
    let outcome = drive_socket_open_with(&socket, SEED, server.addr(), encode, classify)
        .expect("calibration");
    server.drain(Duration::from_secs(10));
    server.shutdown();
    Side::from(&outcome)
}

/// One overload point: a lambda flood at `lambda_rate` concurrent with the
/// high-priority app load, against a server with admission control off or
/// on.  Both drivers run resilient clients; the app side retries
/// `Overloaded` answers (it should never see one — the class is exempt).
#[allow(clippy::too_many_arguments)]
fn run_overload(
    workers: usize,
    multiplier: f64,
    shedding: bool,
    app_rate: f64,
    lambda_rate: f64,
    app_budget: Duration,
    lambda_budget: Duration,
    win: &Windows,
    tally: &mut ScrapeTally,
    mismatches: &mut Vec<String>,
) -> OverloadRow {
    let admission = shedding.then(|| AdmissionConfig::protect_app(app_budget, lambda_budget));
    let config = server_config(workers, false, admission);
    let (users, msgs) = (config.email_users, config.email_messages);
    let server = NetServer::start(config).expect("server starts");
    let addr = server.addr();
    // The admin plane must answer every scrape even while the flood is
    // drowning the data plane — that is the point of a separate plane.
    let scraper = Scraper::start(server.admin_addr(), Duration::from_millis(20));

    let app_socket = SocketLoadConfig {
        open: OpenLoopConfig {
            arrival_rate_per_sec: app_rate,
            warmup_millis: win.warmup_millis,
            measure_millis: win.measure_millis,
        },
        clients: 2,
        resilience: ResilienceConfig {
            deadline: Some(Duration::from_secs(1)),
            ..ResilienceConfig::robust(Some(Duration::from_secs(1)))
        },
    };
    // The flood takes rejections as final (no retries — retrying would
    // amplify the overload) and abandons requests the drowning server
    // never answers, so the run's tail stays bounded.
    let lambda_socket = SocketLoadConfig {
        open: OpenLoopConfig {
            arrival_rate_per_sec: lambda_rate,
            warmup_millis: win.warmup_millis,
            measure_millis: win.measure_millis,
        },
        clients: 4,
        resilience: ResilienceConfig {
            deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            reconnect: true,
        },
    };

    let (app_outcome, lambda_outcome) = std::thread::scope(|scope| {
        let app = scope.spawn(|| {
            drive_socket_open_with(
                &app_socket,
                SEED ^ 0xA44,
                addr,
                |i| app_body(i, users, msgs),
                classify,
            )
        });
        let lambda =
            drive_socket_open_with(&lambda_socket, SEED ^ 0x10AD, addr, lambda_body, classify);
        (app.join().expect("app driver thread"), lambda)
    });
    let app_outcome = app_outcome.expect("app driver");
    let lambda_outcome = lambda_outcome.expect("lambda driver");

    let drained = server.drain(Duration::from_secs(10));
    let stats = server.stats();
    let run_tally = scraper.stop();
    // Only a drained server is quiescent, so only then must the wire view
    // match the process view exactly.
    if drained {
        if let Some(exp) = &run_tally.last {
            for miss in reconcile(exp, &stats) {
                mismatches.push(format!("{multiplier}x shed={shedding}: {miss}"));
            }
        }
    }
    tally.absorb(run_tally);
    let admission = server.admission();
    let row = OverloadRow {
        multiplier,
        shedding,
        lambda_rate,
        app: Side::from(&app_outcome),
        lambda: Side::from(&lambda_outcome),
        shed_per_class: stats.shed_per_class,
        shedding_active: admission.shedding,
    };
    server.shutdown();
    row
}

struct TracedSummary {
    requests: usize,
    threads: usize,
    io_threads: usize,
    counterexamples: usize,
    observed_hypotheses_held: usize,
}

/// The traced overload run: shedding on, 2× flood, runtime tracing on —
/// the reconstructed cost DAG must satisfy Theorem 2.3 even while the
/// admission controller is actively shedding.
fn run_traced(
    workers: usize,
    lambda_rate: f64,
    app_budget: Duration,
    lambda_budget: Duration,
) -> TracedSummary {
    let admission = AdmissionConfig::protect_app(app_budget, lambda_budget);
    let server = NetServer::start(server_config(workers, true, Some(admission)))
        .expect("traced server starts");
    let socket = SocketLoadConfig {
        open: OpenLoopConfig {
            arrival_rate_per_sec: lambda_rate,
            warmup_millis: 0,
            measure_millis: 120,
        },
        clients: 2,
        resilience: ResilienceConfig {
            deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            reconnect: true,
        },
    };
    let outcome =
        drive_socket_open_with(&socket, SEED ^ 0x77, server.addr(), lambda_body, classify)
            .expect("traced overload run");
    assert!(
        server.drain(Duration::from_secs(30)),
        "traced server must drain before the trace snapshot"
    );
    let report = collect_trace(server.runtime()).expect("trace reconstructs");
    let summary = TracedSummary {
        requests: outcome.issued,
        threads: report.run.dag.thread_count(),
        io_threads: report.run.tasks.iter().filter(|t| t.is_io).count(),
        counterexamples: report.counterexamples().len(),
        observed_hypotheses_held: report.observed_hypotheses_held(),
    };
    server.shutdown();
    summary
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "null".to_string(),
    }
}

fn side_json(s: &Side) -> String {
    format!(
        "{{\"issued\": {}, \"measured\": {}, \"unfinished\": {}, \"rejected\": {}, \"timed_out\": {}, \"retries\": {}, \"reconnects\": {}, \"p50_micros\": {}, \"p95_micros\": {}}}",
        s.issued,
        s.measured,
        s.unfinished,
        s.rejected,
        s.timed_out,
        s.retries,
        s.reconnects,
        fmt_opt(s.p50_micros),
        fmt_opt(s.p95_micros),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_overload.json".to_string());

    let workers = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4);
    let win = if quick {
        Windows {
            warmup_millis: 30,
            measure_millis: 120,
        }
    } else {
        Windows {
            warmup_millis: 100,
            measure_millis: 400,
        }
    };
    let multipliers: &[f64] = if quick {
        &[2.0, 10.0]
    } else {
        &[2.0, 5.0, 10.0]
    };
    let app_rate = if quick { 150.0 } else { 300.0 };

    println!("bench_overload: overload sweep ({workers} workers, seed {SEED:#x})");

    // Calibration 1: lambda service time at a gentle rate → saturation.
    let cal = run_single(workers, if quick { 25.0 } else { 40.0 }, &win, lambda_body);
    let service_micros = cal.p50_micros.unwrap_or(5_000.0).max(100.0);
    let saturation = (workers as f64 * 1_000_000.0 / service_micros).clamp(50.0, 2_000.0);
    // Calibration 2: the protected class's healthy tail, alone on the box.
    let config = server_config(workers, false, None);
    let (users, msgs) = (config.email_users, config.email_messages);
    let base = run_single(workers, app_rate, &win, |i| app_body(i, users, msgs));
    let app_base_p95 = base.p95_micros.unwrap_or(10_000.0).max(500.0);

    // Budgets: generous for the exempt class (missing it means protection
    // failed outright), tight for the flood class (that is what sheds).
    let app_budget = Duration::from_micros((app_base_p95 * 10.0).max(100_000.0) as u64);
    let lambda_budget = Duration::from_micros((service_micros * 4.0).max(10_000.0) as u64);
    println!(
        "calibrated: lambda service ~{service_micros:.0}µs → saturation ~{saturation:.0}/s; app p95 baseline {app_base_p95:.0}µs; budgets app {app_budget:?} (exempt) lambda {lambda_budget:?}"
    );

    let mut rows = Vec::new();
    let mut tally = ScrapeTally::default();
    let mut mismatches = Vec::new();
    for &multiplier in multipliers {
        for shedding in [false, true] {
            let row = run_overload(
                workers,
                multiplier,
                shedding,
                app_rate,
                saturation * multiplier,
                app_budget,
                lambda_budget,
                &win,
                &mut tally,
                &mut mismatches,
            );
            println!(
                "{:>4.0}x shed={:<5} app p95 {:>9}µs (timeouts {:>3})  lambda p95 {:>9}µs rejected {:>5}/{:<5} shed {:?}",
                row.multiplier,
                row.shedding,
                fmt_opt(row.app.p95_micros),
                row.app.timed_out,
                fmt_opt(row.lambda.p95_micros),
                row.lambda.rejected,
                row.lambda.issued,
                row.shed_per_class,
            );
            rows.push(row);
        }
    }

    println!(
        "telemetry: {} scrapes under flood ({} failed), {} monotone / {} quantile violations, {} reconcile mismatches",
        tally.scrapes,
        tally.failures,
        tally.monotone_violations,
        tally.quantile_violations,
        mismatches.len(),
    );

    let traced = run_traced(workers, saturation * 2.0, app_budget, lambda_budget);
    println!(
        "traced: {} requests → {} threads ({} io), hypotheses held on {}, counterexamples {}",
        traced.requests,
        traced.threads,
        traced.io_threads,
        traced.observed_hypotheses_held,
        traced.counterexamples,
    );

    // Verdict: the exempt class must hold its budget — and never be shed —
    // whenever shedding is enabled.
    let mut exempt_misses = Vec::new();
    for row in rows.iter().filter(|r| r.shedding) {
        if let Some(p95) = row.app.p95_micros {
            if p95 > app_budget.as_micros() as f64 {
                exempt_misses.push(format!(
                    "{}x: app p95 {p95:.0}µs > budget {}µs",
                    row.multiplier,
                    app_budget.as_micros()
                ));
            }
        }
        let app_shed = row.shed_per_class[RequestClass::App.tag() as usize];
        if app_shed > 0 {
            exempt_misses.push(format!(
                "{}x: {app_shed} exempt app request(s) shed",
                row.multiplier
            ));
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"kernel\": \"bench_overload\",\n");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"warmup_millis\": {},", win.warmup_millis);
    let _ = writeln!(json, "  \"measure_millis\": {},", win.measure_millis);
    json.push_str("  \"calibration\": {\n");
    let _ = writeln!(json, "    \"lambda_service_micros\": {service_micros:.1},");
    let _ = writeln!(json, "    \"saturation_rate_per_sec\": {saturation:.1},");
    let _ = writeln!(json, "    \"app_rate_per_sec\": {app_rate:.1},");
    let _ = writeln!(json, "    \"app_p95_baseline_micros\": {app_base_p95:.1},");
    let _ = writeln!(
        json,
        "    \"app_budget_micros\": {},",
        app_budget.as_micros()
    );
    let _ = writeln!(
        json,
        "    \"lambda_budget_micros\": {}",
        lambda_budget.as_micros()
    );
    json.push_str("  },\n  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"multiplier\": {:.1}, \"shedding\": {}, \"lambda_rate_per_sec\": {:.1}, \"app\": {}, \"lambda\": {}, \"shed_per_class\": [{}, {}, {}], \"shedding_active\": [{}, {}, {}]}}{}",
            row.multiplier,
            row.shedding,
            row.lambda_rate,
            side_json(&row.app),
            side_json(&row.lambda),
            row.shed_per_class[0],
            row.shed_per_class[1],
            row.shed_per_class[2],
            row.shedding_active[0],
            row.shedding_active[1],
            row.shedding_active[2],
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"traced\": {\n");
    let _ = writeln!(json, "    \"requests\": {},", traced.requests);
    let _ = writeln!(json, "    \"threads\": {},", traced.threads);
    let _ = writeln!(json, "    \"io_threads\": {},", traced.io_threads);
    let _ = writeln!(
        json,
        "    \"observed_hypotheses_held\": {},",
        traced.observed_hypotheses_held
    );
    let _ = writeln!(json, "    \"counterexamples\": {}", traced.counterexamples);
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"telemetry\": {},",
        telemetry_json(&tally, mismatches.len() as u64)
    );
    let _ = writeln!(json, "  \"exempt_budget_misses\": {}", exempt_misses.len());
    json.push_str("}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    let mut failed = false;
    if !exempt_misses.is_empty() {
        for miss in &exempt_misses {
            eprintln!("FAIL: exempt class missed its budget — {miss}");
        }
        failed = true;
    }
    if traced.counterexamples > 0 {
        eprintln!(
            "FAIL: {} Theorem 2.3 counterexample(s) in the traced overload run",
            traced.counterexamples
        );
        failed = true;
    }
    if !tally.clean() {
        eprintln!(
            "FAIL: telemetry incoherent under flood — {} scrape failure(s), {} monotone violation(s), {} quantile inversion(s)",
            tally.failures, tally.monotone_violations, tally.quantile_violations
        );
        failed = true;
    }
    for miss in &mismatches {
        eprintln!("FAIL: wire/process counter mismatch — {miss}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
