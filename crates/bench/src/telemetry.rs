//! Mid-sweep telemetry scraping for `bench_overload`.
//!
//! While a bench drives load at the data plane, a [`Scraper`] polls the
//! same server's admin plane and checks, poll over poll, that the
//! telemetry it serves is *coherent*: every scrape is answered, the
//! wire counters are monotone, and the latency quantiles are ordered.
//! After the run drains, [`reconcile`] compares a final scrape against
//! the server's in-process snapshot — the wire view and the process
//! view must agree exactly.  The binary folds the resulting
//! [`ScrapeTally`] into its JSON report as a `telemetry` section and
//! exits non-zero on any violation, so CI catches a telemetry-plane
//! regression the same way it catches a Theorem 2.3 counterexample.

use rp_net::protocol::{AdminOp, MetricsFormat, RequestClass};
use rp_net::server::NetStatsSnapshot;
use rp_net::telemetry::scrape;
use rp_tools::prom::Exposition;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one admin scrape may take before it counts as failed.
/// Generous: the admin plane bypasses the runtime, so even a drowning
/// server answers in microseconds — but CI boxes stall arbitrarily.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Counters that must never decrease from one scrape to the next.
const MONOTONE: &[&str] = &[
    "rp_frames_received_total",
    "rp_responses_sent_total",
    "rp_decode_errors_total",
    "rp_admin_requests_total",
    "rp_cache_hits_total",
    "rp_cache_misses_total",
];

/// What the scraper saw over one run.
#[derive(Debug, Default)]
pub struct ScrapeTally {
    /// Scrapes answered with a parseable exposition.
    pub scrapes: u64,
    /// Scrapes that errored or timed out.
    pub failures: u64,
    /// Counter decreases observed between consecutive scrapes.
    pub monotone_violations: u64,
    /// Quantile inversions (p50 > p95 or p95 > p99) in any scrape.
    pub quantile_violations: u64,
    /// The last successful scrape, parsed.
    pub last: Option<Exposition>,
}

impl ScrapeTally {
    /// Folds another tally into this one (the `last` of the later run
    /// wins).
    pub fn absorb(&mut self, other: ScrapeTally) {
        self.scrapes += other.scrapes;
        self.failures += other.failures;
        self.monotone_violations += other.monotone_violations;
        self.quantile_violations += other.quantile_violations;
        if other.last.is_some() {
            self.last = other.last;
        }
    }

    /// Whether every check passed.
    pub fn clean(&self) -> bool {
        self.failures == 0 && self.monotone_violations == 0 && self.quantile_violations == 0
    }
}

/// Checks p50 ≤ p95 ≤ p99 for every labelled series of `metric`.
fn quantile_inversions(exp: &Exposition, metric: &str, label: &str) -> u64 {
    let mut bad = 0;
    for value in exp.label_values(metric, label) {
        let q = |quantile: &str| exp.get(metric, &[(label, &value), ("quantile", quantile)]);
        if let (Some(p50), Some(p95), Some(p99)) = (q("0.5"), q("0.95"), q("0.99")) {
            if p50 > p95 || p95 > p99 {
                bad += 1;
            }
        }
    }
    bad
}

fn check_exposition(prev: Option<&Exposition>, cur: &Exposition, tally: &mut ScrapeTally) {
    if let Some(prev) = prev {
        for name in MONOTONE {
            if let (Some(before), Some(now)) = (prev.value(name), cur.value(name)) {
                if now < before {
                    tally.monotone_violations += 1;
                }
            }
        }
    }
    tally.quantile_violations += quantile_inversions(cur, "rp_request_latency_ns", "class");
    tally.quantile_violations += quantile_inversions(cur, "rp_level_response_ns", "level");
}

/// A background poller of a server's admin plane.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ScrapeTally>,
}

impl Scraper {
    /// Starts polling `admin` every `interval` until [`stop`](Self::stop).
    pub fn start(admin: SocketAddr, interval: Duration) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-telemetry-scraper".into())
            .spawn(move || {
                let mut tally = ScrapeTally::default();
                while !stop2.load(Ordering::SeqCst) {
                    scrape_once(admin, &mut tally);
                    std::thread::sleep(interval);
                }
                // One parting scrape so even the shortest run tallies one.
                scrape_once(admin, &mut tally);
                tally
            })
            .expect("spawning the telemetry scraper");
        Scraper { stop, handle }
    }

    /// Stops the poller and returns what it saw.
    pub fn stop(self) -> ScrapeTally {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("telemetry scraper thread")
    }
}

fn scrape_once(admin: SocketAddr, tally: &mut ScrapeTally) {
    match scrape(
        admin,
        AdminOp::Metrics {
            format: MetricsFormat::Prometheus,
        },
        SCRAPE_TIMEOUT,
    ) {
        // A scrape that comes back malformed counts as a failure just like
        // one that never comes back: both mean the wire view is unusable.
        Ok(text) => match Exposition::parse(&text) {
            Ok(cur) => {
                let prev = tally.last.take();
                check_exposition(prev.as_ref(), &cur, tally);
                tally.scrapes += 1;
                tally.last = Some(cur);
            }
            Err(_) => tally.failures += 1,
        },
        Err(_) => tally.failures += 1,
    }
}

/// Compares the wire view (a post-drain scrape) against the process view
/// (`NetServer::stats`), returning one message per disagreement.  After a
/// drain both sides are quiescent, so the match must be exact.
pub fn reconcile(exp: &Exposition, stats: &NetStatsSnapshot) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mut check = |name: &str, wire: Option<f64>, process: u64| match wire {
        Some(w) if w == process as f64 => {}
        Some(w) => mismatches.push(format!("{name}: wire {w} != process {process}")),
        None => mismatches.push(format!("{name}: missing from the exposition")),
    };
    check(
        "rp_frames_received_total",
        exp.value("rp_frames_received_total"),
        stats.frames_received,
    );
    check(
        "rp_responses_sent_total",
        exp.value("rp_responses_sent_total"),
        stats.responses_sent,
    );
    check(
        "rp_decode_errors_total",
        exp.value("rp_decode_errors_total"),
        stats.decode_errors,
    );
    for class in RequestClass::ALL {
        check(
            &format!("rp_requests_total{{class=\"{}\"}}", class.name()),
            exp.get("rp_requests_total", &[("class", class.name())]),
            stats.per_class[class.tag() as usize],
        );
    }
    mismatches
}

/// Renders the `telemetry` section of a bench JSON report.  `mismatches`
/// is the total wire/process reconciliation failures across the sweep.
pub fn telemetry_json(tally: &ScrapeTally, mismatches: u64) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "    \"scrapes\": {},", tally.scrapes);
    let _ = writeln!(json, "    \"scrape_failures\": {},", tally.failures);
    let _ = writeln!(
        json,
        "    \"monotone_violations\": {},",
        tally.monotone_violations
    );
    let _ = writeln!(
        json,
        "    \"quantile_violations\": {},",
        tally.quantile_violations
    );
    let _ = writeln!(json, "    \"reconcile_mismatches\": {mismatches},");
    json.push_str("    \"final_p95_latency_micros\": {");
    if let Some(exp) = &tally.last {
        let mut first = true;
        for class in RequestClass::ALL {
            let p95 = exp.get(
                "rp_request_latency_ns",
                &[("class", class.name()), ("quantile", "0.95")],
            );
            let _ = write!(
                json,
                "{}\"{}\": {}",
                if first { "" } else { ", " },
                class.name(),
                p95.map_or("null".to_string(), |ns| format!("{:.1}", ns / 1_000.0)),
            );
            first = false;
        }
    }
    json.push_str("}\n  }");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_inversions_are_counted_per_series() {
        let exp = Exposition::parse(
            "rp_request_latency_ns{class=\"app\",quantile=\"0.5\"} 100\n\
             rp_request_latency_ns{class=\"app\",quantile=\"0.95\"} 50\n\
             rp_request_latency_ns{class=\"app\",quantile=\"0.99\"} 200\n\
             rp_request_latency_ns{class=\"lambda\",quantile=\"0.5\"} 10\n\
             rp_request_latency_ns{class=\"lambda\",quantile=\"0.95\"} 20\n\
             rp_request_latency_ns{class=\"lambda\",quantile=\"0.99\"} 30\n",
        )
        .expect("fixture exposition scans");
        assert_eq!(
            quantile_inversions(&exp, "rp_request_latency_ns", "class"),
            1
        );
    }

    #[test]
    fn monotone_regressions_are_flagged() {
        let a = Exposition::parse("rp_frames_received_total 10\n").expect("scans");
        let b = Exposition::parse("rp_frames_received_total 9\n").expect("scans");
        let mut tally = ScrapeTally::default();
        check_exposition(Some(&a), &b, &mut tally);
        assert_eq!(tally.monotone_violations, 1);
    }
}
