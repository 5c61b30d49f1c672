//! The proxy-server case study (§5.1).
//!
//! Clients request URLs; the server answers from a cache of page bodies and,
//! on a miss, fetches the page over (simulated) network I/O.  Priority
//! levels, lowest to highest: `main` (startup / shutdown), `logging`
//! (statistics), `fetch` (cache-miss fetches), `event` (the per-client event
//! loop handling requests) — the assignment that "favors response time for
//! client requests".

use crate::harness::{
    collect_trace, drive_open_loop, run_report, ExperimentConfig, ExperimentReport, LoadMode,
    OpenLoopConfig, OpenLoopOutcome, TraceHarvestError, TraceRunReport,
};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rp_icilk::runtime::{Runtime, SchedulerKind};
use rp_icilk::IFuture;
use rp_sim::stats::LatencyStats;
use rp_sim::workload::PageGenerator;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Priority level names, lowest first.
pub const LEVELS: [&str; 4] = ["main", "logging", "fetch", "event"];

/// The shared proxy state: the page cache and access statistics.
#[derive(Debug, Default)]
pub struct ProxyState {
    cache: RwLock<HashMap<String, Bytes>>,
    hits: Mutex<u64>,
    misses: Mutex<u64>,
}

impl ProxyState {
    /// Creates an empty proxy state.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Cache lookup.
    pub fn lookup(&self, url: &str) -> Option<Bytes> {
        self.cache.read().get(url).cloned()
    }

    /// Inserts a fetched page.
    pub fn insert(&self, url: String, body: Bytes) {
        self.cache.write().insert(url, body);
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (*self.hits.lock(), *self.misses.lock())
    }
}

/// A tiny checksum standing in for the response post-processing the real
/// proxy does (header rewriting etc.).
fn checksum(body: &[u8]) -> u64 {
    body.iter().fold(1469598103934665603u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(1099511628211)
    })
}

/// Handles one client request on the given runtime, returning a future for
/// the response checksum.  The event-loop part runs at `event` priority; a
/// cache miss delegates the fetch to a `fetch`-priority task that performs
/// simulated network I/O; a `logging` task records statistics.
pub fn handle_request(
    rt: &Arc<Runtime>,
    state: &Arc<ProxyState>,
    url: String,
    body_if_missed: Bytes,
) -> IFuture<u64> {
    let event = rt.priority_by_name("event").expect("level exists");
    let fetch = rt.priority_by_name("fetch").expect("level exists");
    let logging = rt.priority_by_name("logging").expect("level exists");
    let rt2 = Arc::clone(rt);
    let state2 = Arc::clone(state);
    rt.fcreate(event, move || {
        // Log the access at low priority (fire and forget).
        let state_log = Arc::clone(&state2);
        let hit = state_log.lookup(&url).is_some();
        rt2.fcreate(logging, move || {
            if hit {
                *state_log.hits.lock() += 1;
            } else {
                *state_log.misses.lock() += 1;
            }
        });
        match state2.lookup(&url) {
            Some(body) => checksum(&body),
            None => {
                // The page is fetched over simulated network I/O through an
                // io_future, so no worker blocks on the latency; the
                // io_future is created at the event loop's own priority so
                // touching it is not an inversion.  The follow-up work that
                // is *not* on the client's critical path — inserting the page
                // into the cache — runs at the lower `fetch` priority, which
                // is where the cache-miss machinery lives in the paper's
                // priority assignment.
                let io = rt2.submit_io(event, move || body_if_missed);
                let body = rt2.ftouch(&io);
                let rt3 = Arc::clone(&rt2);
                let state3 = Arc::clone(&state2);
                let url2 = url.clone();
                let body2 = body.clone();
                // Cache insertion happens at fetch priority, off the event
                // loop's critical path.
                rt3.fcreate(fetch, move || {
                    state3.insert(url2, body2);
                });
                checksum(&body)
            }
        }
    })
}

/// Runs the proxy workload in the mode `config.mode` selects and returns
/// the client-observed response-time samples.
pub fn drive(
    rt: &Arc<Runtime>,
    state: &Arc<ProxyState>,
    config: &ExperimentConfig,
) -> LatencyStats {
    match config.mode {
        LoadMode::Closed => drive_clients(rt, state, config),
        LoadMode::Open(open) => {
            let outcome = drive_clients_open(rt, state, config, &open);
            outcome.warn_if_lossy("proxy");
            rt.drain(Duration::from_secs(10));
            outcome.latency
        }
    }
}

/// Open-loop variant of [`drive_clients`]: requests arrive at the times of
/// a seeded Poisson process instead of being paced by previous replies.
/// The distinct-URL pool is sized like the closed loop's so cache behaviour
/// stays comparable across modes.
pub fn drive_clients_open(
    rt: &Arc<Runtime>,
    state: &Arc<ProxyState>,
    config: &ExperimentConfig,
    open: &OpenLoopConfig,
) -> OpenLoopOutcome {
    let mut pages = PageGenerator::new(256, 2048, config.seed);
    let distinct = (config.connections * config.requests_per_connection / 4).max(1);
    drive_open_loop(open, config.seed, |i| {
        let url = pages.url(i, distinct);
        let body = pages.page_for(&url);
        handle_request(rt, state, url, body)
    })
}

/// Runs the proxy workload on one runtime and returns the client-observed
/// response-time samples.
pub fn drive_clients(
    rt: &Arc<Runtime>,
    state: &Arc<ProxyState>,
    config: &ExperimentConfig,
) -> LatencyStats {
    let mut pages = PageGenerator::new(256, 2048, config.seed);
    let mut stats = LatencyStats::new();
    // Each "connection" issues a train of requests; distinct URL pool is a
    // quarter of the total so the cache gets real hits.
    let total = config.connections * config.requests_per_connection;
    let distinct = (total / 4).max(1);
    let mut in_flight: Vec<(Instant, IFuture<u64>)> = Vec::new();
    for i in 0..total {
        let url = pages.url(i, distinct);
        let body = pages.page_for(&url);
        let started = Instant::now();
        let fut = handle_request(rt, state, url, body);
        in_flight.push((started, fut));
        // Issue in small bursts per connection to create contention.
        if in_flight.len() >= config.connections.max(1) {
            for (started, fut) in in_flight.drain(..) {
                let _ = rt.ftouch_blocking(&fut);
                stats.record(started.elapsed());
            }
        }
    }
    for (started, fut) in in_flight.drain(..) {
        let _ = rt.ftouch_blocking(&fut);
        stats.record(started.elapsed());
    }
    rt.drain(Duration::from_secs(10));
    stats
}

/// Runs the proxy workload once on the I-Cilk scheduler with execution
/// tracing on — the `--trace` mode of the closed- and open-loop harness
/// paths — and checks Theorem 2.3 against the reconstructed cost graph.
///
/// # Errors
///
/// Returns a [`TraceHarvestError`] when the trace cannot be reconstructed.
pub fn run_traced(config: &ExperimentConfig) -> Result<TraceRunReport, TraceHarvestError> {
    let config = config.clone().traced();
    let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, &LEVELS));
    let state = ProxyState::new();
    // `drive` ends with a drain in both load modes, so the snapshot below
    // sees only completed tasks.
    let _client = drive(&rt, &state, &config);
    let report = collect_trace(&rt);
    crate::harness::shutdown_runtime(rt, Duration::from_secs(10));
    report
}

/// Runs the proxy case study on both schedulers and reports the comparison.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentReport {
    let mut reports = Vec::new();
    for scheduler in [SchedulerKind::ICilk, SchedulerKind::Baseline] {
        let rt = Arc::new(config.start_runtime(scheduler, &LEVELS));
        let state = ProxyState::new();
        let client = drive(&rt, &state, config);
        let report = run_report(scheduler, &rt, &LEVELS, client);
        reports.push(report);
        crate::harness::shutdown_runtime(rt, Duration::from_secs(10));
    }
    let baseline = reports.pop().expect("two runs");
    let icilk = reports.pop().expect("two runs");
    ExperimentReport {
        app: "proxy".into(),
        config: config.clone(),
        icilk,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::latency::LatencyModel;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            workers: 2,
            connections: 4,
            requests_per_connection: 3,
            io_latency: LatencyModel::Constant { micros: 300 },
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn cache_state_tracks_hits_and_misses() {
        let state = ProxyState::new();
        assert!(state.lookup("http://x/").is_none());
        state.insert("http://x/".into(), Bytes::from_static(b"abc"));
        assert_eq!(
            state.lookup("http://x/").unwrap(),
            Bytes::from_static(b"abc")
        );
        *state.hits.lock() += 1;
        assert_eq!(state.stats(), (1, 0));
    }

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        assert_eq!(checksum(b"hello"), checksum(b"hello"));
        assert_ne!(checksum(b"hello"), checksum(b"world"));
    }

    #[test]
    fn requests_complete_and_populate_cache() {
        let config = small_config();
        let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, &LEVELS));
        let state = ProxyState::new();
        let stats = drive_clients(&rt, &state, &config);
        assert_eq!(stats.count(), 12);
        assert!(!state.cache.read().is_empty());
        crate::harness::shutdown_runtime(rt, Duration::from_secs(10));
    }

    #[test]
    fn experiment_produces_ratios_for_both_schedulers() {
        let report = run_experiment(&small_config());
        assert_eq!(report.icilk.levels.len(), 4);
        assert_eq!(report.baseline.levels.len(), 4);
        assert!(report.icilk.client_response.count() > 0);
        assert!(report.responsiveness_ratio().is_some());
        assert!(!report.figure13_row().is_empty());
    }

    #[test]
    fn open_loop_requests_complete_and_measure() {
        let config = small_config().open_loop(crate::harness::OpenLoopConfig {
            arrival_rate_per_sec: 300.0,
            warmup_millis: 20,
            measure_millis: 80,
        });
        let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, &LEVELS));
        let state = ProxyState::new();
        let outcome = drive_clients_open(
            &rt,
            &state,
            &config,
            match &config.mode {
                crate::harness::LoadMode::Open(o) => o,
                _ => unreachable!(),
            },
        );
        assert!(outcome.issued > 0);
        assert_eq!(outcome.unfinished, 0, "all requests completed");
        assert_eq!(outcome.latency.count(), outcome.measured);
        assert!(!state.cache.read().is_empty(), "misses populated the cache");
        assert!(rt.drain(Duration::from_secs(5)));
        crate::harness::shutdown_runtime(rt, Duration::from_secs(10));
    }

    #[test]
    fn open_loop_experiment_produces_per_level_stats() {
        let config = small_config().open_loop(crate::harness::OpenLoopConfig {
            arrival_rate_per_sec: 300.0,
            warmup_millis: 10,
            measure_millis: 60,
        });
        let report = run_experiment(&config);
        assert!(report.icilk.client_response.count() > 0);
        assert!(report.baseline.client_response.count() > 0);
        // The event level saw every request on both schedulers.
        let event = LEVELS.iter().position(|&n| n == "event").unwrap();
        assert!(report.icilk.levels[event].response.count() > 0);
        assert!(report.baseline.levels[event].response.count() > 0);
    }
}
