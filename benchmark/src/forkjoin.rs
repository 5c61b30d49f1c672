//! `runtime_forkjoin`: `rp_icilk` alone.  One driver floods binary
//! fork–join trees at the bottom priority level; a second driver pings the
//! top level once a millisecond, open loop, timed from when each ping was
//! due.

use crate::json::Metric;
use crate::rig::{self, LatRecorder, SpanLog, Window, WindowClock};
use crate::{Outcome, RunCfg};
use rp_core::trace::TraceEvent;
use rp_icilk::runtime::{Runtime, RuntimeConfig};
use rp_priority::Priority;
use rp_sim::histogram::LogHistogram;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Depth of every flood tree: 2¹⁰ leaves.
pub const TREE_DEPTH: u32 = 10;
/// `fcreate`/`ftouch` pairs per tree — the workload's operation.
pub const PAIRS_PER_TREE: u64 = (1 << TREE_DEPTH) - 1;
/// Iterations of the integer loop in each leaf.
const LEAF_ITERS: u32 = 64;
/// Workers and priority levels of the runtime.
pub const WORKERS: usize = 2;
/// Priority levels; the flood runs at 0, the ping at `LEVELS - 1`.
pub const LEVELS: usize = 4;
/// The ping's period.
const PING_PERIOD: Duration = Duration::from_millis(1);
/// Trees run in each set-up's warm-up (fixed count).
const WARMUP_TREES: u64 = 150;

/// A leaf's value: `LEAF_ITERS` rounds of an integer recurrence.
pub fn leaf(index: u64, salt: u64) -> u64 {
    let mut x = black_box(index ^ salt);
    for _ in 0..LEAF_ITERS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

/// The sum a tree must return, computed sequentially outside the runtime.
pub fn tree_sum(salt: u64) -> u64 {
    (0..1u64 << TREE_DEPTH).fold(0u64, |s, i| s.wrapping_add(leaf(i, salt)))
}

/// One subtree: fork the left half as a future, run the right half inline,
/// touch and add.  `index` is the subtree's first leaf.
pub fn tree(rt: &Arc<Runtime>, p: Priority, depth: u32, index: u64, salt: u64) -> u64 {
    if depth == 0 {
        return leaf(index, salt);
    }
    let rt2 = Arc::clone(rt);
    let left = rt.fcreate(p, move || tree(&rt2, p, depth - 1, index, salt));
    let right = tree(rt, p, depth - 1, index + (1 << (depth - 1)), salt);
    rt.ftouch(&left).wrapping_add(right)
}

/// Starts the workload's runtime.
pub fn start_runtime(traced: bool) -> Arc<Runtime> {
    Arc::new(Runtime::start(
        RuntimeConfig::new(WORKERS, LEVELS).with_tracing(traced),
    ))
}

/// Stops a runtime once every task has let go of its handle.
pub fn stop_runtime(rt: Arc<Runtime>) {
    let _ = rt.drain(Duration::from_secs(10));
    rp_apps::harness::shutdown_runtime(rt, Duration::from_secs(10));
}

/// A started runtime with the flood's expected tree sum.
pub struct FloodSystem {
    rt: Arc<Runtime>,
    salt: u64,
    expected: u64,
    attempted: u64,
    failed: u64,
    steals: u64,
}

impl FloodSystem {
    /// Starts a runtime and floods `warmup` trees through it.
    pub fn start(seed: u64, traced: bool, warmup: u64) -> FloodSystem {
        let mut sys = FloodSystem {
            rt: start_runtime(traced),
            salt: seed,
            expected: tree_sum(seed),
            attempted: 0,
            failed: 0,
            steals: 0,
        };
        for _ in 0..warmup {
            sys.one_tree();
        }
        sys
    }

    /// Floods `trees` trees and returns pairs per second.
    pub fn pairs_per_s(&mut self, trees: u64) -> f64 {
        let start = Instant::now();
        for _ in 0..trees {
            self.one_tree();
        }
        (trees * PAIRS_PER_TREE) as f64 / start.elapsed().as_secs_f64()
    }

    /// Stops the runtime.
    pub fn stop(self) {
        stop_runtime(self.rt);
    }

    /// Runs one tree from outside the runtime and checks its sum.
    fn one_tree(&mut self) {
        let bottom = self.rt.priority_by_index(0).expect("level 0");
        let (rt, salt) = (Arc::clone(&self.rt), self.salt);
        let root = self
            .rt
            .fcreate(bottom, move || tree(&rt, bottom, TREE_DEPTH, 0, salt));
        let sum = self.rt.ftouch_blocking(&root);
        self.attempted += PAIRS_PER_TREE;
        if sum != self.expected {
            self.failed += PAIRS_PER_TREE;
        }
        // A traced runtime's buffers are emptied tree by tree, as a
        // streaming consumer would, and the steals counted.
        if let Some(batch) = self.rt.drain_trace_events() {
            self.steals += batch
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Steal { .. }))
                .count() as u64;
        }
    }

    /// Floods on the calling thread while a second thread pings; returns
    /// the windows (pairs as operations, ping latency) and the generator's
    /// lateness.
    fn measure(
        &mut self,
        clock: &WindowClock,
        mut spans: Option<&mut SpanLog>,
    ) -> (Vec<Window>, LogHistogram) {
        let rt = Arc::clone(&self.rt);
        let clock_copy = *clock;
        std::thread::scope(|s| {
            let pinger = s.spawn(move || ping_loop(&rt, &clock_copy));
            let mut windows = rig::run_windows(clock, |i, _| {
                let start = Instant::now();
                self.one_tree();
                if let Some(log) = spans.as_deref_mut() {
                    log.record("icilk.tree", "", i, start);
                }
                (PAIRS_PER_TREE, None)
            });
            let (lats, late, bad) = pinger.join().expect("ping thread");
            for (w, mut lat) in windows.iter_mut().zip(lats) {
                (w.lat, w.p50_ns) = lat.take();
            }
            self.attempted += late.count();
            self.failed += bad;
            (windows, late)
        })
    }
}

/// The open-loop ping generator: one top-level task per `PING_PERIOD`,
/// latency measured from the due time.  Returns per-window latencies, the
/// lateness of each issue, and how many pings came back wrong.
fn ping_loop(rt: &Arc<Runtime>, clock: &WindowClock) -> (Vec<LatRecorder>, LogHistogram, u64) {
    let top = rt.priority_by_index(LEVELS - 1).expect("top level");
    let mut lats: Vec<LatRecorder> = (0..clock.count).map(|_| LatRecorder::default()).collect();
    let mut late = LogHistogram::new();
    let mut bad = 0u64;
    let end = clock.end_of(clock.count - 1);
    let mut k = 0u32;
    loop {
        let due = clock.t0 + PING_PERIOD * k;
        if due >= end {
            break;
        }
        // Plain sleep, no spinning up to the due time: a generator that
        // burns 15 % of a core looks CPU-bound to the kernel, which then
        // stops preempting the workers for it, and the latency turns
        // bimodal around its median (measured: p40 48 us, p60 160 us).
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let issued = Instant::now();
        let token = u64::from(k);
        let pong = rt.fcreate(top, move || token + 1);
        let answer = rt.ftouch_blocking(&pong);
        let done = Instant::now();
        if answer != token + 1 {
            bad += 1;
        }
        late.record((issued - due).as_nanos() as u64);
        let w = ((due - clock.t0).as_nanos() / clock.len.as_nanos()) as usize;
        lats[w.min(clock.count - 1)].record((done - due).as_nanos() as u64);
        k += 1;
    }
    (lats, late, bad)
}

/// Runs `runtime_forkjoin`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut sys: Option<FloodSystem> = None;
    let retire = |out: &mut Outcome, old: FloodSystem| {
        out.attempted += old.attempted;
        out.failed += old.failed;
        old.stop();
    };
    for _ in 0..cfg.setup_reps() {
        if let Some(old) = sys.take() {
            retire(&mut out, old);
        }
        let t = Instant::now();
        sys = Some(FloodSystem::start(cfg.seed, false, WARMUP_TREES));
        out.setups.push(t.elapsed().as_secs_f64());
    }
    let mut sys = sys.expect("at least one set-up");

    let usage0 = rig::Usage::now();
    if cfg.traced {
        let mut traced = FloodSystem::start(cfg.seed, true, WARMUP_TREES);
        traced.steals = 0;
        let mut spans = SpanLog::default();
        let (plain, traced_w) = rig::traced_pairs(cfg.seconds, |on, clock| {
            let (w, late) = if on {
                traced.measure(clock, Some(&mut spans))
            } else {
                sys.measure(clock, None)
            };
            out.late.merge(&late);
            w
        });
        let kops = traced_w.iter().map(|w| w.ops).sum::<u64>() as f64 / 1e3;
        out.layer.push(Metric::new(
            "icilk.steals_per_kop",
            traced.steals as f64 / kops.max(1e-9),
            "count",
        ));
        (out.windows, out.traced_windows, out.spans) = (plain, traced_w, spans);
        retire(&mut out, traced);
    } else {
        let clock = WindowClock::start(cfg.seconds, rig::WINDOWS);
        (out.windows, out.late) = sys.measure(&clock, None);
    }
    out.usage = rig::Usage::since(usage0);
    retire(&mut out, sys);
    out
}
