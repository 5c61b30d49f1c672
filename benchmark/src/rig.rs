//! The measurement rig shared by every workload: window estimators, the
//! process probes read from `/proc`, the counting allocator and the
//! benchmark-side span log.

use rp_sim::histogram::LogHistogram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Measured windows of an untraced run.  Every end-to-end timing metric is
/// the `second_best` of the per-window values.
pub const WINDOWS: usize = 10;
/// Measured windows of a traced run; the rest of its time goes to the
/// direct-call probes.
pub const TRACED_WINDOWS: usize = 4;
/// How often set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

// ---------------------------------------------------------------------------
// Estimators
// ---------------------------------------------------------------------------

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The second best of `values` (the only one, if there is one); `0.0` for
/// an empty slice.
///
/// The host's noise is one-sided: for seconds to minutes at a time a window
/// runs up to 1.7 times slower, never faster.  The median over ten windows
/// lands in such a phase as soon as it covers half the run; the second best
/// window holds as long as two windows escape it, and unlike the best one
/// it does not rest on a single window.  Ten runs of the same code in a
/// noisy hour, quartile distance over median of the worst cell: 29 % for
/// the median, 25 % for the third best, 17 % for the second best, 16 % for
/// the best window; in a calmer hour 13 %, 7 %, 6 %, 6 % (NOISE.md).
pub fn second_best(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if higher_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(0.0)
}

/// `(max − min) / median` of `values`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med * 100.0
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (may be lower than asked).
    pub q: f64,
    /// Its value, in the histogram's unit.
    pub value: f64,
    /// Samples strictly beyond the reported percentile.
    pub beyond: u64,
}

/// The `want`-th percentile of `hist` if at least ten samples lie beyond it,
/// else the highest of 95, 90, 75, 50 that has ten samples beyond it (the
/// median as a last resort).  `None` for an empty histogram.
pub fn supported_tail(hist: &LogHistogram, want: f64) -> Option<Tail> {
    let n = hist.count();
    if n == 0 {
        return None;
    }
    let beyond = |q: f64| n - ((q / 100.0) * n as f64).ceil().min(n as f64) as u64;
    let q = [want, 95.0, 90.0, 75.0]
        .into_iter()
        .filter(|&q| q <= want)
        .find(|&q| beyond(q) >= 10)
        .unwrap_or(50.0);
    Some(Tail {
        q,
        value: hist.percentile(q)?,
        beyond: beyond(q),
    })
}

/// Latency samples of the window being measured.  The median is exact
/// (the log histogram's 1.6 % buckets would make it read the same on most
/// runs); the samples are dropped when the window closes, so memory is
/// bounded by one window, and the histogram keeps the tails.
#[derive(Debug, Default)]
pub struct LatRecorder {
    hist: LogHistogram,
    samples: Vec<u64>,
}

impl LatRecorder {
    /// Records one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.hist.record(ns);
        self.samples.push(ns);
    }

    /// The exact median of the samples so far, which are then forgotten,
    /// together with their histogram.  The median of no samples is 0.
    pub fn take(&mut self) -> (LogHistogram, f64) {
        let n = self.samples.len();
        let p50 = if n == 0 {
            0.0
        } else {
            let (below, mid, _) = self.samples.select_nth_unstable(n / 2);
            let mid = *mid as f64;
            match (n % 2, below.iter().max()) {
                (0, Some(&low)) => (low as f64 + mid) / 2.0,
                _ => mid,
            }
        };
        self.samples.clear();
        (std::mem::take(&mut self.hist), p50)
    }
}

/// One measured window: how many verified operations completed, at what
/// rate, and the latency of the workload's latency-sensitive operation.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Verified operations completed.
    pub ops: u64,
    /// Operations per second (the window ends at an operation boundary, so
    /// this is `ops` over the window's real length, not its nominal one).
    pub ops_per_s: f64,
    /// Latency samples in nanoseconds, bucketed (for the tails).
    pub lat: LogHistogram,
    /// Exact median latency in nanoseconds; 0 without samples.
    pub p50_ns: f64,
}

impl Window {
    /// Closes a window that ran for `secs` seconds.
    pub fn close(ops: u64, secs: f64, lat: &mut LatRecorder) -> Window {
        let (lat, p50_ns) = lat.take();
        Window {
            ops,
            ops_per_s: if secs > 0.0 { ops as f64 / secs } else { 0.0 },
            lat,
            p50_ns,
        }
    }

    /// Folds a concurrent driver's view of the same window into this one:
    /// counts and rates add, latency samples pool, and the median becomes
    /// the two drivers' medians weighted by their sample counts.
    pub fn absorb(&mut self, other: &Window) {
        let (n, m) = (self.lat.count() as f64, other.lat.count() as f64);
        if n + m > 0.0 {
            self.p50_ns = (self.p50_ns * n + other.p50_ns * m) / (n + m);
        }
        self.ops += other.ops;
        self.ops_per_s += other.ops_per_s;
        self.lat.merge(&other.lat);
    }
}

/// The nominal window grid shared by the drivers of one run.
#[derive(Debug, Clone, Copy)]
pub struct WindowClock {
    /// Start of the first window.
    pub t0: Instant,
    /// Nominal window length.
    pub len: Duration,
    /// Number of windows.
    pub count: usize,
}

impl WindowClock {
    /// A grid of `count` windows filling `seconds`, starting now.
    pub fn start(seconds: f64, count: usize) -> WindowClock {
        WindowClock {
            t0: Instant::now(),
            len: Duration::from_secs_f64(seconds / count as f64),
            count,
        }
    }

    /// The nominal end of window `w`.
    pub fn end_of(&self, w: usize) -> Instant {
        self.t0 + self.len * (w as u32 + 1)
    }
}

/// The window plan of a traced run: `TRACED_WINDOWS` pairs of half-length
/// windows, the first of each pair on the system as the end-to-end run has
/// it, the second with tracing, spans and allocation counting on.  The two
/// alternate so that their ratio is not a drift artefact.  Returns the
/// untraced and the traced windows.
pub fn traced_pairs(
    seconds: f64,
    mut window: impl FnMut(bool, &WindowClock) -> Vec<Window>,
) -> (Vec<Window>, Vec<Window>) {
    let window_s = seconds / (2 * WINDOWS) as f64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_WINDOWS {
        plain.extend(window(false, &WindowClock::start(window_s, 1)));
        count_allocs(true);
        traced.extend(window(true, &WindowClock::start(window_s, 1)));
        count_allocs(false);
    }
    (plain, traced)
}

/// Runs `op` in a closed loop on the calling thread across the clock's
/// windows.  `op` receives the running operation index and returns how many
/// operations it completed plus an optional latency sample in nanoseconds.
/// A window ends at the first operation boundary past its nominal end.
pub fn run_windows(
    clock: &WindowClock,
    mut op: impl FnMut(u64, usize) -> (u64, Option<u64>),
) -> Vec<Window> {
    let mut windows = Vec::with_capacity(clock.count);
    let mut start = Instant::now();
    let mut i = 0u64;
    for w in 0..clock.count {
        let nominal_end = clock.end_of(w);
        let (mut done, mut lat) = (0u64, LatRecorder::default());
        let end = loop {
            let (ops, sample) = op(i, w);
            i += 1;
            done += ops;
            if let Some(ns) = sample {
                lat.record(ns);
            }
            let now = Instant::now();
            if now >= nominal_end {
                break now;
            }
        };
        windows.push(Window::close(done, (end - start).as_secs_f64(), &mut lat));
        start = end;
    }
    windows
}

// ---------------------------------------------------------------------------
// Process probes
// ---------------------------------------------------------------------------

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Live threads of this process.
pub fn thread_count() -> u64 {
    proc_status_kb("Threads:").unwrap_or(0.0) as u64
}

/// Sum of the given fields of `/proc/self/stat`, counted from 0 after the
/// parenthesised command name (overall field 3 is index 0).
fn proc_stat_sum(fields: &[usize]) -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    fields
        .iter()
        .filter_map(|&i| f.get(i)?.parse::<f64>().ok())
        .sum()
}

/// What the process has used so far: CPU time (user + system, including
/// threads that have exited; resolution one clock tick) and minor page
/// faults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// CPU milliseconds.
    pub cpu_ms: f64,
    /// Minor page faults.
    pub minor_faults: f64,
}

impl Usage {
    /// The process's usage up to now.
    pub fn now() -> Usage {
        Usage {
            // utime and stime, in USER_HZ, which Linux fixes at 100.
            cpu_ms: proc_stat_sum(&[11, 12]) * 10.0,
            minor_faults: proc_stat_sum(&[7]),
        }
    }

    /// What was used since `earlier`.
    pub fn since(earlier: Usage) -> Usage {
        let now = Usage::now();
        Usage {
            cpu_ms: now.cpu_ms - earlier.cpu_ms,
            minor_faults: now.minor_faults - earlier.minor_faults,
        }
    }
}

/// On-CPU time of the currently live threads, in milliseconds, at scheduler
/// (nanosecond) resolution.  Threads that exit between two readings drop
/// out, so use it only across intervals with a stable thread set.
pub fn live_threads_cpu_ms() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ns = 0u64;
    for t in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(t.path().join("schedstat")) {
            ns += s
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters that only a traced run switches
/// on; an untraced run pays one relaxed load per allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with this
        // layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Tells glibc's allocator to keep freed memory instead of returning it to
/// the kernel.  With the default thresholds the λ⁴ᵢ abstract machine grows
/// and trims the heap on every program (160k page faults a second), and in
/// this sandbox a page fault is served by the host at a cost that swings by
/// half for seconds at a time, while register-bound code stays within 2 %.
/// Measured on `run_program(parallel_fib 6)`: 4.8 ms (6.8–7.4 ms in a slow
/// phase) with trimming, 3.3–3.6 ms without.  The setting is part of the
/// rig, the same for every commit measured.
#[cfg(target_env = "gnu")]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // glibc's upper limit for the mmap threshold on 64-bit targets.
    const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
    // SAFETY: `mallopt` only stores allocator parameters; it is called at
    // the top of `main`, before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
    }
}

/// Other C libraries keep their allocator's defaults.
#[cfg(not(target_env = "gnu"))]
pub fn keep_freed_memory() {}

/// Switches allocation counting on or off (process-wide).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One benchmark-side span around a call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The span's name (`layer.what`).
    pub name: &'static str,
    /// The request / operation id all spans of one operation share.
    pub id: u64,
    /// The name of the span that caused this one (`""` for a root).
    pub parent: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// A bounded in-memory span log, one per driver thread, merged at exit.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    /// Spans not recorded because the log was full.
    pub dropped: u64,
}

/// What a span name adds up to.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Its parent's name.
    pub parent: &'static str,
    /// How many were recorded.
    pub count: u64,
    /// Median duration in nanoseconds.
    pub p50_ns: f64,
    /// Sum of durations in nanoseconds.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans of the same
    /// operation id.
    pub self_ns: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new(Instant::now(), 1 << 20)
    }
}

impl SpanLog {
    /// An empty log holding at most `cap` spans, with `epoch` as time zero.
    pub fn new(epoch: Instant, cap: usize) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(&mut self, name: &'static str, parent: &'static str, id: u64, start: Instant) {
        self.record_between(name, parent, id, start, Instant::now());
    }

    /// Records a span with explicit bounds.
    pub fn record_between(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Moves another log's spans into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, in first-appearance order.  A span's self time is
    /// its duration minus the durations of the spans that name it as parent
    /// and share its id.
    pub fn summarise(&self) -> Vec<SpanSummary> {
        use std::collections::HashMap;
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: HashMap<&'static str, (&'static str, Vec<u64>)> = HashMap::new();
        // (parent name, id) → nanoseconds covered by children.
        let mut child_ns: HashMap<(&'static str, u64), u64> = HashMap::new();
        for s in &self.spans {
            let d = s.end_ns.saturating_sub(s.start_ns);
            by_name
                .entry(s.name)
                .or_insert_with(|| {
                    order.push(s.name);
                    (s.parent, Vec::new())
                })
                .1
                .push(d);
            if !s.parent.is_empty() {
                *child_ns.entry((s.parent, s.id)).or_default() += d;
            }
        }
        let mut covered: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(c) = child_ns.get(&(s.name, s.id)) {
                let d = s.end_ns.saturating_sub(s.start_ns);
                *covered.entry(s.name).or_default() += (*c).min(d);
            }
        }
        order
            .into_iter()
            .map(|name| {
                let (parent, durs) = &by_name[name];
                let total: u64 = durs.iter().sum();
                let as_f: Vec<f64> = durs.iter().map(|&d| d as f64).collect();
                SpanSummary {
                    name,
                    parent,
                    count: durs.len() as u64,
                    p50_ns: median(&as_f),
                    total_ns: total,
                    self_ns: total - covered.get(name).copied().unwrap_or(0).min(total),
                }
            })
            .collect()
    }
}

/// Times `f` in `batches` batches of at least `min_calls` calls and
/// `min_time`, returning the median nanoseconds per call.
pub fn probe_ns(batches: usize, min_calls: u64, min_time: Duration, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            f();
            calls += 1;
            if calls >= min_calls && start.elapsed() >= min_time {
                break;
            }
        }
        per_call.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild window does not move the window median.
        assert_eq!(median(&[10.0, 10.0, 11.0, 9.0, 500.0]), 10.0);
    }

    #[test]
    fn second_best_ignores_a_slow_majority_and_one_lucky_window() {
        assert_eq!(second_best(&[], true), 0.0);
        assert_eq!(second_best(&[7.0], false), 7.0);
        // Ten windows, seven of them in a slow phase.
        let rates = [5.0, 5.1, 4.9, 5.0, 5.2, 5.0, 5.1, 8.2, 8.1, 8.3];
        assert_eq!(second_best(&rates, true), 8.2);
        assert_eq!(median(&rates), 5.1);
        let lats = [
            200.0, 120.0, 119.0, 205.0, 121.0, 118.0, 207.0, 203.0, 201.0, 199.0,
        ];
        assert_eq!(second_best(&lats, false), 119.0);
        // One window far better than the rest does not set the value.
        assert_eq!(second_best(&[10.0, 30.0, 11.0, 12.0], true), 12.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[90.0, 100.0, 110.0]), 20.0);
        assert_eq!(spread_pct(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // 100 samples: p99 has one sample beyond it, p90 has ten.
        let t = supported_tail(&h, 99.0).unwrap();
        assert_eq!(t.q, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        for v in 101..=2000u64 {
            h.record(v);
        }
        let t = supported_tail(&h, 99.0).unwrap();
        assert_eq!(t.q, 99.0);
        assert_eq!(t.beyond, 20);
        assert!(supported_tail(&LogHistogram::new(), 99.0).is_none());
        // Too few samples for any tail: fall back to the median.
        let mut small = LogHistogram::new();
        for v in 1..=9u64 {
            small.record(v);
        }
        assert_eq!(supported_tail(&small, 95.0).unwrap().q, 50.0);
    }

    #[test]
    fn windows_end_at_operation_boundaries() {
        let clock = WindowClock::start(0.05, 5);
        let wins = run_windows(&clock, |_, _| {
            std::thread::sleep(Duration::from_millis(1));
            (2, Some(1_000))
        });
        assert_eq!(wins.len(), 5);
        for w in &wins {
            assert!(w.ops >= 2 && w.ops % 2 == 0);
            assert_eq!(w.lat.count() * 2, w.ops);
            assert!(w.ops_per_s > 0.0 && w.ops_per_s <= 2_000.0);
        }
        let mut a = wins[0].clone();
        a.absorb(&wins[1]);
        assert_eq!(a.ops, wins[0].ops + wins[1].ops);
        assert_eq!(a.ops_per_s, wins[0].ops_per_s + wins[1].ops_per_s);
        assert_eq!(a.p50_ns, 1_000.0);
    }

    #[test]
    fn window_median_is_exact() {
        let mut lat = LatRecorder::default();
        assert_eq!(lat.take().1, 0.0);
        for ns in [900_001, 100, 500_003] {
            lat.record(ns);
        }
        let (hist, p50) = lat.take();
        assert_eq!((hist.count(), p50), (3, 500_003.0));
        for ns in [4, 1, 3, 2] {
            lat.record(ns);
        }
        assert_eq!(lat.take().1, 2.5);
        // Pooling two drivers weights their medians by sample count.
        let mut one = LatRecorder::default();
        one.record(100);
        let mut a = Window::close(1, 1.0, &mut one);
        for ns in [400, 400, 400] {
            one.record(ns);
        }
        a.absorb(&Window::close(3, 1.0, &mut one));
        assert_eq!(a.p50_ns, 325.0);
    }

    #[test]
    fn span_self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut log = SpanLog::new(epoch, 8);
        log.record_between("client.request", "", 7, at(0), at(100));
        log.record_between("net.span_total", "client.request", 7, at(10), at(70));
        log.record_between("net.execute", "net.span_total", 7, at(20), at(50));
        let s = log.summarise();
        assert_eq!(s[0].name, "client.request");
        assert_eq!(s[0].self_ns, 40_000);
        assert_eq!(s[1].self_ns, 30_000);
        assert_eq!(s[2].self_ns, 30_000);
        assert_eq!(s[1].parent, "client.request");
        // A full log counts what it drops.
        let mut tiny = SpanLog::new(epoch, 1);
        tiny.record_between("a", "", 1, at(0), at(1));
        tiny.record_between("a", "", 2, at(0), at(1));
        assert_eq!((tiny.spans().len(), tiny.dropped), (1, 1));
    }
}
