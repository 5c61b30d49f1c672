//! Bound-driven admission control: Theorem 2.3 used *online* to shed load.
//!
//! The paper's headline result is a per-priority response-time bound,
//!
//! ```text
//! T(a) ≤ (1/P) · [ W_{⊀ρ}(↛↓a) + (P − 1) · S_a(↛↓a) ]
//! ```
//!
//! which the repository so far only ever *checked after the fact* (traced
//! runs, `bench_trace`).  This module evaluates the same right-hand side
//! **predictively**, while the server is taking traffic, and uses it to
//! decide which requests to admit:
//!
//! * the controller keeps an EWMA estimate of the per-request **work**
//!   `w(c)` of each request class, fed from the runtime's sharded
//!   [`MetricsCollector`](rp_icilk::metrics::MetricsCollector) snapshots
//!   (per-level compute-time sums, aggregated to classes), and a **span
//!   fraction** `φ(c)` (the serial share of a request, 1.0 until the
//!   streaming reconstructor's running aggregates refine it — see
//!   [`AdmissionController::refresh_from_stream`]);
//! * per class `c`, the competitor work is estimated from the requests
//!   currently in flight at classes that are *not strictly below* `c`
//!   (`⊀` on the server's totally ordered level list), giving the predicted
//!   response `T̂(c) = (Ŵ(c) + (P−1)·w(c)·φ(c)) / P`;
//! * whenever some budgeted class's prediction exceeds its configured
//!   budget, the controller sheds the **lowest non-exempt** classes first —
//!   one more class per refresh tick, and un-sheds (again one class per
//!   tick) only once every prediction is back under
//!   `resume_fraction × budget`, so the mask cannot flap.
//!
//! Shedding is a *rejection*, never a silent drop: the server answers shed
//! requests with an explicit [`ErrorCode::Overloaded`](crate::protocol::ErrorCode)
//! response, and the per-class shed counts are part of the server snapshot.
//!
//! The hot path ([`AdmissionController::admit`]) is two relaxed atomic
//! operations — a mask load and an admitted-counter increment; all estimate
//! work happens on the server's dedicated refresh thread.

use crate::lock;
use crate::protocol::RequestClass;
use rp_core::stream::StreamAggregates;
use rp_icilk::metrics::MetricsSnapshot;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of admission classes (one per [`RequestClass`]).
const CLASSES: usize = RequestClass::ALL.len();

/// The response-time budget of one request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassBudget {
    /// The response-time budget the controller defends for this class;
    /// `None` means the class has no budget of its own (it can still be
    /// shed to defend other classes' budgets).
    pub budget: Option<Duration>,
    /// Exempt classes are never shed, whatever the predictions say.
    pub exempt: bool,
}

impl ClassBudget {
    /// A budgeted, sheddable class.
    pub fn budgeted(budget: Duration) -> Self {
        ClassBudget {
            budget: Some(budget),
            exempt: false,
        }
    }

    /// A budgeted class the controller must never shed.
    pub fn exempt(budget: Duration) -> Self {
        ClassBudget {
            budget: Some(budget),
            exempt: true,
        }
    }
}

/// Configuration of the [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch; when false, [`AdmissionController::admit`] admits
    /// everything (counters still run, so the snapshot stays informative).
    pub enabled: bool,
    /// Per-class budgets, indexed by [`RequestClass::tag`].
    pub budgets: [ClassBudget; CLASSES],
    /// EWMA weight of the newest work observation (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// How often the server's refresh thread re-estimates and re-evaluates
    /// the shed mask.
    pub refresh_interval: Duration,
    /// Un-shed only once every budgeted prediction is below
    /// `resume_fraction × budget` (hysteresis against flapping).
    pub resume_fraction: f64,
    /// Do not shed before this many requests have completed overall — the
    /// work estimates are priors until then.
    pub min_completed: u64,
    /// Prior per-request work for a class that has not completed anything
    /// yet (keeps predictions finite on cold start).
    pub default_work: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            budgets: [ClassBudget::default(); CLASSES],
            ewma_alpha: 0.3,
            refresh_interval: Duration::from_millis(5),
            resume_fraction: 0.5,
            min_completed: 8,
            default_work: Duration::from_micros(500),
        }
    }
}

impl AdmissionConfig {
    /// The configuration `bench_overload` and the chaos tests use: the
    /// interactive **app** class is exempt with the given budget, both λ⁴ᵢ
    /// classes are sheddable with the given (looser, self-protecting)
    /// budget.
    pub fn protect_app(app_budget: Duration, lambda_budget: Duration) -> Self {
        let mut budgets = [ClassBudget::default(); CLASSES];
        budgets[RequestClass::App.tag() as usize] = ClassBudget::exempt(app_budget);
        budgets[RequestClass::Lambda.tag() as usize] = ClassBudget::budgeted(lambda_budget);
        budgets[RequestClass::LambdaCached.tag() as usize] = ClassBudget::budgeted(lambda_budget);
        AdmissionConfig {
            enabled: true,
            ..AdmissionConfig::default()
        }
        .with_budgets(budgets)
    }

    /// This config with the given per-class budgets.
    pub fn with_budgets(mut self, budgets: [ClassBudget; CLASSES]) -> Self {
        self.budgets = budgets;
        self
    }
}

/// The mutable estimate state, touched only by the refresh thread.
#[derive(Debug)]
struct Estimates {
    /// EWMA per-request work per class, nanoseconds.
    w_ns: [f64; CLASSES],
    /// Serial fraction of a request (span/work), 1.0 until the streaming
    /// aggregates refine it.
    span_fraction: [f64; CLASSES],
    /// Mean competitor work `W` per retired thread (vertices), per class,
    /// from the streaming aggregates.
    stream_work: [Option<f64>; CLASSES],
    /// Mean a-span `S` per retired thread (vertices), per class, from the
    /// streaming aggregates.
    stream_span: [Option<f64>; CLASSES],
    /// Completed requests folded into `w_ns` so far, per class.
    samples: [u64; CLASSES],
    /// Per level: completed-task count at the last refresh.
    seen_tasks: Vec<u64>,
    /// Per level: Σ compute nanoseconds at the last refresh.
    seen_compute_ns: Vec<f64>,
    /// Per class: completed-request count at the last refresh.
    seen_requests: [u64; CLASSES],
    /// How many classes of the shed order are currently shed.
    shed_depth: usize,
    /// Latest predicted response per class, nanoseconds.
    predicted_ns: [f64; CLASSES],
}

/// A point-in-time copy of the controller's counters and estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSnapshot {
    /// Whether admission control was enabled.
    pub enabled: bool,
    /// Requests admitted per class (indexed by [`RequestClass::tag`]).
    pub admitted: [u64; CLASSES],
    /// Admitted requests that have completed, per class.
    pub completed: [u64; CLASSES],
    /// Requests rejected with `Overloaded`, per class.
    pub shed: [u64; CLASSES],
    /// Which classes the mask is currently shedding.
    pub shedding: [bool; CLASSES],
    /// The latest predicted response time per class, microseconds (`None`
    /// before the first refresh produced a prediction).
    pub predicted_response_micros: [Option<f64>; CLASSES],
    /// The EWMA per-request work estimate per class, microseconds.
    pub work_estimate_micros: [Option<f64>; CLASSES],
    /// The span fraction per class (1.0 = assumed fully serial).
    pub span_fraction: [f64; CLASSES],
    /// Live bound-slack gauge: predicted response over budget per class
    /// (> 1 means the class's budget is predicted to be violated).  `None`
    /// for classes without a budget or before the first prediction.
    pub bound_slack: [Option<f64>; CLASSES],
    /// Mean competitor work `W` (in cost-graph vertices) per class, from
    /// the streaming reconstructor's retired subgraphs.
    pub stream_work_vertices: [Option<f64>; CLASSES],
    /// Mean a-span `S` (in cost-graph vertices) per class, from the
    /// streaming reconstructor's retired subgraphs.
    pub stream_span_vertices: [Option<f64>; CLASSES],
}

impl AdmissionSnapshot {
    /// Total requests shed across all classes.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// The controller: per-class counters, the shed mask, and the estimate
/// state behind a mutex only the refresh path takes.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// `P` of the bound: the runtime's worker count.
    workers: usize,
    /// Level index → admission class; `None` for levels whose work belongs
    /// to no request class (the `main` level).
    class_of_level: Vec<Option<RequestClass>>,
    /// Priority rank per class (higher = dispatched higher); derived from
    /// the level list, used for the `⊀` comparison in the competitor-work
    /// sum.
    rank: [usize; CLASSES],
    admitted: [AtomicU64; CLASSES],
    completed: [AtomicU64; CLASSES],
    shed: [AtomicU64; CLASSES],
    /// Bit `RequestClass::tag()` set ⇔ the class is currently shed.
    shed_mask: AtomicU32,
    est: Mutex<Estimates>,
}

impl AdmissionController {
    /// Builds a controller for a server with the given worker count and
    /// priority level list (lowest first, the server's `LEVELS`).
    ///
    /// Levels named `lambda` / `lambda-cached` aggregate into the matching
    /// λ⁴ᵢ classes; every other level except `main` aggregates into the app
    /// class (app requests fan subtasks across those levels).
    pub fn new(config: AdmissionConfig, workers: usize, level_names: &[&str]) -> Self {
        let class_of_level: Vec<Option<RequestClass>> = level_names
            .iter()
            .map(|&name| match name {
                "main" => None,
                "lambda" => Some(RequestClass::Lambda),
                "lambda-cached" => Some(RequestClass::LambdaCached),
                _ => Some(RequestClass::App),
            })
            .collect();
        // Rank = the class's lowest dispatch level: app requests never
        // dispatch below the lowest non-λ, non-main level, which sits above
        // both λ levels in the server's level list.
        let index_of = |name: &str, fallback: usize| {
            level_names
                .iter()
                .position(|&n| n == name)
                .unwrap_or(fallback)
        };
        let lambda = index_of("lambda", 1);
        let cached = index_of("lambda-cached", 2);
        let mut rank = [0usize; CLASSES];
        rank[RequestClass::Lambda.tag() as usize] = lambda;
        rank[RequestClass::LambdaCached.tag() as usize] = cached;
        rank[RequestClass::App.tag() as usize] = lambda.max(cached) + 1;
        let levels = level_names.len();
        AdmissionController {
            config,
            workers: workers.max(1),
            class_of_level,
            rank,
            admitted: Default::default(),
            completed: Default::default(),
            shed: Default::default(),
            shed_mask: AtomicU32::new(0),
            est: Mutex::new(Estimates {
                w_ns: [config.default_work.as_nanos() as f64; CLASSES],
                span_fraction: [1.0; CLASSES],
                stream_work: [None; CLASSES],
                stream_span: [None; CLASSES],
                samples: [0; CLASSES],
                seen_tasks: vec![0; levels],
                seen_compute_ns: vec![0.0; levels],
                seen_requests: [0; CLASSES],
                shed_depth: 0,
                predicted_ns: [0.0; CLASSES],
            }),
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The admission decision for one decoded request — the hot path.
    /// Returns `false` when the request must be answered `Overloaded`
    /// instead of executed; the shed counter is already incremented.
    pub fn admit(&self, class: RequestClass) -> bool {
        let i = class.tag() as usize;
        if self.config.enabled && self.shed_mask.load(Ordering::Relaxed) & (1 << i) != 0 {
            self.shed[i].fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.admitted[i].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Marks one admitted request of `class` finished (successfully or
    /// not).  Every admitted request must complete exactly once — the
    /// in-flight estimate is `admitted − completed`.
    pub fn on_completed(&self, class: RequestClass) {
        self.completed[class.tag() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Requests currently in flight (admitted, not yet completed) per class.
    fn in_flight(&self) -> [u64; CLASSES] {
        std::array::from_fn(|i| {
            self.admitted[i]
                .load(Ordering::Relaxed)
                .saturating_sub(self.completed[i].load(Ordering::Relaxed))
        })
    }

    /// Re-estimates per-class work from a metrics snapshot and re-evaluates
    /// the shed mask.  Called from the server's refresh thread every
    /// [`AdmissionConfig::refresh_interval`]; safe (and useful) to call
    /// directly in tests.
    pub fn refresh(&self, metrics: &MetricsSnapshot) {
        if !self.config.enabled {
            return;
        }
        let mut est = lock(&self.est);

        // Fold the per-level compute-time deltas since the last refresh
        // into per-class work sums.
        let mut delta_work = [0.0f64; CLASSES];
        for (level, class) in self.class_of_level.iter().enumerate() {
            let Some(class) = class else { continue };
            let (tasks, sum_ns) = match metrics.compute.get(level) {
                Some(stats) => (
                    stats.count() as u64,
                    stats.mean().unwrap_or(0.0) * stats.count() as f64,
                ),
                None => (0, 0.0),
            };
            if tasks > est.seen_tasks[level] {
                delta_work[class.tag() as usize] += (sum_ns - est.seen_compute_ns[level]).max(0.0);
            }
            est.seen_tasks[level] = tasks;
            est.seen_compute_ns[level] = sum_ns;
        }

        // Per-request work: the class's new task work over the class's new
        // completed-request count (one request may run several tasks).
        let alpha = self.config.ewma_alpha.clamp(0.01, 1.0);
        for (i, delta) in delta_work.iter().enumerate() {
            let done = self.completed[i].load(Ordering::Relaxed);
            let new_requests = done.saturating_sub(est.seen_requests[i]);
            est.seen_requests[i] = done;
            if new_requests == 0 || *delta <= 0.0 {
                continue;
            }
            let per_request = delta / new_requests as f64;
            est.w_ns[i] = if est.samples[i] == 0 {
                per_request
            } else {
                alpha * per_request + (1.0 - alpha) * est.w_ns[i]
            };
            est.samples[i] += new_requests;
        }

        // Predict each class's response from the Theorem 2.3 shape: the
        // competitor work of class c is the in-flight work at classes not
        // strictly below c (including c itself), the span is the class's
        // own per-request serial share.
        let in_flight = self.in_flight();
        let p = self.workers as f64;
        for i in 0..CLASSES {
            let w_competitor: f64 = (0..CLASSES)
                .filter(|&j| self.rank[j] >= self.rank[i])
                .map(|j| in_flight[j] as f64 * est.w_ns[j])
                .sum();
            let span = est.w_ns[i] * est.span_fraction[i];
            est.predicted_ns[i] = (w_competitor + (p - 1.0) * span) / p;
        }

        // Grow or shrink the shed set by at most one class per tick.
        let total_completed: u64 = (0..CLASSES)
            .map(|i| self.completed[i].load(Ordering::Relaxed))
            .sum();
        let order = self.shed_order();
        if total_completed >= self.config.min_completed {
            let violated = (0..CLASSES).any(|i| match self.config.budgets[i].budget {
                Some(b) => est.predicted_ns[i] > b.as_nanos() as f64,
                None => false,
            });
            let relaxed = (0..CLASSES).all(|i| match self.config.budgets[i].budget {
                Some(b) => est.predicted_ns[i] <= b.as_nanos() as f64 * self.config.resume_fraction,
                None => true,
            });
            if violated && est.shed_depth < order.len() {
                est.shed_depth += 1;
            } else if relaxed && est.shed_depth > 0 {
                est.shed_depth -= 1;
            }
        }
        let mut mask = 0u32;
        for class in &order[..est.shed_depth] {
            mask |= 1 << class.tag();
        }
        self.shed_mask.store(mask, Ordering::Relaxed);
    }

    /// The non-exempt classes, lowest priority rank first — the order they
    /// are shed in.
    fn shed_order(&self) -> Vec<RequestClass> {
        let mut order: Vec<RequestClass> = RequestClass::ALL
            .into_iter()
            .filter(|c| !self.config.budgets[c.tag() as usize].exempt)
            .collect();
        order.sort_by_key(|c| self.rank[c.tag() as usize]);
        order
    }

    /// Refines the span fractions and per-class (W, S) estimates from the
    /// streaming reconstructor's running aggregates: per class, the
    /// vertex-weighted `Σ a_span / Σ own vertices` over the class's levels —
    /// the serial share of a request's critical path in the paper's own
    /// vertex units.  Wall-clock scale keeps coming from the metrics; the
    /// trace contributes *structure* (how parallel each class's handlers
    /// really are).
    ///
    /// The aggregates are a fixed-size running summary, so a refresh costs
    /// O(levels) regardless of how long the server has been up — this
    /// replaced an earlier design that re-sorted a full trace snapshot.
    pub fn refresh_from_stream(&self, aggregates: &StreamAggregates) {
        if !self.config.enabled {
            return;
        }
        let mut span_sums = [0u64; CLASSES];
        let mut own_sums = [0u64; CLASSES];
        let mut work_sums = [0u64; CLASSES];
        let mut threads = [0u64; CLASSES];
        for (level, class) in self.class_of_level.iter().enumerate() {
            let Some(class) = class else { continue };
            let Some(agg) = aggregates.levels.get(level) else {
                continue;
            };
            let i = class.tag() as usize;
            span_sums[i] += agg.span_sum;
            own_sums[i] += agg.own_vertices;
            work_sums[i] += agg.work_sum;
            threads[i] += agg.threads;
        }
        let alpha = self.config.ewma_alpha.clamp(0.01, 1.0);
        let mut est = lock(&self.est);
        for i in 0..CLASSES {
            if own_sums[i] > 0 {
                let observed = (span_sums[i] as f64 / own_sums[i] as f64).clamp(0.05, 1.0);
                est.span_fraction[i] = alpha * observed + (1.0 - alpha) * est.span_fraction[i];
            }
            if threads[i] > 0 {
                est.stream_work[i] = Some(work_sums[i] as f64 / threads[i] as f64);
                est.stream_span[i] = Some(span_sums[i] as f64 / threads[i] as f64);
            }
        }
    }

    /// A point-in-time copy of counters and estimates.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let est = lock(&self.est);
        let mask = self.shed_mask.load(Ordering::Relaxed);
        AdmissionSnapshot {
            enabled: self.config.enabled,
            admitted: std::array::from_fn(|i| self.admitted[i].load(Ordering::Relaxed)),
            completed: std::array::from_fn(|i| self.completed[i].load(Ordering::Relaxed)),
            shed: std::array::from_fn(|i| self.shed[i].load(Ordering::Relaxed)),
            shedding: std::array::from_fn(|i| mask & (1 << i) != 0),
            predicted_response_micros: std::array::from_fn(|i| {
                (est.samples[i] > 0 || est.predicted_ns[i] > 0.0)
                    .then(|| est.predicted_ns[i] / 1_000.0)
            }),
            work_estimate_micros: std::array::from_fn(|i| {
                (est.samples[i] > 0).then(|| est.w_ns[i] / 1_000.0)
            }),
            span_fraction: est.span_fraction,
            bound_slack: std::array::from_fn(|i| {
                let budget = self.config.budgets[i].budget?;
                ((est.samples[i] > 0 || est.predicted_ns[i] > 0.0) && !budget.is_zero())
                    .then(|| est.predicted_ns[i] / budget.as_nanos() as f64)
            }),
            stream_work_vertices: est.stream_work,
            stream_span_vertices: est.stream_span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::stats::LatencyStats;

    const LEVELS: [&str; 5] = ["main", "lambda", "lambda-cached", "compress", "event"];

    /// A synthetic metrics snapshot: per level, `count` tasks of `each`.
    fn metrics(levels: &[(usize, usize, Duration)]) -> MetricsSnapshot {
        let n = LEVELS.len();
        let mut compute = vec![LatencyStats::new(); n];
        let mut completed = vec![0u64; n];
        for &(level, count, each) in levels {
            for _ in 0..count {
                compute[level].record(each);
            }
            completed[level] += count as u64;
        }
        MetricsSnapshot {
            response: vec![LatencyStats::new(); n],
            compute,
            completed,
        }
    }

    fn controller(app_budget_ms: u64, lambda_budget_ms: u64) -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig {
                min_completed: 4,
                ..AdmissionConfig::protect_app(
                    Duration::from_millis(app_budget_ms),
                    Duration::from_millis(lambda_budget_ms),
                )
            },
            4,
            &LEVELS,
        )
    }

    /// Admit + complete `n` requests of a class so the estimator has
    /// request counts to divide the metrics deltas by.
    fn complete(c: &AdmissionController, class: RequestClass, n: usize) {
        for _ in 0..n {
            assert!(c.admit(class));
            c.on_completed(class);
        }
    }

    #[test]
    fn disabled_controller_admits_everything_and_never_sheds() {
        let c = AdmissionController::new(AdmissionConfig::default(), 4, &LEVELS);
        for class in RequestClass::ALL {
            for _ in 0..100 {
                assert!(c.admit(class));
            }
        }
        c.refresh(&metrics(&[(1, 50, Duration::from_millis(50))]));
        let snap = c.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.total_shed(), 0);
        assert_eq!(snap.shedding, [false; 3]);
    }

    #[test]
    fn lambda_backlog_sheds_lambda_first_and_app_never() {
        // 50 ms budgets: feasible at rest (an idle 30 ms request predicts
        // (P-1)/P x 30 ms = 22.5 ms) but far exceeded under backlog.
        let c = controller(50, 50);
        // Teach the estimator: lambda requests cost ~30 ms each.
        complete(&c, RequestClass::Lambda, 8);
        c.refresh(&metrics(&[(1, 8, Duration::from_millis(30))]));
        assert_eq!(
            c.snapshot().shedding,
            [false, false, false],
            "no backlog yet"
        );

        // A backlog of 40 in-flight lambda requests: lambda's own predicted
        // response (~40×30 ms / 4 cores = 300 ms) blows through its 50 ms
        // budget.
        for _ in 0..40 {
            assert!(c.admit(RequestClass::Lambda));
        }
        c.refresh(&metrics(&[]));
        let snap = c.snapshot();
        assert!(
            snap.shedding[RequestClass::Lambda.tag() as usize],
            "lambda is the lowest non-exempt class: {snap:?}"
        );
        assert!(
            !snap.shedding[RequestClass::App.tag() as usize],
            "app is exempt and must never shed"
        );
        let p = snap.predicted_response_micros[RequestClass::Lambda.tag() as usize]
            .expect("prediction exists");
        assert!(p > 50_000.0, "predicted {p}µs must exceed the 50ms budget");
        let slack = snap.bound_slack[RequestClass::Lambda.tag() as usize]
            .expect("budgeted class has a slack gauge");
        assert!(slack > 1.0, "predicted/budget {slack} must exceed 1");

        // Shed requests are rejected and counted, never silently dropped.
        assert!(!c.admit(RequestClass::Lambda));
        assert!(!c.admit(RequestClass::Lambda));
        assert!(c.admit(RequestClass::App), "exempt class still admitted");
        let snap = c.snapshot();
        assert_eq!(snap.shed[RequestClass::Lambda.tag() as usize], 2);

        // Still violated on the next tick: the second non-exempt class
        // (lambda-cached) is shed too — lowest first, one per tick.
        c.refresh(&metrics(&[]));
        let snap = c.snapshot();
        assert!(snap.shedding[RequestClass::LambdaCached.tag() as usize]);
        assert!(!snap.shedding[RequestClass::App.tag() as usize]);
    }

    #[test]
    fn shedding_recovers_with_hysteresis_once_backlog_drains() {
        let c = controller(50, 50);
        complete(&c, RequestClass::Lambda, 8);
        c.refresh(&metrics(&[(1, 8, Duration::from_millis(30))]));
        for _ in 0..40 {
            assert!(c.admit(RequestClass::Lambda));
        }
        c.refresh(&metrics(&[]));
        assert!(c.snapshot().shedding[RequestClass::Lambda.tag() as usize]);

        // The backlog completes; predictions collapse to ~one request's
        // work, far under resume_fraction × budget, so each tick un-sheds
        // one class until the mask is clear.
        for _ in 0..40 {
            c.on_completed(RequestClass::Lambda);
        }
        c.refresh(&metrics(&[]));
        assert_eq!(
            c.snapshot().shedding,
            [false; 3],
            "one shed class, one tick to recover"
        );
        assert!(
            c.admit(RequestClass::Lambda),
            "admitting again after recovery"
        );
    }

    #[test]
    fn estimates_stay_quiet_below_min_completed() {
        let c = controller(50, 20);
        // Plenty of in-flight work but nothing completed: the controller
        // must not shed on priors alone.
        for _ in 0..100 {
            assert!(c.admit(RequestClass::Lambda));
        }
        c.refresh(&metrics(&[]));
        assert_eq!(c.snapshot().shedding, [false; 3]);
    }

    #[test]
    fn work_estimates_track_the_metrics_deltas() {
        let c = controller(1_000, 1_000);
        complete(&c, RequestClass::App, 10);
        // 10 app requests, each spawning one `event` task of 2 ms and one
        // `compress` task of 1 ms: per-request work = 3 ms.
        c.refresh(&metrics(&[
            (4, 10, Duration::from_millis(2)),
            (3, 10, Duration::from_millis(1)),
        ]));
        let w = c.snapshot().work_estimate_micros[RequestClass::App.tag() as usize]
            .expect("app work estimated");
        assert!(
            (w - 3_000.0).abs() < 300.0,
            "per-request app work ≈ 3ms, got {w}µs"
        );
        // λ levels never leak into the app estimate.
        assert!(c.snapshot().work_estimate_micros[RequestClass::Lambda.tag() as usize].is_none());
    }

    /// The streaming aggregates refine span fractions and surface (W, S) —
    /// and the refresh is O(levels): the aggregate is the same fixed-size
    /// summary whether it describes ten requests or ten million, so the
    /// cost is independent of run length (the regression this guards
    /// against: the old design re-sorted a full trace snapshot here).
    #[test]
    fn stream_aggregates_refine_span_fractions_and_expose_w_s() {
        use rp_core::stream::LevelAggregate;
        let c = controller(50, 50);
        let lambda = RequestClass::Lambda.tag() as usize;
        assert_eq!(c.snapshot().span_fraction[lambda], 1.0, "serial prior");

        let mut levels = vec![LevelAggregate::default(); LEVELS.len()];
        // The lambda level (index 1), as if after 10 million retired
        // requests: 4 own vertices each, a-span 1, competitor work 20.
        let n = 10_000_000u64;
        levels[1] = LevelAggregate {
            threads: n,
            own_vertices: 4 * n,
            span_sum: n,
            work_sum: 20 * n,
            ..LevelAggregate::default()
        };
        let aggregates = StreamAggregates {
            levels,
            retired_subgraphs: n,
            ..StreamAggregates::default()
        };
        c.refresh_from_stream(&aggregates);
        let snap = c.snapshot();
        // EWMA from 1.0 toward the observed 0.25: 0.3·0.25 + 0.7·1.0.
        assert!(
            (snap.span_fraction[lambda] - 0.775).abs() < 1e-9,
            "got {}",
            snap.span_fraction[lambda]
        );
        assert_eq!(snap.stream_work_vertices[lambda], Some(20.0));
        assert_eq!(snap.stream_span_vertices[lambda], Some(1.0));
        // Classes with no retired threads keep their prior, quietly.
        let app = RequestClass::App.tag() as usize;
        assert_eq!(snap.span_fraction[app], 1.0);
        assert_eq!(snap.stream_work_vertices[app], None);
    }

    #[test]
    fn snapshot_accounting_is_consistent() {
        let c = controller(50, 20);
        complete(&c, RequestClass::LambdaCached, 5);
        for _ in 0..3 {
            assert!(c.admit(RequestClass::App));
        }
        let snap = c.snapshot();
        assert_eq!(snap.admitted[RequestClass::LambdaCached.tag() as usize], 5);
        assert_eq!(snap.completed[RequestClass::LambdaCached.tag() as usize], 5);
        assert_eq!(snap.admitted[RequestClass::App.tag() as usize], 3);
        assert_eq!(snap.completed[RequestClass::App.tag() as usize], 0);
        assert_eq!(snap.total_shed(), 0);
    }
}
