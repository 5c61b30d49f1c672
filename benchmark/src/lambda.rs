//! `lambda_pipeline`: λ⁴ᵢ sources through the front end, in-process, one
//! driver.  Each window runs fresh sources through `pipeline::run_source`
//! for its first half and the hot set through `CompileCache::run_source`
//! for its second, so a cache-hit win that costs the miss path shows.

use crate::gen::{self, LambdaInput};
use crate::json::Metric;
use crate::rig::{self, SpanLog, Window, WindowClock};
use crate::{Outcome, RunCfg};
use rp_lambda4i::pipeline::{run_source, CompileCache, PipelineConfig, PipelineReport};
use rp_lambda4i::syntax::Expr;
use std::time::Instant;

/// Fresh programs run in each set-up's warm-up (fixed count).
const WARMUP_FRESH: u64 = 36;
/// Rounds over the hot set in each set-up's warm-up.
const WARMUP_HOT_ROUNDS: usize = 3;

/// The pipeline as shipped: both back ends on 2 cores / 2 workers, the
/// nested runtime traced and reconstructed.
pub fn pipeline_config() -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.machine.cores = 2;
    config.runtime.workers = 2;
    config
}

/// Whether a pipeline report carries the expected value, agrees across both
/// back ends and has no Theorem 2.3 counterexample.
pub fn report_is(report: &PipelineReport, expected: u64) -> bool {
    report.value() == &Expr::Nat(expected) && report.values_agree() && report.counterexamples() == 0
}

struct LambdaSystem {
    seed: u64,
    config: PipelineConfig,
    cache: CompileCache,
    hot: Vec<LambdaInput>,
    /// Index of the next fresh program; never reused within a process, so
    /// no fresh source is ever seen twice.
    next_fresh: u64,
    attempted: u64,
    failed: u64,
}

impl LambdaSystem {
    fn setup(seed: u64, next_fresh: u64) -> LambdaSystem {
        let mut sys = LambdaSystem {
            seed,
            config: pipeline_config(),
            cache: CompileCache::new(),
            hot: gen::hot_inputs(seed),
            next_fresh,
            attempted: 0,
            failed: 0,
        };
        for _ in 0..WARMUP_FRESH {
            sys.fresh();
        }
        for i in 0..WARMUP_HOT_ROUNDS * gen::HOT_SOURCES {
            sys.hot(i as u64);
        }
        sys
    }

    fn check(&mut self, result: Option<PipelineReport>, expected: u64) {
        self.attempted += 1;
        if !result.is_some_and(|r| report_is(&r, expected)) {
            self.failed += 1;
        }
    }

    /// One never-seen program through the uncached front end.
    fn fresh(&mut self) {
        let input = gen::fresh_input(self.seed, self.next_fresh);
        self.next_fresh += 1;
        let result = run_source(&input.source, &self.config).ok();
        self.check(result, input.expected);
    }

    /// One hot program through the compile cache.
    fn hot(&mut self, i: u64) {
        let input = &self.hot[i as usize % self.hot.len()];
        let (result, expected) = (
            self.cache.run_source(&input.source, &self.config).ok(),
            input.expected,
        );
        self.check(result, expected);
    }

    /// Runs the clock's windows.  Returns them with the per-window fresh
    /// and hot rates.
    fn measure(
        &mut self,
        clock: &WindowClock,
        mut spans: Option<&mut SpanLog>,
    ) -> (Vec<Window>, Vec<f64>, Vec<f64>) {
        // (programs, seconds) per window and phase.
        let mut fresh = vec![(0u64, 0f64); clock.count];
        let mut hot = vec![(0u64, 0f64); clock.count];
        let windows = rig::run_windows(clock, |i, w| {
            let start = Instant::now();
            let is_fresh = start < clock.end_of(w) - clock.len / 2;
            if is_fresh {
                self.fresh();
            } else {
                self.hot(i);
            }
            let took = start.elapsed();
            let phase = if is_fresh { &mut fresh[w] } else { &mut hot[w] };
            phase.0 += 1;
            phase.1 += took.as_secs_f64();
            if let Some(log) = spans.as_deref_mut() {
                let name = if is_fresh {
                    "lambda4i.run_source"
                } else {
                    "lambda4i.cache_run_source"
                };
                log.record(name, "", i, start);
            }
            (1, is_fresh.then_some(took.as_nanos() as u64))
        });
        let rate = |v: &[(u64, f64)]| -> Vec<f64> {
            v.iter()
                .filter(|(_, s)| *s > 0.0)
                .map(|(n, s)| *n as f64 / s)
                .collect()
        };
        (windows, rate(&fresh), rate(&hot))
    }
}

/// Runs `lambda_pipeline`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut sys: Option<LambdaSystem> = None;
    for _ in 0..cfg.setup_reps() {
        let next_fresh = sys.take().map_or(0, |old| {
            out.attempted += old.attempted;
            out.failed += old.failed;
            old.next_fresh
        });
        let t = Instant::now();
        sys = Some(LambdaSystem::setup(cfg.seed, next_fresh));
        out.setups.push(t.elapsed().as_secs_f64());
    }
    let mut sys = sys.expect("at least one set-up");

    let usage0 = rig::Usage::now();
    let (mut fresh_rates, mut hot_rates) = (Vec::new(), Vec::new());
    if cfg.traced {
        let mut spans = SpanLog::default();
        let (a0, _) = rig::alloc_counts();
        let (plain, traced) = rig::traced_pairs(cfg.seconds, |on, clock| {
            let (w, f, h) = sys.measure(clock, on.then_some(&mut spans));
            if !on {
                fresh_rates.extend(f);
                hot_rates.extend(h);
            }
            w
        });
        let (a1, _) = rig::alloc_counts();
        let progs: u64 = traced.iter().map(|w| w.ops).sum();
        out.layer.push(Metric::new(
            "lambda4i.allocs_per_prog",
            (a1 - a0) as f64 / progs.max(1) as f64,
            "count",
        ));
        (out.windows, out.traced_windows, out.spans) = (plain, traced, spans);
    } else {
        let clock = WindowClock::start(cfg.seconds, rig::WINDOWS);
        (out.windows, fresh_rates, hot_rates) = sys.measure(&clock, None);
    }
    out.usage = rig::Usage::since(usage0);

    let stats = sys.cache.stats();
    out.layer.extend([
        Metric::new(
            "lambda4i.cache_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("lambda4i.hot_ops_per_s", rig::median(&hot_rates), "ops/s"),
        Metric::new(
            "lambda4i.fresh_ops_per_s",
            rig::median(&fresh_rates),
            "ops/s",
        ),
    ]);
    out.attempted += sys.attempted;
    out.failed += sys.failed;
    out
}
