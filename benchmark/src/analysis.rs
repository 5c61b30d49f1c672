//! `trace_analysis`: `rp_core` alone, single-threaded.  Each operation
//! builds a 5k-vertex DAG, schedules it twice, checks Theorem 2.3 on both
//! schedules, and pushes one recorded event log through both
//! reconstructors, whose verdicts must agree.

use crate::forkjoin::{self, tree};
use crate::gen::{self, DAG_SHAPE};
use crate::json::Metric;
use crate::oracle::validate_schedule;
use crate::rig::{self, SpanLog, WindowClock};
use crate::{Outcome, RunCfg};
use rp_core::bound::BoundAnalysis;
use rp_core::random::sized_dag;
use rp_core::scheduler::{prompt_schedule, weak_respecting_prompt_schedule};
use rp_core::stream::{IncrementalReconstructor, StreamConfig};
use rp_core::trace::{ExecutionTrace, TraceBoundReport};
use rp_icilk::runtime::{Runtime, RuntimeConfig};
use rp_sim::latency::LatencyModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cores the DAGs are scheduled on.
const CORES: usize = 2;
/// Request-shaped components in the recorded log; with the tree depth
/// below this gives ≈20k events.
const LOG_COMPONENTS: u64 = 150;
/// Depth of the fork–join tree each recorded component runs.
const LOG_TREE_DEPTH: u32 = 5;
/// Events per `ingest` call of the streaming reconstructor.
const STREAM_BATCH: usize = 256;
/// Operations run in each set-up's warm-up (fixed count).
const WARMUP_OPS: u64 = 1;

/// The stages of one operation, in order; each gets a span.
const STAGES: [&str; 6] = [
    "core.dag_build",
    "core.sched_prompt",
    "core.sched_weak",
    "core.bound",
    "core.reconstruct_posthoc",
    "core.reconstruct_stream",
];

/// Records the event log every operation reconstructs: `LOG_COMPONENTS`
/// request-shaped tasks spawned from outside a traced 2-worker runtime,
/// each a small fork–join tree followed by one simulated I/O.
pub fn record_log(seed: u64) -> ExecutionTrace {
    let rt = Arc::new(Runtime::start(
        RuntimeConfig::new(1, forkjoin::LEVELS)
            .with_io_latency(LatencyModel::Constant { micros: 50 }, seed)
            .with_tracing(true),
    ));
    for c in 0..LOG_COMPONENTS {
        let level = rt
            .priority_by_index((c % forkjoin::LEVELS as u64) as usize)
            .expect("level in range");
        let rt2 = Arc::clone(&rt);
        let root = rt.fcreate(level, move || {
            let sum = tree(&rt2, level, LOG_TREE_DEPTH, 0, seed ^ c);
            let io = rt2.submit_io(level, move || sum);
            rt2.ftouch(&io)
        });
        let _ = rt.ftouch_blocking(&root);
    }
    let _ = rt.drain(Duration::from_secs(10));
    let trace = rt.trace_snapshot().expect("tracing is on");
    forkjoin::stop_runtime(rt);
    trace
}

/// The recorded log plus what is counted while operations run.
pub struct AnalysisSystem {
    seed: u64,
    trace: ExecutionTrace,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations whose oracle check failed.
    pub failed: u64,
    /// Components on which the two reconstructors disagreed.
    pub verdict_mismatches: u64,
    /// Most tasks the streaming reconstructor held live at once.
    pub stream_live_peak: u64,
}

/// What the verdict comparison keeps of a bound report.
fn verdict_key(r: &TraceBoundReport) -> (u64, Option<usize>, u64, bool) {
    (
        r.task.key,
        r.report.observed,
        r.report.adjusted_bound.to_bits(),
        r.report.is_counterexample(),
    )
}

impl AnalysisSystem {
    /// Records the log.
    pub fn record(seed: u64) -> AnalysisSystem {
        AnalysisSystem {
            seed,
            trace: record_log(seed),
            attempted: 0,
            failed: 0,
            verdict_mismatches: 0,
            stream_live_peak: 0,
        }
    }

    /// Records the log and runs the fixed-count warm-up.
    pub fn setup(seed: u64) -> AnalysisSystem {
        let mut sys = AnalysisSystem::record(seed);
        for i in 0..WARMUP_OPS {
            sys.op(i, None);
        }
        sys
    }

    /// Events in the recorded log.
    pub fn log_events(&self) -> usize {
        self.trace.events.len()
    }

    /// One operation.  With `spans`, each stage is recorded as a child of
    /// `core.op`.
    pub fn op(&mut self, i: u64, mut spans: Option<&mut SpanLog>) {
        let op_start = Instant::now();
        let mut stage_start = op_start;
        let mut stage = 0usize;
        let mut mark = |spans: &mut Option<&mut SpanLog>| {
            if let Some(log) = spans.as_deref_mut() {
                log.record(STAGES[stage], "core.op", i, stage_start);
            }
            stage += 1;
            stage_start = Instant::now();
        };
        let mut ok = true;

        let (threads, verts, levels) = DAG_SHAPE;
        let dag = sized_dag(gen::dag_seed(self.seed, i), threads, verts, levels);
        mark(&mut spans);
        let prompt = prompt_schedule(&dag, CORES);
        mark(&mut spans);
        let weak = weak_respecting_prompt_schedule(&dag, CORES);
        mark(&mut spans);
        let analysis = BoundAnalysis::new(&dag);
        for schedule in [&prompt, &weak] {
            let reports = analysis.check_all(schedule);
            ok &= reports.len() == threads && !reports.iter().any(|r| r.is_counterexample());
        }
        mark(&mut spans);

        let post_hoc = self.trace.reconstruct_components();
        let mut post_keys: Vec<Vec<_>> = match &post_hoc {
            Ok(runs) => runs
                .iter()
                .map(|run| run.check_observed().iter().map(verdict_key).collect())
                .collect(),
            Err(_) => Vec::new(),
        };
        ok &= post_hoc.is_ok();
        mark(&mut spans);

        let config = StreamConfig::new(self.trace.level_names.clone(), self.trace.num_workers);
        let mut stream_keys: Vec<Vec<_>> = Vec::new();
        match IncrementalReconstructor::new(config) {
            Ok(mut recon) => {
                let mut retired = Vec::new();
                for batch in self.trace.events.chunks(STREAM_BATCH) {
                    match recon.ingest(batch) {
                        Ok(r) => retired.extend(r),
                        Err(_) => ok = false,
                    }
                    self.stream_live_peak = self.stream_live_peak.max(recon.counters().live_tasks);
                }
                match recon.finalize() {
                    Ok(r) => retired.extend(r),
                    Err(_) => ok = false,
                }
                stream_keys.extend(
                    retired
                        .iter()
                        .map(|s| s.observed.iter().map(verdict_key).collect()),
                );
                ok &= retired.iter().all(|s| s.counterexamples() == 0);
            }
            Err(_) => ok = false,
        }
        mark(&mut spans);

        // The oracle, outside the stage spans: both schedules are valid, and
        // the two reconstructors retire the same components with the same
        // verdicts (retirement order differs, so align on the task keys).
        ok &= validate_schedule(&dag, &prompt, CORES).is_ok();
        ok &= validate_schedule(&dag, &weak, CORES).is_ok();
        post_keys.sort();
        stream_keys.sort();
        let mismatches = if post_keys.len() == stream_keys.len() {
            post_keys
                .iter()
                .zip(&stream_keys)
                .filter(|(a, b)| a != b)
                .count()
        } else {
            post_keys.len().abs_diff(stream_keys.len())
        } as u64;
        self.verdict_mismatches += mismatches;
        ok &= mismatches == 0 && !post_keys.is_empty();
        if let Some(log) = spans {
            log.record("core.op", "", i, op_start);
        }
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Layer metrics read off the stage spans.
fn stage_metrics(spans: &SpanLog, log_events: usize) -> Vec<Metric> {
    let (threads, verts, _) = DAG_SHAPE;
    let vertices = (threads * verts) as f64;
    let summary = spans.summarise();
    let p50_s = |name: &str| -> f64 {
        summary
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.p50_ns / 1e9)
    };
    let per_s = |count: f64, name: &str| -> f64 {
        let s = p50_s(name);
        if s > 0.0 {
            count / s
        } else {
            0.0
        }
    };
    vec![
        Metric::new("core.dag_build_ms", p50_s(STAGES[0]) * 1e3, "ms"),
        Metric::new(
            "core.sched_prompt_vertices_s",
            per_s(vertices, STAGES[1]),
            "1/s",
        ),
        Metric::new(
            "core.sched_weak_vertices_s",
            per_s(vertices, STAGES[2]),
            "1/s",
        ),
        // Two schedules are checked per operation.
        Metric::new(
            "core.bound_threads_s",
            per_s(2.0 * threads as f64, STAGES[3]),
            "1/s",
        ),
        Metric::new(
            "core.reconstruct_posthoc_events_s",
            per_s(log_events as f64, STAGES[4]),
            "1/s",
        ),
        Metric::new(
            "core.reconstruct_stream_events_s",
            per_s(log_events as f64, STAGES[5]),
            "1/s",
        ),
    ]
}

/// Runs `trace_analysis`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut sys: Option<AnalysisSystem> = None;
    for _ in 0..cfg.setup_reps() {
        if let Some(old) = sys.take() {
            out.attempted += old.attempted;
            out.failed += old.failed;
        }
        let t = Instant::now();
        sys = Some(AnalysisSystem::setup(cfg.seed));
        out.setups.push(t.elapsed().as_secs_f64());
    }
    let mut sys = sys.expect("at least one set-up");
    out.notes.push(format!(
        "recorded log: {} events, {} workers",
        sys.log_events(),
        sys.trace.num_workers
    ));

    let usage0 = rig::Usage::now();
    let mut next = WARMUP_OPS;
    let mut one = |sys: &mut AnalysisSystem, spans: Option<&mut SpanLog>| {
        let start = Instant::now();
        sys.op(next, spans);
        next += 1;
        (1, Some(start.elapsed().as_nanos() as u64))
    };
    if cfg.traced {
        let mut spans = SpanLog::default();
        let (a0, _) = rig::alloc_counts();
        let (plain, traced) = rig::traced_pairs(cfg.seconds, |on, clock| {
            rig::run_windows(clock, |_, _| one(&mut sys, on.then_some(&mut spans)))
        });
        let (a1, _) = rig::alloc_counts();
        let kvertices = traced.iter().map(|w| w.ops).sum::<u64>() as f64
            * (DAG_SHAPE.0 * DAG_SHAPE.1) as f64
            / 1e3;
        out.layer.push(Metric::new(
            "core.allocs_per_kvertex",
            (a1 - a0) as f64 / kvertices.max(1e-9),
            "count",
        ));
        out.layer.extend(stage_metrics(&spans, sys.log_events()));
        (out.windows, out.traced_windows, out.spans) = (plain, traced, spans);
    } else {
        let clock = WindowClock::start(cfg.seconds, rig::WINDOWS);
        out.windows = rig::run_windows(&clock, |_, _| one(&mut sys, None));
    }
    out.usage = rig::Usage::since(usage0);
    out.layer.extend([
        Metric::new(
            "core.stream_live_peak",
            sys.stream_live_peak as f64,
            "count",
        ),
        Metric::new(
            "core.verdict_mismatches",
            sys.verdict_mismatches as f64,
            "count",
        ),
    ]);
    out.attempted += sys.attempted;
    out.failed += sys.failed;
    out
}
