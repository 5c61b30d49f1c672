//! `rp-benchmark`: the repository benchmark.
//!
//! `rp-benchmark --workload NAME --seed N --seconds S --trace 0|1` generates
//! the workload's inputs from the seed, starts the system in-process,
//! checks every result against an oracle, prints each metric by name with
//! unit, direction and bound, and ends with one JSON line.  Every layer is
//! measured from outside, through the crates' public functions; see the
//! README beside `Cargo.toml` for why each workload and metric exists.

mod analysis;
mod forkjoin;
mod gen;
mod json;
mod lambda;
mod oracle;
mod probes;
mod rig;
mod wire;

use json::Metric;
use rig::{SpanLog, Window};
use rp_sim::histogram::LogHistogram;
use std::io::Write;

#[global_allocator]
static ALLOC: rig::CountingAlloc = rig::CountingAlloc;

/// A traced run gives each other workload this share of its own length
/// for the layer metrics that workload owns.
const LAYER_PASS_SHARE: f64 = 5.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "wire_small",
    "wire_mixed",
    "lambda_pipeline",
    "runtime_forkjoin",
    "trace_analysis",
];

/// End-to-end metrics: name, unit, better, bound.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("lat_p50_us", "us", "lower", 0.25),
];

/// Per-layer metrics: name, unit, better.  Each is measured in one place:
/// on one workload's traced windows, by one direct-call probe, or (`rig.*`)
/// on the windows of the workload the run was asked for.  A traced run
/// prints all of them.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("net.queue_p50_us", "us", "lower"),
    ("net.decode_p50_us", "us", "lower"),
    ("net.execute_p50_us", "us", "lower"),
    ("net.reply_write_p50_us", "us", "lower"),
    ("net.span_total_p50_us", "us", "lower"),
    ("net.wire_gap_p50_us", "us", "lower"),
    ("net.encode_ns_per_req", "ns", "lower"),
    ("net.decode_ns_per_req", "ns", "lower"),
    ("net.allocs_per_req", "count", "lower"),
    ("net.alloc_bytes_per_req", "B", "lower"),
    ("net.idle_cpu_ms_per_s", "ms/s", "lower"),
    ("net.threads", "count", "lower"),
    ("net.decode_errors", "count", "lower"),
    ("net.shed_total", "count", "lower"),
    ("net.reconcile_mismatches", "count", "lower"),
    ("icilk.fcreate_ftouch_ns", "ns", "lower"),
    ("icilk.touch_ready_ns", "ns", "lower"),
    ("icilk.steals_per_kop", "count", "lower"),
    ("icilk.ping_idle_p50_us", "us", "lower"),
    ("icilk.io_roundtrip_p50_us", "us", "lower"),
    ("icilk.tracer_overhead_pct", "%", "lower"),
    ("icilk.responsiveness_vs_baseline", "ratio", "higher"),
    ("apps.proxy_hit_ns", "ns", "lower"),
    ("apps.proxy_miss_us", "us", "lower"),
    ("apps.email_print_us", "us", "lower"),
    ("apps.email_compress_us", "us", "lower"),
    ("apps.jserver_job_us.sort", "us", "lower"),
    ("apps.jserver_job_us.sw", "us", "lower"),
    ("apps.frame_ns_per_req", "ns", "lower"),
    ("apps.bg_lat_p50_us", "us", "lower"),
    ("apps.interactive_ops_per_s", "ops/s", "higher"),
    ("apps.busy_cores_min", "cores", "higher"),
    ("lambda4i.parse_us_per_prog", "us", "lower"),
    ("lambda4i.infer_us_per_prog", "us", "lower"),
    ("priority.solve_us_per_prog", "us", "lower"),
    ("lambda4i.machine_us_per_prog", "us", "lower"),
    ("lambda4i.runtime_us_per_prog", "us", "lower"),
    ("lambda4i.runtime_start_us", "us", "lower"),
    ("lambda4i.reconstruct_us_per_prog", "us", "lower"),
    ("lambda4i.allocs_per_prog", "count", "lower"),
    ("lambda4i.cache_hit_us", "us", "lower"),
    ("lambda4i.cache_hit_ratio", "ratio", "higher"),
    ("lambda4i.hot_ops_per_s", "ops/s", "higher"),
    ("lambda4i.fresh_ops_per_s", "ops/s", "higher"),
    ("core.dag_build_ms", "ms", "lower"),
    ("core.sched_prompt_vertices_s", "1/s", "higher"),
    ("core.sched_weak_vertices_s", "1/s", "higher"),
    ("core.bound_threads_s", "1/s", "higher"),
    ("core.reconstruct_posthoc_events_s", "1/s", "higher"),
    ("core.reconstruct_stream_events_s", "1/s", "higher"),
    ("core.stream_live_peak", "count", "lower"),
    ("core.allocs_per_kvertex", "count", "lower"),
    ("core.verdict_mismatches", "count", "lower"),
    ("sim.hist_record_ns", "ns", "lower"),
    ("rig.setup_first_s", "s", "lower"),
    ("rig.lat_p95_us", "us", "lower"),
    ("rig.lat_p99_us", "us", "lower"),
    ("rig.cpu_ms_per_kop", "ms", "lower"),
    ("rig.minor_faults_per_kop", "count", "lower"),
    ("rig.peak_rss_mb", "MiB", "lower"),
    ("rig.window_spread_pct", "%", "lower"),
    ("rig.loadgen_late_p99_us", "us", "lower"),
    ("rig.trace_overhead_pct", "%", "lower"),
    ("rig.spans_dropped", "count", "lower"),
];

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCfg {
    /// The workload's name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Where to dump the spans as JSONL, if anywhere.
    pub spans_out: Option<String>,
}

impl RunCfg {
    /// How often set-up is repeated: `setup_s` is an end-to-end metric, so
    /// only the untraced run takes its median over several.
    pub fn setup_reps(&self) -> usize {
        if self.traced {
            1
        } else {
            rig::SETUP_REPS
        }
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds each set-up repetition took.
    pub setups: Vec<f64>,
    /// The measured windows (untraced system).
    pub windows: Vec<Window>,
    /// Windows of the traced system, interleaved with the above (traced
    /// runs only).
    pub traced_windows: Vec<Window>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that failed: wrong answer, error reply, no reply.
    pub failed: u64,
    /// How late the open-loop generator issued, nanoseconds.
    pub late: LogHistogram,
    /// Process CPU time and page faults across the measured windows.
    pub usage: rig::Usage,
    /// Layer metrics this workload measured itself.
    pub layer: Vec<Metric>,
    /// Benchmark-side spans.
    pub spans: SpanLog,
    /// Lines for the human reader.
    pub notes: Vec<String>,
    /// Server-side counters that must all be zero.
    pub net_mismatches: u64,
    /// Bodies the server failed to decode.
    pub net_decode_errors: u64,
    /// Requests the server shed.
    pub net_shed: u64,
}

impl Outcome {
    /// Folds in the short layer pass of another workload: what it verified
    /// and the server counters that must be zero.  Its windows, its
    /// generator's lateness and its resource usage stay out: the `rig.*`
    /// metrics describe this run's own workload only.
    pub fn fold_layer_pass(&mut self, name: &str, side: Outcome) -> Vec<Metric> {
        self.attempted += side.attempted;
        self.failed += side.failed;
        self.net_mismatches += side.net_mismatches;
        self.net_decode_errors += side.net_decode_errors;
        self.net_shed += side.net_shed;
        self.notes
            .extend(side.notes.iter().map(|n| format!("{name}: {n}")));
        side.layer
    }

    /// Folds a stopped wire system's totals and server counters in.  Any
    /// non-zero server counter is a failure.
    pub fn fold_finish(&mut self, attempted: u64, failed: u64, server: (u64, u64, u64, u64)) {
        let (mismatches, decode_errors, shed, counterexamples) = server;
        self.attempted += attempted;
        self.failed += failed + mismatches + decode_errors + shed + counterexamples;
        self.net_mismatches += mismatches;
        self.net_decode_errors += decode_errors;
        self.net_shed += shed;
        if counterexamples > 0 {
            self.notes
                .push(format!("{counterexamples} Theorem 2.3 counterexamples"));
        }
    }
}

/// Runs the workload called `name`.
fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "wire_small" => wire::run(cfg, false),
        "wire_mixed" => wire::run(cfg, true),
        "lambda_pipeline" => lambda::run(cfg),
        "runtime_forkjoin" => forkjoin::run(cfg),
        _ => analysis::run(cfg),
    }
}

fn parse_args(args: &[String]) -> Result<RunCfg, String> {
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        traced: false,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => cfg.spans_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(cfg)
}

fn main() {
    rig::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("rp-benchmark: {e}");
            eprintln!(
                "usage: rp-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]"
            );
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} available_parallelism {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        cores
    );

    let mut out = run_workload(&cfg.workload, &cfg);
    // The workload's own numbers are closed (peak RSS read, tails pooled)
    // before anything else runs in this process.
    let (end_to_end, rig_layer) = summarise(&cfg, &out);
    let mut layer = std::mem::take(&mut out.layer);
    layer.extend(rig_layer);
    if cfg.traced {
        // The driver reads every per-layer metric from every traced run
        // ("with --trace 1 the metrics are every per_layer metric"), and
        // each layer metric is defined on one workload's load or by one
        // probe.  So the other four workloads run a short traced pass for
        // the metrics they own, then the direct-call probes.
        let pass_cfg = RunCfg {
            seconds: cfg.seconds / LAYER_PASS_SHARE,
            ..cfg.clone()
        };
        for name in WORKLOADS.iter().filter(|w| **w != cfg.workload) {
            let pass = run_workload(name, &pass_cfg);
            layer.extend(out.fold_layer_pass(name, pass));
        }
        layer.extend(probes::all(&cfg));
    }
    // Must-be-zero server counters, over every wire system of the run.
    layer.extend([
        Metric::new("net.decode_errors", out.net_decode_errors as f64, "count"),
        Metric::new("net.shed_total", out.net_shed as f64, "count"),
        Metric::new(
            "net.reconcile_mismatches",
            out.net_mismatches as f64,
            "count",
        ),
    ]);

    for note in &out.notes {
        println!("note {note}");
    }
    for s in out.spans.summarise() {
        println!(
            "span {} parent {:?} count {} p50 {:.1} us self {:.1} ms",
            s.name,
            s.parent,
            s.count,
            s.p50_ns / 1e3,
            s.self_ns as f64 / 1e6
        );
    }
    for ((name, unit, better, bound), m) in END_TO_END.iter().zip(&end_to_end) {
        println!(
            "metric {name} {} {unit} better {better} bound {bound}",
            m.value
        );
    }
    for m in &layer {
        let better = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == m.name)
            .map_or("?", |(_, _, b)| b);
        println!("layer {} {} {} better {better}", m.name, m.value, m.unit);
    }
    let metrics: Vec<Metric> = if cfg.traced {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let mut measured = layer.iter().filter(|m| m.name == *name);
                let value = measured.next().map(|m| m.value);
                // Every layer metric has one owner; none or two is a bug in
                // the benchmark, and a failed run rather than a guess.
                if value.is_none() || measured.next().is_some() {
                    println!("note layer metric {name} was not measured exactly once");
                    out.attempted += 1;
                    out.failed += 1;
                }
                Metric::new(name, value.unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        end_to_end
    };
    if let Some(path) = &cfg.spans_out {
        if let Err(e) = dump_spans(path, &out.spans) {
            eprintln!("rp-benchmark: writing {path}: {e}");
        }
    }

    let attempted = out.attempted.max(1);
    let correct = out.failed == 0;
    println!(
        "attempted {attempted} failed {} correct {correct}",
        out.failed
    );
    println!(
        "{}",
        json::result_line(correct, attempted, out.failed, &metrics)
    );
}

/// The three end-to-end metrics and the always-reported `rig.*` metrics.
fn summarise(cfg: &RunCfg, out: &Outcome) -> (Vec<Metric>, Vec<Metric>) {
    let rates: Vec<f64> = out.windows.iter().map(|w| w.ops_per_s).collect();
    let p50s: Vec<f64> = out
        .windows
        .iter()
        .filter(|w| !w.lat.is_empty())
        .map(|w| w.p50_ns)
        .collect();
    let setup_s = rig::median(&out.setups);
    let ops_per_s = rig::second_best(&rates, true);
    let lat_p50_us = rig::second_best(&p50s, false) / 1e3;
    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", ops_per_s, "ops/s"),
        Metric::new("lat_p50_us", lat_p50_us, "us"),
    ];

    let mut pooled = LogHistogram::new();
    out.windows.iter().for_each(|w| pooled.merge(&w.lat));
    let ops: u64 = out.windows.iter().map(|w| w.ops).sum::<u64>()
        + out.traced_windows.iter().map(|w| w.ops).sum::<u64>();
    println!(
        "windows {} ops {} latency samples {} ops spread {:.1}% setup reps {:?}",
        out.windows.len(),
        ops,
        pooled.count(),
        rig::spread_pct(&rates),
        out.setups
    );
    for (i, w) in out.windows.iter().enumerate() {
        println!(
            "window {i} ops {} ops_per_s {:.1} p50 {:.1} us samples {}",
            w.ops,
            w.ops_per_s,
            w.p50_ns / 1e3,
            w.lat.count()
        );
    }
    let tail = |want: f64| -> f64 {
        match rig::supported_tail(&pooled, want) {
            Some(t) => {
                println!(
                    "tail p{want} reported at p{} with {} samples beyond it",
                    t.q, t.beyond
                );
                t.value / 1e3
            }
            None => 0.0,
        }
    };
    // The issue's unimodality check.  It is reported, not failed on: the
    // windows of unchanged code spread this far whenever a slow phase of
    // the host ends inside a run, and a run that is incorrect because of
    // the weather could not be told from one that is incorrect.
    let window_spread = rig::spread_pct(&p50s);
    if window_spread > 15.0 {
        println!(
            "note the windows' median latencies spread by {window_spread:.1} % (> 15 %): a slow phase of the host, or a bimodal workload"
        );
    }
    let mut rig_layer = vec![
        // The process's first set-up, cold: what `setup_s`, a median over
        // repeated set-ups, cannot show.
        Metric::new(
            "rig.setup_first_s",
            out.setups.first().copied().unwrap_or(0.0),
            "s",
        ),
        Metric::new("rig.lat_p95_us", tail(95.0), "us"),
        Metric::new("rig.lat_p99_us", tail(99.0), "us"),
        Metric::new(
            "rig.cpu_ms_per_kop",
            out.usage.cpu_ms / ops.max(1) as f64 * 1e3,
            "ms",
        ),
        Metric::new(
            "rig.minor_faults_per_kop",
            out.usage.minor_faults / ops.max(1) as f64 * 1e3,
            "count",
        ),
        Metric::new("rig.peak_rss_mb", rig::peak_rss_mb(), "MiB"),
        Metric::new("rig.window_spread_pct", window_spread, "%"),
        Metric::new(
            "rig.loadgen_late_p99_us",
            rig::supported_tail(&out.late, 99.0).map_or(0.0, |t| t.value / 1e3),
            "us",
        ),
    ];
    if cfg.traced {
        let traced: Vec<f64> = out.traced_windows.iter().map(|w| w.ops_per_s).collect();
        let t = rig::second_best(&traced, true);
        let overhead = if ops_per_s > 0.0 {
            (ops_per_s - t) / ops_per_s * 100.0
        } else {
            0.0
        };
        rig_layer.push(Metric::new("rig.trace_overhead_pct", overhead, "%"));
        rig_layer.push(Metric::new(
            "rig.spans_dropped",
            out.spans.dropped as f64,
            "count",
        ));
    }
    (end_to_end, rig_layer)
}

/// Writes the span log as JSON lines.
fn dump_spans(path: &str, spans: &SpanLog) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.spans() {
        let mut line = String::from("{\"name\": ");
        json::write_str(&mut line, s.name);
        line.push_str(", \"parent\": ");
        json::write_str(&mut line, s.parent);
        line.push_str(&format!(
            ", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id, s.start_ns, s.end_ns
        ));
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cfg = parse_args(&args(
            "--workload wire_small --seed 9 --seconds 10 --trace 1",
        ));
        let cfg = cfg.unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (9, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload wire_small --trace 2")).is_err());
        assert!(parse_args(&args("--workload wire_small --seconds 0")).is_err());
        assert!(parse_args(&args("--workload wire_small --seed")).is_err());
    }

    /// `BENCHMARK.json` at the root must name exactly what this program
    /// prints.
    #[test]
    fn manifest_names_match_the_tables() {
        let manifest = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = manifest.find(&format!("\"{section}\"")).expect(section);
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), layer);
        for (name, unit, better, bound) in END_TO_END {
            assert!(manifest.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )));
        }
    }
}
