//! Benchmark and figure-regeneration harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section:
//!
//! * `table1` — Table 1: the cost of the priority layer at compile time,
//!   measured as λ⁴ᵢ type-checking time and judgment counts with and without
//!   priority checking on the three case-study encodings;
//! * `fig13` — Figure 13: responsiveness ratio (baseline / I-Cilk) for the
//!   proxy and email case studies across a sweep of connection counts;
//! * `fig14` — Figure 14: per-priority-level compute-time ratios for proxy,
//!   email, and jserver across the load sweep;
//! * `figures_dag` — Figures 1–3: the weak-edge example DAGs, their
//!   admissible/prompt schedules, well-formedness verdicts, and the
//!   a-strengthening, rendered as text and DOT.
//!
//! The other `bench_*` binaries are gates, not timers: each runs a sweep
//! and exits non-zero when an oracle fails (a Theorem 2.3 counterexample,
//! a verdict drift, an incoherent scrape, a fuzz finding).  Performance
//! numbers come from the repository benchmark in `benchmark/`, which times
//! every layer these binaries once timed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod telemetry;

use rp_lambda4i::progs;
use rp_lambda4i::typecheck::{count_nodes, typecheck_program_with, CheckStats};
use std::time::{Duration, Instant};

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Case-study name.
    pub name: String,
    /// AST node count of the λ⁴ᵢ encoding (the "binary size" analogue).
    pub nodes: usize,
    /// Type-checking wall time without the priority layer.
    pub time_without: Duration,
    /// Type-checking wall time with the priority layer.
    pub time_with: Duration,
    /// Judgment statistics without priorities.
    pub stats_without: CheckStats,
    /// Judgment statistics with priorities.
    pub stats_with: CheckStats,
}

impl Table1Row {
    /// The compile-time overhead factor (with / without).
    pub fn time_overhead(&self) -> f64 {
        let w = self.time_with.as_secs_f64();
        let wo = self.time_without.as_secs_f64().max(1e-9);
        w / wo
    }

    /// The work overhead factor measured in entailment checks per judgment —
    /// the structural analogue of the paper's binary-size overhead.
    pub fn judgment_overhead(&self) -> f64 {
        let with = (self.stats_with.expr_judgments
            + self.stats_with.cmd_judgments
            + self.stats_with.entailment_checks) as f64;
        let without = (self.stats_without.expr_judgments + self.stats_without.cmd_judgments) as f64;
        with / without.max(1.0)
    }
}

/// Runs the Table 1 measurement for all three case studies.
///
/// Each configuration is checked `repeats` times and the minimum time is
/// kept (the paper reports the maximum of three compilations; the minimum is
/// the standard way to suppress noise for micro-measurements — both are
/// printed by the binary).
pub fn table1(repeats: usize) -> Vec<Table1Row> {
    progs::case_studies()
        .into_iter()
        .map(|prog| {
            let time = |with: bool| -> (Duration, CheckStats) {
                let mut best = Duration::MAX;
                let mut stats = CheckStats::default();
                for _ in 0..repeats.max(1) {
                    let start = Instant::now();
                    stats = typecheck_program_with(&prog, with).expect("case studies type check");
                    best = best.min(start.elapsed());
                }
                (best, stats)
            };
            let (time_without, stats_without) = time(false);
            let (time_with, stats_with) = time(true);
            Table1Row {
                name: prog.name.clone(),
                nodes: count_nodes(&prog),
                time_without,
                time_with,
                stats_without,
                stats_with,
            }
        })
        .collect()
}

/// Formats Table 1 in the paper's layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: type-checking cost of the priority layer (lambda-4i encodings)\n");
    out.push_str(
        "case study        nodes   check time w/o   with      overhead   judgment overhead\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>6}   {:>10.1}µs   {:>8.1}µs   {:>6.2}x   {:>6.2}x\n",
            r.name,
            r.nodes,
            r.time_without.as_secs_f64() * 1e6,
            r.time_with.as_secs_f64() * 1e6,
            r.time_overhead(),
            r.judgment_overhead(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_produces_three_rows_with_overheads() {
        let rows = table1(1);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.nodes > 100);
            assert!(r.time_overhead() > 0.0);
            assert!(
                r.judgment_overhead() >= 1.0,
                "priority checking only adds work"
            );
        }
        let rendered = format_table1(&rows);
        assert!(rendered.contains("proxy"));
        assert!(rendered.contains("email"));
        assert!(rendered.contains("jserver"));
    }
}
