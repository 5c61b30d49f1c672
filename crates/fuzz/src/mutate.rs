//! Source-level mutation testing of the workspace's hot paths, in the
//! spirit of Mull: mechanically mutate the scheduler, promptness check,
//! solver, tracer, bound-check, well-formedness, runtime-pool and λ⁴ᵢ
//! substitution implementations, rerun each module's own test suite against
//! every mutant, and report the mutants the suite fails to kill.
//!
//! A *surviving* mutant is a hole in the test suite: a semantic change to a
//! hot path that no targeted test notices.  The campaign does not demand
//! zero survivors — some mutations are genuinely equivalent or only
//! observable at scales the unit suites don't reach — but every survivor
//! must be *enumerated* in the checked-in baseline
//! (`crates/fuzz/baseline/survivors.txt`); a survivor not in the baseline
//! fails the campaign, so test-suite regressions surface as new survivors
//! in CI rather than silently.
//!
//! Mutants are generated **deterministically** (no RNG: candidate order is
//! file order, selection is a fixed per-class round robin), so the baseline
//! is stable across runs and machines.  Execution copies the repo into a
//! temp worktree (all dependencies are path/vendored, so a nested `cargo
//! test` works offline) and runs `cargo test -p <pkg> --lib <module>::tests`
//! per mutant with a hard timeout: a mutant that turns a loop condition
//! into an infinite loop is `KilledByTimeout`, not a hang.

use crate::{fnv64, repo_root};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One module under mutation: where its code lives and which test suite is
/// responsible for killing its mutants.
#[derive(Debug, Clone, Copy)]
pub struct MutationTarget {
    /// Short module label (`scheduler`, `schedule`, `solver`, `tracer`,
    /// `stream`, `bound`, `wellformed`, `pool`, `subst`).  A module whose code spans
    /// several files has one entry per file, each with its own share of
    /// the campaign's mutants.
    pub module: &'static str,
    /// Cargo package the file belongs to.
    pub package: &'static str,
    /// Repo-relative path of the source file.
    pub file: &'static str,
    /// Test filter passed to `cargo test --lib` (the module's own suite).
    pub test_filter: &'static str,
    /// Hot-path functions to mutate, each with an optional early-return
    /// expression (only for functions whose return type has an obvious
    /// literal, e.g. `false` for predicates).
    pub functions: &'static [(&'static str, Option<&'static str>)],
}

/// The nine hot paths under test: the bucketed prompt scheduler, the
/// promptness check, the priority-constraint solver, the trace
/// reconstructor's schedule builder, the streaming reconstructor's slot
/// union-find and retirement, the Theorem 2.3 bound check (with the
/// per-thread metrics: the masked competitor-work count, the ancestor-row
/// fill and the per-level priority rows), the Definition 1 and 4
/// well-formedness checks (with the priority-inverting edge filter and the
/// priority rows), the runtime's push / help-pop / park paths, and the λ⁴ᵢ
/// substitution both back ends run at every step (in place, copy on write
/// for shared commands, skipped when the variable is not free).
pub const TARGETS: &[MutationTarget] = &[
    MutationTarget {
        module: "scheduler",
        package: "rp-core",
        file: "crates/core/src/scheduler.rs",
        test_filter: "scheduler::tests",
        functions: &[("bucketed_prompt", None)],
    },
    MutationTarget {
        module: "solver",
        package: "rp-priority",
        file: "crates/priority/src/solve.rs",
        test_filter: "solve::tests",
        functions: &[("solve", None), ("search", None)],
    },
    MutationTarget {
        module: "schedule",
        package: "rp-core",
        file: "crates/core/src/schedule.rs",
        test_filter: "schedule::tests",
        functions: &[("is_prompt", Some("true"))],
    },
    MutationTarget {
        module: "tracer",
        package: "rp-core",
        file: "crates/core/src/trace.rs",
        test_filter: "trace::tests",
        functions: &[("observed_schedule", None), ("check_schedule", None)],
    },
    MutationTarget {
        module: "stream",
        package: "rp-core",
        file: "crates/core/src/stream.rs",
        test_filter: "stream::tests",
        functions: &[("find", None), ("union", None), ("retire_ready", None)],
    },
    MutationTarget {
        module: "bound",
        package: "rp-core",
        file: "crates/core/src/bound.rs",
        test_filter: "bound::tests",
        functions: &[
            ("thread_metrics", None),
            ("report_with", None),
            ("check_schedule", None),
            ("is_counterexample", Some("false")),
        ],
    },
    MutationTarget {
        module: "bound",
        package: "rp-core",
        file: "crates/core/src/metrics.rs",
        test_filter: "bound::tests",
        functions: &[("competitor_work_in", Some("0"))],
    },
    MutationTarget {
        module: "bound",
        package: "rp-core",
        file: "crates/core/src/analysis.rs",
        test_filter: "bound::tests",
        functions: &[
            ("ancestor_rows", Some("BitMatrix::new(dag.vertex_count())")),
            ("vertex_row", None),
        ],
    },
    MutationTarget {
        module: "wellformed",
        package: "rp-core",
        file: "crates/core/src/wellformed.rs",
        test_filter: "wellformed::tests",
        functions: &[
            ("check_well_formed_with", Some("Ok(())")),
            ("check_strongly_well_formed_with", Some("Ok(())")),
            ("continuation_bracketed_path_exists", Some("true")),
            ("well_formed_errors", Some("Vec::new()")),
        ],
    },
    MutationTarget {
        module: "wellformed",
        package: "rp-core",
        file: "crates/core/src/analysis.rs",
        test_filter: "wellformed::tests",
        functions: &[
            ("inverting_edges", Some("Vec::new()")),
            ("vertex_row", None),
        ],
    },
    MutationTarget {
        module: "pool",
        package: "rp-icilk",
        file: "crates/icilk/src/pool.rs",
        test_filter: "pool::tests",
        functions: &[
            ("push_task", None),
            ("pop_task", Some("None")),
            ("park", None),
        ],
    },
    MutationTarget {
        module: "subst",
        package: "rp-lambda4i",
        file: "crates/lambda4i/src/syntax.rs",
        test_filter: "syntax::tests",
        functions: &[
            ("subst_in_place", None),
            ("subst_arc", None),
            ("mentions", Some("false")),
        ],
    },
];

/// One concrete mutant: a single-line rewrite of one target file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutant {
    /// Stable identifier: `module:file:line:class:hash` — this is what the
    /// survivor baseline stores.
    pub id: String,
    /// The target module label.
    pub module: &'static str,
    /// Cargo package to test.
    pub package: &'static str,
    /// Test filter whose suite must kill this mutant.
    pub test_filter: &'static str,
    /// Repo-relative file the mutation applies to.
    pub file: &'static str,
    /// 1-based line replaced.
    pub line: usize,
    /// Mutation class (`operator-flip`, `boundary`, `branch-pin`,
    /// `early-return`).
    pub class: &'static str,
    /// The line as it appears in the pristine source.
    pub original_line: String,
    /// The line after mutation.
    pub mutated_line: String,
}

/// What happened when the target suite ran against one mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantVerdict {
    /// The suite failed — the mutant was detected.  This is the good case.
    Killed,
    /// The suite ran past the timeout (e.g. a loop condition mutated into
    /// an infinite loop).  Counts as detected.
    KilledByTimeout,
    /// The mutant does not compile.  Neutral: it proves nothing about the
    /// suite, and is reported separately.
    BuildFailure,
    /// The suite passed — the mutant went unnoticed.
    Survived,
}

impl MutantVerdict {
    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MutantVerdict::Killed => "killed",
            MutantVerdict::KilledByTimeout => "killed-by-timeout",
            MutantVerdict::BuildFailure => "build-failure",
            MutantVerdict::Survived => "survived",
        }
    }
}

/// One mutant's run outcome.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// The mutant that ran.
    pub mutant: Mutant,
    /// Its verdict.
    pub verdict: MutantVerdict,
    /// Wall-clock seconds the suite took.
    pub secs: f64,
}

/// Configuration of one mutation campaign.
#[derive(Debug, Clone)]
pub struct MutationConfig {
    /// Mutants selected per target module (round-robin across classes).
    pub mutants_per_module: usize,
    /// Hard per-mutant suite timeout.
    pub timeout: Duration,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            mutants_per_module: 6,
            timeout: Duration::from_secs(240),
        }
    }
}

/// The outcome of a mutation campaign.
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// Mutants generated and run.
    pub generated: usize,
    /// Mutants the suite failed on (detected).
    pub killed: usize,
    /// Mutants detected via the timeout.
    pub timed_out: usize,
    /// Mutants that did not compile (neutral).
    pub build_failures: usize,
    /// IDs of mutants the suite passed on.
    pub survivors: Vec<String>,
    /// Every mutant's outcome, in run order.
    pub outcomes: Vec<MutantOutcome>,
    /// Infrastructure failures (worktree copy, red baseline suite, …).  Any
    /// entry fails the campaign regardless of verdicts.
    pub errors: Vec<String>,
}

impl MutationReport {
    /// Whether the campaign passes against a survivor baseline: no
    /// infrastructure errors and every survivor already enumerated.
    pub fn clean(&self, baseline: &BTreeSet<String>) -> bool {
        self.errors.is_empty() && self.new_survivors(baseline).is_empty()
    }

    /// Survivors not present in the baseline (each is a CI failure).
    pub fn new_survivors(&self, baseline: &BTreeSet<String>) -> Vec<String> {
        self.survivors
            .iter()
            .filter(|s| !baseline.contains(*s))
            .cloned()
            .collect()
    }
}

/// Loads the survivor baseline (one mutant ID per line, `#` comments).
pub fn load_baseline(path: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(path)
        .map(|text| {
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// The checked-in survivor baseline path.
pub fn baseline_path() -> PathBuf {
    repo_root().join("crates/fuzz/baseline/survivors.txt")
}

// ---------------------------------------------------------------------------
// Mutant generation
// ---------------------------------------------------------------------------

/// Strips a trailing `//` comment (string-literal aware enough for this
/// codebase) and returns the code part of a line.
fn code_part(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if !in_str => in_str = true,
            b'"' if in_str && (i == 0 || bytes[i - 1] != b'\\') => in_str = false,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Locates `fn <name>(` in `lines` and returns the 0-based inclusive line
/// span of the whole function (signature through matching closing brace).
/// Brace counting skips string literals, `//` comments, and char literals
/// (so `'{'` and `"{}"` don't unbalance it).
pub fn function_span(lines: &[String], name: &str) -> Option<(usize, usize)> {
    let needle = format!("fn {name}(");
    let start = lines.iter().position(|l| code_part(l).contains(&needle))?;
    let mut depth = 0usize;
    let mut opened = false;
    for (i, line) in lines.iter().enumerate().skip(start) {
        let code = code_part(line);
        let bytes = code.as_bytes();
        let mut j = 0;
        while j < bytes.len() {
            match bytes[j] {
                b'"' => {
                    // Skip the string literal.
                    j += 1;
                    while j < bytes.len() && !(bytes[j] == b'"' && bytes[j - 1] != b'\\') {
                        j += 1;
                    }
                }
                b'\'' => {
                    // A char literal ('x', '\n', '{') closes within a few
                    // bytes; a lifetime ('g) does not — only skip the
                    // former.
                    if j + 2 < bytes.len() && bytes[j + 1] == b'\\' {
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                        j += 1;
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                    } else if j + 2 < bytes.len() && bytes[j + 2] == b'\'' {
                        j += 2;
                    }
                }
                b'{' => {
                    depth += 1;
                    opened = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return Some((start, i));
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    None
}

/// The operator-flip table: spaced patterns only, so generics (`Vec<u8>`),
/// arrows (`->`), and closure pipes stay untouched.  Longest patterns are
/// tried first.
const OPERATOR_FLIPS: &[(&str, &str)] = &[
    (" <= ", " < "),
    (" >= ", " > "),
    (" == ", " != "),
    (" != ", " == "),
    (" < ", " <= "),
    (" > ", " >= "),
    (" + ", " - "),
    (" - ", " + "),
    (".min(", ".max("),
    (".max(", ".min("),
];

/// Whether `line[at..]` starts an `if ` keyword (not `if let`, not part of
/// a longer identifier).
fn is_if_keyword(code: &str, at: usize) -> bool {
    if !code[at..].starts_with("if ") {
        return false;
    }
    if at > 0 {
        let prev = code.as_bytes()[at - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    !code[at + 3..].trim_start().starts_with("let ")
}

/// Finds the first standalone integer literal in `code` and returns
/// (byte offset, length, value).  Skips hex/binary literals, float parts,
/// and digits inside identifiers.
fn first_int_literal(code: &str) -> Option<(usize, usize, u64)> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let prev = if i == 0 { b' ' } else { bytes[i - 1] };
            let mut end = i;
            while end < bytes.len() && (bytes[end].is_ascii_digit() || bytes[end] == b'_') {
                end += 1;
            }
            let next = if end < bytes.len() { bytes[end] } else { b' ' };
            let standalone = !prev.is_ascii_alphanumeric()
                && prev != b'_'
                && prev != b'.'
                && next != b'.'
                && next != b'x'
                && next != b'b';
            if standalone {
                let digits: String = code[i..end].chars().filter(|c| *c != '_').collect();
                if let Ok(value) = digits.parse::<u64>() {
                    return Some((i, end - i, value));
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    None
}

fn mutant_id(
    target: &MutationTarget,
    line_no: usize,
    class: &str,
    orig: &str,
    new: &str,
) -> String {
    let basename = Path::new(target.file)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(target.file);
    let hash = fnv64(format!("{orig}\u{0}{new}").as_bytes()) as u32;
    format!("{}:{basename}:{line_no}:{class}:{hash:08x}", target.module)
}

/// Generates every candidate mutant for one target, in deterministic file
/// order, grouped by class.
fn candidates_for(target: &MutationTarget, lines: &[String]) -> Vec<Vec<Mutant>> {
    let mut flips = Vec::new();
    let mut boundaries = Vec::new();
    let mut pins = Vec::new();
    let mut earlies = Vec::new();
    let make = |line_no: usize, class: &'static str, orig: &str, new: String| Mutant {
        id: mutant_id(target, line_no, class, orig, &new),
        module: target.module,
        package: target.package,
        test_filter: target.test_filter,
        file: target.file,
        line: line_no,
        class,
        original_line: orig.to_string(),
        mutated_line: new,
    };
    for &(name, early) in target.functions {
        let Some((start, end)) = function_span(lines, name) else {
            continue;
        };
        // Early return: insert right after the body's opening brace.
        if let Some(expr) = early {
            if let Some(brace_line) = (start..=end).find(|&i| code_part(&lines[i]).contains('{')) {
                let line = &lines[brace_line];
                let at = line.find('{').expect("code_part saw a brace");
                let new = format!("{} return {expr};{}", &line[..=at], &line[at + 1..]);
                earlies.push(make(brace_line + 1, "early-return", line, new));
            }
        }
        // Body-only classes: skip the signature (generics, return arrows).
        let body_start = (start..=end)
            .find(|&i| code_part(&lines[i]).contains('{'))
            .map(|i| i + 1)
            .unwrap_or(end);
        for (i, line) in lines.iter().enumerate().take(end).skip(body_start) {
            let code = code_part(line);
            if code.trim().is_empty() {
                continue;
            }
            // Operator flips: first (leftmost, longest-first) match wins.
            let flip = OPERATOR_FLIPS
                .iter()
                .filter_map(|&(from, to)| code.find(from).map(|at| (at, from, to)))
                .min_by_key(|&(at, from, _)| (at, usize::MAX - from.len()));
            if let Some((at, from, to)) = flip {
                let new = format!("{}{to}{}", &line[..at], &line[at + from.len()..]);
                flips.push(make(i + 1, "operator-flip", line, new));
            }
            // Boundary ±1 on the first standalone integer literal.
            if let Some((at, len, value)) = first_int_literal(code) {
                let replacement = if value == 0 { 1 } else { value + 1 };
                let new = format!("{}{replacement}{}", &line[..at], &line[at + len..]);
                boundaries.push(make(i + 1, "boundary", line, new));
            }
            // Branch pinning: `if cond {` → `if false && cond {` (the
            // condition still compiles but never runs).
            if let Some(at) = (0..code.len()).find(|&at| is_if_keyword(code, at)) {
                if code.contains('{') {
                    let new = format!("{}if false && {}", &line[..at], &line[at + 3..]);
                    pins.push(make(i + 1, "branch-pin", line, new));
                }
            }
        }
    }
    vec![flips, boundaries, pins, earlies]
}

/// Generates the mutants one campaign will run: for each target module, up
/// to `per_module` mutants chosen round-robin across the four classes (so
/// every class with candidates is exercised), in deterministic order.
pub fn generate_mutants(root: &Path, per_module: usize) -> std::io::Result<Vec<Mutant>> {
    let mut selected = Vec::new();
    for target in TARGETS {
        let text = std::fs::read_to_string(root.join(target.file))?;
        let lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        let mut by_class = candidates_for(target, &lines);
        let mut taken = 0;
        let mut idx = 0;
        while taken < per_module && by_class.iter().any(|c| !c.is_empty()) {
            let class = &mut by_class[idx % 4];
            idx += 1;
            if class.is_empty() {
                continue;
            }
            // Spread picks across the function body instead of clustering
            // at the top: take from the front, then drop the next candidate
            // so consecutive picks come from different regions.
            selected.push(class.remove(0));
            if class.len() > 1 {
                class.remove(0);
            }
            taken += 1;
        }
    }
    Ok(selected)
}

// ---------------------------------------------------------------------------
// Worktree execution
// ---------------------------------------------------------------------------

/// Copies the repo into `dest`, skipping `target/`, `.git/`, and nested
/// build dirs — everything a nested `cargo test` needs and nothing more.
fn copy_tree(src: &Path, dest: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dest)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let name = entry.file_name();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            copy_tree(&entry.path(), &dest.join(&name))?;
        } else if ty.is_file() {
            std::fs::copy(entry.path(), dest.join(&name))?;
        }
    }
    Ok(())
}

fn cargo_bin() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

#[derive(Debug, PartialEq, Eq)]
enum SuiteResult {
    Passed,
    Failed,
    TimedOut,
}

/// Runs one module suite in the worktree with a hard timeout.  The child
/// runs in its own process group so a timeout kill reaps the whole cargo
/// tree, not just the front process.
fn run_suite(
    worktree: &Path,
    package: &str,
    filter: &str,
    timeout: Duration,
) -> std::io::Result<SuiteResult> {
    use std::os::unix::process::CommandExt;
    let mut child = Command::new(cargo_bin())
        .args(["test", "-p", package, "--lib", filter, "-q"])
        .current_dir(worktree)
        .env("CARGO_TARGET_DIR", worktree.join("target"))
        .env_remove("RUSTFLAGS")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .process_group(0)
        .spawn()?;
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(if status.success() {
                SuiteResult::Passed
            } else {
                SuiteResult::Failed
            });
        }
        if Instant::now() >= deadline {
            // Kill the whole process group (pgid == child pid).
            let _ = Command::new("kill")
                .args(["-KILL", &format!("-{}", child.id())])
                .status();
            let _ = child.kill();
            let _ = child.wait();
            return Ok(SuiteResult::TimedOut);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A temp worktree that removes itself on drop.
struct Worktree {
    path: PathBuf,
}

impl Drop for Worktree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs the full mutation campaign: generate mutants, copy the repo into a
/// temp worktree, verify every target suite is green at baseline, then run
/// each mutant against its suite.
pub fn run_mutation_campaign(config: &MutationConfig) -> MutationReport {
    let mut report = MutationReport {
        generated: 0,
        killed: 0,
        timed_out: 0,
        build_failures: 0,
        survivors: Vec::new(),
        outcomes: Vec::new(),
        errors: Vec::new(),
    };
    let root = repo_root();
    let mutants = match generate_mutants(&root, config.mutants_per_module) {
        Ok(m) => m,
        Err(e) => {
            report.errors.push(format!("mutant generation failed: {e}"));
            return report;
        }
    };
    report.generated = mutants.len();
    let worktree = Worktree {
        path: std::env::temp_dir().join(format!("rp-fuzz-mutate-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&worktree.path);
    if let Err(e) = copy_tree(&root, &worktree.path) {
        report.errors.push(format!("worktree copy failed: {e}"));
        return report;
    }
    // Baseline: every target suite must be green on pristine sources —
    // otherwise Killed verdicts would be meaningless.
    let mut suites: Vec<(&str, &str)> =
        mutants.iter().map(|m| (m.package, m.test_filter)).collect();
    suites.sort_unstable();
    suites.dedup();
    for (package, filter) in &suites {
        match run_suite(&worktree.path, package, filter, config.timeout) {
            Ok(SuiteResult::Passed) => {}
            Ok(other) => {
                report.errors.push(format!(
                    "baseline suite `{package} {filter}` is not green ({other:?}) — \
                     cannot attribute mutant kills"
                ));
                return report;
            }
            Err(e) => {
                report.errors.push(format!(
                    "baseline suite `{package} {filter}` failed to run: {e}"
                ));
                return report;
            }
        }
    }
    // Run every mutant: apply, test, restore.
    for mutant in mutants {
        let file = worktree.path.join(mutant.file);
        let pristine = match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                report
                    .errors
                    .push(format!("{}: read failed: {e}", mutant.id));
                continue;
            }
        };
        let mut lines: Vec<&str> = pristine.split('\n').collect();
        if lines.get(mutant.line - 1).copied() != Some(mutant.original_line.as_str()) {
            report.errors.push(format!(
                "{}: line {} no longer matches the generated mutant",
                mutant.id, mutant.line
            ));
            continue;
        }
        lines[mutant.line - 1] = &mutant.mutated_line;
        let mutated = lines.join("\n");
        if let Err(e) = std::fs::write(&file, &mutated) {
            report
                .errors
                .push(format!("{}: write failed: {e}", mutant.id));
            continue;
        }
        let started = Instant::now();
        let result = run_suite(
            &worktree.path,
            mutant.package,
            mutant.test_filter,
            config.timeout,
        );
        let secs = started.elapsed().as_secs_f64();
        if let Err(e) = std::fs::write(&file, &pristine) {
            report
                .errors
                .push(format!("{}: restore failed: {e}", mutant.id));
            return report; // the worktree is now poisoned; stop.
        }
        let verdict = match result {
            Ok(SuiteResult::Failed) => {
                // Distinguish "tests failed" from "does not compile": a
                // build failure also fails `cargo test`.  Re-apply the
                // mutant, probe `cargo build`, restore.
                let _ = std::fs::write(&file, &mutated);
                let builds = Command::new(cargo_bin())
                    .args(["build", "-p", mutant.package, "-q"])
                    .current_dir(&worktree.path)
                    .env("CARGO_TARGET_DIR", worktree.path.join("target"))
                    .env_remove("RUSTFLAGS")
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
                    .map(|s| s.success())
                    .unwrap_or(false);
                let _ = std::fs::write(&file, &pristine);
                if builds {
                    MutantVerdict::Killed
                } else {
                    MutantVerdict::BuildFailure
                }
            }
            Ok(SuiteResult::TimedOut) => MutantVerdict::KilledByTimeout,
            Ok(SuiteResult::Passed) => MutantVerdict::Survived,
            Err(e) => {
                report
                    .errors
                    .push(format!("{}: suite failed to run: {e}", mutant.id));
                continue;
            }
        };
        match verdict {
            MutantVerdict::Killed => report.killed += 1,
            MutantVerdict::KilledByTimeout => report.timed_out += 1,
            MutantVerdict::BuildFailure => report.build_failures += 1,
            MutantVerdict::Survived => report.survivors.push(mutant.id.clone()),
        }
        report.outcomes.push(MutantOutcome {
            mutant,
            verdict,
            secs,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_lines(target: &MutationTarget) -> Vec<String> {
        std::fs::read_to_string(repo_root().join(target.file))
            .expect("target file exists")
            .split('\n')
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn every_target_yields_candidates_in_multiple_classes() {
        for target in TARGETS {
            let by_class = candidates_for(target, &file_lines(target));
            let populated = by_class.iter().filter(|c| !c.is_empty()).count();
            assert!(
                populated >= 2,
                "{}: only {populated} mutation classes have candidates",
                target.module
            );
        }
    }

    #[test]
    fn every_target_function_has_a_span() {
        for target in TARGETS {
            let lines = file_lines(target);
            for &(name, _) in target.functions {
                let (start, end) =
                    function_span(&lines, name).unwrap_or_else(|| panic!("{name} not found"));
                assert!(end > start, "{name}: span is a single line");
                assert!(
                    lines[start].contains(&format!("fn {name}(")),
                    "{name}: span starts at the signature"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let root = repo_root();
        let a = generate_mutants(&root, 6).expect("generate");
        let b = generate_mutants(&root, 6).expect("generate");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn selection_covers_every_module() {
        let mutants = generate_mutants(&repo_root(), 4).expect("generate");
        for target in TARGETS {
            assert!(
                mutants.iter().any(|m| m.module == target.module),
                "{}: no mutants selected",
                target.module
            );
        }
    }

    #[test]
    fn mutated_lines_differ_from_originals() {
        for mutant in generate_mutants(&repo_root(), 8).expect("generate") {
            assert_ne!(
                mutant.original_line, mutant.mutated_line,
                "{}: no-op mutant",
                mutant.id
            );
        }
    }

    #[test]
    fn baseline_parsing_skips_comments_and_blanks() {
        let dir = std::env::temp_dir().join(format!("rp-fuzz-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("survivors.txt");
        std::fs::write(&path, "# comment\n\nbound:bound.rs:10:boundary:deadbeef\n").expect("write");
        let baseline = load_baseline(&path);
        assert_eq!(baseline.len(), 1);
        assert!(baseline.contains("bound:bound.rs:10:boundary:deadbeef"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn int_literal_scanner_skips_hex_and_floats() {
        assert_eq!(first_int_literal("let x = 0x10;"), None);
        assert_eq!(first_int_literal("let x = 2.5;"), None);
        assert_eq!(first_int_literal("let x3 = id4;"), None);
        assert_eq!(first_int_literal("let x = 42;"), Some((8, 2, 42)));
        assert_eq!(first_int_literal("v[i + 1]"), Some((6, 1, 1)));
    }

    #[test]
    fn if_keyword_detection_skips_if_let() {
        assert!(is_if_keyword("if a < b {", 0));
        assert!(!is_if_keyword("if let Some(x) = y {", 0));
        assert!(!is_if_keyword("elif x {", 2));
        let code = "} else if cond {";
        assert!(is_if_keyword(code, code.find("if ").unwrap()));
    }
}
