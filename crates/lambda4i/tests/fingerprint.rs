//! Golden fingerprint of what the abstract machine computes, and of what the
//! runtime evaluator agrees with.
//!
//! The digest covers, for every program below at P ∈ {1, 2, 3} under the
//! prompt policy: the value, the number of parallel steps, every cost-graph
//! edge, the executed schedule, the promptness verdict, the
//! [`GraphReport`](rp_lambda4i::run::GraphReport) and every per-thread
//! report with its Theorem 2.3 `BoundReport`.  A change to how either back
//! end evaluates (substitution, frame handling, sharing of continuations)
//! must leave this digest byte-identical.
//!
//! The same test checks that neither back end writes through the program it
//! was given (the `Program` compares equal to an independently built copy
//! after both runs), that the runtime's value equals the machine's on every
//! program the schedule explorer finds race-free, and that it is one of the
//! explorer's outcomes wherever the exploration completes.

use rp_lambda4i::compile::{compile_and_run, CompileConfig};
use rp_lambda4i::explore::{explore_program, ExploreConfig};
use rp_lambda4i::progs;
use rp_lambda4i::run::{run_program, RunConfig, RunResult};
use rp_lambda4i::syntax::dsl::*;
use rp_lambda4i::syntax::{Cmd, Expr, Program, Type};
use rp_priority::PriorityDomain;
use std::fmt::Write as _;
use std::sync::Arc;

/// The pinned digest of every case below.  Regenerate only for a change
/// that is meant to alter what a back end computes, and say so.
const GOLDEN: u64 = 0x8a40_b87e_3d45_8687;

/// A `k`-way fork–join: `k` futures each count down from `w`, the main
/// thread touches all of them and sums (the benchmark's fork–join shape).
fn fork_join(k: usize, w: u64) -> Program {
    let dom = PriorityDomain::single();
    let p = dom.by_index(0);
    let work = fix(
        "loop",
        Type::arrow(Type::Nat, Type::Nat),
        lam(
            "n",
            Type::Nat,
            ifz(
                var("n"),
                nat(0),
                "m",
                add(nat(1), app(var("loop"), var("m"))),
            ),
        ),
    );
    let mut sum = nat(0);
    for i in 0..k {
        sum = add(sum, var(&format!("v{i}")));
    }
    let mut body: Cmd = ret(sum);
    for i in (0..k).rev() {
        body = bind(
            &format!("v{i}"),
            cmd(p, ftouch(var(&format!("t{i}")))),
            body,
        );
    }
    for i in (0..k).rev() {
        let child = ret(app(work.clone(), nat(w)));
        body = bind(&format!("t{i}"), cmd(p, fcreate(p, Type::Nat, child)), body);
    }
    Program {
        name: "fork-join".to_string(),
        domain: dom,
        main_priority: p,
        main: Arc::new(body),
        return_type: Type::Nat,
    }
}

/// One case: a label and a builder (called twice, so the copy used as the
/// reference shares nothing with the copy that runs).
type Case = (String, Box<dyn Fn() -> Program>);

/// The schedule explorer's verdict on a program: whether it races, and,
/// when the exploration completes within its budget, every value the
/// program can produce.
fn explore(prog: &Program) -> (bool, Option<Vec<Expr>>) {
    let config = ExploreConfig {
        max_schedules: 100,
        check_bounds: false,
        ..ExploreConfig::default()
    };
    let report = explore_program(prog, &config).expect("the explorer runs every case");
    let values = report
        .complete
        .then(|| report.outcomes.iter().map(|o| o.value.clone()).collect());
    (report.racy(), values)
}

fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = Vec::new();
    for n in 4..=6 {
        out.push((format!("fib-{n}"), Box::new(move || progs::parallel_fib(n))));
    }
    for (r, b) in [(2, 1), (3, 2), (4, 3)] {
        out.push((
            format!("server-{r}-{b}"),
            Box::new(move || progs::server_with_background(r, b)),
        ));
    }
    for (k, w) in [(4, 4), (6, 8), (8, 12)] {
        out.push((
            format!("fork-join-{k}-{w}"),
            Box::new(move || fork_join(k, w)),
        ));
    }
    for i in 0..progs::case_studies().len() {
        out.push((
            format!("case-study-{i}"),
            Box::new(move || progs::case_studies().swap_remove(i)),
        ));
    }
    out.push(("figure1".into(), Box::new(progs::figure1_program)));
    out.push((
        "email-coordination".into(),
        Box::new(progs::email_coordination_program),
    ));
    out.push(("racy-counter".into(), Box::new(progs::racy_counter_program)));
    out.push(("cas-counter".into(), Box::new(progs::cas_counter_program)));
    out.push(("handoff".into(), Box::new(progs::handoff_program)));
    out
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything the digest covers of one run, as text.
fn describe(r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "value {:?}", r.value);
    let _ = writeln!(s, "steps {}", r.steps);
    let _ = writeln!(s, "edges {:?}", r.graph.edges());
    let _ = writeln!(s, "schedule {:?}", r.schedule.steps);
    let _ = writeln!(s, "prompt {}", r.prompt);
    let _ = writeln!(s, "graph {:?}", r.graph_report);
    for t in &r.threads {
        let _ = writeln!(s, "thread {t:?}");
    }
    s
}

#[test]
fn golden_fingerprint_of_both_back_ends() {
    let mut listing = String::new();
    let mut all = String::new();
    for (label, build) in cases() {
        let prog = build();
        let reference = build();
        let mut machine_value = None;
        for cores in 1..=3 {
            let config = RunConfig {
                cores,
                ..RunConfig::default()
            };
            let result =
                run_program(&prog, &config).unwrap_or_else(|e| panic!("{label} P={cores}: {e}"));
            let text = describe(&result);
            let _ = writeln!(
                listing,
                "{label} P={cores}: {:016x}",
                fnv64(text.as_bytes())
            );
            let _ = write!(all, "{label} P={cores}\n{text}");
            machine_value = Some(result.value);
        }
        let runtime = compile_and_run(&prog, &CompileConfig::default())
            .unwrap_or_else(|e| panic!("{label} on the runtime: {e}"));
        let (racy, values) = explore(&prog);
        if !racy {
            assert_eq!(
                Some(&runtime.value),
                machine_value.as_ref(),
                "{label}: runtime and machine disagree"
            );
        }
        if let Some(values) = values {
            assert!(
                values.contains(&runtime.value),
                "{label}: the runtime's value {:?} is not among the explorer's {values:?}",
                runtime.value
            );
        }
        assert_eq!(
            prog, reference,
            "{label}: a back end wrote through the program"
        );
    }
    let digest = fnv64(all.as_bytes());
    assert_eq!(
        digest, GOLDEN,
        "fingerprint drifted to {digest:#018x}; per case:\n{listing}"
    );
}
