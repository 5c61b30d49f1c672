//! The runtimes `compile_and_run` keeps between programs belong to the
//! calling thread: they are reused while it runs, bounded in number
//! whatever shapes its programs have, and their threads are joined when it
//! exits.
//!
//! This file holds a single test, so its process runs nothing else and the
//! `/proc/self/task` count below sees only this test's runtimes.

use rp_lambda4i::compile::{compile_and_run, CompileConfig};
use rp_lambda4i::progs;
use rp_lambda4i::syntax::{dsl, Program, Type};
use rp_priority::PriorityDomain;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live threads of this process.  All of them, not only those named
/// `icilk-*`: a new thread takes its name only once it first runs, so a
/// runtime just started may not show all its threads by name yet.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Waits up to ten seconds for at most `limit` live threads: a runtime
/// whose last handle a worker of its own drops is shut down on that worker,
/// which exits just after.
fn settle_to(limit: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = live_threads();
        if now <= limit {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{now} threads alive {what}, limit {limit}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A program over a domain of `levels` levels, as a client's
/// `priorities:` line may declare.
fn program_with_levels(levels: usize) -> Program {
    let dom = PriorityDomain::numeric(levels);
    Program {
        name: format!("levels-{levels}"),
        main_priority: dom.by_index(0),
        domain: dom,
        main: Arc::new(dsl::ret(dsl::nat(levels as u64))),
        return_type: Type::Nat,
    }
}

#[test]
fn pooled_runtimes_shut_down_when_their_thread_exits() {
    let baseline = live_threads();
    let programs = [progs::parallel_fib(5), progs::server_with_background(2, 3)];
    let config = CompileConfig::default();
    let held = std::thread::spawn(move || {
        let mut counts = Vec::new();
        for _ in 0..2 {
            for prog in &programs {
                compile_and_run(prog, &config).expect("program runs");
            }
            counts.push(live_threads());
        }
        counts
    })
    .join()
    .expect("the program thread panicked");
    assert!(
        held[0] > baseline,
        "no runtime kept between programs: {held:?}, baseline {baseline}"
    );
    assert_eq!(
        held[0], held[1],
        "a second round of the same shapes started new runtimes"
    );
    settle_to(baseline, "after the thread exited");

    // The two shapes above are as many idle runtimes as a thread keeps:
    // programs of ten more level counts on one thread never leave more
    // threads alive than those two did.
    let kept = held[0] - baseline;
    let config = CompileConfig::default();
    std::thread::spawn(move || {
        for levels in 1..=10 {
            compile_and_run(&program_with_levels(levels), &config).expect("program runs");
            settle_to(baseline + kept, &format!("after {levels} level counts"));
        }
    })
    .join()
    .expect("the program thread panicked");
    settle_to(baseline, "after the second thread exited");
}
