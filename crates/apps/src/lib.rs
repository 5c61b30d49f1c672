//! The I-Cilk case-study applications (Section 5.1) and their load-sweep
//! harness.
//!
//! Three applications, mirroring the paper's benchmarks:
//!
//! * [`proxy`] — a caching proxy server: a high-priority event loop answers
//!   client requests from a shared cache; cache misses are delegated to
//!   lower-priority fetch tasks that perform simulated network I/O; a
//!   logging component and the main/shutdown code run at still lower
//!   priorities (4 levels);
//! * [`email`] — a multi-user email client: an event loop handles user
//!   requests (send / sort / print), a periodic check component fires off
//!   compression of mailboxes with Huffman codes, and print/compress tasks
//!   coordinate through per-message slots holding future handles (6 levels);
//! * [`jserver`] — a job server executing Poisson-arriving jobs of four
//!   classes (matrix multiplication, Fibonacci, mergesort, Smith-Waterman)
//!   under a smallest-work-first priority assignment (4 levels).
//!
//! The [`harness`] module runs any of them against both the I-Cilk runtime
//! and the priority-oblivious baseline under a configurable load, collecting
//! the response-time and compute-time statistics that Figures 13 and 14
//! report.  Load is generated either closed-loop (each connection waits for
//! its reply) or open-loop ([`harness::drive_open_loop`]): Poisson arrivals
//! at a configured rate with warmup/measurement windows and
//! coordinated-omission-corrected latencies, the paper's actual workload
//! model for the rate sweeps.
//!
//! The [`faults`] module adds a seeded fault-injection layer for the socket
//! path (injected disconnects, partial writes, delayed/corrupted/truncated
//! reads), used by the chaos tests on both the client and server side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod email;
pub mod faults;
pub mod harness;
pub mod jserver;
pub mod proxy;

pub use faults::{FaultConfig, FaultPlan, FaultSession, ReadFault, WriteFault};
pub use harness::{
    ExperimentConfig, ExperimentReport, LevelReport, LoadMode, OpenLoopConfig, OpenLoopOutcome,
    ResilienceConfig, StreamingTraceCollector, StreamingTraceReport,
};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, ignoring poisoning: a task that panics must not wedge
/// every later user of a lock it happened to hold.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
