//! I-Cilk in Rust: a prioritized task-parallel runtime for interactive
//! parallel applications.
//!
//! This crate implements Section 4 of *Responsive Parallelism with Futures
//! and State* (PLDI 2020):
//!
//! * [`priority`] — type-level priorities and the `OutranksOrEqual` marker
//!   trait, the Rust analogue of the paper's C++ template encoding of the
//!   λ⁴ᵢ `Touch` rule (priority inversions are compile errors), plus the
//!   dynamically-checked [`priority::PrioritySet`] used by the scheduler;
//! * [`future`] — prioritized futures: `fcreate` returns an [`future::IFuture`],
//!   `ftouch` waits for it (helping execute other ready tasks, but none
//!   below the lower of the waiting task's and the future's priorities);
//! * [`pool`] / [`worker`] — per-priority-level task pools served by a fixed
//!   set of worker threads, which park when there is nothing to run;
//! * [`master`] — the two-level adaptive scheduler: every quantum it
//!   re-evaluates each level's *desire* from its measured utilization
//!   (multiplying or dividing by the growth parameter γ) and hands out cores
//!   from the highest priority downward (the A-STEAL-style strategy of §4.3);
//! * [`baseline`] — the priority-oblivious configuration standing in for
//!   Cilk-F: identical machinery with a single FIFO pool and no master;
//! * [`io_future`] — latency-hiding I/O futures: a reactor thread completes
//!   simulated I/O after a sampled latency without occupying a worker
//!   (the `io_future` / `cilk_read` / `cilk_write` substitute);
//! * [`metrics`] — per-level response-time and compute-time statistics
//!   (mean and 95th percentile, the quantities of Figures 13 and 14),
//!   sharded per recording thread so the task-completion hot path never
//!   contends on a global lock;
//! * [`trace`] — an optional low-overhead execution tracer (sharded like
//!   [`metrics`]) whose event log `rp_core::trace` reconstructs into a cost
//!   graph and schedule, making the Theorem 2.3 response-time bound an
//!   executable invariant of real runs;
//! * [`runtime`] — the public [`runtime::Runtime`] facade tying it together.
//!
//! # Quick start
//!
//! ```
//! use rp_icilk::runtime::{Runtime, RuntimeConfig, SchedulerKind};
//!
//! // Two priority levels: background below interactive.
//! let config = RuntimeConfig::new(2, 2).with_level_names(["background", "interactive"]);
//! let rt = Runtime::start(config);
//! let interactive = rt.priority_by_name("interactive").unwrap();
//! let f = rt.fcreate(interactive, || 6 * 7);
//! assert_eq!(rt.ftouch_blocking(&f), 42);
//! rt.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod future;
pub mod io_future;
pub mod master;
pub mod metrics;
pub mod pool;
pub mod priority;
mod queue;
pub mod runtime;
pub mod trace;
pub mod worker;

pub use future::IFuture;
pub use priority::{OutranksOrEqual, PriorityLevel};
pub use runtime::{Runtime, RuntimeConfig, SchedulerKind};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, ignoring poisoning: a task that panics must not wedge
/// every later user of a lock it happened to hold.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
