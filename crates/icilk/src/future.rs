//! Prioritized futures.
//!
//! An [`IFuture`] is the handle returned by `fcreate`: a write-once cell that
//! the spawned task fills in and that `ftouch` waits on.  The typed wrapper
//! [`TypedFuture`] additionally carries the priority level in its type so
//! that touching it from lower-priority code can be rejected at compile time
//! (see [`crate::priority`]).

use crate::lock;
use crate::priority::PriorityLevel;
use rp_priority::Priority;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The shared state behind an [`IFuture`].
#[derive(Debug)]
pub(crate) struct FutureInner<T> {
    state: Mutex<Option<T>>,
    ready: Condvar,
    priority: Priority,
    created_at: Instant,
    /// The backing task's trace key when the runtime records an execution
    /// trace (`0` = untraced).  Set once, before the handle is handed out.
    trace_key: AtomicU64,
}

/// A handle to a running prioritized task (the paper's thread handle /
/// future reference).
///
/// Cloning the handle is cheap; all clones refer to the same task.
#[derive(Debug)]
pub struct IFuture<T> {
    inner: Arc<FutureInner<T>>,
}

impl<T> Clone for IFuture<T> {
    fn clone(&self) -> Self {
        IFuture {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> IFuture<T> {
    /// Creates an unfulfilled future at the given priority.
    pub(crate) fn new(priority: Priority) -> Self {
        IFuture {
            inner: Arc::new(FutureInner {
                state: Mutex::new(None),
                ready: Condvar::new(),
                priority,
                created_at: Instant::now(),
                trace_key: AtomicU64::new(0),
            }),
        }
    }

    /// Tags the future with its backing task's trace key.  Called by the
    /// runtime before the handle is returned to the caller, so every
    /// `ftouch` through the handle sees the key.
    pub(crate) fn set_trace_key(&self, key: u64) {
        self.inner.trace_key.store(key, Ordering::Relaxed);
    }

    /// The backing task's trace key, if the future was created by a tracing
    /// runtime.
    pub(crate) fn trace_key(&self) -> Option<u64> {
        match self.inner.trace_key.load(Ordering::Relaxed) {
            0 => None,
            k => Some(k),
        }
    }

    /// The priority the task was created at.
    pub fn priority(&self) -> Priority {
        self.inner.priority
    }

    /// When the future was created (used for response-time accounting).
    pub fn created_at(&self) -> Instant {
        self.inner.created_at
    }

    /// Whether the task has completed.
    pub fn is_ready(&self) -> bool {
        lock(&self.inner.state).is_some()
    }

    /// Creates a future that is not backed by a spawned task; the caller is
    /// responsible for fulfilling it exactly once with
    /// [`fulfill`](Self::fulfill).  Used for hand-rolled coordination
    /// patterns such as the email case study's print/compress slot.
    pub fn detached(priority: Priority) -> Self {
        Self::new(priority)
    }

    /// Fulfils a future created with [`detached`](Self::detached).
    ///
    /// Returns `false` (and leaves the existing value in place) if the future
    /// had already been fulfilled.
    pub fn fulfill(&self, value: T) -> bool {
        let mut guard = lock(&self.inner.state);
        if guard.is_some() {
            return false;
        }
        *guard = Some(value);
        self.inner.ready.notify_all();
        true
    }

    /// Fulfils the future.  Called exactly once, by the task body wrapper.
    pub(crate) fn complete(&self, value: T) {
        let mut guard = lock(&self.inner.state);
        debug_assert!(guard.is_none(), "a future is completed exactly once");
        *guard = Some(value);
        self.inner.ready.notify_all();
    }

    /// Blocks the calling thread until the value is available and clones it
    /// out.  Prefer [`crate::runtime::Runtime::ftouch`] from inside tasks —
    /// it helps execute other ready work instead of blocking a worker.
    pub fn wait_clone(&self) -> T
    where
        T: Clone,
    {
        let guard = self
            .inner
            .ready
            .wait_while(lock(&self.inner.state), |v| v.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        guard.as_ref().expect("woken with a value").clone()
    }

    /// Blocks with a timeout; returns `None` on timeout.
    pub fn wait_clone_timeout(&self, timeout: Duration) -> Option<T>
    where
        T: Clone,
    {
        let (guard, _) = self
            .inner
            .ready
            .wait_timeout_while(lock(&self.inner.state), timeout, |v| v.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        guard.clone()
    }

    /// Returns the value if already available, without blocking.
    pub fn try_get(&self) -> Option<T>
    where
        T: Clone,
    {
        lock(&self.inner.state).clone()
    }
}

/// A future whose priority level is tracked in the type system.
///
/// Obtained from [`crate::runtime::Runtime::fcreate_typed`]; touching it via
/// [`crate::runtime::Runtime::ftouch_typed`] requires the touched level to
/// outrank (or equal) the toucher's level, so priority inversions do not
/// compile.
#[derive(Debug)]
pub struct TypedFuture<T, P: PriorityLevel> {
    future: IFuture<T>,
    _level: PhantomData<P>,
}

impl<T, P: PriorityLevel> Clone for TypedFuture<T, P> {
    fn clone(&self) -> Self {
        TypedFuture {
            future: self.future.clone(),
            _level: PhantomData,
        }
    }
}

impl<T, P: PriorityLevel> TypedFuture<T, P> {
    /// Wraps an untyped future.  The caller asserts that the future really
    /// was created at level `P` (the runtime's `fcreate_typed` is the only
    /// intended caller).
    pub(crate) fn wrap(future: IFuture<T>) -> Self {
        TypedFuture {
            future,
            _level: PhantomData,
        }
    }

    /// The untyped handle.
    pub fn untyped(&self) -> &IFuture<T> {
        &self.future
    }

    /// The compile-time level's index.
    pub fn level_index(&self) -> usize {
        P::INDEX
    }
}

/// A zero-sized witness that the holder is running at priority level `P`.
///
/// `ftouch_typed` takes the witness of the *calling* code's priority, so the
/// `OutranksOrEqual` bound relates the touched future's level to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityCtx<P: PriorityLevel> {
    _level: PhantomData<P>,
}

impl<P: PriorityLevel> PriorityCtx<P> {
    /// Creates the witness.  (There is nothing to check at runtime; the value
    /// only exists to carry `P` to touch sites.)
    pub fn new() -> Self {
        PriorityCtx {
            _level: PhantomData,
        }
    }

    /// The level's index.
    pub fn level_index(&self) -> usize {
        P::INDEX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_priority::PriorityDomain;
    use std::thread;

    fn prio() -> Priority {
        PriorityDomain::numeric(1).by_index(0)
    }

    #[test]
    fn complete_then_wait() {
        let f = IFuture::new(prio());
        assert!(!f.is_ready());
        assert_eq!(f.try_get(), None);
        f.complete(5);
        assert!(f.is_ready());
        assert_eq!(f.try_get(), Some(5));
        assert_eq!(f.wait_clone(), 5);
    }

    #[test]
    fn wait_across_threads() {
        let f: IFuture<String> = IFuture::new(prio());
        let g = f.clone();
        let h = thread::spawn(move || g.wait_clone());
        thread::sleep(Duration::from_millis(5));
        f.complete("done".to_string());
        assert_eq!(h.join().unwrap(), "done");
    }

    #[test]
    fn wait_timeout_expires() {
        let f: IFuture<u32> = IFuture::new(prio());
        assert_eq!(f.wait_clone_timeout(Duration::from_millis(5)), None);
        f.complete(1);
        assert_eq!(f.wait_clone_timeout(Duration::from_millis(5)), Some(1));
    }

    #[test]
    fn metadata_accessors() {
        let f: IFuture<u32> = IFuture::new(prio());
        assert_eq!(f.priority(), prio());
        assert!(f.created_at() <= Instant::now());
    }
}
