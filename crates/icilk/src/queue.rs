//! The runtime's one task queue type: a `Mutex<VecDeque>` held for a few
//! instructions per operation.
//!
//! It serves both as a worker's deque and as a shared injector.  The owner
//! of a deque pushes and pops at the back (newest first: the child its
//! parent touches next is on top); thieves, and every consumer of an
//! injector, pop at the front (oldest first).  Nothing here is lock-free:
//! the scheduler relies only on the contention *structure* (one owner and
//! occasional thieves per deque), not on a Chase–Lev deque.

use crate::lock;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// A FIFO/LIFO task queue behind a short-critical-section lock.
pub(crate) struct TaskQueue<T> {
    tasks: Mutex<VecDeque<T>>,
}

impl<T> TaskQueue<T> {
    pub(crate) fn new() -> Self {
        TaskQueue {
            tasks: Mutex::new(VecDeque::new()),
        }
    }

    /// Pushes a task onto the back.
    pub(crate) fn push(&self, task: T) {
        lock(&self.tasks).push_back(task);
    }

    /// Pops the newest task: the owner's end of a deque.
    pub(crate) fn pop(&self) -> Option<T> {
        lock(&self.tasks).pop_back()
    }

    /// Pops the oldest task: a thief's end of a deque, and an injector's
    /// only end.
    pub(crate) fn steal(&self) -> Option<T> {
        lock(&self.tasks).pop_front()
    }

    /// Number of queued tasks (a racy snapshot).
    pub(crate) fn len(&self) -> usize {
        lock(&self.tasks).len()
    }

    /// Whether the queue was observed empty.
    pub(crate) fn is_empty(&self) -> bool {
        lock(&self.tasks).is_empty()
    }
}

impl<T> fmt::Debug for TaskQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn injector_is_fifo() {
        let q = TaskQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.steal(), Some(1));
        assert_eq!(q.steal(), Some(2));
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let q = TaskQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.steal(), Some(1), "thief takes oldest");
        assert_eq!(q.pop(), Some(3), "owner takes newest");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stealing_across_threads_loses_nothing() {
        let q = Arc::new(TaskQueue::new());
        for i in 0..1000 {
            q.push(i);
        }
        let thieves: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.steal() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<i32> = thieves
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        while let Some(v) = q.pop() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }
}
