//! Virtual time and a discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in microseconds from the start of the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// The origin of virtual time.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Builds a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        VirtualTime(us)
    }

    /// Builds a time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        VirtualTime(ms * 1_000)
    }

    /// The value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The value in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(other.0))
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;
    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 - rhs.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

/// A discrete-event queue: events of type `E` scheduled at virtual times,
/// popped in time order (FIFO among equal times, by insertion order).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(VirtualTime, u64, usize)>>,
    events: Vec<Option<E>>,
    now: VirtualTime,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            now: VirtualTime::ZERO,
            seq: 0,
        }
    }

    /// The current virtual time (the time of the most recently popped event).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if the time is in the past (before `now`).
    pub fn schedule_at(&mut self, time: VirtualTime, event: E) {
        assert!(time >= self.now, "cannot schedule an event in the past");
        let idx = self.events.len();
        self.events.push(Some(event));
        self.heap.push(Reverse((time, self.seq, idx)));
        self.seq += 1;
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: VirtualTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        let Reverse((time, _, idx)) = self.heap.pop()?;
        self.now = time;
        let event = self.events[idx].take().expect("event popped once");
        Some((time, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let a = VirtualTime::from_millis(2);
        let b = VirtualTime::from_micros(500);
        assert_eq!((a + b).as_micros(), 2_500);
        assert_eq!((a - b).as_micros(), 1_500);
        assert_eq!(b.saturating_sub(a), VirtualTime::ZERO);
        assert_eq!(a.as_millis_f64(), 2.0);
        assert_eq!(format!("{b}"), "500µs");
    }

    #[test]
    fn queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(VirtualTime(30), "c");
        q.schedule_at(VirtualTime(10), "a");
        q.schedule_at(VirtualTime(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((VirtualTime(10), "a")));
        assert_eq!(q.now(), VirtualTime(10));
        assert_eq!(q.pop(), Some((VirtualTime(20), "b")));
        assert_eq!(q.pop(), Some((VirtualTime(30), "c")));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(VirtualTime(5), 1);
        q.schedule_at(VirtualTime(5), 2);
        q.schedule_at(VirtualTime(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(VirtualTime(100), "first");
        let _ = q.pop();
        q.schedule_after(VirtualTime(50), "second");
        assert_eq!(q.pop(), Some((VirtualTime(150), "second")));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(VirtualTime(100), ());
        let _ = q.pop();
        q.schedule_at(VirtualTime(50), ());
    }
}
