//! Deadline-ordered timer wheel shared by the mux tx servicers and the
//! service batcher.
//!
//! A tx servicer multiplexes every timed obligation of its sessions —
//! heartbeat emission, retry backoff — through one [`TimerWheel`] instead
//! of a clock per session. The wheel is a min-heap of `(deadline, payload)`
//! entries; the owner pops expired entries each pass and uses
//! [`TimerWheel::next_deadline`] to bound its idle sleep, so a sleeping
//! loop still wakes exactly when the earliest obligation comes due.
//!
//! Cancellation is lazy: payloads carry the session id, and a fired timer
//! whose session is gone is simply ignored. That keeps scheduling
//! O(log n) with no removal bookkeeping — the standard hashed/hierarchical
//! wheel trade, collapsed to a heap because an owner holds at most a few
//! hundred timers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

struct Entry<T> {
    at: Reverse<Instant>,
    timer: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at)
    }
}

/// Deadline-ordered timer store for one event-driven loop.
pub(crate) struct TimerWheel<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedules `timer` to fire at `at`.
    pub(crate) fn schedule(&mut self, at: Instant, timer: T) {
        self.heap.push(Entry {
            at: Reverse(at),
            timer,
        });
    }

    /// Pops the earliest timer whose deadline is at or before `now`, if any.
    pub(crate) fn pop_expired(&mut self, now: Instant) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.at.0 <= now) {
            self.heap.pop().map(|e| e.timer)
        } else {
            None
        }
    }

    /// The earliest pending deadline — the latest instant the owner may
    /// sleep until without missing an obligation.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.at.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fires_in_deadline_order_regardless_of_insertion() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        wheel.schedule(base + Duration::from_millis(30), 3);
        wheel.schedule(base + Duration::from_millis(10), 1);
        wheel.schedule(base + Duration::from_millis(20), 2);
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(10))
        );
        let late = base + Duration::from_millis(25);
        assert_eq!(wheel.pop_expired(late), Some(1));
        assert_eq!(wheel.pop_expired(late), Some(2));
        assert_eq!(wheel.pop_expired(late), None, "timer 3 is not yet due");
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(30))
        );
    }

    #[test]
    fn nothing_expires_before_its_deadline() {
        let base = Instant::now();
        let mut wheel: TimerWheel<&'static str> = TimerWheel::new();
        assert_eq!(wheel.next_deadline(), None);
        wheel.schedule(base + Duration::from_secs(60), "flush");
        assert_eq!(wheel.pop_expired(base), None);
        assert_eq!(
            wheel.pop_expired(base + Duration::from_secs(61)),
            Some("flush")
        );
    }
}
