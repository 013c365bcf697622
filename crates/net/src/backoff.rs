//! Capped exponential backoff for send retries.

use std::time::Duration;

/// A capped exponential delay sequence: `initial, 2·initial, 4·initial, …`
/// clamped to `max`.
///
/// Deliberately deterministic (no jitter): retries here are per-link with
/// at most a handful of attempts, and reproducible timing keeps failure
/// traces comparable across runs.
#[derive(Debug, Clone)]
pub struct Backoff {
    initial: Duration,
    max: Duration,
    current: Duration,
}

impl Backoff {
    /// Starts a sequence at `initial`, never exceeding `max`.
    pub fn new(initial: Duration, max: Duration) -> Self {
        Self {
            initial,
            max,
            current: initial,
        }
    }

    /// The delay to sleep before the next retry; doubles for the one after.
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.current.min(self.max);
        self.current = (self.current * 2).min(self.max);
        delay
    }

    /// Restarts the sequence (after a successful operation).
    pub(crate) fn reset(&mut self) {
        self.current = self.initial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_capped() {
        let mut b = Backoff::new(Duration::from_millis(5), Duration::from_millis(35));
        assert_eq!(b.next_delay(), Duration::from_millis(5));
        assert_eq!(b.next_delay(), Duration::from_millis(10));
        assert_eq!(b.next_delay(), Duration::from_millis(20));
        assert_eq!(b.next_delay(), Duration::from_millis(35));
        assert_eq!(b.next_delay(), Duration::from_millis(35));
        b.reset();
        assert_eq!(b.next_delay(), Duration::from_millis(5));
    }
}
