//! Cooperative fail-stop token.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// A receiver parked in a blocking wait, as seen by the token that may have
/// to interrupt it.
pub(crate) trait Wake: Send + Sync {
    /// Makes the parked thread re-check its token.
    ///
    /// Must serialize with the parker's check-then-park: take (and release)
    /// the lock the thread parks under before notifying, so the call lands
    /// either before the parker's flag check or after it is already asleep.
    fn wake(&self);
}

#[derive(Default)]
struct Inner {
    cancelled: AtomicBool,
    parked: Mutex<Parked>,
}

/// The receivers currently parked under this token. Touched once per
/// *blocking wait* (register, deregister) and once per `cancel()` — never
/// per message.
#[derive(Default)]
struct Parked {
    next_key: u64,
    waiters: Vec<(u64, Arc<dyn Wake>)>,
    cancelled_at: Option<Instant>,
}

/// Shared fail-stop flag for one run.
///
/// The paper's fail-stop discipline halts the whole machine when any node
/// signals ERROR. All endpoints of a run clone one token; `cancel()` is
/// idempotent and **wakes** every receiver blocked under the token, so a
/// fail-stop reaches transport-blocked threads as an event, not at their
/// next timer tick, and without any transport cooperation.
///
/// # No lost wake-up
///
/// A receiver about to park does, in order: (r1) register with the token
/// under the token's lock, (r2) take its mailbox lock, (r3) check the flag,
/// (r4) park, releasing the mailbox lock atomically. `cancel()` does:
/// (c1) set the flag, (c2) take the registered waiters under the token's
/// lock, (c3) for each, take and release its mailbox lock, then notify.
/// The token's lock orders r1 against c2. If r1 comes first the receiver is
/// in the list c2 takes, and c3's mailbox lock lands either before r2 — so
/// r3, which follows c1 through that lock, sees the flag — or after r4, so
/// the notify finds the receiver asleep and wakes it. If c2 comes first,
/// r1's acquisition of the token's lock follows c1, and r3 sees the flag.
/// Either way a receiver never sleeps through a `cancel()` that returned
/// before, or ran while, it was parking.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<Inner>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signals fail-stop to every holder of this token and wakes the
    /// receivers blocked under it.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Release);
        let waiters = {
            let mut parked = self.0.parked.lock();
            parked.cancelled_at.get_or_insert_with(Instant::now);
            std::mem::take(&mut parked.waiters)
        };
        for (_, waiter) in waiters {
            waiter.wake();
        }
    }

    /// `true` once any holder has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Acquire)
    }

    /// When the first `cancel()` was called; `None` while uncancelled.
    pub fn cancelled_at(&self) -> Option<Instant> {
        self.0.parked.lock().cancelled_at
    }

    /// Registers `waiter` to be woken by `cancel()` until the returned
    /// guard drops. Call before taking the lock the waiter parks under.
    pub(crate) fn park(&self, waiter: Arc<dyn Wake>) -> ParkGuard<'_> {
        let mut parked = self.0.parked.lock();
        let key = parked.next_key;
        parked.next_key += 1;
        parked.waiters.push((key, waiter));
        ParkGuard { token: self, key }
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CancelToken")
            .field(&self.is_cancelled())
            .finish()
    }
}

/// One blocking wait's registration with its token.
pub(crate) struct ParkGuard<'a> {
    token: &'a CancelToken,
    key: u64,
}

impl Drop for ParkGuard<'_> {
    fn drop(&mut self) {
        let mut parked = self.token.0.parked.lock();
        if let Some(at) = parked.waiters.iter().position(|(key, _)| *key == self.key) {
            parked.waiters.swap_remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        assert!(b.cancelled_at().is_none());
        a.cancel();
        assert!(b.is_cancelled());
        let first = b.cancelled_at().expect("stamped by the first cancel");
        // Idempotent, and the stamp is the *first* cancel's.
        b.cancel();
        assert!(a.is_cancelled());
        assert_eq!(a.cancelled_at(), Some(first));
    }

    struct CountingWaiter(AtomicUsize);

    impl Wake for CountingWaiter {
        fn wake(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn cancel_wakes_only_currently_parked_waiters() {
        let token = CancelToken::new();
        let gone = Arc::new(CountingWaiter(AtomicUsize::new(0)));
        let parked = Arc::new(CountingWaiter(AtomicUsize::new(0)));
        drop(token.park(gone.clone()));
        let guard = token.park(parked.clone());
        token.cancel();
        token.cancel();
        drop(guard);
        assert_eq!(gone.0.load(Ordering::SeqCst), 0, "deregistered on drop");
        assert_eq!(parked.0.load(Ordering::SeqCst), 1, "woken exactly once");
    }
}
