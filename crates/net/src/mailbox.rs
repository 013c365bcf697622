//! The blocking receive every in-process link end shares: a FIFO mailbox
//! whose parked receiver a [`CancelToken`] can wake.
//!
//! [`InProc`](crate::InProc) links, the simulator's host links and the
//! typed inbox behind a mux receiver are all one [`mailbox`] pair, so the
//! deadline / cancel / closed contract of
//! [`LinkRx::recv_deadline`](crate::LinkRx::recv_deadline) is implemented
//! exactly once.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cancel::Wake;
use crate::{CancelToken, LinkRx, LinkTx, NetError};

struct State<T> {
    queue: VecDeque<T>,
    /// Receivers inside the condvar wait; a send skips the notify (a
    /// syscall) when nobody is.
    parked: usize,
    tx_alive: bool,
    rx_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T: Send> Wake for Shared<T> {
    fn wake(&self) {
        drop(self.state.lock());
        self.ready.notify_all();
    }
}

/// Creates an unbounded FIFO mailbox: one sending and one receiving end.
///
/// Dropping the sender makes a drained receiver report
/// [`NetError::Closed`]; dropping the receiver makes `send` fail the same
/// way.
pub fn mailbox<T: Send + 'static>() -> (MailboxTx<T>, MailboxRx<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            parked: 0,
            tx_alive: true,
            rx_alive: true,
        }),
        ready: Condvar::new(),
    });
    (
        MailboxTx {
            shared: Arc::clone(&shared),
        },
        MailboxRx { shared },
    )
}

/// The sending end of a [`mailbox`].
pub struct MailboxTx<T> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> LinkTx<T> for MailboxTx<T> {
    fn send(&self, msg: T) -> Result<(), NetError> {
        let mut state = self.shared.state.lock();
        if !state.rx_alive {
            return Err(NetError::Closed);
        }
        state.queue.push_back(msg);
        let parked = state.parked > 0;
        drop(state);
        if parked {
            self.shared.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Drop for MailboxTx<T> {
    fn drop(&mut self) {
        self.shared.state.lock().tx_alive = false;
        self.shared.ready.notify_all();
    }
}

/// The receiving end of a [`mailbox`].
pub struct MailboxRx<T> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> LinkRx<T> for MailboxRx<T> {
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<T, NetError> {
        if cancel.is_cancelled() {
            return Err(NetError::Cancelled);
        }
        // Steady state: the message is already here. No clock read, and no
        // lock beyond this mailbox's own.
        {
            let mut state = self.shared.state.lock();
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if !state.tx_alive {
                return Err(NetError::Closed);
            }
        }
        // About to park: register with the token *before* re-taking the
        // mailbox lock (the ordering `CancelToken`'s no-lost-wake-up
        // argument rests on), for this one wait only — so the token may be
        // one this receiver has never seen, and a token it waited under
        // earlier can no longer wake it.
        let deadline = Instant::now() + timeout;
        let waiter: Arc<dyn Wake> = self.shared.clone();
        let _parked = cancel.park(waiter);
        let mut state = self.shared.state.lock();
        loop {
            if cancel.is_cancelled() {
                return Err(NetError::Cancelled);
            }
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if !state.tx_alive {
                return Err(NetError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout { waited: timeout });
            }
            state.parked += 1;
            self.shared.ready.wait_for(&mut state, deadline - now);
            state.parked -= 1;
            #[cfg(test)]
            contract::WAKEUPS.with(|n| n.set(n.get() + 1));
        }
    }
}

impl<T> Drop for MailboxRx<T> {
    fn drop(&mut self) {
        let abandoned = {
            let mut state = self.shared.state.lock();
            state.rx_alive = false;
            std::mem::take(&mut state.queue)
        };
        drop(abandoned);
    }
}

/// The receive contract as reusable checks: every backend whose receiver is
/// a mailbox runs these against its own endpoints.
#[cfg(test)]
pub(crate) mod contract {
    use std::cell::Cell;
    use std::sync::mpsc;

    use super::*;

    thread_local! {
        /// Condvar wake-ups the current thread has taken inside
        /// `recv_deadline`.
        pub(crate) static WAKEUPS: Cell<usize> = const { Cell::new(0) };
    }

    fn wakeups() -> usize {
        WAKEUPS.with(Cell::get)
    }

    /// A receive blocked long enough that a poll ramp would have reached
    /// its coarsest slices returns `Cancelled` as soon as another thread
    /// cancels, having woken once.
    pub(crate) fn cancel_interrupts_a_long_blocked_recv(rx: &dyn LinkRx<u32>) {
        let cancel = CancelToken::new();
        let observer = cancel.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                observer.cancel();
            });
            let before = wakeups();
            let err = rx
                .recv_deadline(Duration::from_secs(30), &cancel)
                .unwrap_err();
            let lag = cancel.cancelled_at().expect("cancelled").elapsed();
            assert_eq!(err, NetError::Cancelled);
            assert!(
                lag < Duration::from_millis(10),
                "cancel → return took {lag:?}"
            );
            assert_eq!(wakeups() - before, 1, "no periodic wake-ups while blocked");
        });
    }

    /// `cancel()` racing the start of `recv_deadline` is never lost: were
    /// it, that iteration would sit out the 60 s deadline.
    pub(crate) fn cancel_racing_recv_start_is_never_lost(rx: &dyn LinkRx<u32>) {
        let (tokens, inbox) = mpsc::channel::<CancelToken>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for token in inbox {
                    token.cancel();
                }
            });
            let start = Instant::now();
            for _ in 0..10_000 {
                let cancel = CancelToken::new();
                tokens.send(cancel.clone()).expect("canceller alive");
                let err = rx
                    .recv_deadline(Duration::from_secs(60), &cancel)
                    .unwrap_err();
                assert_eq!(err, NetError::Cancelled);
            }
            drop(tokens);
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "a wake-up was lost: {:?}",
                start.elapsed()
            );
        });
    }

    /// Sitting out a full deadline with no traffic and no cancel costs one
    /// wake-up: the deadline itself.
    pub(crate) fn silent_deadline_wakes_exactly_once(rx: &dyn LinkRx<u32>) {
        let cancel = CancelToken::new();
        let before = wakeups();
        let err = rx
            .recv_deadline(Duration::from_millis(150), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
        assert_eq!(wakeups() - before, 1);
    }

    /// A receiver reused under a second token answers to that token only.
    pub(crate) fn reused_receiver_follows_its_current_token(rx: &dyn LinkRx<u32>) {
        let first = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_millis(5), &first)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");

        let second = CancelToken::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                first.cancel();
                std::thread::sleep(Duration::from_millis(50));
                second.cancel();
            });
            let before = wakeups();
            let err = rx
                .recv_deadline(Duration::from_secs(30), &second)
                .unwrap_err();
            assert_eq!(err, NetError::Cancelled);
            assert_eq!(
                wakeups() - before,
                1,
                "woken by the second token, not by the first"
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_then_closed_once_the_sender_is_gone() {
        let (tx, rx) = mailbox::<u32>();
        let cancel = CancelToken::new();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        for i in 0..4 {
            assert_eq!(
                rx.recv_deadline(Duration::from_secs(1), &cancel).unwrap(),
                i
            );
        }
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(1), &cancel)
                .unwrap_err(),
            NetError::Closed
        );
    }

    #[test]
    fn sender_dropped_while_receiver_is_parked_closes_it() {
        let (tx, rx) = mailbox::<u32>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                drop(tx);
            });
            let err = rx
                .recv_deadline(Duration::from_secs(30), &CancelToken::new())
                .unwrap_err();
            assert_eq!(err, NetError::Closed);
        });
    }

    #[test]
    fn send_fails_once_the_receiver_is_gone() {
        let (tx, rx) = mailbox::<u32>();
        drop(rx);
        assert_eq!(tx.send(1).unwrap_err(), NetError::Closed);
    }

    #[test]
    fn message_sent_while_parked_is_delivered() {
        let (tx, rx) = mailbox::<u32>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                tx.send(7).unwrap();
                // Keep the sender alive until the receive returned.
                std::thread::sleep(Duration::from_millis(100));
            });
            let got = rx.recv_deadline(Duration::from_secs(30), &CancelToken::new());
            assert_eq!(got.unwrap(), 7);
        });
    }

    #[test]
    fn cancelled_token_wins_over_a_queued_message() {
        let (tx, rx) = mailbox::<u32>();
        tx.send(1).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(1), &cancel)
                .unwrap_err(),
            NetError::Cancelled
        );
    }

    #[test]
    fn receive_contract() {
        let (_tx, rx) = mailbox::<u32>();
        contract::cancel_interrupts_a_long_blocked_recv(&rx);
        contract::cancel_racing_recv_start_is_never_lost(&rx);
        contract::silent_deadline_wakes_exactly_once(&rx);
        contract::reused_receiver_follows_its_current_token(&rx);
    }
}
