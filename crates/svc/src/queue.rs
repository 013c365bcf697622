//! The bounded job queue behind admission control.

use std::collections::VecDeque;
use std::time::Instant;

use crossbeam_channel::Sender;
use parking_lot::{Condvar, Mutex};

use crate::job::{JobError, JobId, JobReport, JobSpec};

/// A job admitted into the queue, with everything a worker needs to run and
/// answer it.
pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) submitted_at: Instant,
    pub(crate) reply: Sender<Result<JobReport, JobError>>,
}

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    stopped: bool,
}

/// Bounded MPMC queue: submitters never block (full → rejected at the
/// admission layer above), workers block until a job or shutdown arrives.
pub(crate) struct JobQueue {
    depth: usize,
    state: Mutex<QueueState>,
    available: Condvar,
}

impl JobQueue {
    pub(crate) fn new(depth: usize) -> Self {
        Self {
            depth,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                stopped: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Admits `job`, or hands it back when the queue is at depth or the
    /// service has stopped (the caller turns either into the right
    /// [`SubmitError`](crate::SubmitError)).
    pub(crate) fn push(&self, job: QueuedJob) -> Result<(), PushRefused> {
        let mut state = self.state.lock();
        if state.stopped {
            return Err(PushRefused::Stopped);
        }
        if state.jobs.len() >= self.depth {
            return Err(PushRefused::Full);
        }
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available; `None` once the queue is stopped
    /// *and* drained.
    pub(crate) fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.stopped {
                return None;
            }
            self.available.wait(&mut state);
        }
    }

    /// Pops the front job if `pred` accepts it, waiting until `deadline`
    /// for one to arrive. Used by the batcher to gather companions for a
    /// forming batch: an incompatible job at the front ends the batch at a
    /// [`PopMore::Boundary`] (FIFO order is never reordered around), an
    /// empty queue at the deadline ends it at [`PopMore::TimedOut`].
    pub(crate) fn pop_compatible(
        &self,
        deadline: Instant,
        pred: impl Fn(&QueuedJob) -> bool,
    ) -> PopMore {
        let mut state = self.state.lock();
        loop {
            if let Some(front) = state.jobs.front() {
                if !pred(front) {
                    return PopMore::Boundary;
                }
                let job = state.jobs.pop_front().expect("front exists");
                return PopMore::Job(job);
            }
            if state.stopped {
                return PopMore::Stopped;
            }
            let now = Instant::now();
            if now >= deadline {
                return PopMore::TimedOut;
            }
            self.available.wait_for(&mut state, deadline - now);
        }
    }

    /// Jobs currently waiting (excludes jobs already claimed by workers).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().jobs.len()
    }

    /// Stops the queue: subsequent pushes are refused, blocked workers wake
    /// up, and queued-but-unclaimed jobs are returned for disposal (their
    /// reply channels answer `Stopped`).
    pub(crate) fn stop(&self) -> Vec<QueuedJob> {
        let mut state = self.state.lock();
        state.stopped = true;
        let drained = state.jobs.drain(..).collect();
        drop(state);
        self.available.notify_all();
        drained
    }
}

/// Why [`JobQueue::push`] refused (the dropped job's reply channel closes,
/// which its handle reads as `Stopped`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefused {
    Full,
    Stopped,
}

/// Outcome of [`JobQueue::pop_compatible`].
pub(crate) enum PopMore {
    /// The front job matched the predicate and was claimed.
    Job(QueuedJob),
    /// The front job is incompatible with the forming batch; it stays
    /// queued for the next batch.
    Boundary,
    /// The flush deadline passed with the queue empty.
    TimedOut,
    /// The queue stopped while waiting.
    Stopped,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    fn job(id: u64) -> QueuedJob {
        let (reply, _rx) = unbounded();
        QueuedJob {
            id: JobId(id),
            spec: JobSpec::new(vec![1]),
            submitted_at: Instant::now(),
            reply,
        }
    }

    #[test]
    fn fifo_until_full() {
        let queue = JobQueue::new(2);
        queue.push(job(1)).ok().unwrap();
        queue.push(job(2)).ok().unwrap();
        assert_eq!(queue.push(job(3)).err(), Some(PushRefused::Full));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop().unwrap().id, JobId(1));
        assert_eq!(queue.pop().unwrap().id, JobId(2));
    }

    #[test]
    fn stop_wakes_blocked_workers_and_drains() {
        let queue = JobQueue::new(4);
        queue.push(job(1)).ok().unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // First pop gets the queued job; second blocks until stop.
                let first = queue.pop();
                let second = queue.pop();
                (first, second)
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            let drained = queue.stop();
            assert!(drained.is_empty(), "worker claimed the job first");
            let (first, second) = waiter.join().unwrap();
            assert_eq!(first.unwrap().id, JobId(1));
            assert!(second.is_none());
        });
        assert_eq!(queue.push(job(9)).err(), Some(PushRefused::Stopped));
    }

    #[test]
    fn pop_compatible_respects_boundary_deadline_and_stop() {
        let queue = JobQueue::new(4);
        queue.push(job(1)).ok().unwrap();
        queue.push(job(2)).ok().unwrap();
        let soon = Instant::now() + std::time::Duration::from_millis(50);
        // Front accepted → claimed in FIFO order.
        match queue.pop_compatible(soon, |j| j.id == JobId(1)) {
            PopMore::Job(j) => assert_eq!(j.id, JobId(1)),
            _ => panic!("front job matches"),
        }
        // Front rejected → boundary, job stays queued.
        assert!(matches!(
            queue.pop_compatible(soon, |j| j.id != JobId(2)),
            PopMore::Boundary
        ));
        assert_eq!(queue.len(), 1);
        queue.pop().unwrap();
        // Empty queue → times out at the deadline.
        let deadline = Instant::now() + std::time::Duration::from_millis(20);
        assert!(matches!(
            queue.pop_compatible(deadline, |_| true),
            PopMore::TimedOut
        ));
        assert!(Instant::now() >= deadline, "waited out the deadline");
        // Stopped queue → reports stop, not timeout.
        queue.stop();
        assert!(matches!(
            queue.pop_compatible(Instant::now() + std::time::Duration::from_secs(5), |_| true),
            PopMore::Stopped
        ));
    }

    #[test]
    fn stop_returns_unclaimed_jobs() {
        let queue = JobQueue::new(4);
        queue.push(job(1)).ok().unwrap();
        queue.push(job(2)).ok().unwrap();
        let drained = queue.stop();
        assert_eq!(drained.len(), 2);
        assert!(queue.pop().is_none());
    }
}
