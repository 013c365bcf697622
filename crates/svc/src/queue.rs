//! The bounded job queue behind admission control.

use std::collections::VecDeque;
use std::time::Instant;

use crossbeam_channel::Sender;
use parking_lot::{Condvar, Mutex};

use crate::batch::Batch;
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

    /// Admits `jobs` in order under one lock, with one wake-up, until the
    /// queue is at depth or stopped: a group is queued whole where it fits,
    /// and no worker sees half of it. Each job gets the answer it would get
    /// pushed alone in a loop. Returns how many were admitted, and why the
    /// rest were refused (the caller turns it into the right
    /// [`SubmitError`](crate::SubmitError); a refused job's reply channel
    /// closes with it).
    pub(crate) fn push_many(&self, jobs: Vec<QueuedJob>) -> (usize, Option<PushRefused>) {
        let mut state = self.state.lock();
        if state.stopped {
            return (0, Some(PushRefused::Stopped));
        }
        let (total, room) = (jobs.len(), self.depth.saturating_sub(state.jobs.len()));
        state.jobs.extend(jobs.into_iter().take(room));
        drop(state);
        let admitted = total.min(room);
        if admitted > 0 {
            self.available.notify_one();
        }
        (admitted, (admitted < total).then_some(PushRefused::Full))
    }

    /// Blocks for the next job, then claims under the same lock the jobs
    /// behind it that `fits` accepts, `max` in all, and flushes at once:
    /// a batch never waits for company that is not already queued. The
    /// trigger is `solo` when batching is off (`max` 1) or the first job
    /// does not fit, else `size` at `max` jobs, `boundary` at a queued job
    /// that does not fit (it stays queued: FIFO order is never reordered
    /// around), `drained` when nothing is left. `None` once the queue is
    /// stopped *and* drained.
    pub(crate) fn pop_batch(&self, max: usize, fits: impl Fn(&JobSpec) -> bool) -> Option<Batch> {
        let mut state = self.state.lock();
        let first = loop {
            if let Some(job) = state.jobs.pop_front() {
                break job;
            }
            if state.stopped {
                return None;
            }
            self.available.wait(&mut state);
        };
        let mut jobs = vec![first];
        let trigger = if max <= 1 || !fits(&jobs[0].spec) {
            "solo"
        } else {
            loop {
                if jobs.len() >= max {
                    break "size";
                }
                match state.jobs.front() {
                    None => break "drained",
                    Some(next) if !fits(&next.spec) => break "boundary",
                    Some(_) => jobs.extend(state.jobs.pop_front()),
                }
            }
        };
        let more = !state.jobs.is_empty();
        drop(state);
        if more {
            // One wake-up may have admitted several batches' worth
            // (`push_many`): pass it on to the next idle worker.
            self.available.notify_one();
        }
        Some(Batch { jobs, trigger })
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

/// Why [`JobQueue::push_many`] refused the rest of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefused {
    Full,
    Stopped,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    fn pop(queue: &JobQueue) -> Option<QueuedJob> {
        let batch = queue.pop_batch(1, |_| true)?;
        batch.jobs.into_iter().next()
    }

    fn push(queue: &JobQueue, job: QueuedJob) {
        assert_eq!(queue.push_many(vec![job]), (1, None));
    }

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
        push(&queue, job(1));
        push(&queue, job(2));
        assert_eq!(queue.push_many(vec![job(3)]), (0, Some(PushRefused::Full)));
        assert_eq!(queue.len(), 2);
        assert_eq!(pop(&queue).unwrap().id, JobId(1));
        assert_eq!(pop(&queue).unwrap().id, JobId(2));
    }

    #[test]
    fn stop_wakes_blocked_workers_and_drains() {
        let queue = JobQueue::new(4);
        push(&queue, job(1));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // First pop gets the queued job; second blocks until stop.
                let first = pop(&queue);
                let second = pop(&queue);
                (first, second)
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            let drained = queue.stop();
            assert!(drained.is_empty(), "worker claimed the job first");
            let (first, second) = waiter.join().unwrap();
            assert_eq!(first.unwrap().id, JobId(1));
            assert!(second.is_none());
        });
        assert_eq!(
            queue.push_many(vec![job(9)]),
            (0, Some(PushRefused::Stopped))
        );
    }

    /// A job whose one key says whether it fits: the tests' `fits` takes
    /// non-negative keys only.
    fn keyed(id: u64, key: i32) -> QueuedJob {
        let (reply, _rx) = unbounded();
        QueuedJob {
            id: JobId(id),
            spec: JobSpec::new(vec![key]),
            submitted_at: Instant::now(),
            reply,
        }
    }

    fn fits(spec: &JobSpec) -> bool {
        spec.keys[0] >= 0
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.jobs.iter().map(|job| job.id.0).collect()
    }

    #[test]
    fn pop_batch_flushes_at_size_and_leaves_the_rest_queued() {
        let queue = JobQueue::new(16);
        for id in 0..5 {
            push(&queue, job(id));
        }
        let batch = queue.pop_batch(3, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("size", vec![0, 1, 2]));
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn pop_batch_flushes_drained_without_waiting() {
        let queue = JobQueue::new(16);
        push(&queue, job(1));
        push(&queue, job(2));
        let batch = queue.pop_batch(4, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("drained", vec![1, 2]));
        // A lone job is a drained batch of one.
        push(&queue, job(3));
        let batch = queue.pop_batch(4, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("drained", vec![3]));
    }

    #[test]
    fn pop_batch_stops_at_a_boundary_that_stays_queued() {
        let queue = JobQueue::new(16);
        push(&queue, keyed(1, 1));
        push(&queue, keyed(2, 2));
        push(&queue, keyed(3, -1));
        push(&queue, keyed(4, 4));
        let batch = queue.pop_batch(4, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("boundary", vec![1, 2]));
        // The misfit is next in line and runs alone; the job behind it is
        // not reordered around it.
        let batch = queue.pop_batch(4, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("solo", vec![3]));
        let batch = queue.pop_batch(4, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("drained", vec![4]));
    }

    #[test]
    fn pop_batch_runs_misfits_and_batch_max_one_solo() {
        let queue = JobQueue::new(16);
        push(&queue, keyed(1, -1));
        push(&queue, keyed(2, 2));
        let batch = queue.pop_batch(4, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("solo", vec![1]));
        push(&queue, keyed(3, 3));
        let batch = queue.pop_batch(1, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("solo", vec![2]));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn stop_after_a_gather_leaves_the_claimed_batch_answerable() {
        let queue = JobQueue::new(16);
        let (reply, answers) = unbounded();
        for id in 0..3 {
            let job = QueuedJob {
                reply: reply.clone(),
                ..job(id)
            };
            push(&queue, job);
        }
        let batch = queue.pop_batch(2, fits).unwrap();
        assert_eq!((batch.trigger, ids(&batch)), ("size", vec![0, 1]));
        // Shutdown takes only the unclaimed job; the gathered batch is the
        // worker's and still answers.
        let drained = queue.stop();
        assert_eq!(drained.iter().map(|j| j.id.0).collect::<Vec<_>>(), [2]);
        for job in batch.jobs {
            job.reply.send(Err(JobError::Stopped)).unwrap();
        }
        assert_eq!(answers.try_iter().count(), 2);
        assert!(queue.pop_batch(2, fits).is_none());
    }

    #[test]
    fn push_many_admits_in_order_up_to_depth() {
        let queue = JobQueue::new(4);
        push(&queue, job(0));
        let (admitted, refused) = queue.push_many((1..6).map(job).collect());
        assert_eq!((admitted, refused), (3, Some(PushRefused::Full)));
        let batch = queue.pop_batch(8, fits).unwrap();
        assert_eq!(ids(&batch), [0, 1, 2, 3], "the head of the group, in order");
        assert_eq!(queue.push_many(vec![job(6)]), (1, None));
        queue.stop();
        assert_eq!(
            queue.push_many(vec![job(7)]),
            (0, Some(PushRefused::Stopped))
        );
    }

    #[test]
    fn one_group_wakes_every_worker_it_has_work_for() {
        let queue = JobQueue::new(16);
        let (done, batches) = unbounded();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let done = done.clone();
                let queue = &queue;
                scope.spawn(move || {
                    if let Some(batch) = queue.pop_batch(2, fits) {
                        done.send(batch.jobs.len()).unwrap();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(queue.push_many((0..4).map(job).collect()), (4, None));
            let timeout = std::time::Duration::from_secs(5);
            let got: Vec<_> = (0..2)
                .filter_map(|_| batches.recv_timeout(timeout).ok())
                .collect();
            queue.stop();
            assert_eq!(got, [2, 2], "both workers took a full batch");
        });
    }

    #[test]
    fn stop_returns_unclaimed_jobs() {
        let queue = JobQueue::new(4);
        push(&queue, job(1));
        push(&queue, job(2));
        let drained = queue.stop();
        assert_eq!(drained.len(), 2);
        assert!(pop(&queue).is_none());
    }
}
