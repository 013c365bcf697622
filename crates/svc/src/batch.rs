//! The micro-batcher at the admission door.
//!
//! A d=3 `S_FT` run is ~30 lockstep hops, and a resident service pays that
//! per-hop latency once per *job* — even though each hop moves only a few
//! KiB. The batcher amortizes it: a worker claiming work coalesces up to
//! [`SvcConfig::batch_max`] *compatible* queued jobs into one composite-key
//! sort ([`aoft_sort::composite`]), so one cube attempt answers the whole
//! batch. Per Dwork–Halpern–Waarts economics the fault-tolerance overhead
//! is per-round, not per-key: B jobs per round costs ~1/B of the per-job
//! overhead.
//!
//! Flush policy (who decides a batch is done growing):
//!
//! * **size** — the batch reached `batch_max`;
//! * **deadline** — the flush window ([`SvcConfig::batch_flush`]) expired
//!   while the queue was empty;
//! * **boundary** — the next queued job is incompatible; it stays queued
//!   (FIFO order is never reordered around) and the batch flushes early;
//! * **solo** — batching is off (`batch_max = 1`), or the *first* job
//!   claimed is itself incompatible: it flushes alone immediately, paying
//!   no flush wait at all.
//!
//! Compatibility is conservative: ascending direction, no fault plan, no
//! trace capture, and every key inside the composite codec's reduced
//! range. Anything else rides alone — a batch of one on the same attempt
//! loop, sorted as its plain keys. The batcher never changes what a job
//! computes, only whether it shares a ride.

use std::time::{Duration, Instant};

use aoft_sort::{CompositeCodec, SortDirection};

use crate::config::SvcConfig;
use crate::job::JobSpec;
use crate::queue::{JobQueue, PopMore, QueuedJob};

/// A flushed batch: one or more jobs bound for a single cube attempt.
pub(crate) struct Batch {
    /// The coalesced jobs, in admission order (the order of their
    /// composite-key segments).
    pub(crate) jobs: Vec<QueuedJob>,
    /// Which rule flushed the batch, one of [`TRIGGERS`] — the
    /// `aoft_batch_flushes_total` label.
    pub(crate) trigger: &'static str,
}

/// Every rule that flushes a batch.
pub(crate) const TRIGGERS: [&str; 4] = ["solo", "size", "deadline", "boundary"];

/// Coalesces queued jobs into batches for the worker loop.
pub(crate) struct Batcher {
    max: usize,
    flush: Duration,
    codec: CompositeCodec,
}

impl Batcher {
    pub(crate) fn new(config: &SvcConfig) -> Self {
        Self {
            max: config.batch_max,
            flush: config.batch_flush,
            codec: CompositeCodec::for_batch_max(config.batch_max),
        }
    }

    /// The codec batched attempts encode with (fixed by `batch_max`, so
    /// every batch of this service shares one key-range rule).
    pub(crate) fn codec(&self) -> CompositeCodec {
        self.codec
    }

    /// `true` when `spec` may share a composite-key attempt: the demux
    /// relies on ascending lexicographic order, the fault plan and trace
    /// hooks are per-attempt (not per-rider), and every key must survive
    /// the codec's reduced range.
    pub(crate) fn compatible(&self, spec: &JobSpec) -> bool {
        spec.direction == SortDirection::Ascending
            && spec.fault_plan.is_none()
            && !spec.capture_trace
            && spec.keys.iter().all(|&k| self.codec.fits(k))
    }

    /// Blocks for the next batch; `None` once the queue is stopped and
    /// drained. The first claimed job opens the batch and starts the flush
    /// timer; companions are gathered until a flush rule fires.
    pub(crate) fn next_batch(&self, queue: &JobQueue) -> Option<Batch> {
        let first = queue.pop()?;
        if self.max <= 1 || !self.compatible(&first.spec) {
            // Incompatible or batching off: run alone, pay no flush wait.
            return Some(Batch {
                jobs: vec![first],
                trigger: "solo",
            });
        }
        let deadline = Instant::now() + self.flush;
        let mut jobs = vec![first];
        let trigger = loop {
            if jobs.len() >= self.max {
                break "size";
            }
            match queue.pop_compatible(deadline, |job| self.compatible(&job.spec)) {
                PopMore::Job(job) => jobs.push(job),
                PopMore::Boundary => break "boundary",
                PopMore::TimedOut => break "deadline",
                // Shutdown mid-gather: flush what we hold — these jobs are
                // claimed and must still be answered.
                PopMore::Stopped => break "deadline",
            }
        };
        Some(Batch { jobs, trigger })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use aoft_faults::FaultPlan;
    use crossbeam_channel::unbounded;

    fn config(batch_max: usize) -> SvcConfig {
        SvcConfig::new(3)
            .batch_max(batch_max)
            .batch_flush(Duration::from_millis(10))
    }

    fn queued(id: u64, spec: JobSpec) -> QueuedJob {
        let (reply, _rx) = unbounded();
        QueuedJob {
            id: JobId(id),
            spec,
            submitted_at: Instant::now(),
            reply,
        }
    }

    #[test]
    fn size_trigger_fills_the_batch() {
        let batcher = Batcher::new(&config(3));
        let queue = JobQueue::new(16);
        for id in 0..5 {
            queue
                .push(queued(id, JobSpec::new(vec![1, 2])))
                .ok()
                .unwrap();
        }
        let batch = batcher.next_batch(&queue).unwrap();
        assert_eq!(batch.trigger, "size");
        assert_eq!(batch.jobs.len(), 3);
        assert_eq!(batch.jobs[0].id, JobId(0), "admission order");
        assert_eq!(queue.len(), 2, "the rest stays queued");
    }

    #[test]
    fn deadline_trigger_flushes_a_lonely_job() {
        let batcher = Batcher::new(&config(4));
        let queue = JobQueue::new(16);
        queue.push(queued(1, JobSpec::new(vec![7]))).ok().unwrap();
        let before = Instant::now();
        let batch = batcher.next_batch(&queue).unwrap();
        assert_eq!(batch.trigger, "deadline");
        assert_eq!(batch.jobs.len(), 1);
        assert!(
            before.elapsed() >= Duration::from_millis(10),
            "waited the window"
        );
    }

    #[test]
    fn incompatible_front_job_goes_solo_without_waiting() {
        let batcher = Batcher::new(&config(4));
        let queue = JobQueue::new(16);
        let faulty = JobSpec::new(vec![1]).fault_plan(FaultPlan::new());
        queue.push(queued(1, faulty)).ok().unwrap();
        let before = Instant::now();
        let batch = batcher.next_batch(&queue).unwrap();
        assert_eq!(batch.trigger, "solo");
        assert!(
            before.elapsed() < Duration::from_millis(10),
            "solo jobs pay no flush wait"
        );
    }

    #[test]
    fn incompatible_companion_is_a_boundary() {
        let batcher = Batcher::new(&config(4));
        let queue = JobQueue::new(16);
        queue.push(queued(1, JobSpec::new(vec![1]))).ok().unwrap();
        queue
            .push(queued(
                2,
                JobSpec::new(vec![2]).direction(SortDirection::Descending),
            ))
            .ok()
            .unwrap();
        let batch = batcher.next_batch(&queue).unwrap();
        assert_eq!(batch.trigger, "boundary");
        assert_eq!(batch.jobs.len(), 1);
        // The descending job is untouched and next in line.
        let next = batcher.next_batch(&queue).unwrap();
        assert_eq!(next.trigger, "solo");
        assert_eq!(next.jobs[0].id, JobId(2));
    }

    #[test]
    fn batch_max_one_is_always_solo() {
        let batcher = Batcher::new(&config(1));
        let queue = JobQueue::new(16);
        queue.push(queued(1, JobSpec::new(vec![1]))).ok().unwrap();
        queue.push(queued(2, JobSpec::new(vec![2]))).ok().unwrap();
        let batch = batcher.next_batch(&queue).unwrap();
        assert_eq!(batch.trigger, "solo");
        assert_eq!(batch.jobs.len(), 1);
    }

    #[test]
    fn out_of_range_keys_are_incompatible() {
        let batcher = Batcher::new(&config(1024));
        // 1024-way batching leaves 21 key bits: ±2^20.
        assert!(batcher.compatible(&JobSpec::new(vec![(1 << 20) - 1])));
        assert!(!batcher.compatible(&JobSpec::new(vec![1 << 20])));
        assert!(batcher.compatible(&JobSpec::new(vec![-(1 << 20)])));
    }
}
