//! The micro-batcher at the admission door.
//!
//! A d=3 `S_FT` run is ~30 lockstep hops, and a resident service pays that
//! per-hop latency once per *job* — even though each hop moves only a few
//! KiB. The batcher amortizes it: a worker claiming work coalesces up to
//! [`SvcConfig::batch_max`](crate::SvcConfig::batch_max) *compatible* queued
//! jobs into one composite-key sort ([`aoft_sort::composite`]), so one cube
//! attempt answers the whole batch. Per Dwork–Halpern–Waarts economics the
//! fault-tolerance overhead is per-round, not per-key: B jobs per round
//! costs ~1/B of the per-job overhead.
//!
//! The batcher is work-conserving
//! ([`JobQueue::pop_batch`](crate::queue::JobQueue::pop_batch)): a worker
//! blocks for the first job, takes the compatible jobs queued behind it in
//! the same critical section, and flushes at once. A lone job never waits
//! for company that cannot come. A waiting window would buy amortisation
//! only while workers are idle, which is exactly when capacity is not
//! scarce; under load, jobs queue behind busy workers and coalesce anyway.
//! A burst coalesces because it is admitted whole
//! ([`SortService::submit_batch`](crate::SortService::submit_batch)). The
//! triggers (who decided the batch was done growing):
//!
//! * **solo** — batching is off (`batch_max = 1`), or the *first* job is
//!   itself incompatible: it runs alone;
//! * **size** — the batch reached `batch_max`;
//! * **boundary** — the next queued job is incompatible; it stays queued
//!   (FIFO order is never reordered around) and the batch flushes early;
//! * **drained** — nothing else was queued.
//!
//! Compatibility is conservative: ascending direction, no fault plan, no
//! trace capture, and every key inside the composite codec's reduced
//! range. Anything else rides alone — a batch of one on the same attempt
//! loop, sorted as its plain keys. The batcher never changes what a job
//! computes, only whether it shares a ride.

use aoft_sort::{CompositeCodec, SortDirection};

use crate::job::JobSpec;
use crate::queue::QueuedJob;

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
pub(crate) const TRIGGERS: [&str; 4] = ["solo", "size", "drained", "boundary"];

/// `true` when `spec` may share a composite-key attempt encoded by `codec`:
/// the demux relies on ascending lexicographic order, the fault plan and
/// trace hooks are per-attempt (not per-rider), and every key must survive
/// the codec's reduced range.
pub(crate) fn compatible(codec: CompositeCodec, spec: &JobSpec) -> bool {
    spec.direction == SortDirection::Ascending
        && spec.fault_plan.is_none()
        && !spec.capture_trace
        && spec.keys.iter().all(|&k| codec.fits(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_keys_are_incompatible() {
        let codec = CompositeCodec::for_batch_max(1024);
        // 1024-way batching leaves 21 key bits: ±2^20.
        assert!(compatible(codec, &JobSpec::new(vec![(1 << 20) - 1])));
        assert!(!compatible(codec, &JobSpec::new(vec![1 << 20])));
        assert!(compatible(codec, &JobSpec::new(vec![-(1 << 20)])));
    }

    #[test]
    fn per_attempt_options_are_incompatible() {
        let codec = CompositeCodec::for_batch_max(16);
        let spec = || JobSpec::new(vec![1, 2]);
        assert!(compatible(codec, &spec()));
        let descending = spec().direction(SortDirection::Descending);
        assert!(!compatible(codec, &descending));
        let faulty = spec().fault_plan(aoft_faults::FaultPlan::new());
        assert!(!compatible(codec, &faulty));
        assert!(!compatible(codec, &spec().capture_trace(true)));
    }
}
