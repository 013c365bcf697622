//! Service-wide metrics: job counters, latency percentiles, and merged
//! simulator counters.
//!
//! The sink is the single chokepoint for job-lifecycle accounting: every
//! update lands both in the service's own state (for
//! [`SvcMetrics`] snapshots) and in the process-wide
//! [`aoft_obs`] registry (for the `/metrics` endpoint). Latencies go into a
//! fixed-bucket [`Histogram`] — bounded memory no matter how long the
//! resident service lives, unlike the unbounded `Vec<Duration>` it
//! replaces.

use std::time::Duration;

use aoft_obs::Histogram;
use aoft_sim::NodeMetrics;
use parking_lot::Mutex;

/// Accumulates across the service's lifetime; `snapshot` freezes a
/// consistent view.
#[derive(Default)]
pub(crate) struct MetricsSink {
    state: Mutex<MetricsState>,
    latency: Histogram,
}

#[derive(Default)]
struct MetricsState {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    retries: u64,
    recovered_jobs: u64,
    effort: u64,
    batches_flushed: u64,
    jobs_coalesced: u64,
    sim: NodeMetrics,
}

impl MetricsSink {
    pub(crate) fn job_submitted(&self) {
        self.state.lock().submitted += 1;
        aoft_obs::global().jobs_submitted.inc();
    }

    pub(crate) fn job_rejected(&self) {
        self.state.lock().rejected += 1;
        aoft_obs::global().jobs_rejected.inc();
    }

    pub(crate) fn job_completed(
        &self,
        latency: Duration,
        retries: u64,
        effort: u64,
        sim: &NodeMetrics,
    ) {
        {
            let mut state = self.state.lock();
            state.completed += 1;
            state.retries += retries;
            if retries > 0 {
                state.recovered_jobs += 1;
            }
            state.effort += effort;
            state.sim.merge(sim);
        }
        self.latency.record(latency);
        let reg = aoft_obs::global();
        reg.jobs_completed.inc();
        reg.job_retries.add(retries);
        if retries > 0 {
            reg.jobs_recovered.inc();
        }
        reg.job_effort.add(effort);
        reg.job_latency.record(latency);
    }

    /// Records a batch leaving the admission door: `jobs` riders flushed by
    /// `trigger` (`solo`, `size`, `deadline`, `boundary`). Jobs only count
    /// as coalesced when they actually shared the attempt with another job.
    pub(crate) fn batch_flushed(&self, jobs: usize, trigger: &'static str) {
        let coalesced = if jobs > 1 { jobs as u64 } else { 0 };
        {
            let mut state = self.state.lock();
            state.batches_flushed += 1;
            state.jobs_coalesced += coalesced;
        }
        let reg = aoft_obs::global();
        reg.batch_occupancy.record_count(jobs as u64);
        reg.batch_flushes.add(trigger, 1);
        reg.batch_jobs_coalesced.add(coalesced);
    }

    pub(crate) fn job_failed(&self, retries: u64, effort: u64) {
        {
            let mut state = self.state.lock();
            state.failed += 1;
            state.retries += retries;
            state.effort += effort;
        }
        let reg = aoft_obs::global();
        reg.jobs_failed.inc();
        reg.job_retries.add(retries);
        reg.job_effort.add(effort);
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, quarantined: Vec<u32>) -> SvcMetrics {
        let state = self.state.lock();
        SvcMetrics {
            jobs_submitted: state.submitted,
            jobs_rejected: state.rejected,
            jobs_completed: state.completed,
            jobs_failed: state.failed,
            retries: state.retries,
            recovered_jobs: state.recovered_jobs,
            effort: state.effort,
            batches_flushed: state.batches_flushed,
            jobs_coalesced: state.jobs_coalesced,
            queue_depth,
            quarantined,
            latency_p50: self.latency.percentile(50),
            latency_p90: self.latency.percentile(90),
            latency_p99: self.latency.percentile(99),
            sim: state.sim,
        }
    }
}

/// A point-in-time view of the service's health and throughput.
#[derive(Debug, Clone)]
pub struct SvcMetrics {
    /// Jobs admitted past the queue bound.
    pub jobs_submitted: u64,
    /// Jobs refused with backpressure or as unservable.
    pub jobs_rejected: u64,
    /// Jobs answered with a verified sorted result.
    pub jobs_completed: u64,
    /// Jobs that failed loudly (attempt budget or cube exhausted).
    pub jobs_failed: u64,
    /// Extra attempts consumed beyond each job's first (recovery work).
    pub retries: u64,
    /// Completed jobs that needed at least one retry.
    pub recovered_jobs: u64,
    /// Total effort billed across all finished jobs, in ticks: node-time
    /// over every attempt, fail-stopped ones included (retried work is
    /// billed, not hidden).
    pub effort: u64,
    /// Batches flushed from the admission door (a solo run counts as a
    /// batch of one).
    pub batches_flushed: u64,
    /// Jobs that shared a cube attempt with at least one other job.
    pub jobs_coalesced: u64,
    /// Jobs waiting in the queue at snapshot time.
    pub queue_depth: usize,
    /// Physical node labels currently quarantined service-wide.
    pub quarantined: Vec<u32>,
    /// Median submit→completion latency over completed jobs.
    pub latency_p50: Duration,
    /// 90th-percentile latency.
    pub latency_p90: Duration,
    /// 99th-percentile latency.
    pub latency_p99: Duration,
    /// Simulator counters merged over every successful attempt.
    pub sim: NodeMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_identical_latencies_stay_exact() {
        // The histogram's bucket-mean percentile is exact whenever a bucket
        // holds one distinct value — the property the service's p50/p90/p99
        // output relies on for small sample counts.
        let sink = MetricsSink::default();
        let ms = |n: u64| Duration::from_millis(n);
        for _ in 0..3 {
            sink.job_completed(ms(7), 0, 0, &NodeMetrics::default());
        }
        let snap = sink.snapshot(0, vec![]);
        assert_eq!(snap.latency_p50, ms(7));
        assert_eq!(snap.latency_p90, ms(7));
        assert_eq!(snap.latency_p99, ms(7));
    }

    #[test]
    fn spread_latencies_order_the_percentiles() {
        let sink = MetricsSink::default();
        let ms = |n: u64| Duration::from_millis(n);
        for n in 1..=100 {
            sink.job_completed(ms(n), 0, 0, &NodeMetrics::default());
        }
        let snap = sink.snapshot(0, vec![]);
        // Bucketed percentiles: within the nearest-rank sample's bucket.
        assert!(snap.latency_p50 >= ms(33) && snap.latency_p50 < ms(66));
        assert!(snap.latency_p99 >= ms(66) && snap.latency_p99 <= ms(100));
        assert!(snap.latency_p99 >= snap.latency_p90);
        assert!(snap.latency_p90 >= snap.latency_p50);
    }

    #[test]
    fn counters_roll_up() {
        let sink = MetricsSink::default();
        sink.job_submitted();
        sink.job_submitted();
        sink.job_rejected();
        let sim = NodeMetrics {
            msgs_sent: 3,
            ..NodeMetrics::default()
        };
        sink.job_completed(Duration::from_millis(5), 2, 40, &sim);
        sink.job_failed(1, 15);
        sink.batch_flushed(1, "solo");
        sink.batch_flushed(3, "size");
        let snap = sink.snapshot(4, vec![5]);
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.jobs_rejected, 1);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.retries, 3);
        assert_eq!(snap.recovered_jobs, 1);
        assert_eq!(snap.effort, 55, "completed and failed effort both bill");
        assert_eq!(snap.batches_flushed, 2);
        assert_eq!(snap.jobs_coalesced, 3, "solo runs never count as coalesced");
        assert_eq!(snap.queue_depth, 4);
        assert_eq!(snap.quarantined, vec![5]);
        assert_eq!(snap.latency_p50, Duration::from_millis(5));
        assert_eq!(snap.sim.msgs_sent, 3);
    }
}
