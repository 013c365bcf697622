//! Service-wide metrics: job counters, latency percentiles, and merged
//! simulator counters.
//!
//! A service's numbers live once, in its [`MetricsSink`]: job counters are
//! atomics, latencies and batch sizes fixed-bucket [`Histogram`]s (bounded
//! memory no matter how long the resident service lives). [`SvcMetrics`]
//! snapshots and the service's Prometheus families ([`render`]) both read
//! them from there; the gauges among those families are read from the live
//! state they describe when the scrape arrives ([`Families`]). A fleet
//! renders every cube's families on its one endpoint, labeled by `cube`.

use std::time::Duration;

use aoft_obs::prom::Exposition;
use aoft_obs::{Counter, Gauge, Histogram};
use aoft_sim::NodeMetrics;
use parking_lot::Mutex;

use crate::batch::TRIGGERS;

/// Accumulates across the service's lifetime; `snapshot` reads a view.
#[derive(Default)]
pub(crate) struct MetricsSink {
    submitted: Counter,
    rejected: Counter,
    completed: Counter,
    failed: Counter,
    retries: Counter,
    recovered_jobs: Counter,
    effort: Counter,
    /// Batches flushed, by [`TRIGGERS`] entry.
    flushes: [Counter; TRIGGERS.len()],
    jobs_coalesced: Counter,
    /// Jobs in flushed batches that a worker has not finished.
    inflight: Gauge,
    latency: Histogram,
    occupancy: Histogram,
    sim: Mutex<NodeMetrics>,
}

impl MetricsSink {
    pub(crate) fn jobs_submitted(&self, jobs: u64) {
        self.submitted.add(jobs);
    }

    pub(crate) fn job_rejected(&self) {
        self.rejected.inc();
    }

    pub(crate) fn job_completed(
        &self,
        latency: Duration,
        retries: u64,
        effort: u64,
        sim: &NodeMetrics,
    ) {
        self.completed.inc();
        self.retries.add(retries);
        if retries > 0 {
            self.recovered_jobs.inc();
        }
        self.effort.add(effort);
        self.latency.record(latency);
        // A batch bills its attempt's counters to its first rider only.
        if *sim != NodeMetrics::default() {
            self.sim.lock().merge(sim);
        }
    }

    /// Records a batch leaving the admission door: `jobs` riders flushed by
    /// `trigger` (one of [`TRIGGERS`]), in flight until
    /// [`batch_done`](Self::batch_done). Jobs only count as coalesced when
    /// they actually shared the attempt with another job.
    pub(crate) fn batch_flushed(&self, jobs: usize, trigger: &'static str) {
        let by = TRIGGERS.iter().position(|&t| t == trigger);
        self.flushes[by.expect("a known flush trigger")].inc();
        if jobs > 1 {
            self.jobs_coalesced.add(jobs as u64);
        }
        self.occupancy.record_count(jobs as u64);
        self.inflight.add(jobs as i64);
    }

    /// A worker finished the `jobs` riders of a flushed batch.
    pub(crate) fn batch_done(&self, jobs: usize) {
        self.inflight.add(-(jobs as i64));
    }

    pub(crate) fn job_failed(&self, retries: u64, effort: u64) {
        self.failed.inc();
        self.retries.add(retries);
        self.effort.add(effort);
    }

    /// Jobs in flushed batches that a worker has not finished.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.get().max(0) as usize
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, quarantined: Vec<u32>) -> SvcMetrics {
        SvcMetrics {
            jobs_submitted: self.submitted.get(),
            jobs_rejected: self.rejected.get(),
            jobs_completed: self.completed.get(),
            jobs_failed: self.failed.get(),
            retries: self.retries.get(),
            recovered_jobs: self.recovered_jobs.get(),
            effort: self.effort.get(),
            batches_flushed: self.flushes.iter().map(Counter::get).sum(),
            jobs_coalesced: self.jobs_coalesced.get(),
            queue_depth,
            quarantined,
            latency_p50: self.latency.percentile(50),
            latency_p99: self.latency.percentile(99),
            sim: *self.sim.lock(),
        }
    }

    /// Jobs admitted: what a fleet routed to this cube.
    pub(crate) fn submitted(&self) -> u64 {
        self.submitted.get()
    }
}

/// One service's families as a scrape reads them: its sink, and the live
/// state its gauges describe.
pub(crate) struct Families<'a> {
    pub(crate) sink: &'a MetricsSink,
    pub(crate) queue_depth: usize,
    pub(crate) inflight: usize,
    /// Quarantine is never lifted, so this is also how many nodes were
    /// ever quarantined.
    pub(crate) quarantined: usize,
    /// Attempts started; `None` where they are made out of sight (in a
    /// cube-host child).
    pub(crate) attempts: Option<u64>,
}

/// Writes the service families of `services`, each family once: a lone
/// service's unlabeled, a fleet's with each cube's index as label `cube`.
pub(crate) fn render(out: &mut Exposition, services: &[Families<'_>], by_cube: bool) {
    let cubes: Vec<String> = (0..services.len()).map(|i| i.to_string()).collect();
    let labels = |i: usize| match by_cube {
        true => vec![("cube", cubes[i].as_str())],
        false => vec![],
    };
    type Read = fn(&Families<'_>) -> Option<u64>;
    let scalars: [(&str, &str, &str, Read); 13] = [
        (
            "aoft_jobs_submitted_total",
            "counter",
            "Jobs admitted past admission control.",
            |f| Some(f.sink.submitted.get()),
        ),
        (
            "aoft_jobs_rejected_total",
            "counter",
            "Jobs refused with backpressure or as unservable.",
            |f| Some(f.sink.rejected.get()),
        ),
        (
            "aoft_jobs_completed_total",
            "counter",
            "Jobs answered with a verified sorted result.",
            |f| Some(f.sink.completed.get()),
        ),
        (
            "aoft_jobs_failed_total",
            "counter",
            "Jobs that failed loudly (attempt budget or cube exhausted).",
            |f| Some(f.sink.failed.get()),
        ),
        (
            "aoft_job_retries_total",
            "counter",
            "Extra attempts consumed beyond each job's first.",
            |f| Some(f.sink.retries.get()),
        ),
        (
            "aoft_jobs_recovered_total",
            "counter",
            "Completed jobs that needed at least one retry.",
            |f| Some(f.sink.recovered_jobs.get()),
        ),
        (
            "aoft_attempts_total",
            "counter",
            "Sort attempts started (first runs and retries).",
            |f| f.attempts,
        ),
        (
            "aoft_quarantine_total",
            "counter",
            "Nodes newly quarantined service-wide.",
            |f| Some(f.quarantined as u64),
        ),
        (
            "aoft_queue_depth",
            "gauge",
            "Jobs waiting in the bounded queue.",
            |f| Some(f.queue_depth as u64),
        ),
        (
            "aoft_inflight_jobs",
            "gauge",
            "Jobs claimed by workers and not yet answered.",
            |f| Some(f.inflight as u64),
        ),
        (
            "aoft_quarantined_nodes",
            "gauge",
            "Nodes currently quarantined.",
            |f| Some(f.quarantined as u64),
        ),
        (
            "aoft_job_effort_ticks_total",
            "counter",
            "Effort billed to finished jobs: node-ticks over every attempt.",
            |f| Some(f.sink.effort.get()),
        ),
        (
            "aoft_batch_jobs_coalesced_total",
            "counter",
            "Jobs that shared a cube attempt with at least one other job.",
            |f| Some(f.sink.jobs_coalesced.get()),
        ),
    ];
    for (name, kind, help, read) in scalars {
        out.family(name, kind, help);
        for (i, families) in services.iter().enumerate() {
            if let Some(value) = read(families) {
                out.sample(name, &labels(i), value);
            }
        }
    }
    let name = "aoft_batch_flushes_total";
    out.family(
        name,
        "counter",
        "Batch flushes by trigger (solo, size, drained, boundary).",
    );
    for (i, families) in services.iter().enumerate() {
        for (trigger, count) in TRIGGERS.iter().zip(&families.sink.flushes) {
            let mut labels = labels(i);
            labels.push(("trigger", trigger));
            out.sample(name, &labels, count.get());
        }
    }
    type Hist = fn(&MetricsSink) -> &Histogram;
    let histograms: [(&str, &str, Hist, bool); 2] = [
        (
            "aoft_job_latency_seconds",
            "Submit-to-completion latency of completed jobs.",
            |sink| &sink.latency,
            true,
        ),
        (
            "aoft_batch_occupancy",
            "Jobs per flushed batch (1 = solo run).",
            |sink| &sink.occupancy,
            false,
        ),
    ];
    for (name, help, read, seconds) in histograms {
        out.family(name, "histogram", help);
        for (i, families) in services.iter().enumerate() {
            out.histogram(name, &labels(i), read(families.sink), seconds);
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
        // holds one distinct value — the property the service's p50/p99
        // output relies on for small sample counts.
        let sink = MetricsSink::default();
        let ms = |n: u64| Duration::from_millis(n);
        for _ in 0..3 {
            sink.job_completed(ms(7), 0, 0, &NodeMetrics::default());
        }
        let snap = sink.snapshot(0, vec![]);
        assert_eq!(snap.latency_p50, ms(7));
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
        assert!(snap.latency_p99 >= snap.latency_p50);
    }

    #[test]
    fn counters_roll_up() {
        let sink = MetricsSink::default();
        sink.jobs_submitted(2);
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
