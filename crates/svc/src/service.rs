//! The resident sort service: worker pool, scheduler, and recovery loop.

use std::any::Any;
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoft_net::{LinkCache, MappedTransport, Transport};
use aoft_obs::ObsServer;
use aoft_sim::{ErrorReport, NodeMetrics, Packet, Trace};
use aoft_sort::composite::{demux, mux, CompositeCodec};
use aoft_sort::{Key, Msg, SortBuilder, SortError, SortReport};

use crate::batch::Batcher;
use crate::config::{ConfigError, SvcConfig};
use crate::job::{JobError, JobHandle, JobId, JobReport, JobSpec, SubmitError};
use crate::metrics::{MetricsSink, SvcMetrics};
use crate::queue::{JobQueue, PushRefused, QueuedJob};
use crate::recovery::{retry_timing, Backoff, CubePlan, Recovery, RetryTiming};

/// A resident sorting service over a shared transport.
///
/// The service keeps a pool of worker threads alive over one transport `T`
/// (in-process channels, loopback TCP, a faulty wrapper — anything
/// implementing [`Transport`]) and serves a stream of sort jobs:
///
/// * [`submit`](SortService::submit) admits jobs into a bounded queue and
///   rejects with [`SubmitError::Backpressure`] past the configured depth —
///   callers see load instead of the service buffering without bound;
/// * each worker slot owns a private link-tag namespace, so concurrent jobs
///   multiplex the same physical cube without crosstalk, and every attempt
///   runs under a fresh run id so late frames from a fail-stopped attempt
///   are dropped, not mistaken for the retry's traffic;
/// * when an attempt fail-stops, the reports are fed to the diagnosis layer:
///   implicated nodes are avoided for the job's remaining attempts, repeat
///   offenders are quarantined service-wide, and the retry runs on the
///   largest surviving subcube (degraded mode) until
///   [`SvcConfig::min_dim`] is reached.
///
/// Per the paper's fail-stop discipline the service never returns an
/// unverified result: a job either completes with a verified sorted output
/// or fails loudly with [`JobError`].
pub struct SortService<T>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    inner: Arc<Inner<T>>,
    workers: Vec<JoinHandle<()>>,
    /// The Prometheus endpoint, when [`SvcConfig::metrics_addr`] asked for
    /// one. Serving stops when the service is dropped.
    obs: Option<ObsServer>,
}

struct Inner<T>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    config: SvcConfig,
    cache: Arc<LinkCache<T>>,
    queue: JobQueue,
    metrics: MetricsSink,
    recovery: Recovery,
    /// Job ids handed to clients.
    next_job: AtomicU64,
    /// Run ids stamped on packets: unique per (job, attempt) service-wide,
    /// so receivers can discard stale frames from any earlier attempt that
    /// shared the same cached links.
    next_run: AtomicU64,
}

impl<T> SortService<T>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    /// Validates `config`, wraps `transport` in the service's link cache,
    /// and spawns the worker pool (plus the metrics endpoint when
    /// [`SvcConfig::metrics_addr`] is set).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the configuration cannot serve any job, or when
    /// the requested metrics address cannot be bound.
    pub fn start(config: SvcConfig, transport: T) -> Result<Self, ConfigError> {
        config.validate()?;
        let obs = match config.metrics_addr {
            Some(addr) => Some(
                ObsServer::bind(addr)
                    .map_err(|e| ConfigError(format!("metrics endpoint {addr}: {e}")))?,
            ),
            None => None,
        };
        let inner = Arc::new(Inner {
            cache: Arc::new(LinkCache::new(transport)),
            queue: JobQueue::new(config.queue_depth),
            metrics: MetricsSink::default(),
            recovery: Recovery::new(config.dim, config.min_dim, config.quarantine_after),
            next_job: AtomicU64::new(0),
            next_run: AtomicU64::new(0),
            config,
        });
        let workers = (0..inner.config.workers)
            .map(|slot| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("aoft-svc-{slot}"))
                    .spawn(move || worker_loop(inner, slot))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Self {
            inner,
            workers,
            obs,
        })
    }

    /// The bound metrics-endpoint address (resolved port when configured
    /// with port 0); `None` when the endpoint is disabled.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(ObsServer::local_addr)
    }

    /// Submits a job for asynchronous completion.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Backpressure`] — the queue is at depth; resubmit
    ///   later.
    /// * [`SubmitError::Invalid`] — the key count can never divide over
    ///   this service's cube (checked against the *full* cube; any degraded
    ///   subcube is a smaller power of two and divides too).
    /// * [`SubmitError::Stopped`] — the service has shut down.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let nodes = 1usize << self.inner.config.dim;
        if spec.keys.is_empty() {
            self.inner.metrics.job_rejected();
            return Err(SubmitError::Invalid("no keys to sort".into()));
        }
        if spec.keys.len() % nodes != 0 {
            self.inner.metrics.job_rejected();
            return Err(SubmitError::Invalid(format!(
                "{} keys do not divide over the service's {nodes}-node cube",
                spec.keys.len()
            )));
        }
        let id = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed) + 1);
        let (reply, rx) = crossbeam_channel::unbounded();
        let job = QueuedJob {
            id,
            spec,
            submitted_at: Instant::now(),
            reply,
        };
        match self.inner.queue.push(job) {
            Ok(()) => {
                self.inner.metrics.job_submitted();
                Ok(JobHandle { id, reply: rx })
            }
            Err(PushRefused::Full) => {
                self.inner.metrics.job_rejected();
                Err(SubmitError::Backpressure {
                    depth: self.inner.config.queue_depth,
                })
            }
            Err(PushRefused::Stopped) => Err(SubmitError::Stopped),
        }
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> SvcMetrics {
        self.inner
            .metrics
            .snapshot(self.inner.queue.len(), self.inner.recovery.quarantined())
    }

    /// Physical node labels currently quarantined, ascending.
    pub fn quarantined(&self) -> Vec<u32> {
        self.inner.recovery.quarantined()
    }

    /// Stops admissions, answers queued-but-unstarted jobs with
    /// [`JobError::Stopped`], and joins the workers (in-flight jobs run to
    /// completion first). Dropping the service does the same.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        for job in self.inner.queue.stop() {
            let _ = job.reply.send(Err(JobError::Stopped));
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<T> Drop for SortService<T>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop<T>(inner: Arc<Inner<T>>, slot: usize)
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let batcher = Batcher::new(&inner.config);
    while let Some(batch) = batcher.next_batch(&inner.queue) {
        inner.metrics.batch_flushed(batch.jobs.len(), batch.trigger);
        let inflight = batch.jobs.len() as i64;
        aoft_obs::global().inflight_jobs.add(inflight);
        run_batch(&inner, slot, batcher.codec(), batch.jobs);
        aoft_obs::global().inflight_jobs.add(-inflight);
    }
}

/// What a batch carries from one attempt to the next, across its
/// re-splits: the nodes its own fail-stops implicated, and the backoff
/// schedule — which advances only when a retry actually waits.
struct RetryState {
    avoid: BTreeSet<u32>,
    backoff: Backoff,
}

/// One job aboard a ride.
struct Rider {
    job: QueuedJob,
    /// Effort billed so far: this job's proportional share (by key count)
    /// of every attempt it was aboard, fail-stopped ones included.
    effort: u64,
}

/// Jobs that share their cube attempts, and the history they share: a
/// re-split hands both halves the same one.
struct Ride {
    riders: Vec<Rider>,
    /// Attempts these jobs have been aboard.
    attempts: usize,
    /// The reports of each of those that fail-stopped, in order.
    detections: Vec<Vec<ErrorReport>>,
    /// The cube the last of them ran on.
    failed_plan: Option<CubePlan>,
}

/// What a verified attempt hands its riders.
struct Sorted {
    /// Each rider's keys, in rider order.
    outputs: Vec<Vec<Key>>,
    dim: u32,
    metrics: NodeMetrics,
    trace: Trace,
}

/// The service's one attempt loop: runs a flushed batch — a lone job is a
/// batch of one — until every job in it is answered with a verified sort
/// or a loud failure.
///
/// Recovery is job-agnostic: a fail-stop is diagnosed (nodes struck,
/// quarantine counted), then the ride goes again on the surviving subcube —
/// split in half when it held two or more jobs, so a pathological
/// interaction cannot pin every rider to the same fate. The halves go one
/// after the other, each with what is left of the batch's attempt budget.
fn run_batch<T>(inner: &Inner<T>, slot: usize, codec: CompositeCodec, jobs: Vec<QueuedJob>)
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let config = &inner.config;
    // One avoid set and one backoff schedule for the whole batch: violations
    // name nodes, not jobs, so what one half learns the other must not
    // re-discover.
    let mut retry = RetryState {
        avoid: BTreeSet::new(),
        backoff: Backoff::new(config.backoff_initial, config.backoff_max),
    };
    let mut rides = vec![Ride {
        riders: jobs
            .into_iter()
            .map(|job| Rider { job, effort: 0 })
            .collect(),
        attempts: 0,
        detections: Vec::new(),
        failed_plan: None,
    }];
    while let Some(mut ride) = rides.pop() {
        if ride.attempts == config.max_attempts {
            let spent = JobError::Exhausted {
                attempts: ride.attempts,
                detections: ride.detections.clone(),
            };
            settle(inner, ride, Err(spent));
        } else if let Some(ending) = run_attempt(inner, slot, codec, &mut ride, &mut retry) {
            settle(inner, ride, ending);
        } else {
            // Fail-stopped. Two or more jobs go again as two smaller rides,
            // the head half first (the list is a stack).
            if ride.riders.len() >= 2 {
                rides.push(Ride {
                    riders: ride.riders.split_off(ride.riders.len() / 2),
                    attempts: ride.attempts,
                    detections: ride.detections.clone(),
                    failed_plan: ride.failed_plan.clone(),
                });
            }
            rides.push(ride);
        }
    }
}

/// Plans the cube an attempt runs on and, for a retry, decides when it
/// starts: at once, unless [`retry_timing`] says time can help — then, and
/// only then, the worker serves the schedule's next delay. `failed` is
/// the plan and reports of the attempt being retried (`None` on a first
/// attempt).
///
/// `Err(healthy)` when fewer than `2^min_dim` trusted nodes remain.
fn begin_attempt<T>(
    inner: &Inner<T>,
    job: JobId,
    attempt: usize,
    failed: Option<(&CubePlan, &[ErrorReport])>,
    retry: &mut RetryState,
) -> Result<CubePlan, usize>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let Some((failed_plan, reports)) = failed else {
        return inner.recovery.plan(&retry.avoid);
    };
    let plan = inner.recovery.plan(&retry.avoid).or_else(|_| {
        // The job-local avoid set has outgrown the machine: a timeout
        // cascade implicated more nodes than any single fault can.
        // A clean retry on whatever the service still trusts beats
        // refusing the job — transient congestion clears, and a
        // persistent fault re-detects loudly on the fresh attempt.
        retry.avoid.clear();
        inner.recovery.plan(&retry.avoid)
    })?;
    let (wait, reason) = match retry_timing(reports, failed_plan, &plan) {
        RetryTiming::Replanned => (
            Duration::ZERO,
            format!(
                "replanned d{}→d{} avoiding {:?}",
                failed_plan.dim,
                plan.dim,
                retry.avoid.iter().collect::<Vec<_>>()
            ),
        ),
        RetryTiming::ValueEvidence => (Duration::ZERO, "value evidence, same machine".into()),
        RetryTiming::Absence => (
            retry.backoff.next_delay(),
            "absence, same machine: backoff".into(),
        ),
    };
    aoft_obs::emit(
        aoft_obs::Event::new("retry_scheduled")
            .job(job.0)
            .attempt(attempt as u32)
            .elapsed(wait)
            .detail(reason),
    );
    if wait > Duration::ZERO {
        std::thread::sleep(wait);
    }
    Ok(plan)
}

/// One cube attempt over `ride`: plan (and, for a retry, wait if time can
/// help), fresh run id, mapped transport, the sort itself. Every rider is
/// charged its share of the attempt's effort, however the attempt ends.
///
/// `None` when the machine fail-stopped: the evidence is on the ride, which
/// may go again. Anything else is how the ride ends.
fn run_attempt<T>(
    inner: &Inner<T>,
    slot: usize,
    codec: CompositeCodec,
    ride: &mut Ride,
    retry: &mut RetryState,
) -> Option<Result<Sorted, JobError>>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let config = &inner.config;
    // The lead rider names the ride in events, and its spec sets the
    // per-job options: jobs that share an attempt all carry the defaults
    // (`Batcher::compatible`).
    let lead = &ride.riders[0].job;
    let (lead_id, attempt) = (lead.id, ride.attempts);
    let failed = ride
        .failed_plan
        .as_ref()
        .zip(ride.detections.last().map(Vec::as_slice));
    let plan = match begin_attempt(inner, lead_id, attempt, failed, retry) {
        Ok(plan) => plan,
        Err(healthy) => {
            return Some(Err(JobError::CubeExhausted {
                healthy,
                min_dim: config.min_dim,
            }))
        }
    };
    let nodes = 1usize << plan.dim;
    // A lone rider runs its plain keys — no tag overhead, full key range.
    // Two or more become lexicographic composites: each job's keys a
    // contiguous, internally ordered segment of the one sorted output.
    let segments: Vec<&[Key]> = ride.riders.iter().map(|r| &r.job.spec.keys[..]).collect();
    let lens: Vec<usize> = segments.iter().map(|keys| keys.len()).collect();
    let keys = match segments[..] {
        [only] => only.to_vec(),
        // `None` is unreachable: compatibility was checked per job at batch
        // time against this same codec. Defense in depth.
        _ => match mux(codec, &segments) {
            Some(keys) => keys,
            None => {
                let err = "batched keys no longer fit the composite codec";
                return Some(Err(JobError::Runtime(err.into())));
            }
        },
    };
    let total_len = keys.len();
    if total_len % nodes != 0 {
        // Unreachable after the submit-side check (each job's count divides
        // every power-of-two subcube, so any sum does too), kept as defense
        // in depth.
        return Some(Err(JobError::Invalid(format!(
            "{total_len} keys do not divide over the degraded {nodes}-node cube"
        ))));
    }
    let run_id = inner.next_run.fetch_add(1, Ordering::Relaxed) + 1;
    aoft_obs::global().attempts.inc();
    aoft_obs::emit(
        aoft_obs::Event::new("attempt_started")
            .job(lead_id.0)
            .attempt(attempt as u32)
            .detail(format!(
                "run {run_id} on a {}-dim cube ({} job(s))",
                plan.dim,
                ride.riders.len()
            )),
    );
    // Each worker slot owns `dim` consecutive link tags (validated ≤ 256 at
    // start), so concurrent attempts never share a physical link.
    let tag_base = (slot as u32 * config.dim) as u8;
    let transport =
        MappedTransport::new(Arc::clone(&inner.cache), plan.map.clone()).with_tag_base(tag_base);
    let mut builder = SortBuilder::new(config.algorithm)
        .keys(keys)
        .direction(lead.spec.direction)
        .nodes(nodes)
        .recv_timeout(config.recv_timeout)
        .trace(lead.spec.capture_trace)
        .job(run_id);
    if let (0, Some(faults)) = (attempt, &lead.spec.fault_plan) {
        // Injected model faults are transient: they hit the first attempt
        // only (see `JobSpec::fault_plan`).
        builder = builder.fault_plan(faults.clone());
    }
    let started = Instant::now();
    let result = run_sort(builder, transport);
    let effort = match &result {
        Ok(Ok(report)) => report.metrics().effort(),
        Ok(Err(SortError::Detected { effort, .. })) => *effort,
        _ => 0,
    };
    ride.attempts += 1;
    for (rider, &len) in ride.riders.iter_mut().zip(&lens) {
        rider.effort += effort_share(effort, len as u64, total_len as u64);
    }
    match result {
        Ok(Ok(report)) => {
            let outputs = match lens[..] {
                [_] => Ok(vec![report.output().to_vec()]),
                _ => demux(codec, report.output(), &lens),
            };
            let mut metrics = report.metrics().node_total();
            metrics.merge(&report.metrics().host);
            let sorted = outputs.map(|outputs| Sorted {
                outputs,
                dim: plan.dim,
                metrics,
                trace: report.trace().clone(),
            });
            // A verified sort whose output is not a permutation of the batch
            // is corruption the predicates cannot see (they check order, not
            // tags). Fail-stop loud, never hand a job another job's keys.
            Some(
                sorted.map_err(|err| {
                    JobError::Runtime(format!("batch demux integrity check: {err}"))
                }),
            )
        }
        Ok(Err(SortError::Detected { reports, .. })) => {
            aoft_obs::emit(
                aoft_obs::Event::new("attempt_failstop")
                    .job(lead_id.0)
                    .attempt(attempt as u32)
                    .elapsed(started.elapsed())
                    .detail(format!(
                        "{} report(s) over {} job(s)",
                        reports.len(),
                        ride.riders.len()
                    )),
            );
            digest_failure(inner, &reports, &plan, &mut retry.avoid);
            ride.detections.push(reports);
            ride.failed_plan = Some(plan);
            None
        }
        Ok(Err(err)) => Some(Err(JobError::Invalid(err.to_string()))),
        Err(payload) => Some(Err(JobError::Runtime(panic_message(payload)))),
    }
}

/// The sort itself, a panic in the engine caught rather than taking the
/// worker down. Out of line on measurement, not taste: inlined into its one
/// caller, a d=3 64-key job answers ≈ 5 % later (CHANGES.md, PR 22).
#[inline(never)]
fn run_sort<T>(
    builder: SortBuilder,
    transport: MappedTransport<T>,
) -> std::thread::Result<Result<SortReport, SortError>>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    std::panic::catch_unwind(AssertUnwindSafe(|| builder.run_on(transport)))
}

/// A rider's proportional share of one attempt's effort, by key count.
fn effort_share(attempt_effort: u64, rider_len: u64, total_len: u64) -> u64 {
    if total_len == 0 {
        return 0;
    }
    ((u128::from(attempt_effort) * u128::from(rider_len)) / u128::from(total_len)) as u64
}

/// The one place a job leaves the service: its [`JobReport`] or
/// [`JobError`] is built, the sink billed, the reply sent. What the sink is
/// billed is what the report says — retries as made, and effort over every
/// attempt the job was aboard, whether or not it ended in an answer.
fn settle<T>(inner: &Inner<T>, ride: Ride, mut ending: Result<Sorted, JobError>)
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let retries = ride.attempts.saturating_sub(1) as u64;
    for (i, rider) in ride.riders.into_iter().enumerate() {
        let result = match &mut ending {
            Ok(sorted) => Ok(JobReport {
                id: rider.job.id,
                output: std::mem::take(&mut sorted.outputs[i]),
                attempts: ride.attempts,
                dim: sorted.dim,
                detections: ride.detections.clone(),
                latency: rider.job.submitted_at.elapsed(),
                metrics: sorted.metrics,
                effort: rider.effort,
                // Only a lone rider can have asked for one.
                trace: std::mem::take(&mut sorted.trace),
            }),
            Err(err) => Err(err.clone()),
        };
        match &result {
            Ok(report) => {
                // The attempt's simulator counters are service-billed once
                // (first rider), not once per rider; every report still
                // carries the merged view.
                let sim = if i == 0 {
                    report.metrics
                } else {
                    NodeMetrics::default()
                };
                inner
                    .metrics
                    .job_completed(report.latency, retries, report.effort, &sim);
            }
            Err(_) => inner.metrics.job_failed(retries, rider.effort),
        }
        let _ = rider.job.reply.send(result);
    }
}

/// Feeds one fail-stopped attempt to the service's fault memory: the job
/// avoids every implicated node on its own retries; nodes striking out
/// service-wide are quarantined and their cached links purged so no later
/// job dials them.
fn digest_failure<T>(
    inner: &Inner<T>,
    reports: &[ErrorReport],
    plan: &CubePlan,
    avoid: &mut BTreeSet<u32>,
) where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let verdict = inner.recovery.record_failure(reports, plan);
    avoid.extend(verdict.suspects.iter().copied());
    for label in verdict.newly_quarantined {
        inner.cache.purge_node(label);
        aoft_obs::global().quarantine_events.inc();
        aoft_obs::emit(
            aoft_obs::Event::new("quarantine")
                .node(label)
                .detail("node struck out service-wide; cached links purged"),
        );
    }
    aoft_obs::global()
        .quarantined_nodes
        .set(inner.recovery.quarantined().len() as i64);
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoft_net::InProc;
    use aoft_sort::Algorithm;

    fn keys(n: usize, salt: i32) -> Vec<i32> {
        (0..n as i32).map(|i| (i * 37 + salt) % 101 - 50).collect()
    }

    fn sorted(mut v: Vec<i32>) -> Vec<i32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn serves_a_stream_of_jobs_in_process() {
        let service =
            SortService::start(SvcConfig::new(3).workers(2), InProc::new()).expect("start");
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let input = keys(16, i);
                let handle = service.submit(JobSpec::new(input.clone())).expect("admit");
                (input, handle)
            })
            .collect();
        for (input, handle) in handles {
            let report = handle.wait().expect("job completes");
            assert_eq!(report.output, sorted(input));
            assert_eq!(report.attempts, 1);
            assert_eq!(report.dim, 3);
        }
        let snap = service.metrics();
        assert_eq!(snap.jobs_completed, 8);
        assert_eq!(snap.jobs_failed, 0);
        assert_eq!(snap.retries, 0);
        assert!(snap.latency_p50 > Duration::ZERO);
        assert!(snap.quarantined.is_empty());
    }

    #[test]
    fn rejects_unservable_and_overflow_submissions() {
        let service =
            SortService::start(SvcConfig::new(2).queue_depth(1).workers(1), InProc::new())
                .expect("start");
        assert!(matches!(
            service.submit(JobSpec::new(vec![])),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            service.submit(JobSpec::new(vec![1, 2, 3])),
            Err(SubmitError::Invalid(_))
        ));
        // Saturate: the worker claims one job, the queue holds one more;
        // keep submitting until the bound trips.
        let mut admitted = Vec::new();
        let mut saw_backpressure = false;
        for i in 0..64 {
            match service.submit(JobSpec::new(keys(64, i))) {
                Ok(handle) => admitted.push(handle),
                Err(SubmitError::Backpressure { depth }) => {
                    assert_eq!(depth, 1);
                    saw_backpressure = true;
                    break;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(saw_backpressure, "64 instant submits must outrun 1 worker");
        for handle in admitted {
            handle.wait().expect("admitted jobs still complete");
        }
        assert!(service.metrics().jobs_rejected >= 3);
    }

    #[test]
    fn a_job_that_dies_on_its_first_attempt_is_billed_no_retries() {
        /// A medium with no links: the engine panics establishing the first.
        struct NoLinks;
        impl Transport<Packet<Msg>> for NoLinks {
            fn connect_tx(
                &self,
                _link: aoft_net::LinkId,
                _deadline: Duration,
            ) -> Result<Box<dyn aoft_net::LinkTx<Packet<Msg>>>, aoft_net::NetError> {
                Err(aoft_net::NetError::Closed)
            }
            fn connect_rx(
                &self,
                _link: aoft_net::LinkId,
                _deadline: Duration,
            ) -> Result<Box<dyn aoft_net::LinkRx<Packet<Msg>>>, aoft_net::NetError> {
                Err(aoft_net::NetError::Closed)
            }
        }
        let service =
            SortService::start(SvcConfig::new(2).max_attempts(3), NoLinks).expect("start");
        let err = service
            .submit(JobSpec::new(keys(8, 1)))
            .expect("admit")
            .wait()
            .expect_err("no attempt can run");
        assert!(matches!(err, JobError::Runtime(_)), "got {err}");
        let snap = service.metrics();
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.retries, 0, "one attempt made, none retried");
    }

    #[test]
    fn shutdown_answers_queued_jobs_with_stopped() {
        let service = SortService::start(
            SvcConfig::new(4).algorithm(Algorithm::HostSequential),
            InProc::new(),
        )
        .expect("start");
        let handle = service.submit(JobSpec::new(keys(16, 0))).expect("admit");
        // The job may or may not start before shutdown; either way the
        // handle resolves — to a report or to Stopped, never a hang.
        service.shutdown();
        match handle.wait() {
            Ok(report) => assert_eq!(report.output, sorted(keys(16, 0))),
            Err(err) => assert_eq!(err, JobError::Stopped),
        }
    }
}
