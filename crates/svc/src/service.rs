//! The resident sort service: worker pool, scheduler, and recovery loop.

use std::any::Any;
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoft_net::{Backoff, LinkCache, MappedTransport, Transport};
use aoft_obs::ObsServer;
use aoft_sim::{ErrorReport, NodeMetrics, Packet, Trace};
use aoft_sort::composite::{demux, mux, CompositeCodec};
use aoft_sort::{Msg, SortBuilder, SortError};

use crate::batch::Batcher;
use crate::config::{ConfigError, SvcConfig};
use crate::job::{JobError, JobHandle, JobId, JobReport, JobSpec, SubmitError};
use crate::metrics::{MetricsSink, SvcMetrics};
use crate::queue::{JobQueue, PushRefused, QueuedJob};
use crate::recovery::{retry_timing, CubePlan, Recovery, RetryTiming};

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

    /// The running configuration.
    pub fn config(&self) -> &SvcConfig {
        &self.inner.config
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
        if batch.jobs.len() == 1 {
            // Solo batches — and everything when `batch_max` is 1 — take
            // the original per-job path, byte for byte.
            let job = batch.jobs.into_iter().next().expect("batch of one");
            let (result, attempts, effort) = run_job(&inner, slot, &job);
            let retries = attempts.saturating_sub(1) as u64;
            match &result {
                Ok(report) => {
                    inner
                        .metrics
                        .job_completed(report.latency, retries, effort, &report.metrics)
                }
                Err(_) => inner.metrics.job_failed(retries, effort),
            }
            let _ = job.reply.send(result);
        } else {
            run_batch(&inner, slot, batch.jobs, batcher.codec());
        }
        aoft_obs::global().inflight_jobs.add(-inflight);
    }
}

/// What a job (or a batch, across its re-splits) carries from one attempt
/// to the next: the nodes its own fail-stops implicated, and the backoff
/// schedule — which advances only when a retry actually waits.
struct RetryState {
    avoid: BTreeSet<u32>,
    backoff: Backoff,
}

impl RetryState {
    fn new(config: &SvcConfig) -> Self {
        Self {
            avoid: BTreeSet::new(),
            backoff: Backoff::new(config.backoff_initial, config.backoff_max),
        }
    }
}

/// Plans the cube an attempt runs on and, for a retry, decides when it
/// starts: at once, unless [`retry_timing`] says time can help — then, and
/// only then, the worker serves the schedule's next delay. `failed` is
/// the plan and reports of the attempt being retried (`None` on a first
/// attempt). Both attempt loops begin every attempt here.
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

/// One job's attempt loop: plan cube → run → on fail-stop diagnose, strike,
/// retry (degraded when diagnosis named someone to avoid).
///
/// Returns the result, the attempts actually started, and the job's total
/// effort in ticks — node-time summed over every attempt, fail-stopped ones
/// included, so the cost of retried work is billed whether or not the job
/// ultimately succeeds.
fn run_job<T>(
    inner: &Inner<T>,
    slot: usize,
    job: &QueuedJob,
) -> (Result<JobReport, JobError>, usize, u64)
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let config = &inner.config;
    // Each worker slot owns `dim` consecutive link tags (validated ≤ 256 at
    // start), so concurrent jobs never share a physical link.
    let tag_base = (slot as u32 * config.dim) as u8;
    let mut retry = RetryState::new(config);
    let mut detections: Vec<Vec<ErrorReport>> = Vec::new();
    let mut failed_plan: Option<CubePlan> = None;
    let mut effort: u64 = 0;

    for attempt in 0..config.max_attempts {
        let failed = failed_plan
            .as_ref()
            .zip(detections.last().map(Vec::as_slice));
        let plan = match begin_attempt(inner, job.id, attempt, failed, &mut retry) {
            Ok(plan) => plan,
            Err(healthy) => {
                return (
                    Err(JobError::CubeExhausted {
                        healthy,
                        min_dim: config.min_dim,
                    }),
                    attempt,
                    effort,
                )
            }
        };
        let nodes = 1usize << plan.dim;
        if job.spec.keys.len() % nodes != 0 {
            // Unreachable after the submit-side check (degraded cubes are
            // smaller powers of two), kept as defense in depth.
            return (
                Err(JobError::Invalid(format!(
                    "{} keys do not divide over the degraded {nodes}-node cube",
                    job.spec.keys.len()
                ))),
                attempt,
                effort,
            );
        }
        let run_id = inner.next_run.fetch_add(1, Ordering::Relaxed) + 1;
        aoft_obs::global().attempts.inc();
        aoft_obs::emit(
            aoft_obs::Event::new("attempt_started")
                .job(job.id.0)
                .attempt(attempt as u32)
                .detail(format!("run {run_id} on a {}-dim cube", plan.dim)),
        );
        let transport = MappedTransport::new(Arc::clone(&inner.cache), plan.map.clone())
            .with_tag_base(tag_base);
        let mut builder = SortBuilder::new(config.algorithm)
            .keys(job.spec.keys.clone())
            .direction(job.spec.direction)
            .nodes(nodes)
            .recv_timeout(config.recv_timeout)
            .trace(job.spec.capture_trace)
            .job(run_id);
        if attempt == 0 {
            // Injected model faults are transient: they hit the first
            // attempt only (see `JobSpec::fault_plan`).
            if let Some(plan) = &job.spec.fault_plan {
                builder = builder.fault_plan(plan.clone());
            }
        }
        let started = Instant::now();
        match std::panic::catch_unwind(AssertUnwindSafe(|| builder.run_on(transport))) {
            Ok(Ok(report)) => {
                effort += report.metrics().effort();
                let mut merged = NodeMetrics::default();
                for node in &report.metrics().nodes {
                    merged.merge(node);
                }
                merged.merge(&report.metrics().host);
                return (
                    Ok(JobReport {
                        id: job.id,
                        output: report.output().to_vec(),
                        attempts: attempt + 1,
                        dim: plan.dim,
                        detections,
                        latency: job.submitted_at.elapsed(),
                        metrics: merged,
                        effort,
                        trace: report.trace().clone(),
                    }),
                    attempt + 1,
                    effort,
                );
            }
            Ok(Err(SortError::Detected {
                reports,
                effort: wasted,
            })) => {
                effort += wasted;
                aoft_obs::emit(
                    aoft_obs::Event::new("attempt_failstop")
                        .job(job.id.0)
                        .attempt(attempt as u32)
                        .elapsed(started.elapsed())
                        .detail(format!("{} report(s)", reports.len())),
                );
                digest_failure(inner, &reports, &plan, &mut retry.avoid);
                detections.push(reports);
                failed_plan = Some(plan);
            }
            Ok(Err(err)) => return (Err(JobError::Invalid(err.to_string())), attempt + 1, effort),
            Err(payload) => {
                return (
                    Err(JobError::Runtime(panic_message(payload))),
                    attempt + 1,
                    effort,
                )
            }
        }
    }
    (
        Err(JobError::Exhausted {
            attempts: config.max_attempts,
            detections,
        }),
        config.max_attempts,
        effort,
    )
}

/// One job riding a batch, with the accounting that follows it through
/// retries and re-splits.
struct BatchJob {
    job: QueuedJob,
    /// Effort billed so far: this rider's proportional share of every
    /// attempt it took part in, fail-stopped ones included.
    effort: u64,
    /// Fail-stop reports of every attempt this rider was aboard.
    detections: Vec<Vec<ErrorReport>>,
    /// Attempts this rider has been aboard (batched or post-split).
    attempts: usize,
}

/// Runs a multi-job batch to completion: every rider's reply channel is
/// answered (success or loud failure) and the metrics sink billed, exactly
/// as the solo path does per job.
fn run_batch<T>(inner: &Inner<T>, slot: usize, jobs: Vec<QueuedJob>, codec: CompositeCodec)
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let riders = jobs
        .into_iter()
        .map(|job| BatchJob {
            job,
            effort: 0,
            detections: Vec::new(),
            attempts: 0,
        })
        .collect();
    // One avoid set and one backoff schedule for the whole batch, shared
    // across re-splits: violations name nodes, not jobs, so what one half
    // learns the other must not re-discover.
    let mut retry = RetryState::new(&inner.config);
    execute_batch(
        inner,
        slot,
        riders,
        codec,
        inner.config.max_attempts,
        None,
        &mut retry,
    );
}

/// One cube attempt over `riders`' composite keys, recursing on failure.
///
/// Recovery stays job-agnostic: a fail-stop is diagnosed exactly as for a
/// solo job (nodes struck, quarantine counted), then the *batch* retries on
/// the surviving subcube — split in half when it held two or more jobs, so
/// a pathological interaction cannot pin every rider to the same fate.
/// `budget` is the attempt budget shared down the recursion; each level
/// consumes one attempt before splitting. `failed` is the plan and reports
/// of the attempt these riders are retrying (`None` for a fresh batch);
/// each re-split half decides its own retry timing from it.
fn execute_batch<T>(
    inner: &Inner<T>,
    slot: usize,
    mut riders: Vec<BatchJob>,
    codec: CompositeCodec,
    budget: usize,
    failed: Option<(&CubePlan, &[ErrorReport])>,
    retry: &mut RetryState,
) where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let config = &inner.config;
    if budget == 0 {
        for rider in riders {
            fail_rider(
                inner,
                rider.job,
                rider.attempts,
                rider.effort,
                JobError::Exhausted {
                    attempts: rider.attempts,
                    detections: rider.detections,
                },
            );
        }
        return;
    }
    let lead = &riders[0];
    let plan = match begin_attempt(inner, lead.job.id, lead.attempts, failed, retry) {
        Ok(plan) => plan,
        Err(healthy) => {
            for rider in riders {
                fail_rider(
                    inner,
                    rider.job,
                    rider.attempts,
                    rider.effort,
                    JobError::CubeExhausted {
                        healthy,
                        min_dim: config.min_dim,
                    },
                );
            }
            return;
        }
    };
    let nodes = 1usize << plan.dim;
    // Lexicographic composites: each job's keys become a contiguous,
    // internally ordered segment of the one sorted output. A post-split
    // batch of one runs its plain keys — no tag overhead, full key range.
    let keys = if riders.len() == 1 {
        riders[0].job.spec.keys.clone()
    } else {
        let segments: Vec<&[i32]> = riders.iter().map(|r| r.job.spec.keys.as_slice()).collect();
        match mux(codec, &segments) {
            Some(keys) => keys,
            None => {
                // Unreachable: compatibility was checked per job at batch
                // time against this same codec. Defense in depth.
                for rider in riders {
                    fail_rider(
                        inner,
                        rider.job,
                        rider.attempts,
                        rider.effort,
                        JobError::Runtime("batched keys no longer fit the composite codec".into()),
                    );
                }
                return;
            }
        }
    };
    if keys.len() % nodes != 0 {
        // Unreachable after the submit-side check (each rider's count
        // divides every power-of-two subcube, so any sum does too), kept as
        // defense in depth like the solo path's.
        for rider in riders {
            fail_rider(
                inner,
                rider.job,
                rider.attempts,
                rider.effort,
                JobError::Invalid(format!(
                    "{} batched keys do not divide over the degraded {nodes}-node cube",
                    keys.len()
                )),
            );
        }
        return;
    }
    let total_len = keys.len() as u64;
    let run_id = inner.next_run.fetch_add(1, Ordering::Relaxed) + 1;
    aoft_obs::global().attempts.inc();
    aoft_obs::emit(
        aoft_obs::Event::new("attempt_started")
            .job(riders[0].job.id.0)
            .attempt(riders[0].attempts as u32)
            .detail(format!(
                "run {run_id} on a {}-dim cube ({} coalesced job(s))",
                plan.dim,
                riders.len()
            )),
    );
    for rider in &mut riders {
        rider.attempts += 1;
    }
    let tag_base = (slot as u32 * config.dim) as u8;
    let transport =
        MappedTransport::new(Arc::clone(&inner.cache), plan.map.clone()).with_tag_base(tag_base);
    let builder = SortBuilder::new(config.algorithm)
        .keys(keys)
        .direction(riders[0].job.spec.direction)
        .nodes(nodes)
        .recv_timeout(config.recv_timeout)
        .job(run_id);
    let started = Instant::now();
    match std::panic::catch_unwind(AssertUnwindSafe(|| builder.run_on(transport))) {
        Ok(Ok(report)) => {
            let lens: Vec<usize> = riders.iter().map(|r| r.job.spec.keys.len()).collect();
            let outputs = if riders.len() == 1 {
                vec![report.output().to_vec()]
            } else {
                match demux(codec, report.output(), &lens) {
                    Ok(outputs) => outputs,
                    Err(err) => {
                        // A verified sort whose output is not a permutation
                        // of the batch is corruption the predicates cannot
                        // see (they check order, not tags). Fail-stop loud,
                        // never hand a job another job's keys.
                        for rider in riders {
                            fail_rider(
                                inner,
                                rider.job,
                                rider.attempts,
                                rider.effort,
                                JobError::Runtime(format!("batch demux integrity check: {err}")),
                            );
                        }
                        return;
                    }
                }
            };
            let attempt_effort = report.metrics().effort();
            let mut merged = NodeMetrics::default();
            for node in &report.metrics().nodes {
                merged.merge(node);
            }
            merged.merge(&report.metrics().host);
            for (i, (rider, output)) in riders.into_iter().zip(outputs).enumerate() {
                let share =
                    effort_share(attempt_effort, rider.job.spec.keys.len() as u64, total_len);
                let effort = rider.effort + share;
                let job_report = JobReport {
                    id: rider.job.id,
                    output,
                    attempts: rider.attempts,
                    dim: plan.dim,
                    detections: rider.detections,
                    latency: rider.job.submitted_at.elapsed(),
                    metrics: merged,
                    effort,
                    trace: Trace::default(),
                };
                // The attempt's simulator counters are service-billed once
                // (first rider), not once per rider; every report still
                // carries the merged view.
                let sim = if i == 0 {
                    merged
                } else {
                    NodeMetrics::default()
                };
                inner.metrics.job_completed(
                    job_report.latency,
                    (rider.attempts - 1) as u64,
                    share,
                    &sim,
                );
                let _ = rider.job.reply.send(Ok(job_report));
            }
        }
        Ok(Err(SortError::Detected {
            reports,
            effort: wasted,
        })) => {
            aoft_obs::emit(
                aoft_obs::Event::new("attempt_failstop")
                    .job(riders[0].job.id.0)
                    .attempt((riders[0].attempts - 1) as u32)
                    .elapsed(started.elapsed())
                    .detail(format!(
                        "{} report(s) over {} coalesced job(s)",
                        reports.len(),
                        riders.len()
                    )),
            );
            digest_failure(inner, &reports, &plan, &mut retry.avoid);
            for rider in &mut riders {
                rider.effort += effort_share(wasted, rider.job.spec.keys.len() as u64, total_len);
                rider.detections.push(reports.clone());
            }
            let failed = Some((&plan, reports.as_slice()));
            let budget = budget - 1;
            if riders.len() >= 2 {
                // Re-split: each half retries as its own (smaller) batch on
                // the surviving subcube, sequentially, sharing the avoid
                // set and backoff schedule.
                let tail = riders.split_off(riders.len() / 2);
                execute_batch(inner, slot, riders, codec, budget, failed, retry);
                execute_batch(inner, slot, tail, codec, budget, failed, retry);
            } else {
                execute_batch(inner, slot, riders, codec, budget, failed, retry);
            }
        }
        Ok(Err(err)) => {
            for rider in riders {
                fail_rider(
                    inner,
                    rider.job,
                    rider.attempts,
                    rider.effort,
                    JobError::Invalid(err.to_string()),
                );
            }
        }
        Err(payload) => {
            let msg = panic_message(payload);
            for rider in riders {
                fail_rider(
                    inner,
                    rider.job,
                    rider.attempts,
                    rider.effort,
                    JobError::Runtime(msg.clone()),
                );
            }
        }
    }
}

/// A rider's proportional share of one attempt's effort, by key count.
fn effort_share(attempt_effort: u64, rider_len: u64, total_len: u64) -> u64 {
    if total_len == 0 {
        return 0;
    }
    ((u128::from(attempt_effort) * u128::from(rider_len)) / u128::from(total_len)) as u64
}

/// Answers one batched job's reply channel with a loud failure and bills
/// the sink, mirroring the solo path's failure accounting.
fn fail_rider<T>(inner: &Inner<T>, job: QueuedJob, attempts: usize, effort: u64, err: JobError)
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    inner
        .metrics
        .job_failed(attempts.saturating_sub(1) as u64, effort);
    let _ = job.reply.send(Err(err));
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
    use aoft_faults::{FaultyTransport, LinkFault};
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
    fn recovers_from_a_crashed_node_and_quarantines_it() {
        // Node 5 is fail-silent from its very first send. Every node
        // downstream of the dead links stalls within one stage, and the
        // starved recv deadlines land microseconds apart — which stalled
        // node reports first is scheduler roulette, so the diagnosis
        // implicates *some* dead link on the stalled wavefront, not
        // necessarily one incident to node 5 (attribution determinism for
        // synthetic reports lives in the recovery module's tests). The
        // service-level guarantee is what this test pins down: the job
        // fail-stops instead of lying, the implicated pair is quarantined,
        // and the retry completes correctly on a degraded cube.
        let faulty = FaultyTransport::new(InProc::new(), 0xdead).fault_sender(
            5,
            LinkFault {
                kill_after: Some(0),
                ..LinkFault::default()
            },
        );
        let config = SvcConfig::new(3)
            .max_attempts(4)
            .quarantine_after(1)
            .backoff(Duration::ZERO, Duration::ZERO)
            .recv_timeout(Duration::from_millis(300));
        let service = SortService::start(config, faulty).expect("start");

        let input = keys(32, 7);
        let report = service
            .submit(JobSpec::new(input.clone()))
            .expect("admit")
            .wait()
            .expect("job recovers");
        assert_eq!(report.output, sorted(input), "never silently wrong");
        assert!(report.recovered(), "first attempt must fail-stop");
        assert!(report.dim < 3, "retry runs degraded");
        assert!(
            report.effort > report.metrics.effort(),
            "effort bills the fail-stopped attempt on top of the successful one"
        );
        let quarantined = service.quarantined();
        assert!(
            !quarantined.is_empty(),
            "the fail-stop must quarantine the implicated link endpoints"
        );
        assert!(
            quarantined.iter().all(|&n| n < 8),
            "quarantine holds physical cube labels, got {quarantined:?}"
        );

        // Follow-up jobs avoid the quarantined node from the start.
        let input = keys(32, 11);
        let report = service
            .submit(JobSpec::new(input.clone()))
            .expect("admit")
            .wait()
            .expect("follow-up completes");
        assert_eq!(report.output, sorted(input));
        assert_eq!(report.attempts, 1, "no re-detection once quarantined");

        let snap = service.metrics();
        assert_eq!(snap.jobs_completed, 2);
        assert!(snap.retries >= 1);
        assert_eq!(snap.recovered_jobs, 1);
        assert!(snap.effort > 0, "service-wide effort accumulates");
    }

    #[test]
    fn cube_exhaustion_fails_loudly() {
        // Every node's links die immediately; min_dim 2 leaves no fallback.
        let mut faulty = FaultyTransport::new(InProc::new(), 1);
        for node in 0..4 {
            faulty = faulty.fault_sender(
                node,
                LinkFault {
                    kill_after: Some(0),
                    ..LinkFault::default()
                },
            );
        }
        let config = SvcConfig::new(2)
            .min_dim(2)
            .max_attempts(3)
            .quarantine_after(1)
            .backoff(Duration::ZERO, Duration::ZERO)
            .recv_timeout(Duration::from_millis(200));
        let service = SortService::start(config, faulty).expect("start");
        let err = service
            .submit(JobSpec::new(keys(8, 3)))
            .expect("admit")
            .wait()
            .expect_err("no healthy cube can remain");
        // Retries are billed as made: a retry the cube could no longer
        // host never started.
        let retries_made = match err {
            JobError::CubeExhausted { .. } => 0,
            JobError::Exhausted { attempts, .. } => attempts as u64 - 1,
            other => panic!("loud failure, got {other}"),
        };
        let snap = service.metrics();
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.retries, retries_made, "billed for {err}");
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
