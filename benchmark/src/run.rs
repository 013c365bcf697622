//! The six workloads: set-up, the closed load-generating loops, and the
//! end-to-end metrics of an untraced run.
//!
//! One process, one load-generating thread. Every loop is closed: the next
//! job (or burst) is sent only after the previous answer is in hand. A job
//! is timed by the client from the `submit` call to the answer in hand;
//! verification happens after the clock has stopped.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aoft::net::{InProc, MuxConfig, MuxTransport};
use aoft::sort::Algorithm;
use aoft::svc::{
    FleetConfig, FleetHandle, FleetRouter, JobError, JobHandle, JobReport, JobSpec, SortService,
    SubmitError, SvcConfig, SvcMetrics,
};

use crate::gen::{self, JobPool};
use crate::harness;
use crate::stats::{self, percentile_of};
use crate::verify::{self, Verdict};

/// Every workload runs a d = 3 cube.
pub const DIM: u32 = 3;
pub const NODES: u32 = 1 << DIM;

/// Jobs per burst of `burst_batched`.
pub const BURST_JOBS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallInproc,
    SmallMux,
    LargeInproc,
    LargeMux,
    BurstBatched,
    FaultedInproc,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SmallInproc,
        Workload::SmallMux,
        Workload::LargeInproc,
        Workload::LargeMux,
        Workload::BurstBatched,
        Workload::FaultedInproc,
    ];

    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[Self::ALL
            .iter()
            .position(|w| *w == self)
            .expect("listed workload")]
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn keys_per_job(self) -> usize {
        match self {
            Workload::LargeInproc | Workload::LargeMux => 32_768,
            _ => 64,
        }
    }

    /// Keys per node, the `m` of the block bitonic sort.
    pub fn block(self) -> usize {
        self.keys_per_job() / NODES as usize
    }

    pub fn is_mux(self) -> bool {
        matches!(self, Workload::SmallMux | Workload::LargeMux)
    }

    pub fn is_fleet(self) -> bool {
        self == Workload::BurstBatched
    }

    /// Whether the job stream itself carries faults.
    pub fn is_faulted(self) -> bool {
        self == Workload::FaultedInproc
    }

    fn warm_jobs(self) -> usize {
        match self {
            Workload::LargeInproc | Workload::LargeMux => 20,
            _ => 50,
        }
    }

    fn pool_jobs(self) -> usize {
        match self {
            Workload::LargeInproc | Workload::LargeMux => 16,
            _ => 256,
        }
    }

    /// The service configuration of one cube.
    ///
    /// Quarantine is off everywhere: the injected faults are transient and
    /// rotate through every node, so striking nodes out would shrink a
    /// healthy cube and change the workload under measurement.
    pub fn config(self, algorithm: Algorithm) -> SvcConfig {
        let base = SvcConfig::new(DIM)
            .workers(2)
            .algorithm(algorithm)
            .quarantine_after(u32::MAX);
        match self {
            Workload::BurstBatched => base.batch_max(16).queue_depth(256),
            Workload::FaultedInproc => base.max_attempts(4),
            _ => base,
        }
    }
}

pub fn mux_transport() -> Result<MuxTransport, String> {
    let transport =
        MuxTransport::bind(MuxConfig::default()).map_err(|e| format!("bind loopback mux: {e}"))?;
    let addr = transport.local_addr();
    for label in 0..NODES {
        transport.set_peer(label, addr);
    }
    Ok(transport)
}

/// The admission door of the system under test.
pub enum Target {
    Inproc(SortService<InProc>),
    Mux(SortService<MuxTransport>),
    Fleet(FleetRouter<InProc>),
}

pub enum Ticket<'a> {
    Job(JobHandle),
    Fleet(FleetHandle<'a, InProc>),
}

impl Ticket<'_> {
    pub fn wait(self) -> Result<JobReport, JobError> {
        match self {
            Ticket::Job(handle) => handle.wait(),
            Ticket::Fleet(handle) => handle.wait().map(|fleet| fleet.report),
        }
    }
}

/// The service's own counters, summed over cubes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub completed: u64,
    pub rejected: u64,
    pub retries: u64,
    pub recovered: u64,
    pub batches_flushed: u64,
    pub jobs_coalesced: u64,
    pub msgs_sent: u64,
    pub words_sent: u64,
    pub stale_dropped: u64,
}

impl Counters {
    fn absorb(&mut self, m: &SvcMetrics) {
        self.completed += m.jobs_completed;
        self.rejected += m.jobs_rejected;
        self.retries += m.retries;
        self.recovered += m.recovered_jobs;
        self.batches_flushed += m.batches_flushed;
        self.jobs_coalesced += m.jobs_coalesced;
        self.msgs_sent += m.sim.msgs_sent;
        self.words_sent += m.sim.words_sent;
        self.stale_dropped += m.sim.stale_dropped;
    }

    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        self.completed += after.completed - before.completed;
        self.rejected += after.rejected - before.rejected;
        self.retries += after.retries - before.retries;
        self.recovered += after.recovered - before.recovered;
        self.batches_flushed += after.batches_flushed - before.batches_flushed;
        self.jobs_coalesced += after.jobs_coalesced - before.jobs_coalesced;
        self.msgs_sent += after.msgs_sent - before.msgs_sent;
        self.words_sent += after.words_sent - before.words_sent;
        self.stale_dropped += after.stale_dropped - before.stale_dropped;
    }
}

impl Target {
    pub fn start(workload: Workload, algorithm: Algorithm) -> Result<Target, String> {
        let config = workload.config(algorithm);
        let err = |e| format!("{} does not start: {e}", workload.name());
        if workload.is_fleet() {
            FleetRouter::start(FleetConfig::new(config, 2), |_| Ok(InProc::new()))
                .map(Target::Fleet)
                .map_err(err)
        } else if workload.is_mux() {
            SortService::start(config, mux_transport()?)
                .map(Target::Mux)
                .map_err(err)
        } else {
            SortService::start(config, InProc::new())
                .map(Target::Inproc)
                .map_err(err)
        }
    }

    pub fn submit(&self, spec: JobSpec) -> Result<Ticket<'_>, SubmitError> {
        match self {
            Target::Inproc(service) => service.submit(spec).map(Ticket::Job),
            Target::Mux(service) => service.submit(spec).map(Ticket::Job),
            Target::Fleet(router) => router.submit(spec).map(Ticket::Fleet),
        }
    }

    fn submit_batch(&self, specs: Vec<JobSpec>) -> Vec<Result<Ticket<'_>, SubmitError>> {
        match self {
            Target::Fleet(router) => router
                .submit_batch(specs)
                .into_iter()
                .map(|r| r.map(Ticket::Fleet))
                .collect(),
            _ => specs.into_iter().map(|spec| self.submit(spec)).collect(),
        }
    }

    pub fn counters(&self) -> Counters {
        let mut total = Counters::default();
        match self {
            Target::Inproc(service) => total.absorb(&service.metrics()),
            Target::Mux(service) => total.absorb(&service.metrics()),
            Target::Fleet(router) => {
                for cube in &router.metrics().per_cube {
                    total.absorb(cube);
                }
            }
        }
        total
    }

    pub fn shutdown(self) {
        match self {
            Target::Inproc(service) => service.shutdown(),
            Target::Mux(service) => service.shutdown(),
            Target::Fleet(router) => router.shutdown(),
        }
    }
}

/// Set-ups per run while all of them together stay under
/// [`CHEAP_SETUPS_S`] seconds.
const MAX_SETUPS: usize = 7;
const CHEAP_SETUPS_S: f64 = 1.0;

/// One job, as the client saw it.
pub struct Answer {
    pub latency: Duration,
    /// `None` when the job was refused or failed loudly.
    pub report: Option<JobReport>,
    pub verdict: Verdict,
}

/// What one slice (or a pool of slices) measured.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Latencies of the workload's `job_p50_ms` population, in ms: burst
    /// jobs on `burst_batched`, jobs that needed no retry elsewhere.
    pub latencies_ms: Vec<f64>,
    /// Latencies of jobs sent with nothing else in flight, where that is
    /// a different population from `latencies_ms`.
    pub lone_ms: Vec<f64>,
    /// Latencies of jobs with at least one fail-stopped attempt.
    pub recovered_ms: Vec<f64>,
    pub attempted: u64,
    pub answered: u64,
    pub failed: u64,
    pub silent_wrong: u64,
    pub attempts: u64,
    pub effort: u64,
    /// Jobs and wall time the throughput figure is taken over.
    pub rate_jobs: u64,
    pub rate_secs: f64,
    pub faulted: u64,
    pub faulted_detected: u64,
}

impl Slice {
    /// Books one answer; returns its latency in ms when the job was
    /// answered correctly without a retry.
    pub fn book(&mut self, answer: &Answer, faulted: bool) -> Option<f64> {
        self.attempted += 1;
        self.faulted += u64::from(faulted);
        match (&answer.report, answer.verdict) {
            (Some(report), Verdict::Correct) => {
                self.answered += 1;
                self.attempts += report.attempts as u64;
                self.effort += report.effort;
                let ms = answer.latency.as_secs_f64() * 1e3;
                if report.recovered() {
                    self.faulted_detected += u64::from(faulted);
                    self.recovered_ms.push(ms);
                    None
                } else {
                    Some(ms)
                }
            }
            (_, Verdict::SilentlyWrong) => {
                self.silent_wrong += 1;
                self.failed += 1;
                None
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }

    pub fn merge(&mut self, other: &Slice) {
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.lone_ms.extend_from_slice(&other.lone_ms);
        self.recovered_ms.extend_from_slice(&other.recovered_ms);
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.failed += other.failed;
        self.silent_wrong += other.silent_wrong;
        self.attempts += other.attempts;
        self.effort += other.effort;
        self.rate_jobs += other.rate_jobs;
        self.rate_secs += other.rate_secs;
        self.faulted += other.faulted;
        self.faulted_detected += other.faulted_detected;
    }

    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }

    pub fn jobs_per_s(&self) -> f64 {
        if self.rate_secs > 0.0 {
            self.rate_jobs as f64 / self.rate_secs
        } else {
            0.0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Sft,
    Snr,
}

/// A started workload: inputs, reference answers and both arms' services.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pool: JobPool,
    expected: Vec<Vec<i32>>,
    pub sft: Target,
    pub snr: Target,
    /// Jobs sent so far on the S_FT arm: the position in the fault stream.
    sent: u64,
    /// Probe faults sent so far.
    probes: u64,
}

impl Fixture {
    /// Generates the inputs, starts both arms and warms them up.
    pub fn start(workload: Workload, seed: u64) -> Result<Fixture, String> {
        let pool = JobPool::new(seed, workload.pool_jobs(), workload.keys_per_job());
        let expected = (0..workload.pool_jobs() as u64)
            .map(|i| verify::expected(pool.get(i)))
            .collect();
        let fixture = Fixture {
            workload,
            seed,
            pool,
            expected,
            sft: Target::start(workload, Algorithm::FaultTolerant)?,
            snr: Target::start(workload, Algorithm::NonRedundant)?,
            sent: 0,
            probes: 0,
        };
        let mut warm = Slice::default();
        if workload.is_fleet() {
            fixture.burst(Arm::Sft, 0, &mut warm);
            fixture.burst(Arm::Snr, 0, &mut warm);
        }
        for i in 0..workload.warm_jobs() as u64 {
            for arm in [Arm::Sft, Arm::Snr] {
                let answer = fixture.job(arm, i, None);
                warm.book(&answer, false);
            }
        }
        if warm.failed > 0 {
            return Err(format!(
                "{}: {} of {} warm-up jobs failed",
                workload.name(),
                warm.failed,
                warm.attempted
            ));
        }
        Ok(fixture)
    }

    pub fn shutdown(self) {
        self.sft.shutdown();
        self.snr.shutdown();
    }

    pub fn target(&self, arm: Arm) -> &Target {
        match arm {
            Arm::Sft => &self.sft,
            Arm::Snr => &self.snr,
        }
    }

    pub fn keys(&self, index: u64) -> &[i32] {
        self.pool.get(index)
    }

    pub fn check(&self, index: u64, output: &[i32]) -> Verdict {
        let slot = (index % self.expected.len() as u64) as usize;
        verify::check(&self.expected[slot], output)
    }

    /// Judges what came back for pool job `index` after `latency`.
    pub fn answer(&self, index: u64, latency: Duration, report: Option<JobReport>) -> Answer {
        let verdict = match &report {
            Some(report) => self.check(index, &report.output),
            None => Verdict::Failed,
        };
        Answer {
            latency,
            report,
            verdict,
        }
    }

    /// The fault job number `n` of the S_FT stream carries, if any.
    pub fn stream_fault(&self, n: u64) -> Option<aoft::faults::FaultPlan> {
        self.workload
            .is_faulted()
            .then(|| gen::stream_fault(self.seed, n, NODES))
            .flatten()
    }

    /// Sends pool job `index` through `arm`'s door and waits for it.
    pub fn job(&self, arm: Arm, index: u64, fault: Option<aoft::faults::FaultPlan>) -> Answer {
        let mut spec = JobSpec::new(self.keys(index).to_vec());
        if let Some(plan) = fault {
            spec = spec.fault_plan(plan);
        }
        let target = self.target(arm);
        let start = Instant::now();
        let report = target.submit(spec).ok().and_then(|t| t.wait().ok());
        self.answer(index, start.elapsed(), report)
    }

    /// A closed loop of lone jobs through `arm`'s door for `length`,
    /// starting at pool job `base`. On the S_FT arm of `faulted_inproc` the
    /// stream carries its faults.
    fn lone_jobs(&mut self, arm: Arm, base: u64, length: Duration, slice: &mut Slice) {
        let started = Instant::now();
        let mut index = base;
        while started.elapsed() < length {
            let fault = match arm {
                Arm::Sft => self.stream_fault(self.sent),
                Arm::Snr => None,
            };
            let faulted = fault.is_some();
            let answer = self.job(arm, index, fault);
            if let Some(ms) = slice.book(&answer, faulted) {
                slice.latencies_ms.push(ms);
            }
            if arm == Arm::Sft {
                self.sent += 1;
            }
            index += 1;
        }
        slice.rate_jobs = slice.answered;
        slice.rate_secs = started.elapsed().as_secs_f64();
    }

    /// One burst: [`BURST_JOBS`] jobs submitted together, all waited for.
    /// A job's latency runs from the burst's submit to its own answer.
    fn burst(&self, arm: Arm, base: u64, slice: &mut Slice) {
        let specs = (0..BURST_JOBS as u64)
            .map(|i| JobSpec::new(self.keys(base + i).to_vec()))
            .collect();
        let target = self.target(arm);
        let start = Instant::now();
        let tickets = target.submit_batch(specs);
        let answers: Vec<(Duration, Option<JobReport>)> = tickets
            .into_iter()
            .map(|ticket| {
                let report = ticket.ok().and_then(|t| t.wait().ok());
                (start.elapsed(), report)
            })
            .collect();
        slice.rate_secs += start.elapsed().as_secs_f64();
        for (i, (latency, report)) in answers.into_iter().enumerate() {
            let answer = self.answer(base + i as u64, latency, report);
            if let Some(ms) = slice.book(&answer, false) {
                slice.latencies_ms.push(ms);
                slice.rate_jobs += 1;
            }
        }
    }

    /// One window of load of the given kind, starting at pool job `base`.
    pub fn window(&mut self, kind: Kind, base: u64) -> Slice {
        let length = self.workload.window();
        let mut slice = Slice::default();
        match kind {
            Kind::Load(arm) if self.workload.is_fleet() => {
                let started = Instant::now();
                let mut index = base;
                while started.elapsed() < length {
                    self.burst(arm, index, &mut slice);
                    index += BURST_JOBS as u64;
                }
            }
            Kind::Load(arm) => self.lone_jobs(arm, base, length, &mut slice),
            Kind::Trickle => {
                // Lone jobs through the door the bursts use: with the
                // batcher on, each pays the flush window.
                self.lone_jobs(Arm::Sft, base, length, &mut slice);
                slice.lone_ms = std::mem::take(&mut slice.latencies_ms);
                (slice.rate_jobs, slice.rate_secs) = (0, 0.0);
            }
            Kind::Probe => {
                // One lone faulted job. Only a recovered one is timed; a
                // masked fault is answered right first time and says
                // nothing about recovery.
                let plan = gen::fault_plan(self.seed ^ 0x9E0B, self.probes, NODES);
                self.probes += 1;
                let answer = self.job(Arm::Sft, base, Some(plan));
                slice.book(&answer, true);
            }
        }
        slice
    }
}

/// What a window does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The workload's own load on one arm: a closed loop of lone jobs, or
    /// back-to-back bursts on `burst_batched`.
    Load(Arm),
    /// `burst_batched` only: lone jobs through the S_FT router.
    Trickle,
    /// One lone faulted job on the S_FT arm, so recovery latency is
    /// measured on every workload's own path.
    Probe,
}

impl Workload {
    /// The windows of one cycle. Both arms run in every cycle, a fraction
    /// of a second apart, on the same pool jobs.
    pub fn cycle(self) -> &'static [Kind] {
        const SFT: Kind = Kind::Load(Arm::Sft);
        const SNR: Kind = Kind::Load(Arm::Snr);
        if self.is_fleet() {
            &[SFT, Kind::Trickle, SNR, SFT, Kind::Trickle, Kind::Probe]
        } else {
            &[SFT, SNR, SFT, SNR, SFT, Kind::Probe]
        }
    }

    /// Length of one window: a dozen jobs or more, and short enough that a
    /// probe is never far away.
    pub fn window(self) -> Duration {
        if self.is_mux() {
            Duration::from_millis(150)
        } else {
            Duration::from_millis(60)
        }
    }
}

/// Starts the workload several times over and keeps the last start:
/// `setup_s` is the median, so one slow bind or spawn does not decide it.
/// At least `repeats` starts, and up to [`MAX_SETUPS`] while they are cheap.
pub fn set_up(
    workload: Workload,
    seed: u64,
    process_start: Instant,
    repeats: usize,
) -> Result<(Fixture, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    loop {
        // The first set-up is timed from process start: a user pays for
        // loading the binary too.
        let start = if times.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let fixture = Fixture::start(workload, seed)?;
        times.push(start.elapsed().as_secs_f64());
        let cheap = times.iter().sum::<f64>() < CHEAP_SETUPS_S && repeats > 1;
        if times.len() >= repeats && !(cheap && times.len() < MAX_SETUPS) {
            return Ok((fixture, stats::median(&times)));
        }
        fixture.shutdown();
    }
}

/// The printable outcome of a run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Pools of an untraced run's windows, by kind.
#[derive(Default)]
pub struct Pools {
    /// Kept S_FT load windows.
    pub sft: Slice,
    /// Kept S_NR load windows.
    pub snr: Slice,
    /// Kept trickle windows.
    pub trickle: Slice,
    /// Every S_FT load window, kept or not: counts do not feel the
    /// neighbours, so all of them are used.
    pub sft_all: Slice,
    /// Every probe.
    pub probes: Slice,
    /// Everything, for the correctness verdict.
    pub all: Slice,
    /// Throughput of each kept S_FT load window, jobs per second.
    pub sft_rates: Vec<f64>,
    pub windows: usize,
    pub kept: usize,
}

impl Pools {
    pub fn add(&mut self, kind: Kind, slice: &Slice, kept: bool) {
        self.all.merge(slice);
        self.windows += 1;
        self.kept += usize::from(kept);
        match kind {
            Kind::Load(Arm::Sft) => {
                self.sft_all.merge(slice);
                if kept {
                    self.sft.merge(slice);
                    self.sft_rates.push(slice.jobs_per_s());
                }
            }
            Kind::Load(Arm::Snr) if kept => self.snr.merge(slice),
            Kind::Trickle if kept => self.trickle.merge(slice),
            Kind::Probe => self.probes.merge(slice),
            _ => {}
        }
    }

    /// Latencies of jobs sent with nothing else in flight.
    pub fn lone_ms(&self) -> &[f64] {
        if self.trickle.lone_ms.is_empty() {
            &self.sft.latencies_ms
        } else {
            &self.trickle.lone_ms
        }
    }

    /// Latencies of every job that needed at least one retry.
    pub fn recovered_ms(&self) -> Vec<f64> {
        let mut recovered = self.sft_all.recovered_ms.clone();
        recovered.extend_from_slice(&self.probes.recovered_ms);
        recovered
    }
}

/// `job_p95_ms` is the median of the p95s of this many consecutive parts of
/// the run, so a stall in one stretch does not decide the tail.
pub const TAIL_PARTS: usize = 5;

/// The untraced run: set-up, windows, end-to-end metrics.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let repeats = if quick { 1 } else { 3 };
    let (mut fixture, setup_s) = set_up(workload, seed, process_start, repeats)?;
    let cycle = workload.cycle();
    let budget = Duration::from_secs_f64(if quick { seconds.min(1.5) } else { seconds });
    let mut calibrator = harness::Calibrator::new();
    let (windows, calibs) = harness::drive(
        budget,
        || calibrator.probe(),
        |i| {
            // Every window of a cycle starts at the same pool job, so both
            // arms sort identical keys.
            let base = (i / cycle.len()) as u64 * 16;
            let kind = cycle[i % cycle.len()];
            (kind, fixture.window(kind, base))
        },
    );
    fixture.shutdown();

    let mut pools = Pools::default();
    for ((kind, slice), kept) in &windows {
        pools.add(*kind, slice, *kept);
    }
    eprintln!(
        "{}: {} windows, {} kept; quiet probe {:.3} ms; S_FT p50 {:.4} ms over {} jobs (over all windows: {:.4} ms), S_NR p50 {:.4} ms over {} jobs",
        workload.name(),
        pools.windows,
        pools.kept,
        harness::quiet_calib(&calibs),
        pools.sft.p50_ms(),
        pools.sft.latencies_ms.len(),
        pools.sft_all.p50_ms(),
        pools.snr.p50_ms(),
        pools.snr.latencies_ms.len(),
    );

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", setup_s);
    metrics.insert("job_p50_ms", percentile_of(&pools.sft.latencies_ms, 50.0));
    metrics.insert(
        "job_p95_ms",
        stats::percentile_by_parts(&pools.sft.latencies_ms, 95.0, TAIL_PARTS),
    );
    metrics.insert("jobs_per_s", stats::median(&pools.sft_rates));
    let snr_p50 = pools.snr.p50_ms();
    metrics.insert(
        "sft_over_snr",
        if snr_p50 > 0.0 {
            pools.sft.p50_ms() / snr_p50
        } else {
            0.0
        },
    );
    metrics.insert("lone_job_p50_ms", percentile_of(pools.lone_ms(), 50.0));
    metrics.insert(
        "recovered_p50_ms",
        percentile_of(&pools.recovered_ms(), 50.0),
    );
    let answered = pools.sft_all.answered.max(1) as f64;
    metrics.insert(
        "effort_ticks_per_job",
        pools.sft_all.effort as f64 / answered,
    );
    metrics.insert("attempts_per_job", pools.sft_all.attempts as f64 / answered);
    Ok(Outcome {
        correct: pools.all.silent_wrong == 0,
        attempted: pools.all.attempted,
        failed: pools.all.failed,
        metrics,
    })
}
