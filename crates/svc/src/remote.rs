//! Multi-process fleet mode: cube-host child processes as cubes of one
//! [`FleetRouter`](crate::FleetRouter), wired over real sockets.
//!
//! Each child runs a [`CubeHost`]: a complete [`SortService`] cube on its
//! own loopback transport, plus one control-plane connection to the parent
//! — a single multiplexed session (`aoft_net::MuxTransport`) carrying the
//! job link and the result link. On the parent, each child is one
//! [`RemoteCube`] of the router, so an in-process fleet's policy serves a
//! multi-process one unchanged, and a child's failure comes back as the
//! [`JobError`] a local cube would return.
//!
//! Labels: the parent is node [`PARENT_LABEL`] on the control plane; each
//! child picks a label below it, so the child is always the `lo` end of
//! the peer pair and therefore the dialing side. The parent only binds
//! and waits — it needs no routing table for children.
//!
//! Everything on the wire is [`Wire`]-encoded and travels in mux Data
//! frames: CRC-checked, length-delimited, demux-tagged. A corrupted
//! control stream kills the session, which the parent observes as a dead
//! child — detectable, never silent.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoft_net::wire::{CodecError, Wire};
use aoft_net::{CancelToken, LinkId, LinkRx, LinkTx, MuxConfig, MuxTransport, NetError, Transport};
use aoft_sim::{NodeMetrics, Packet, Trace};
use aoft_sort::{Msg, SortDirection};
use crossbeam_channel::Sender;
use parking_lot::Mutex;

use crate::config::SvcConfig;
use crate::job::{JobError, JobHandle, JobId, JobReport, JobSpec, SubmitError};
use crate::metrics::{Families, MetricsSink, SvcMetrics};
use crate::service::SortService;

/// The parent's node label on the control plane. Children must choose
/// labels strictly below this so they are the dialing (`lo`) end of their
/// session with the parent.
pub(crate) const PARENT_LABEL: u32 = 1000;

/// Parent → child, on the job link: sort `spec`'s keys in its direction.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Parent-assigned sequence number, echoed in the answer.
    seq: u64,
    spec: JobSpec,
}

/// Child → parent, on the result link: how job `seq` ended, and the
/// child's quarantine as of then — so a quarantine reaches the parent with
/// the failure that caused it, before the job fails over.
#[derive(Debug, Clone)]
pub(crate) struct Answer {
    seq: u64,
    quarantined: Vec<u32>,
    /// The child's verified report, whose `latency`, `metrics` and
    /// `trace` stay in the child; or its loud failure, as text.
    outcome: Result<JobReport, String>,
}

impl Wire for Job {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.spec.keys.encode(out);
        (self.spec.direction == SortDirection::Descending).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let seq = u64::decode(input)?;
        let spec = JobSpec::new(Vec::decode(input)?);
        let spec = match bool::decode(input)? {
            true => spec.direction(SortDirection::Descending),
            false => spec,
        };
        Ok(Job { seq, spec })
    }
}

impl Wire for Answer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.quarantined.encode(out);
        match &self.outcome {
            Ok(report) => {
                out.push(0);
                report.output.encode(out);
                report.attempts.encode(out);
                report.dim.encode(out);
                report.effort.encode(out);
                report.detections.encode(out);
            }
            Err(error) => {
                out.push(1);
                error.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let seq = u64::decode(input)?;
        let quarantined = Vec::decode(input)?;
        let outcome = match u8::decode(input)? {
            0 => Ok(JobReport {
                id: JobId(seq),
                output: Vec::decode(input)?,
                attempts: usize::decode(input)?,
                dim: u32::decode(input)?,
                effort: u64::decode(input)?,
                detections: Vec::decode(input)?,
                latency: Duration::ZERO,
                metrics: NodeMetrics::default(),
                trace: Trace::default(),
            }),
            1 => Err(String::decode(input)?),
            other => return Err(CodecError::msg(format!("unknown answer tag {other}"))),
        };
        Ok(Answer {
            seq,
            quarantined,
            outcome,
        })
    }
}

/// The parent→child job link (tag 0) and the child→parent result link
/// (tag 1) of child `child`.
fn links(child: u32) -> (LinkId, LinkId) {
    let link = |from, to, tag| LinkId { from, to, tag };
    (link(PARENT_LABEL, child, 0), link(child, PARENT_LABEL, 1))
}

/// A child process's side of the control plane: one resident
/// [`SortService`] cube, served to the parent until the parent goes away.
pub struct CubeHost;

impl CubeHost {
    /// Runs the serve loop: dial the parent at `parent`, submit every job
    /// to the cube as it arrives, and answer each in arrival order, until
    /// the parent's session ends (orderly close or death), which is the
    /// host's normal exit. Jobs run concurrently, so the cube's batcher
    /// sees the parent's bursts. `label` must be below `PARENT_LABEL` and
    /// unique per child.
    ///
    /// The cube itself runs on `cube_transport` — typically a loopback
    /// [`MuxTransport`], optionally wrapped in a fault injector — so one
    /// process hosts one complete, independently-failing machine.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the control plane cannot be established, or the
    /// cube's service fails to start (reported as [`NetError::Io`]).
    pub fn serve<T>(
        label: u32,
        parent: SocketAddr,
        svc: SvcConfig,
        cube_transport: T,
    ) -> Result<(), NetError>
    where
        T: Transport<Packet<Msg>> + Send + Sync + 'static,
    {
        if label >= PARENT_LABEL {
            return Err(NetError::Io(format!(
                "cube host label {label} must be below the parent label {PARENT_LABEL}"
            )));
        }
        let service = SortService::start(svc, cube_transport)
            .map_err(|e| NetError::Io(format!("cube service failed to start: {e}")))?;
        let control = MuxTransport::bind(MuxConfig::default())?;
        control.set_peer(PARENT_LABEL, parent);
        let deadline = Duration::from_secs(30);
        // The child dials: connect_rx on the job link and connect_tx on the
        // result link both resolve to the one parent session.
        let (job_link, result_link) = links(label);
        let jobs: Box<dyn LinkRx<Job>> = control.connect_rx(job_link, deadline)?;
        let results: Box<dyn LinkTx<Answer>> = control.connect_tx(result_link, deadline)?;
        let (admitted, answer_queue) =
            crossbeam_channel::unbounded::<(u64, Result<JobHandle, SubmitError>)>();
        let service = &service;
        // Answers leave in arrival order from their own thread while the
        // read loop keeps admitting; the scope ends once the loop has
        // dropped `admitted` and every admitted job is answered.
        std::thread::scope(move |scope| {
            scope.spawn(move || {
                while let Ok((seq, admitted)) = answer_queue.recv() {
                    let outcome = admitted
                        .map_err(|e| e.to_string())
                        .and_then(|handle| handle.wait().map_err(|e| e.to_string()));
                    let quarantined = service.quarantined();
                    // A parent gone mid-answer ends the read loop too; keep
                    // draining so every admitted job finishes.
                    let _ = results.send(Answer {
                        seq,
                        quarantined,
                        outcome,
                    });
                }
            });
            let cancel = CancelToken::new();
            loop {
                match jobs.recv_deadline(Duration::from_secs(1), &cancel) {
                    Ok(job) => {
                        let _ = admitted.send((job.seq, service.submit(job.spec)));
                    }
                    Err(NetError::Timeout { .. }) => {}
                    // The parent closed the session or died: orderly exit.
                    Err(NetError::Closed) | Err(NetError::PeerDead { .. }) => return Ok(()),
                    Err(err) => return Err(err),
                }
            }
        })
    }
}

/// A cube-host child as one cube of a [`FleetRouter`](crate::FleetRouter):
/// the parent's end of the child's job link, and a reader thread that
/// resolves each job's [`JobHandle`] from the child's answers.
pub(crate) struct RemoteCube {
    jobs: Mutex<Box<dyn LinkTx<Job>>>,
    state: Arc<RemoteState>,
    reader: Option<JoinHandle<()>>,
    /// Shared by every child of the fleet: dropping the last cube closes
    /// every session, which is each child's exit signal.
    _control: Arc<MuxTransport>,
}

struct RemoteState {
    label: u32,
    config: SvcConfig,
    job_timeout: Duration,
    pending: Mutex<Pending>,
    quarantined: Mutex<Vec<u32>>,
    metrics: MetricsSink,
    cancel: CancelToken,
}

#[derive(Default)]
struct Pending {
    /// Jobs sent and not yet answered, by sequence number — which is also
    /// submission order, so the first entry is the oldest.
    jobs: BTreeMap<u64, (Instant, Sender<Result<JobReport, JobError>>)>,
    last_seq: u64,
    /// Set when the child leaves the rotation; submits are refused from
    /// then on.
    stopped: bool,
}

impl RemoteCube {
    /// Waits for child `label` to dial `control` and starts its reader.
    pub(crate) fn connect(
        control: &Arc<MuxTransport>,
        label: u32,
        config: &SvcConfig,
        deadline: Duration,
        job_timeout: Duration,
    ) -> Result<Self, NetError> {
        let (job_link, result_link) = links(label);
        let jobs = control.connect_tx(job_link, deadline)?;
        let results = control.connect_rx(result_link, deadline)?;
        let state = Arc::new(RemoteState {
            label,
            config: config.clone(),
            job_timeout,
            pending: Mutex::default(),
            quarantined: Mutex::default(),
            metrics: MetricsSink::default(),
            cancel: CancelToken::new(),
        });
        let reader_state = Arc::clone(&state);
        let reader = std::thread::Builder::new()
            .name(format!("aoft-cube-host-{label}"))
            .spawn(move || reader_state.read_answers(results))?;
        Ok(Self {
            jobs: Mutex::new(jobs),
            state,
            reader: Some(reader),
            _control: Arc::clone(control),
        })
    }

    /// Sends a job to the child, at most `queue_depth` in flight.
    pub(crate) fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let state = &self.state;
        let mut pending = state.pending.lock();
        if pending.stopped {
            return Err(SubmitError::Stopped);
        }
        let depth = state.config.queue_depth;
        let refused = if spec.fault_plan.is_some() {
            Err(SubmitError::Invalid(
                "a fault plan cannot leave the process".into(),
            ))
        } else if pending.jobs.len() >= depth {
            Err(SubmitError::Backpressure { depth })
        } else {
            spec.servable_on(state.config.dim)
        };
        if let Err(err) = refused {
            state.metrics.job_rejected();
            return Err(err);
        }
        pending.last_seq += 1;
        let seq = pending.last_seq;
        let (reply, rx) = crossbeam_channel::unbounded();
        pending.jobs.insert(seq, (Instant::now(), reply));
        drop(pending);
        state.metrics.jobs_submitted(1);
        if self.jobs.lock().send(Job { seq, spec }).is_err() {
            // The session is dead: this job and every other fail now.
            state.retire(JobError::Stopped);
            return Err(SubmitError::Stopped);
        }
        Ok(JobHandle {
            id: JobId(seq),
            reply: rx,
        })
    }

    /// Out of the rotation, or reporting a quarantine in its latest answer.
    pub(crate) fn degraded(&self) -> bool {
        self.state.pending.lock().stopped || !self.state.quarantined.lock().is_empty()
    }

    /// Parent-side counters; `queue_depth` is the jobs in flight.
    pub(crate) fn metrics(&self) -> SvcMetrics {
        let in_flight = self.state.pending.lock().jobs.len();
        let quarantined = self.state.quarantined.lock().clone();
        self.state.metrics.snapshot(in_flight, quarantined)
    }

    /// Parent-side families: the child's attempts stay in the child.
    pub(crate) fn families(&self) -> Families<'_> {
        let in_flight = self.state.pending.lock().jobs.len();
        Families {
            sink: &self.state.metrics,
            queue_depth: in_flight,
            inflight: in_flight,
            quarantined: self.state.quarantined.lock().len(),
            attempts: None,
        }
    }
}

impl Drop for RemoteCube {
    /// Stops the reader. Nobody waits on a job still in flight: its
    /// `FleetHandle` borrows the router being dropped.
    fn drop(&mut self) {
        self.state.cancel.cancel();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl RemoteState {
    /// The reader thread: resolves answers until the child leaves the
    /// rotation or the fleet is dropped.
    fn read_answers(&self, results: Box<dyn LinkRx<Answer>>) {
        loop {
            let oldest = self
                .pending
                .lock()
                .jobs
                .iter()
                .next()
                .map(|(&seq, (sent, _))| (seq, *sent));
            let wait = oldest.map_or(self.job_timeout, |(_, sent)| {
                (sent + self.job_timeout).saturating_duration_since(Instant::now())
            });
            match (results.recv_deadline(wait, &self.cancel), oldest) {
                (Ok(answer), _) => self.resolve(answer),
                (Err(NetError::Timeout { .. }), None) => {}
                // Only this thread removes answered jobs, so `oldest` is
                // still in flight, and now overdue.
                (Err(NetError::Timeout { .. }), Some((seq, _))) => {
                    let late = format!(
                        "cube host {} held job #{seq} past {:?}",
                        self.label, self.job_timeout
                    );
                    return self.retire(JobError::Runtime(late));
                }
                // The session died, a frame failed to decode, or the fleet
                // is being dropped.
                (Err(_), _) => return self.retire(JobError::Stopped),
            }
        }
    }

    fn resolve(&self, answer: Answer) {
        *self.quarantined.lock() = answer.quarantined;
        let Some((sent, reply)) = self.pending.lock().jobs.remove(&answer.seq) else {
            return; // nobody waits for this sequence number
        };
        let result = match answer.outcome {
            Ok(mut report) => {
                report.latency = sent.elapsed();
                let retries = report.attempts.saturating_sub(1) as u64;
                let sink = &self.metrics;
                sink.job_completed(report.latency, retries, report.effort, &report.metrics);
                Ok(report)
            }
            Err(error) => {
                self.metrics.job_failed(0, 0);
                Err(JobError::Runtime(format!(
                    "cube host {}: {error}",
                    self.label
                )))
            }
        };
        let _ = reply.send(result);
    }

    /// Takes the child out of the rotation: every job in flight fails with
    /// `why`, and later submits are refused.
    fn retire(&self, why: JobError) {
        let mut pending = self.pending.lock();
        pending.stopped = true;
        for (_, (_, reply)) in std::mem::take(&mut pending.jobs) {
            self.metrics.job_failed(0, 0);
            let _ = reply.send(Err(why.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, FleetRouter};
    use aoft_hypercube::NodeId;
    use aoft_sim::{ErrorReport, Ticks};
    use proptest::prelude::*;

    fn answer(seq: u64, outcome: Result<Vec<i32>, String>, quarantined: Vec<u32>) -> Answer {
        let report = |output| JobReport {
            id: JobId(seq),
            output,
            attempts: 1,
            dim: 3,
            detections: Vec::new(),
            latency: Duration::ZERO,
            metrics: NodeMetrics::default(),
            effort: 0,
            trace: Trace::default(),
        };
        Answer {
            seq,
            quarantined,
            outcome: outcome.map(report),
        }
    }

    /// One of each message shape, as bytes.
    fn samples() -> Vec<Vec<u8>> {
        let detection = ErrorReport {
            detector: NodeId::new(4),
            at: Ticks::from_ticks(77),
            code: 2,
            stage: Some(1),
            suspect: Some(NodeId::new(5)),
            detail: "missing message".into(),
        };
        let mut recovered = answer(7, Ok(vec![-5, -1, 1, 3, 4]), vec![5]);
        if let Ok(report) = &mut recovered.outcome {
            (report.attempts, report.dim, report.effort) = (2, 2, 9000);
            report.detections = vec![vec![detection.clone(), detection]];
        }
        let job = Job {
            seq: 7,
            spec: JobSpec::new(vec![3, -1, 4, 1, -5]).direction(SortDirection::Descending),
        };
        vec![
            aoft_net::wire::to_bytes(&job),
            aoft_net::wire::to_bytes(&recovered),
            aoft_net::wire::to_bytes(&answer(8, Err("cube exhausted".into()), vec![5, 6])),
        ]
    }

    proptest! {
        /// Control-plane bytes come from another process: decoding any
        /// byte string as either message ends in `Ok` or `Err`, never a
        /// panic — and so does any valid message cut short or with one
        /// byte changed.
        #[test]
        fn remote_msg_decode_never_panics(
            body in prop::collection::vec(any::<u8>(), 0..256),
            which in 0usize..3,
            cut in any::<usize>(),
            flip in any::<u8>(),
        ) {
            let mut valid = samples()[which].clone();
            let at = cut % valid.len();
            let short = valid[..at].to_vec();
            valid[at] ^= flip;
            for bytes in [body, short, valid] {
                let _ = Job::decode(&mut &bytes[..]);
                let _ = Answer::decode(&mut &bytes[..]);
            }
        }
    }

    #[test]
    fn remote_msg_round_trips() {
        let samples = samples();
        let job: Job = aoft_net::wire::from_bytes(&samples[0]).expect("job");
        assert_eq!(job.seq, 7);
        assert_eq!(job.spec.keys, vec![3, -1, 4, 1, -5]);
        assert_eq!(job.spec.direction, SortDirection::Descending);
        for bytes in &samples[1..] {
            let got: Answer = aoft_net::wire::from_bytes(bytes).expect("answer");
            assert_eq!(&aoft_net::wire::to_bytes(&got), bytes);
        }
        let recovered: Answer = aoft_net::wire::from_bytes(&samples[1]).unwrap();
        let report = recovered.outcome.expect("done");
        assert!(report.recovered(), "a remote report keeps its detections");
        assert_eq!((report.id, report.attempts, report.dim), (JobId(7), 2, 2));
        let failed: Answer = aoft_net::wire::from_bytes(&samples[2]).unwrap();
        assert_eq!(failed.quarantined, vec![5, 6]);
        assert_eq!(failed.outcome.err().as_deref(), Some("cube exhausted"));
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut bytes = samples()[2].clone();
        bytes[8 + 4 + 8] = 9; // seq, two quarantined labels, then the tag
        let err = aoft_net::wire::from_bytes::<Answer>(&bytes).expect_err("unknown tag");
        assert!(err.0.contains("unknown answer tag"), "{err}");
    }

    fn keys(salt: i32) -> Vec<i32> {
        (0..32i32)
            .map(|x| (x + salt).wrapping_mul(-37) % 60)
            .collect()
    }

    fn sorted(mut keys: Vec<i32>) -> Vec<i32> {
        keys.sort_unstable();
        keys
    }

    /// What a stand-in child does with its job and result links.
    type Behave = Box<dyn FnOnce(Box<dyn LinkRx<Job>>, Box<dyn LinkTx<Answer>>) + Send>;
    /// A child's label, and how to start it once the parent's address is
    /// known.
    type Host = (u32, Box<dyn FnOnce(SocketAddr) -> JoinHandle<()>>);

    /// A stand-in cube host on its own thread: dials the parent as `label`
    /// and hands its two links to `behave`; the session closes when
    /// `behave` returns.
    fn fake_host(label: u32, parent: SocketAddr, behave: Behave) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let control = MuxTransport::bind(MuxConfig::default()).expect("bind child");
            control.set_peer(PARENT_LABEL, parent);
            let deadline = Duration::from_secs(10);
            let (job_link, result_link) = links(label);
            let jobs = control.connect_rx(job_link, deadline).expect("job link");
            let results = control
                .connect_tx(result_link, deadline)
                .expect("result link");
            behave(jobs, results);
        })
    }

    /// Answers every job sorted, reporting `quarantined`, until the parent
    /// closes the session.
    fn honest(quarantined: Vec<u32>) -> Behave {
        Box::new(move |jobs, results| {
            let cancel = CancelToken::new();
            while let Ok(job) = jobs.recv_deadline(Duration::from_secs(30), &cancel) {
                let output = Ok(sorted(job.spec.keys));
                let _ = results.send(answer(job.seq, output, quarantined.clone()));
            }
        })
    }

    /// Reads one job, then holds it for `hold` before returning.
    fn take_one_then_hold(hold: Duration) -> Behave {
        Box::new(move |jobs, _results| {
            let _ = jobs.recv_deadline(Duration::from_secs(30), &CancelToken::new());
            std::thread::sleep(hold);
        })
    }

    fn fleet(
        config: FleetConfig,
        hosts: Vec<Host>,
        job_timeout: Duration,
    ) -> (FleetRouter<MuxTransport>, Vec<JoinHandle<()>>) {
        let control = MuxTransport::bind(MuxConfig::default()).expect("bind parent");
        let addr = control.local_addr();
        let labels: Vec<u32> = hosts.iter().map(|(label, _)| *label).collect();
        let threads = hosts.into_iter().map(|(_, spawn)| spawn(addr)).collect();
        let router = FleetRouter::connect(
            config,
            control,
            &labels,
            Duration::from_secs(10),
            job_timeout,
        )
        .expect("children connect");
        (router, threads)
    }

    fn svc() -> SvcConfig {
        SvcConfig::new(3).recv_timeout(Duration::from_millis(800))
    }

    /// End-to-end control plane inside one process: a cube host serving a
    /// loopback cube, a fleet routing to it over real sockets.
    #[test]
    fn cube_host_answers_a_fleet_over_sockets() {
        let host: Host = (
            101,
            Box::new(|addr| {
                std::thread::spawn(move || {
                    let cube = MuxTransport::loopback(8).expect("bind cube loopback");
                    CubeHost::serve(101, addr, svc(), cube).expect("host serves until close");
                })
            }),
        );
        let (router, threads) = fleet(
            FleetConfig::new(svc(), 1),
            vec![host],
            Duration::from_secs(30),
        );
        let handles = router.submit_batch((0..4).map(|i| JobSpec::new(keys(i))).collect());
        for (i, handle) in handles.into_iter().enumerate() {
            let report = handle
                .expect("admitted")
                .wait()
                .expect("remote job completes");
            assert_eq!(report.report.output, sorted(keys(i as i32)));
            assert_eq!((report.cube, report.reroutes), (0, 0));
            assert!(!report.report.recovered());
        }
        let down = JobSpec::new(keys(9)).direction(SortDirection::Descending);
        let report = router.submit(down).unwrap().wait().unwrap().report;
        assert_eq!(
            report.output,
            sorted(keys(9)).into_iter().rev().collect::<Vec<_>>()
        );
        assert_eq!(router.metrics().per_cube[0].jobs_completed, 5);
        router.shutdown(); // closes the session; the host exits its serve loop
        for thread in threads {
            thread.join().expect("host thread exits cleanly");
        }
    }

    /// Child 10 behaves as `first`; child 11 answers honestly.
    fn hosts(first: Behave) -> Vec<Host> {
        vec![
            (10, Box::new(move |addr| fake_host(10, addr, first))),
            (11, Box::new(|addr| fake_host(11, addr, honest(Vec::new())))),
        ]
    }

    #[test]
    fn a_session_that_dies_mid_job_fails_it_over_to_a_spare() {
        let (router, threads) = fleet(
            FleetConfig::new(svc(), 1).spares(1),
            hosts(take_one_then_hold(Duration::ZERO)),
            Duration::from_secs(30),
        );
        let report = router.submit(JobSpec::new(keys(1))).unwrap().wait();
        let report = report.expect("the job fails over to the spare");
        assert_eq!((report.cube, report.reroutes), (1, 1));
        assert_eq!(report.report.output, sorted(keys(1)));
        assert!(matches!(
            router.submit_to(0, JobSpec::new(keys(2))),
            Err(SubmitError::Stopped)
        ));
        let metrics = router.metrics();
        assert_eq!((metrics.failovers, metrics.spares_promoted), (1, 1));
        assert_eq!((metrics.degraded, metrics.active), (vec![0], 2));
        router.shutdown();
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn a_child_that_never_answers_fails_over_after_the_job_timeout() {
        let (router, threads) = fleet(
            FleetConfig::new(svc(), 2),
            hosts(take_one_then_hold(Duration::from_secs(2))),
            Duration::from_millis(300),
        );
        let started = Instant::now();
        let report = router.submit_to(0, JobSpec::new(keys(3))).unwrap().wait();
        let report = report.expect("the job fails over to the live child");
        assert_eq!((report.cube, report.reroutes), (1, 1));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{:?}",
            started.elapsed()
        );
        // The silent child has left the rotation, and counts as degraded.
        assert!(matches!(
            router.submit_to(0, JobSpec::new(keys(4))),
            Err(SubmitError::Stopped)
        ));
        assert_eq!(router.metrics().degraded, vec![0]);
        assert_eq!(router.metrics().per_cube[0].jobs_failed, 1);
        router.shutdown();
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn a_child_reporting_quarantine_is_routed_last() {
        let (router, threads) = fleet(
            FleetConfig::new(svc(), 2),
            hosts(honest(vec![5])),
            Duration::from_secs(30),
        );
        let first = router.submit_to(0, JobSpec::new(keys(5))).unwrap().wait();
        assert_eq!(first.unwrap().report.output, sorted(keys(5)));
        let metrics = router.metrics();
        assert_eq!(metrics.degraded, vec![0]);
        assert_eq!(metrics.per_cube[0].quarantined, vec![5]);
        for i in 0..6 {
            let report = router
                .submit(JobSpec::new(keys(i)))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(report.cube, 1, "job {i} went to the degraded child");
        }
        router.shutdown();
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn a_child_holds_at_most_queue_depth_jobs_in_flight() {
        let hold = Duration::from_millis(500);
        let silent: Host = (
            12,
            Box::new(move |addr| fake_host(12, addr, take_one_then_hold(hold))),
        );
        let (router, threads) = fleet(
            FleetConfig::new(svc().queue_depth(2), 1),
            vec![silent],
            Duration::from_millis(400),
        );
        let held: Vec<_> = (0..2)
            .map(|i| {
                router
                    .submit(JobSpec::new(keys(i)))
                    .expect("within the bound")
            })
            .collect();
        assert_eq!(
            router.submit(JobSpec::new(keys(2))).err(),
            Some(SubmitError::Backpressure { depth: 2 })
        );
        assert_eq!(router.metrics().per_cube[0].queue_depth, 2);
        for handle in held {
            // One child and nowhere to fail over to: the timeout surfaces.
            assert!(matches!(handle.wait(), Err(JobError::Runtime(_))));
        }
        router.shutdown();
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn connect_rejects_a_wrong_count_or_a_duplicate_child() {
        for (config, labels) in [
            (FleetConfig::new(svc(), 2), vec![10]),
            (FleetConfig::new(svc(), 1).spares(1), vec![10, 10]),
        ] {
            let control = MuxTransport::bind(MuxConfig::default()).unwrap();
            let err = FleetRouter::connect(
                config,
                control,
                &labels,
                Duration::from_millis(50),
                Duration::from_secs(1),
            )
            .err()
            .expect("refused before any child is awaited");
            assert!(err.to_string().contains("child"), "{err}");
        }
    }
}
