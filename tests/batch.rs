//! Acceptance and property tests for composite-key micro-batching: a
//! coalesced attempt must be indistinguishable — bit for bit — from running
//! each job alone, under clean runs, injected fault plans, and a mid-batch
//! node death.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aoft::adv::{ByzantineTransport, FrameInjector};
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::{LinkId, LinkRx, LinkTx, NetError, Transport};
use aoft::sim::{InProc, Packet};
use aoft::sort::{Msg, Violation};
use aoft::svc::{JobReport, JobSpec, SortService, SvcConfig};
use proptest::prelude::*;

/// One worker, so a whole burst meets in its batcher.
fn batched_config(batch_max: usize) -> SvcConfig {
    SvcConfig::new(3)
        .workers(1)
        .batch_max(batch_max)
        .recv_timeout(Duration::from_millis(300))
}

/// Submits every spec as one burst (`submit_batch`: queued whole, so the
/// idle worker coalesces it into full batches in admission order), then
/// waits in order. Panics on any loud failure: these tests only run plans
/// the service is expected to survive.
fn run_reports<T>(service: &SortService<T>, specs: &[JobSpec]) -> Vec<JobReport>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let handles = service.submit_batch(specs.to_vec());
    handles
        .into_iter()
        .enumerate()
        .map(|(i, handle)| {
            handle
                .expect("admit")
                .wait()
                .unwrap_or_else(|err| panic!("job {i} failed loudly: {err}"))
        })
        .collect()
}

/// [`run_reports`], outputs only.
fn run_all<T>(service: &SortService<T>, specs: &[JobSpec]) -> Vec<Vec<i32>>
where
    T: Transport<Packet<Msg>> + Send + Sync + 'static,
{
    let reports = run_reports(service, specs);
    reports.into_iter().map(|report| report.output).collect()
}

/// Deterministic keys inside every codec's admissible range (batch_max 1024
/// still leaves ±2^20; these stay within ±2^10).
fn batch_keys(salt: i64, len: usize) -> Vec<i32> {
    (0..len as i64)
        .map(|x| (((x + salt).wrapping_mul(2_654_435_761)) % 1024) as i32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: a batched service answers every job with the
    /// exact bytes a batching-off service produces for the same stream —
    /// clean jobs and solo-routed single-fault jobs alike.
    #[test]
    fn batched_outputs_are_bit_identical_to_solo_runs(
        salts in prop::collection::vec(0i64..10_000, 2..7),
        lens in prop::collection::vec(1usize..5, 2..7),
        fault_seed in any::<u64>(),
    ) {
        let specs: Vec<JobSpec> = salts
            .iter()
            .zip(lens.iter().cycle())
            .enumerate()
            .map(|(i, (&salt, &len))| {
                // Key counts must divide the 8-node cube: multiples of 8.
                let spec = JobSpec::new(batch_keys(salt, len * 8));
                if i == 0 && fault_seed % 3 == 0 {
                    // A single-fault rider: incompatible, rides alone
                    // inside the same batched service.
                    let node = NodeId::new((fault_seed % 8) as u32);
                    spec.fault_plan(FaultPlan::new().with_fault(
                        node,
                        FaultKind::Crash,
                        Trigger::from_seq(1),
                        fault_seed,
                    ))
                } else {
                    spec
                }
            })
            .collect();

        let batched = SortService::start(batched_config(8), InProc::new()).expect("start");
        let solo = SortService::start(batched_config(1), InProc::new()).expect("start");
        let got = run_all(&batched, &specs);
        let want = run_all(&solo, &specs);
        prop_assert_eq!(&got, &want, "batched and solo outputs diverge");
        for (spec, out) in specs.iter().zip(&got) {
            prop_assert_eq!(out, &common::sorted(&spec.keys), "silently wrong output");
        }
        batched.shutdown();
        solo.shutdown();
    }
}

/// A burst into one worker coalesces into full batches, every time — and
/// the demuxed answers are still per-job exact.
#[test]
fn burst_coalesces_into_multi_job_attempts() {
    let service = SortService::start(batched_config(8), InProc::new()).expect("start");
    let specs: Vec<JobSpec> = (0..32).map(|i| JobSpec::new(batch_keys(i, 16))).collect();
    let outputs = run_all(&service, &specs);
    for (spec, out) in specs.iter().zip(&outputs) {
        assert_eq!(out, &common::sorted(&spec.keys));
    }
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, 32);
    assert_eq!(metrics.batches_flushed, 4, "32 jobs in batches of 8");
    assert_eq!(metrics.jobs_coalesced, 32, "every job shared its attempt");
    service.shutdown();
}

/// Recovery stays job-agnostic under batching: node 5 is fail-silent from
/// its first send, so the first batched attempt fail-stops mid-flight. The
/// violation names nodes (not jobs), the implicated pair is quarantined,
/// and every rider in the batch still completes with a verified output on
/// the degraded subcube.
#[test]
fn mid_batch_node_death_quarantines_and_completes_every_rider() {
    let faulty = ByzantineTransport::new(InProc::new(), common::crash(5, 0, 0xBA7C4));
    let config = batched_config(8)
        .max_attempts(4)
        .quarantine_after(1)
        .backoff(Duration::ZERO, Duration::ZERO);
    let service = SortService::start(config, faulty).expect("start");

    let specs: Vec<JobSpec> = (100..108).map(|i| JobSpec::new(batch_keys(i, 8))).collect();
    let reports = run_reports(&service, &specs);
    for (spec, report) in specs.iter().zip(&reports) {
        assert_eq!(
            report.output,
            common::sorted(&spec.keys),
            "never silently wrong"
        );
    }

    let metrics = service.metrics();
    assert_eq!(
        metrics.batches_flushed, 1,
        "the eight jobs left as one batch"
    );
    assert_eq!(metrics.jobs_completed, 8, "every rider must complete");
    assert_eq!(metrics.jobs_failed, 0);
    assert_eq!(
        metrics.effort,
        reports.iter().map(|r| r.effort).sum::<u64>(),
        "the sink bills what the reports say: fail-stopped attempts included"
    );
    assert!(
        metrics.retries >= 1,
        "the mid-batch kill must cost at least one retry"
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
    service.shutdown();
}

/// `batch_max = 1` runs the same attempt loop as any batch; what is left to
/// guard is that it never waits and never coalesces — every flush is a
/// batch of one, and outputs are the per-job sorts.
#[test]
fn batch_max_one_never_waits_and_never_coalesces() {
    let service = SortService::start(batched_config(1), InProc::new()).expect("start");
    let specs: Vec<JobSpec> = (0..8).map(|i| JobSpec::new(batch_keys(i, 16))).collect();
    let outputs = run_all(&service, &specs);
    for (spec, out) in specs.iter().zip(&outputs) {
        assert_eq!(out, &common::sorted(&spec.keys));
    }
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, 8);
    assert_eq!(metrics.jobs_coalesced, 0, "batch_max=1 never coalesces");
    assert_eq!(
        metrics.batches_flushed, 8,
        "every job is its own batch of one"
    );
    service.shutdown();
}

// ---------------------------------------------------------------------------
// The retry policy under batching: each half of a re-split batch decides its
// own retry timing from the joint attempt's evidence. Asserted on the
// `retry_scheduled` events and the job reports, never on the clock.
// ---------------------------------------------------------------------------

/// A cube whose links out of one node lie for exactly one run — the wire-
/// level twin of `JobSpec::fault_plan` ("transient: first attempt only"),
/// which batched jobs cannot carry. Disarmed it is a plain transport, so the
/// warm-up jobs that push this test's job ids past every id another test in
/// this binary can emit events under (the event ring is process-wide) pass
/// untouched; once armed, the first run to send claims the fault, and every
/// other run — the retries included — passes untouched again.
struct OneRunFault<T> {
    inner: T,
    plan: FaultPlan,
    /// `DISARMED`, `ARMED`, or the id of the run that claimed the fault.
    run: Arc<AtomicU64>,
}

const DISARMED: u64 = 0;
const ARMED: u64 = u64::MAX;

struct OneRunFaultTx {
    inner: Box<dyn LinkTx<Packet<Msg>>>,
    injector: Mutex<FrameInjector>,
    run: Arc<AtomicU64>,
}

impl LinkTx<Packet<Msg>> for OneRunFaultTx {
    fn send(&self, packet: Packet<Msg>) -> Result<(), NetError> {
        let claimed = self
            .run
            .compare_exchange(ARMED, packet.job, Ordering::SeqCst, Ordering::SeqCst)
            .unwrap_or_else(|current| current);
        if claimed != ARMED && claimed != packet.job {
            return self.inner.send(packet);
        }
        let outcome = self
            .injector
            .lock()
            .unwrap()
            .intercept(&packet.payload, packet.available_at)
            .expect("adversary mutations stay within the Msg value space");
        for payload in outcome.deliver {
            self.inner.send(Packet {
                src: packet.src,
                dst: packet.dst,
                available_at: packet.available_at,
                seq: packet.seq,
                job: packet.job,
                payload,
            })?;
        }
        Ok(())
    }
}

impl<T: Transport<Packet<Msg>>> Transport<Packet<Msg>> for OneRunFault<T> {
    fn connect_tx(
        &self,
        link: LinkId,
        deadline: Duration,
    ) -> Result<Box<dyn LinkTx<Packet<Msg>>>, NetError> {
        let inner = self.inner.connect_tx(link, deadline)?;
        let faulty = self.plan.specs().iter().find(|s| s.node.raw() == link.from);
        Ok(match faulty {
            Some(spec) => Box::new(OneRunFaultTx {
                inner,
                injector: Mutex::new(FrameInjector::new(spec, link)),
                run: Arc::clone(&self.run),
            }),
            None => inner,
        })
    }

    fn connect_rx(
        &self,
        link: LinkId,
        deadline: Duration,
    ) -> Result<Box<dyn LinkRx<Packet<Msg>>>, NetError> {
        self.inner.connect_rx(link, deadline)
    }
}

/// Job ids up to this can appear in another test's events.
const WARM_UP_JOBS: usize = 8;

/// The tests below number their jobs alike; they read the ring in turns.
static EVENT_RING: Mutex<()> = Mutex::new(());

/// Burst-submits a four-job batch to a service whose cube misbehaves per
/// `plan` for the batch's first attempt only, and returns each half's rider
/// reports with the `retry_scheduled` events of its lead job.
fn recover_split_batch(
    config: SvcConfig,
    plan: FaultPlan,
) -> [(Vec<JobReport>, Vec<aoft::obs::Event>); 2] {
    let run = Arc::new(AtomicU64::new(DISARMED));
    let transport = OneRunFault {
        inner: InProc::new(),
        plan,
        run: Arc::clone(&run),
    };
    let service = SortService::start(config, transport).expect("start");
    let warm_up: Vec<JobSpec> = (0..WARM_UP_JOBS as i64)
        .map(|i| JobSpec::new(batch_keys(i, 8)))
        .collect();
    run_all(&service, &warm_up);
    run.store(ARMED, Ordering::SeqCst);

    let since = aoft::obs::Event::new("clock").ts_us;
    let specs: Vec<JobSpec> = (200..204).map(|i| JobSpec::new(batch_keys(i, 8))).collect();
    let reports = run_reports(&service, &specs);
    for (spec, report) in specs.iter().zip(&reports) {
        assert_eq!(
            report.output,
            common::sorted(&spec.keys),
            "never silently wrong"
        );
        assert!(report.id.0 > WARM_UP_JOBS as u64);
    }
    service.shutdown();
    let retries_of = |lead: &JobReport| -> Vec<aoft::obs::Event> {
        aoft::obs::recent_events()
            .into_iter()
            .filter(|e| e.kind == "retry_scheduled" && e.job == Some(lead.id.0) && e.ts_us >= since)
            .collect()
    };
    let (head, tail) = (reports[..2].to_vec(), reports[2..].to_vec());
    let (head_retries, tail_retries) = (retries_of(&head[0]), retries_of(&tail[0]));
    [(head, head_retries), (tail, tail_retries)]
}

/// `true` when all four riders were aboard one joint attempt that
/// fail-stopped (so the batch re-split), `false` when the fault was masked.
fn batch_was_split(halves: &[(Vec<JobReport>, Vec<aoft::obs::Event>); 2]) -> bool {
    let riders = || halves.iter().flat_map(|(riders, _)| riders);
    if riders().all(|r| r.attempts == 1) {
        return false;
    }
    let joint = &halves[0].0[0].detections[0];
    assert!(
        riders().all(|r| r.detections.first() == Some(joint)),
        "the four jobs did not share their first attempt"
    );
    true
}

#[test]
fn resplit_halves_retry_at_once_on_value_evidence() {
    let _turn = EVENT_RING.lock().unwrap_or_else(|e| e.into_inner());
    let kinds = [
        FaultKind::CorruptValue,
        FaultKind::TwoFaced,
        FaultKind::StuckStale,
        FaultKind::Equivocate,
        FaultKind::CorruptLbs,
    ];
    let absence = Violation::MessageLost {
        from: NodeId::new(0),
    }
    .code();
    let (mut replanned, mut same_machine) = ([0; 2], [0; 2]);
    for kind in kinds {
        for node in 0..8u32 {
            let plan = FaultPlan::new().with_fault(
                NodeId::new(node),
                kind,
                Trigger::from_seq(1),
                0xba7c ^ u64::from(node),
            );
            let halves = recover_split_batch(batched_config(8), plan);
            if !batch_was_split(&halves) {
                continue;
            }
            for (half, (riders, retries)) in halves.iter().enumerate() {
                let what = format!("{kind:?} at P{node}, half {half}");
                let value_only = riders[0]
                    .detections
                    .iter()
                    .flatten()
                    .all(|r| r.code != absence && r.code != 0);
                if !value_only {
                    continue; // a lie that also starved someone: not this test's case
                }
                assert_eq!(retries.len(), riders[0].attempts - 1, "{what}");
                let mut dim = 3;
                for retry in retries {
                    assert_eq!(retry.elapsed_us, Some(0), "{what}: no wait, {retry:?}");
                    let reason = retry.detail.as_deref().expect("reason");
                    if let Some(rest) = reason.strip_prefix(&format!("replanned d{dim}→d")) {
                        dim = rest[..1].parse().expect("dimension");
                        replanned[half] += 1;
                    } else {
                        assert_eq!(reason, "value evidence, same machine", "{what}");
                        same_machine[half] += 1;
                    }
                }
                for rider in riders {
                    assert_eq!(rider.dim, dim, "{what}: rider {}", rider.id.0);
                }
            }
        }
    }
    for half in 0..2 {
        assert!(replanned[half] > 0, "half {half}: no fault named a suspect");
        assert!(
            same_machine[half] > 0,
            "half {half}: no fault left the machine unchanged"
        );
    }
}

#[test]
fn resplit_halves_back_off_on_absence_over_the_same_machine() {
    let _turn = EVENT_RING.lock().unwrap_or_else(|e| e.into_inner());
    // No degraded mode (min_dim = dim): whoever the timeouts implicate, the
    // avoid set outgrows the machine, is cleared, and both halves retry on
    // the map that just failed. Node 5 goes silent after the first message
    // on each of its links, for the joint attempt only.
    let config = batched_config(8).min_dim(3);
    let backoff_initial = config.backoff_initial;
    let plan = FaultPlan::new().with_fault(
        NodeId::new(5),
        FaultKind::DropMessages,
        Trigger::from_seq(1),
        0xd509,
    );
    let halves = recover_split_batch(config, plan);
    assert!(
        batch_was_split(&halves),
        "a swallowed message is never masked"
    );
    let mut waits = Vec::new();
    for (half, (riders, retries)) in halves.iter().enumerate() {
        for rider in riders {
            assert_eq!(rider.attempts, 2, "half {half}");
            assert_eq!(rider.dim, 3, "half {half}: same machine");
        }
        assert_eq!(retries.len(), 1, "half {half}");
        assert_eq!(
            retries[0].detail.as_deref(),
            Some("absence, same machine: backoff"),
            "half {half}"
        );
        waits.push(Duration::from_micros(retries[0].elapsed_us.expect("wait")));
    }
    assert!(
        waits[0] >= backoff_initial,
        "first half waited {:?}",
        waits[0]
    );
    assert!(
        waits[1] > waits[0],
        "the shared schedule advances when it is used: {waits:?}"
    );
}
