//! End-to-end recovery workflow: detect → diagnose → retry, the
//! "appropriate actions" loop the paper's diagnostic delivery enables.

mod common;

use std::sync::Mutex;
use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::sim::InProc;
use aoft::sort::{diagnosis, Algorithm, SortBuilder, SortError, Violation};
use aoft::svc::{JobError, JobReport, JobSpec, SortService, SvcConfig};

fn builder() -> SortBuilder {
    SortBuilder::new(Algorithm::FaultTolerant)
        .keys((0..16).map(|x| (x * 97 + 13) % 61).collect())
        .recv_timeout(Duration::from_millis(400))
}

#[test]
fn detect_diagnose_retry_loop() {
    // The environment: node P9 corrupts data during the first two attempts,
    // then the transient clears.
    let environment = |attempt: usize| {
        if attempt < 2 {
            FaultPlan::new().with_fault(
                NodeId::new(9),
                FaultKind::CorruptValue,
                Trigger::from_seq(1),
                attempt as u64 + 5,
            )
        } else {
            FaultPlan::new()
        }
    };

    // The loop the diagnostics enable, spelled out: re-run after each
    // fail-stop, keeping the reports.
    let mut detections = Vec::new();
    let mut sorted = None;
    for attempt in 0..4 {
        match builder().fault_plan(environment(attempt)).run() {
            Ok(report) => {
                sorted = Some((attempt + 1, report));
                break;
            }
            Err(SortError::Detected { reports, .. }) => detections.push(reports),
            Err(err) => panic!("attempt {attempt}: {err}"),
        }
    }
    let (attempts_used, report) = sorted.expect("third attempt succeeds");
    assert_eq!(attempts_used, 3);
    assert_eq!(detections.len(), 2);

    // Diagnose each failed attempt: the suspect set must contain the truly
    // faulty node every time.
    for reports in &detections {
        let diagnosis = diagnosis::diagnose(reports, 4);
        assert!(
            diagnosis.suspects().contains(NodeId::new(9)),
            "P9 should be suspect: {diagnosis}"
        );
    }

    let keys: Vec<i32> = (0..16).map(|x| (x * 97 + 13) % 61).collect();
    assert_eq!(report.output(), common::sorted(&keys));
}

#[test]
fn diagnosis_intersects_across_attempts() {
    // Each attempt yields a (possibly broad) suspect region; intersecting
    // the diagnoses across attempts narrows toward the recurring offender.
    let environment = |attempt: usize| {
        FaultPlan::new().with_fault(
            NodeId::new(6),
            FaultKind::TwoFaced,
            Trigger::from_seq(1),
            attempt as u64 * 31 + 7,
        )
    };
    let Err(SortError::Detected { reports: first, .. }) =
        builder().fault_plan(environment(0)).run()
    else {
        panic!("attempt 0 must fail");
    };
    let Err(SortError::Detected {
        reports: second, ..
    }) = builder().fault_plan(environment(1)).run()
    else {
        panic!("attempt 1 must fail");
    };

    let a = diagnosis::diagnose(&first, 4);
    let b = diagnosis::diagnose(&second, 4);
    let combined = a.suspects() & b.suspects();
    assert!(
        combined.contains(NodeId::new(6)),
        "recurring fault survives intersection: {a} ∩ {b}"
    );
    assert!(combined.len() <= a.suspects().len());
    assert!(combined.len() <= b.suspects().len());
}

#[test]
fn delayed_messages_never_produce_wrong_output() {
    // The Delayer either stays harmless (late but FIFO-consistent delivery)
    // or trips a timeout/protocol check — both acceptable, wrong output is
    // not.
    let keys: Vec<i32> = (0..16).map(|x| (x * 97 + 13) % 61).collect();
    let expected = common::sorted(&keys);
    for node in 0..16u32 {
        for from in 1..5u64 {
            let plan = FaultPlan::new().with_fault(
                NodeId::new(node),
                FaultKind::DelayMessages,
                Trigger::window(from, from + 2),
                u64::from(node) ^ from,
            );
            match builder().fault_plan(plan).run() {
                Ok(report) => assert_eq!(report.output(), expected, "P{node} from {from}"),
                Err(SortError::Detected { .. }) => {}
                Err(other) => panic!("unexpected: {other}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The service's retry policy: a retry starts at once unless the evidence is
// absence *and* it lands on the machine that just failed. Asserted on the
// `retry_scheduled` events and the job reports, never on the clock.
// ---------------------------------------------------------------------------

/// Every service numbers its jobs from 1 and the event ring is process-wide,
/// so the tests that read it take turns.
static EVENT_RING: Mutex<()> = Mutex::new(());

/// Runs one job carrying `plan` (a transient fault: first attempt only) on a
/// fresh service and returns its report with the `retry_scheduled` events it
/// caused, oldest first.
fn recover(config: SvcConfig, plan: FaultPlan) -> (JobReport, Vec<aoft::obs::Event>) {
    let since = aoft::obs::Event::new("clock").ts_us;
    let service = SortService::start(config, InProc::new()).expect("start");
    let keys: Vec<i32> = (0..64).map(|x| (x * 97 + 13) % 61).collect();
    let handle = service
        .submit(JobSpec::new(keys.clone()).fault_plan(plan))
        .expect("admit");
    let job = handle.id().0;
    let report = handle.wait().expect("a transient fault is survived");
    assert_eq!(report.output, common::sorted(&keys), "never silently wrong");
    let retries = aoft::obs::recent_events()
        .into_iter()
        .filter(|e| e.kind == "retry_scheduled" && e.job == Some(job) && e.ts_us >= since)
        .collect::<Vec<_>>();
    assert_eq!(
        retries.len(),
        report.attempts - 1,
        "one retry_scheduled event per retry"
    );
    (report, retries)
}

fn absence_codes() -> [u32; 2] {
    let lost = Violation::MessageLost {
        from: NodeId::new(0),
    };
    [lost.code(), aoft::sim::ErrorReport::RUNTIME_FAILURE]
}

#[test]
fn value_evidence_retries_at_once_on_a_default_config() {
    let _turn = EVENT_RING.lock().unwrap_or_else(|e| e.into_inner());
    let default_backoff = SvcConfig::new(3).backoff_initial;
    assert!(default_backoff >= Duration::from_millis(10));

    // Which node catches a lie first is a thread race, so sweep the
    // benchmark's fault mix and hold every recovered job to the policy.
    let kinds = [
        FaultKind::CorruptValue,
        FaultKind::TwoFaced,
        FaultKind::StuckStale,
        FaultKind::Equivocate,
        FaultKind::CorruptLbs,
    ];
    let (mut replanned, mut same_machine) = (0, 0);
    for kind in kinds {
        for node in 0..8u32 {
            let plan = FaultPlan::new().with_fault(
                NodeId::new(node),
                kind,
                Trigger::from_seq(1),
                0x5eed ^ u64::from(node),
            );
            let (report, retries) = recover(SvcConfig::new(3), plan);
            let what = format!("{kind:?} at P{node}");
            if !report.recovered() {
                continue; // masked: the lie never changed a checked value
            }
            let absence = absence_codes();
            assert!(
                report
                    .detections
                    .iter()
                    .flatten()
                    .all(|r| !absence.contains(&r.code)),
                "{what}: a predicate-detected fault, never a timeout"
            );
            assert_eq!(report.attempts, 2, "{what}: one retry is enough");
            let retry = &retries[0];
            assert_eq!(retry.elapsed_us, Some(0), "{what}: no wait, {retry:?}");
            let reason = retry.detail.as_deref().expect("reason");
            if reason.starts_with("replanned d3→d2 avoiding [") {
                // Diagnosis named someone: the retry routes around them.
                assert_eq!(report.dim, 2, "{what}");
                replanned += 1;
            } else {
                // Φ_P/Φ_F with nobody to blame: same machine, still no nap.
                assert_eq!(reason, "value evidence, same machine", "{what}");
                assert_eq!(report.dim, 3, "{what}");
                same_machine += 1;
            }
        }
    }
    assert!(replanned > 0, "no fault named a suspect");
    assert!(same_machine > 0, "no fault left the machine unchanged");
}

#[test]
fn absence_on_the_same_machine_backs_off() {
    let _turn = EVENT_RING.lock().unwrap_or_else(|e| e.into_inner());
    // A 2-node cube cannot route around either end of its one link: the
    // dead-link evidence strikes both, the avoid set outgrows the machine
    // and is cleared, and the retry lands on the map that just failed —
    // the transient-environment case backoff exists for.
    let config = SvcConfig::new(1).recv_timeout(Duration::from_millis(200));
    let backoff_initial = config.backoff_initial;
    for kind in [FaultKind::Crash, FaultKind::DropMessages] {
        let plan = FaultPlan::new().with_fault(NodeId::new(1), kind, Trigger::from_seq(1), 7);
        let (report, retries) = recover(config.clone(), plan);
        assert_eq!(report.attempts, 2, "{kind:?}");
        assert_eq!(report.dim, 1, "{kind:?}: same machine");
        let absence = absence_codes();
        assert!(
            report.detections[0]
                .iter()
                .any(|r| absence.contains(&r.code)),
            "{kind:?}: detected by absence"
        );
        let retry = &retries[0];
        assert_eq!(
            retry.detail.as_deref(),
            Some("absence, same machine: backoff"),
            "{kind:?}"
        );
        let waited = Duration::from_micros(retry.elapsed_us.expect("wait"));
        assert!(waited >= backoff_initial, "{kind:?}: waited {waited:?}");
    }
}

#[test]
fn absence_that_replans_does_not_wait() {
    let _turn = EVENT_RING.lock().unwrap_or_else(|e| e.into_inner());
    // The same crash on a cube with room to degrade: the retry runs on
    // other nodes, and waiting for the ones left behind buys nothing.
    let config = SvcConfig::new(3).recv_timeout(Duration::from_millis(200));
    let plan =
        FaultPlan::new().with_fault(NodeId::new(5), FaultKind::Crash, Trigger::from_seq(1), 7);
    let (report, retries) = recover(config, plan);
    assert_eq!(report.attempts, 2);
    assert!(report.dim < 3, "degraded retry");
    let retry = &retries[0];
    assert_eq!(retry.elapsed_us, Some(0), "{retry:?}");
    assert!(
        retry
            .detail
            .as_deref()
            .is_some_and(|d| d.starts_with("replanned d3→d")),
        "{retry:?}"
    );
}

// ---------------------------------------------------------------------------
// A node that stays dead across attempts: the fault is mounted on the wire,
// where the service's link cache keeps it alive, so only quarantine and a
// degraded retry get around it. Both services number their jobs from 1 and
// schedule retries, so they take turns on the event ring with the policy
// tests above.
// ---------------------------------------------------------------------------

fn keys(n: usize, salt: i32) -> Vec<i32> {
    (0..n as i32).map(|i| (i * 37 + salt) % 101 - 50).collect()
}

fn sorted(keys: Vec<i32>) -> Vec<i32> {
    common::sorted(&keys)
}

#[test]
fn recovers_from_a_crashed_node_and_quarantines_it() {
    let _turn = EVENT_RING.lock().unwrap_or_else(|e| e.into_inner());
    // Node 5 is fail-silent from its very first send. Every node
    // downstream of the dead links stalls within one stage, and the
    // starved recv deadlines land microseconds apart — which stalled
    // node reports first is scheduler roulette, so the diagnosis
    // implicates *some* dead link on the stalled wavefront, not
    // necessarily one incident to node 5 (attribution determinism for
    // synthetic reports lives in `aoft-svc`'s recovery tests). The
    // service-level guarantee is what this test pins down: the job
    // fail-stops instead of lying, the implicated pair is quarantined,
    // and the retry completes correctly on a degraded cube.
    let faulty = ByzantineTransport::new(InProc::new(), common::crash(5, 0, 0xdead));
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
    let _turn = EVENT_RING.lock().unwrap_or_else(|e| e.into_inner());
    // Every node's links die immediately; min_dim 2 leaves no fallback.
    let plan = (0..4).fold(FaultPlan::new(), |plan, node| {
        plan.with_fault(NodeId::new(node), FaultKind::Crash, Trigger::from_seq(0), 1)
    });
    let faulty = ByzantineTransport::new(InProc::new(), plan);
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
