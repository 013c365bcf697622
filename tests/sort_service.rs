//! Acceptance tests for the resident sort service: a continuous job stream
//! over loopback TCP surviving a mid-stream node death with zero silent
//! corruption.

mod common;

use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::MuxTransport;
use aoft::sim::InProc;
use aoft::sort::SortDirection;
use aoft::svc::{JobError, JobSpec, SortService, SubmitError, SvcConfig};

fn loopback(nodes: u32) -> MuxTransport {
    MuxTransport::loopback(nodes).expect("bind loopback listener")
}

fn job_keys(salt: i64) -> Vec<i32> {
    (0..32i64)
        .map(|x| (((x + salt).wrapping_mul(2_654_435_761)) % 997) as i32)
        .collect()
}

/// The acceptance demo: 32 jobs over loopback mux sessions on a d=3 cube, node
/// 5 killed mid-stream. Every job must complete with a verified correct
/// result (quarantine + degraded-mode retry), and the metrics must show the
/// recovery.
#[test]
fn service_survives_mid_stream_node_death_over_mux() {
    // Each of node 5's outgoing links goes fail-silent after 25 frames —
    // a few jobs into the stream. The service's link cache keeps each
    // link's send count alive across jobs, so the node stays dead until the
    // diagnosis loop quarantines it.
    let transport = ByzantineTransport::new(loopback(8), common::crash(5, 25, 0xACCE97));
    let config = SvcConfig::new(3)
        .max_attempts(4)
        .quarantine_after(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(20))
        .recv_timeout(Duration::from_millis(800));
    let service = SortService::start(config, transport).expect("service starts");

    for index in 0..32i64 {
        let keys = job_keys(index);
        let report = service
            .submit(JobSpec::new(keys.clone()))
            .expect("queue depth 64 admits a serial stream")
            .wait()
            .unwrap_or_else(|err| panic!("job {index} failed loudly: {err}"));
        assert_eq!(
            report.output,
            common::sorted(&keys),
            "job {index}: silently wrong output"
        );
    }

    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, 32, "every job must complete");
    assert_eq!(metrics.jobs_failed, 0);
    assert!(
        metrics.retries >= 1,
        "node death must cost at least one retry"
    );
    assert!(
        metrics.recovered_jobs >= 1,
        "at least one job must recover from the fail-stop"
    );
    // A mid-stream kill races cascaded timeouts: the first report's dead
    // link is incident to node 5 or to a neighbor it starved, and both
    // endpoints are struck (Definition 3 case 2a). Either way the service
    // must quarantine into that blast region and route the stream around
    // it — naming node 5 *specifically* is only deterministic when the
    // node is dead from its first send (covered by the unit tests).
    assert!(
        !metrics.quarantined.is_empty(),
        "the fail-stop must quarantine at least one implicated node"
    );
    assert!(
        metrics.quarantined.iter().all(|&n| n < 8),
        "quarantine holds physical cube labels, got {:?}",
        metrics.quarantined
    );
    assert!(metrics.latency_p99 >= metrics.latency_p50);
    service.shutdown();
}

/// Concurrent workers multiplex one mux cube without crosstalk: disjoint
/// link-tag namespaces and per-attempt run ids keep 4 simultaneous jobs'
/// frames apart on the shared transport.
#[test]
fn concurrent_workers_share_one_mux_cube() {
    let config = SvcConfig::new(2)
        .workers(4)
        .recv_timeout(Duration::from_millis(800));
    let service = SortService::start(config, loopback(4)).expect("service starts");
    let handles: Vec<_> = (0..16i64)
        .map(|index| {
            let keys = job_keys(100 + index);
            let handle = service.submit(JobSpec::new(keys.clone())).expect("admit");
            (keys, handle)
        })
        .collect();
    for (keys, handle) in handles {
        let report = handle.wait().expect("concurrent job completes");
        assert_eq!(report.output, common::sorted(&keys));
    }
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, 16);
    assert_eq!(metrics.jobs_failed, 0);
    assert!(metrics.quarantined.is_empty(), "clean cluster stays clean");
    service.shutdown();
}

/// Backpressure is visible to TCP clients too: a depth-2 queue with a slow
/// single worker rejects the overflow rather than buffering unboundedly.
#[test]
fn admission_control_rejects_past_queue_depth() {
    let config = SvcConfig::new(2)
        .queue_depth(2)
        .workers(1)
        .recv_timeout(Duration::from_millis(800));
    let service = SortService::start(config, loopback(4)).expect("service starts");
    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for index in 0..64i64 {
        match service.submit(JobSpec::new(job_keys(index))) {
            Ok(handle) => admitted.push(handle),
            Err(SubmitError::Backpressure { depth }) => {
                assert_eq!(depth, 2);
                rejected += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(rejected > 0, "64 instant submits must outrun one worker");
    for handle in admitted {
        assert!(
            handle.wait().is_ok(),
            "admitted jobs complete despite the rejected burst"
        );
    }
    service.shutdown();
}

/// The observability acceptance demo: a service with the Prometheus
/// endpoint enabled, scraped live while a faulted stream runs. The
/// exposition must parse, carry every advertised metric family, and show
/// the fault as a nonzero Φ-violation or quarantine counter and as
/// adversary drops, alongside nonzero job, link, and predicate activity.
#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let transport = ByzantineTransport::new(loopback(8), common::crash(5, 25, 0x0B5E7));
    let config = SvcConfig::new(3)
        .max_attempts(4)
        .quarantine_after(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(20))
        .recv_timeout(Duration::from_millis(800))
        .metrics_addr("127.0.0.1:0".parse().unwrap());
    let service = SortService::start(config, transport).expect("service starts");
    let addr = service.metrics_addr().expect("endpoint is enabled");

    // Scrape while jobs are in flight, not just after the fact.
    let handles: Vec<_> = (0..8i64)
        .map(|index| {
            let keys = job_keys(500 + index);
            (
                keys.clone(),
                service.submit(JobSpec::new(keys)).expect("admit"),
            )
        })
        .collect();
    let live = aoft::obs::scrape(addr).expect("endpoint answers mid-stream");
    aoft::obs::prom::parse_samples(&live).expect("mid-stream exposition parses");
    let mut attempts = 0;
    for (keys, handle) in handles {
        let report = handle.wait().expect("faulted stream still completes");
        assert_eq!(report.output, common::sorted(&keys));
        attempts += report.attempts;
    }

    let text = aoft::obs::scrape(addr).expect("endpoint answers at end of run");
    let families = aoft::obs::prom::parse_families(&text).expect("exposition parses");
    for required in [
        "aoft_jobs_submitted_total",
        "aoft_jobs_completed_total",
        "aoft_job_retries_total",
        "aoft_attempts_total",
        "aoft_queue_depth",
        "aoft_inflight_jobs",
        "aoft_quarantined_nodes",
        "aoft_job_latency_seconds",
        "aoft_predicate_checks_total",
        "aoft_predicate_check_seconds",
        "aoft_violations_total",
        "aoft_stage_seconds",
        "aoft_sort_runs_total",
        "aoft_sort_failstops_total",
        "aoft_error_reports_total",
        "aoft_net_send_retries_total",
        "aoft_net_heartbeat_misses_total",
        "aoft_net_peer_dead_total",
        "aoft_job_effort_ticks_total",
        "aoft_batch_occupancy",
        "aoft_batch_flushes_total",
        "aoft_batch_jobs_coalesced_total",
        "aoft_mux_sessions",
        "aoft_mux_frames_per_write",
        "aoft_mux_wake_latency_us",
        "aoft_mux_bytes_sent_total",
        "aoft_mux_bytes_received_total",
        "aoft_adv_mutations_total",
        "aoft_adv_drops_total",
        "aoft_buf_pool_leases_total",
        "aoft_buf_pool_outstanding",
        "aoft_buf_pool_high_water",
        "aoft_buf_pool_retained_bytes",
    ] {
        assert!(families.contains(required), "missing family {required}");
    }

    let samples = aoft::obs::prom::parse_samples(&text).expect("exposition parses");
    assert_eq!(samples["aoft_jobs_completed_total"], 8.0);
    // Batching is off, so every attempt carried one job.
    assert_eq!(samples["aoft_attempts_total"], attempts as f64);
    assert!(samples["aoft_predicate_checks_total"] > 0.0);
    assert!(
        samples["aoft_mux_bytes_sent_total"] > 0.0
            && samples["aoft_mux_bytes_received_total"] > 0.0,
        "TCP sessions must account their frame bytes"
    );
    assert!(
        samples["aoft_violations_total"] > 0.0 || samples["aoft_quarantine_total"] > 0.0,
        "the injected kill must surface as a Φ violation or a quarantine"
    );
    assert!(
        samples["aoft_adv_drops_total"] > 0.0,
        "the crashed node's silenced sends must count as adversary drops"
    );
    service.shutdown();
}

/// The mux transport's accounting, scraped off a live endpoint: session
/// gauge, per-write coalescing and wake-latency histograms, and
/// per-session byte counters all move when a job stream actually runs
/// over multiplexed peer-pair sessions.
#[test]
fn mux_metrics_account_sessions_and_bytes() {
    let config = SvcConfig::new(3)
        .recv_timeout(Duration::from_millis(800))
        .metrics_addr("127.0.0.1:0".parse().unwrap());
    let service = SortService::start(config, loopback(8)).expect("service starts");
    let endpoint = service.metrics_addr().expect("endpoint is enabled");
    for index in 0..4i64 {
        let keys = job_keys(900 + index);
        let report = service
            .submit(JobSpec::new(keys.clone()))
            .expect("admit")
            .wait()
            .expect("clean mux job completes");
        assert_eq!(report.output, common::sorted(&keys));
    }
    let text = aoft::obs::scrape(endpoint).expect("endpoint answers");
    let samples = aoft::obs::prom::parse_samples(&text).expect("exposition parses");
    assert!(
        samples["aoft_mux_bytes_sent_total"] > 0.0,
        "mux sessions must account their tx bytes per session"
    );
    assert!(
        samples["aoft_mux_bytes_received_total"] > 0.0,
        "mux sessions must account their rx bytes per session"
    );
    // Histogram series fold into their family key, valued at `_count`.
    assert!(
        samples["aoft_mux_frames_per_write"] > 0.0,
        "every vectored write must record its coalescing depth"
    );
    assert!(
        samples["aoft_mux_wake_latency_us"] > 0.0,
        "every drained frame must record its enqueue→write latency"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("aoft_mux_bytes_sent_total{session=")),
        "byte counters must be labelled per session"
    );
    service.shutdown();
}

/// A shut-down service answers loudly, never hangs.
#[test]
fn shutdown_is_loud() {
    let service = SortService::start(
        SvcConfig::new(2).recv_timeout(Duration::from_millis(800)),
        loopback(4),
    )
    .expect("service starts");
    let handle = service.submit(JobSpec::new(job_keys(7))).expect("admit");
    service.shutdown();
    match handle.wait() {
        Ok(report) => assert_eq!(report.output, common::sorted(&job_keys(7))),
        Err(err) => assert!(matches!(err, JobError::Stopped)),
    }
}

/// Every per-job option survives the one attempt loop, whether batching is
/// off or the job is a lone rider that could not share: it runs as its
/// plain keys. No job waits for company: a lone job that could share
/// flushes `drained` (nothing else was queued), any other `solo`.
#[test]
fn a_lone_rider_keeps_every_per_job_feature() {
    let keys = job_keys(41);
    let descending: Vec<i32> = common::sorted(&keys).into_iter().rev().collect();
    let extremes = vec![i32::MAX, 7, i32::MIN, -7, 0, i32::MAX, i32::MIN, 1];
    let transient = FaultPlan::new().with_fault(
        NodeId::new(4),
        FaultKind::CorruptValue,
        Trigger::from_seq(1),
        77,
    );
    // (what, spec, expected output, expected attempts, traced, shares a ride)
    let table = [
        (
            "descending",
            JobSpec::new(keys.clone()).direction(SortDirection::Descending),
            descending,
            1,
            false,
            false,
        ),
        (
            "traced",
            JobSpec::new(keys.clone()).capture_trace(true),
            common::sorted(&keys),
            1,
            true,
            false,
        ),
        (
            "untraced",
            JobSpec::new(keys.clone()).capture_trace(false),
            common::sorted(&keys),
            1,
            false,
            true,
        ),
        (
            "keys outside the composite range",
            JobSpec::new(extremes.clone()),
            common::sorted(&extremes),
            1,
            false,
            false,
        ),
        (
            "transient fault plan",
            JobSpec::new(keys.clone()).fault_plan(transient),
            common::sorted(&keys),
            2,
            false,
            false,
        ),
    ];
    for batch_max in [1, 16] {
        let config = SvcConfig::new(3)
            .batch_max(batch_max)
            .recv_timeout(Duration::from_millis(800))
            .metrics_addr("127.0.0.1:0".parse().unwrap());
        let service = SortService::start(config, InProc::new()).expect("service starts");
        for (what, spec, expected, attempts, traced, _) in &table {
            let what = format!("{what}, batch_max {batch_max}");
            let report = service
                .submit(spec.clone())
                .expect("admit")
                .wait()
                .unwrap_or_else(|err| panic!("{what}: {err}"));
            assert_eq!(&report.output, expected, "{what}");
            assert_eq!(report.attempts, *attempts, "{what}");
            assert_eq!(
                report.detections.len(),
                attempts - 1,
                "{what}: the fault hits the first attempt only"
            );
            assert_eq!(!report.trace.is_empty(), *traced, "{what}");
        }
        let endpoint = service.metrics_addr().expect("endpoint bound");
        let scrape = aoft::obs::scrape(endpoint).expect("endpoint answers");
        let shareable = table.iter().filter(|row| row.5).count() as u64;
        let drained = if batch_max > 1 { shareable } else { 0 };
        let flushes = |trigger| common::flushes(&scrape, trigger);
        assert_eq!(flushes("drained"), drained, "batch_max {batch_max}");
        assert_eq!(flushes("solo"), table.len() as u64 - drained);
        assert_eq!(flushes("size") + flushes("boundary"), 0);
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_completed, table.len() as u64);
        assert_eq!(metrics.batches_flushed, table.len() as u64);
        assert_eq!(metrics.jobs_coalesced, 0, "nobody shared a ride");
        assert_eq!(metrics.retries, 1);
        service.shutdown();
    }
}

/// A permanent fault exhausts the attempt budget loudly — for a lone job
/// and for every rider of a batch, which re-splits down to lone riders on
/// the way. No degraded mode and no quarantine, so every attempt runs on
/// the machine whose node 5 never sends.
#[test]
fn a_permanent_fault_exhausts_the_budget_solo_and_batched() {
    for (batch_max, jobs) in [(1, 1), (4, 4)] {
        let transport = ByzantineTransport::new(InProc::new(), common::crash(5, 0, 0xE4A));
        let config = SvcConfig::new(3)
            .min_dim(3)
            .quarantine_after(u32::MAX)
            .max_attempts(3)
            .backoff(Duration::ZERO, Duration::ZERO)
            .batch_max(batch_max)
            .recv_timeout(Duration::from_millis(200));
        let service = SortService::start(config, transport).expect("service starts");
        // Submitted whole, so the batched case is one four-job batch.
        let specs = (0..jobs).map(|i| JobSpec::new(job_keys(i))).collect();
        for handle in service.submit_batch(specs) {
            match handle.expect("admit").wait() {
                Err(JobError::Exhausted {
                    attempts,
                    detections,
                }) => {
                    assert_eq!(attempts, 3, "batch_max {batch_max}");
                    assert_eq!(detections.len(), 3, "batch_max {batch_max}");
                }
                other => panic!("batch_max {batch_max}: expected Exhausted, got {other:?}"),
            }
        }
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_failed, jobs as u64, "every rider is counted");
        assert_eq!(metrics.jobs_completed, 0);
        assert_eq!(metrics.retries, 2 * jobs as u64, "two retries per job");
        assert!(service.quarantined().is_empty());
        service.shutdown();
    }
}
