//! Acceptance tests for the fleet router: N resident sort cubes behind one
//! submit surface — routing spread, degraded-cube deprioritization, spare
//! promotion, failover, and fleet-wide admission control. The paper's
//! contract lifts unchanged from one cube to the fleet: every job is
//! answered with a verified result or a loud error, never a silent lie.

mod common;

use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::sim::InProc;
use aoft::svc::{FleetConfig, FleetRouter, JobSpec, SubmitError, SvcConfig};

const DIM: u32 = 3;

fn job_keys(salt: i64) -> Vec<i32> {
    (0..32i64)
        .map(|x| (((x + salt).wrapping_mul(2_654_435_761)) % 997) as i32)
        .collect()
}

fn cube_config() -> SvcConfig {
    SvcConfig::new(DIM)
        .max_attempts(4)
        .quarantine_after(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(10))
        .recv_timeout(Duration::from_millis(300))
}

/// A fleet binds its cubes' metrics address once: one scrape carries every
/// cube's service families, labeled by cube.
#[test]
fn a_fleet_serves_every_cube_on_one_metrics_endpoint() {
    let free = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = free.local_addr().expect("bound address");
    drop(free);
    let config = FleetConfig::new(cube_config().metrics_addr(addr), 2).spares(1);
    let router = FleetRouter::start(config, |_| Ok(InProc::new()))
        .expect("a fleet with a metrics address starts");
    assert_eq!(router.metrics_addr(), Some(addr));
    for index in 0..4i64 {
        let handle = router.submit(JobSpec::new(job_keys(index))).expect("admit");
        handle.wait().expect("clean job completes");
    }
    let text = aoft::obs::scrape(addr).expect("fleet endpoint answers");
    for cube in 0..3 {
        let sample = format!("aoft_jobs_submitted_total{{cube=\"{cube}\"}} ");
        assert!(text.contains(&sample), "missing {sample} in:\n{text}");
    }
    let headers = text.matches("# TYPE aoft_jobs_submitted_total ").count();
    assert_eq!(headers, 1, "one header per family");
    router.shutdown();
}

/// A burst is admitted whole, chunk by chunk, so an idle fleet coalesces
/// it into full batches every time; a lone job then flushes at once,
/// `drained`, without waiting for company.
#[test]
fn an_idle_fleet_batches_a_burst_whole_and_a_lone_job_at_once() {
    let cube = cube_config()
        .workers(2)
        .batch_max(16)
        .metrics_addr("127.0.0.1:0".parse().unwrap());
    let router =
        FleetRouter::start(FleetConfig::new(cube, 2), |_| Ok(InProc::new())).expect("fleet starts");
    let endpoint = router.metrics_addr().expect("endpoint bound");
    let flushes = |trigger| {
        let scrape = aoft::obs::scrape(endpoint).expect("fleet endpoint answers");
        common::flushes(&scrape, trigger)
    };

    let specs: Vec<JobSpec> = (0..64).map(|i| JobSpec::new(job_keys(i))).collect();
    let handles = router.submit_batch(specs.clone());
    for (spec, handle) in specs.iter().zip(handles) {
        let report = handle.expect("admit").wait().expect("clean job completes");
        assert_eq!(report.report.output, common::sorted(&spec.keys));
    }
    let metrics = router.metrics();
    assert_eq!(metrics.jobs_routed, [32, 32], "chunks alternate cubes");
    let per_cube = |read: fn(&aoft::svc::SvcMetrics) -> u64| -> u64 {
        metrics.per_cube.iter().map(read).sum()
    };
    assert_eq!(per_cube(|m| m.batches_flushed), 4);
    assert_eq!(per_cube(|m| m.jobs_coalesced), 64, "every job shared");
    assert_eq!(flushes("size"), 4, "four full batches of 16");

    let lone = JobSpec::new(job_keys(64));
    let report = router.submit(lone.clone()).expect("admit").wait();
    assert_eq!(
        report.expect("completes").report.output,
        common::sorted(&lone.keys)
    );
    assert_eq!(flushes("drained"), 1, "the lone job flushed at once");
    assert_eq!(flushes("size"), 4);
    assert_eq!(flushes("solo") + flushes("boundary"), 0);
    router.shutdown();
}

/// A clean stream round-robins across every healthy active cube.
#[test]
fn router_spreads_a_clean_stream_across_cubes() {
    let router = FleetRouter::start(FleetConfig::new(cube_config(), 3), |_| Ok(InProc::new()))
        .expect("fleet starts");
    for index in 0..12i64 {
        let keys = job_keys(index);
        let report = router
            .submit(JobSpec::new(keys.clone()))
            .expect("admitted")
            .wait()
            .expect("clean job completes");
        assert_eq!(report.report.output, common::sorted(&keys));
        assert_eq!(report.reroutes, 0, "clean cubes never fail over");
    }
    let metrics = router.metrics();
    assert_eq!(metrics.cubes, 3);
    assert_eq!(metrics.jobs_routed.iter().sum::<u64>(), 12);
    assert!(
        metrics.jobs_routed.iter().all(|&n| n == 4),
        "round-robin must spread 12 jobs evenly over 3 cubes: {:?}",
        metrics.jobs_routed
    );
    router.shutdown();
}

/// A cube whose diagnosis quarantined a node is deprioritized: later jobs
/// route around it, and a standby spare is promoted to restore capacity.
#[test]
fn degraded_cube_is_deprioritized_and_a_spare_promoted() {
    let router = FleetRouter::start(FleetConfig::new(cube_config(), 2).spares(1), |_| {
        Ok(InProc::new())
    })
    .expect("fleet starts");

    // Pin a model-level crash onto cube 1: node 5 goes fail-silent from its
    // third send. The cube recovers the job itself (degraded retry) but its
    // quarantine is no longer empty — the router must now treat it as
    // shrunken hardware.
    let keys = job_keys(99);
    let plan =
        FaultPlan::new().with_fault(NodeId::new(5), FaultKind::Crash, Trigger::from_seq(2), 7);
    let report = router
        .submit_to(1, JobSpec::new(keys.clone()).fault_plan(plan))
        .expect("pinned job admitted")
        .wait()
        .expect("the cube recovers its own transient");
    assert_eq!(report.report.output, common::sorted(&keys));
    assert!(report.report.recovered(), "the crash must cost a retry");

    let routed_to_degraded_before = router.metrics().jobs_routed[1];
    for index in 0..8i64 {
        let keys = job_keys(index);
        let report = router
            .submit(JobSpec::new(keys.clone()))
            .expect("admitted")
            .wait()
            .expect("clean job completes");
        assert_eq!(report.report.output, common::sorted(&keys));
        assert_ne!(report.cube, 1, "the degraded cube must not take clean work");
    }

    let metrics = router.metrics();
    assert!(
        metrics.degraded.contains(&1),
        "cube 1 carries a quarantine and must report degraded: {:?}",
        metrics.degraded
    );
    assert!(
        metrics.spares_promoted >= 1,
        "the spare must join the rotation once cube 1 degrades"
    );
    assert_eq!(
        router.metrics().jobs_routed[1],
        routed_to_degraded_before,
        "no clean job may land on the deprioritized cube"
    );
    router.shutdown();
}

/// A cube-level job failure (attempt budget exhausted on dead hardware)
/// fails over: the router resubmits to a healthy cube and the job still
/// completes correctly.
#[test]
fn exhausted_cube_fails_over_to_a_healthy_one() {
    // Cube 1's transport kills node 5 from its first send; the cube gets a
    // single attempt, so its failure surfaces at the fleet layer.
    let cube = cube_config().max_attempts(1);
    let router = FleetRouter::start(FleetConfig::new(cube, 2), |i| {
        let plan = if i == 1 {
            common::crash(5, 0, 0xFA11 + i as u64)
        } else {
            FaultPlan::new()
        };
        Ok(ByzantineTransport::new(InProc::new(), plan))
    })
    .expect("fleet starts");

    let keys = job_keys(5);
    let report = router
        .submit_to(1, JobSpec::new(keys.clone()))
        .expect("pinned job admitted")
        .wait()
        .expect("the fleet recovers what the cube cannot");
    assert_eq!(report.report.output, common::sorted(&keys));
    assert_eq!(report.reroutes, 1, "exactly one reroute for one dead cube");
    assert_ne!(report.cube, 1, "the job must finish on a healthy cube");

    let metrics = router.metrics();
    assert!(metrics.failovers >= 1, "the reroute must be counted");
    assert!(
        metrics.degraded.contains(&1),
        "the dead cube's quarantine must mark it degraded: {:?}",
        metrics.degraded
    );
    router.shutdown();
}

/// Admission control aggregates: when every cube's queue is full the fleet
/// reports one backpressure signal whose depth is the fleet-wide bound.
#[test]
fn backpressure_aggregates_across_every_cube() {
    // Tiny queues, one worker per cube, deliberately chunky jobs: a burst
    // must overrun the whole fleet's admission capacity.
    let cube = cube_config().queue_depth(1).workers(1);
    let depth_per_cube = 1usize;
    let router =
        FleetRouter::start(FleetConfig::new(cube, 2), |_| Ok(InProc::new())).expect("fleet starts");

    let keys: Vec<i32> = (0..2048i32).map(|x| x.wrapping_mul(-37) % 4096).collect();
    let mut admitted = Vec::new();
    let mut refused = None;
    for _ in 0..32 {
        match router.submit(JobSpec::new(keys.clone())) {
            Ok(handle) => admitted.push(handle),
            Err(SubmitError::Backpressure { depth }) => {
                refused = Some(depth);
                break;
            }
            Err(other) => panic!("only backpressure may refuse a clean burst: {other}"),
        }
    }
    let depth = refused.expect("a 32-job burst must overrun 2 cubes × queue depth 1");
    assert_eq!(
        depth,
        2 * depth_per_cube,
        "the reported depth is the fleet-wide bound, not one cube's"
    );

    // Backpressure refuses loudly but loses nothing already admitted.
    let expected = common::sorted(&keys);
    for handle in admitted {
        let report = handle.wait().expect("admitted jobs complete");
        assert_eq!(report.report.output, expected);
    }
    router.shutdown();
}

/// The nightly fleet soak: stream `AOFT_FLEET_JOBS` jobs (default 10 000)
/// through a 2-active + 1-spare fleet, every 25th under an injected
/// model-level crash, and verify every single answer. `AOFT_BATCH_MAX`
/// (default 16) sets each cube's micro-batcher width, so the soak also
/// exercises coalesced composite-key attempts under sporadic faults; set it
/// to 1 to soak lone riders only. `AOFT_FLEET_BACKEND` picks each cube's
/// medium: `inproc` (default) or `mux` for loopback peer-pair TCP sessions,
/// so nightly soaks the multiplexed transport under the same faulted
/// stream. With `AOFT_SOAK_JOURNAL=<path>` the run also writes the
/// observability event journal there, and with `AOFT_FLEET_SCRAPE=<path>`
/// the final scrape of the fleet's endpoint (fleet, per-cube and process
/// families); nightly archives both as artifacts.
#[test]
#[ignore = "long-running fleet soak; nightly runs it via -- --ignored"]
fn fleet_soak_streams_ten_thousand_jobs() {
    let backend = std::env::var("AOFT_FLEET_BACKEND").unwrap_or_else(|_| "inproc".into());
    match backend.as_str() {
        "mux" => run_fleet_soak(|_| aoft::net::MuxTransport::loopback(1 << DIM)),
        "inproc" => run_fleet_soak(|_| Ok(InProc::new())),
        other => panic!("AOFT_FLEET_BACKEND={other} is not a soak backend (inproc | mux)"),
    }
}

fn run_fleet_soak<T, F>(make_transport: F)
where
    T: aoft::sim::Transport<aoft::sim::Packet<aoft::sort::Msg>> + Send + Sync + 'static,
    F: FnMut(usize) -> Result<T, aoft::net::NetError>,
{
    let jobs: usize = std::env::var("AOFT_FLEET_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let batch_max: usize = std::env::var("AOFT_BATCH_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    if let Ok(path) = std::env::var("AOFT_SOAK_JOURNAL") {
        aoft::obs::install_journal(&path).expect("journal path is writable");
    }

    // Sporadic transient faults, like the single-cube soak: quarantine is
    // disabled (the sentinel) because rotating transients would otherwise
    // evict healthy hardware job after job.
    let cube = SvcConfig::new(DIM)
        .workers(2)
        .queue_depth(128)
        .max_attempts(4)
        .quarantine_after(u32::MAX)
        .backoff(Duration::from_millis(1), Duration::from_millis(10))
        .recv_timeout(Duration::from_millis(300))
        .batch_max(batch_max)
        .metrics_addr("127.0.0.1:0".parse().unwrap());
    let router = FleetRouter::start(FleetConfig::new(cube, 2).spares(1), make_transport)
        .expect("fleet starts");

    let start = std::time::Instant::now();
    let mut submitted = 0usize;
    let mut faulted = 0usize;
    while submitted < jobs {
        let wave = (jobs - submitted).min(64);
        let mut inputs = Vec::with_capacity(wave);
        for offset in 0..wave {
            let index = (submitted + offset) as i64;
            let keys = job_keys(index);
            let mut spec = JobSpec::new(keys.clone());
            if index % 25 == 0 {
                faulted += 1;
                let node = NodeId::new((index / 25) as u32 % (1 << DIM));
                spec = spec.fault_plan(FaultPlan::new().with_fault(
                    node,
                    FaultKind::Crash,
                    Trigger::window(2, 4),
                    index as u64,
                ));
            }
            inputs.push((keys, spec));
        }
        // Each wave is admitted whole, so its clean runs coalesce.
        let (keys, specs): (Vec<_>, Vec<_>) = inputs.into_iter().unzip();
        for (keys, handle) in keys.into_iter().zip(router.submit_batch(specs)) {
            let report = handle
                .expect("waves fit the queues")
                .wait()
                .unwrap_or_else(|err| panic!("soak job must complete loudly or not at all: {err}"));
            assert_eq!(
                report.report.output,
                common::sorted(&keys),
                "soak job delivered a silently wrong result"
            );
        }
        submitted += wave;
    }

    let metrics = router.metrics();
    let completed: u64 = metrics.per_cube.iter().map(|m| m.jobs_completed).sum();
    let recovered: u64 = metrics.per_cube.iter().map(|m| m.recovered_jobs).sum();
    assert_eq!(metrics.jobs_routed.iter().sum::<u64>(), jobs as u64);
    assert!(completed >= jobs as u64, "no job may be lost");
    assert!(
        recovered >= 1,
        "injected crashes must exercise the recovery loop"
    );
    println!(
        "fleet soak: {jobs} jobs ({faulted} faulted) over {} cubes in {:?} — \
         routed {:?}, {recovered} recovered, {} failover(s)",
        metrics.cubes,
        start.elapsed(),
        metrics.jobs_routed,
        metrics.failovers,
    );
    // The fleet's endpoint: its own families, every cube's by `cube`
    // label, and the process registry.
    let endpoint = router.metrics_addr().expect("the fleet serves metrics");
    let scrape = aoft::obs::scrape(endpoint).expect("fleet endpoint answers");
    if let Ok(path) = std::env::var("AOFT_FLEET_SCRAPE") {
        std::fs::write(&path, &scrape).expect("scrape path is writable");
    }
    println!("{scrape}");
    router.shutdown();
}
