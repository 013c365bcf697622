//! A multi-process fleet: cube hosts as real child processes, jobs routed
//! over real sockets, recovery and quarantine crossing the process
//! boundary.
//!
//! ```text
//! cargo run --example multiproc_fleet
//! ```
//!
//! The parent binds one multiplexed control transport (`aoft::net::
//! MuxTransport`) and re-execs itself twice as `--cube-host` children.
//! Each child brings up a complete d=3 [`aoft::svc::SortService`] cube on
//! its own loopback transport, dials the parent, and serves jobs through
//! [`aoft::svc::CubeHost`]. Child 101 is sabotaged: its node 5 goes
//! permanently fail-silent a few frames into its first job, and with an
//! attempt budget of 1 that job fails *loudly* back to the parent.
//!
//! The parent routes over the children with the same
//! [`aoft::svc::FleetRouter`] an in-process fleet uses
//! ([`FleetRouter::connect`](aoft::svc::FleetRouter::connect)), which does
//! what the paper asks of "the system": it fails the job over to the
//! healthy child, and — because child 101 quarantines the dead node on the
//! first strike and says so in its answers — routes the now *degraded*
//! child last. A `submit_batch` burst larger than the healthy child's
//! admission bound then overflows onto the degraded child, which serves it
//! around the quarantined node. Every output is verified sorted: at least
//! one failover, one quarantined node, zero silent corruption.
//!
//! Used by CI's `mux-quick` job as the end-to-end multi-process gate.

mod common;

use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::{MuxConfig, MuxTransport};
use aoft::svc::{CubeHost, FleetConfig, FleetReport, FleetRouter, JobSpec, SvcConfig};
use common::sorted;

const HEALTHY_CHILD: u32 = 100;
const FAULTY_CHILD: u32 = 101;
/// Cube index of each child under the router (the order passed to
/// `connect`).
const FAULTY_CUBE: usize = 1;
const JOBS: usize = 24;
/// Jobs one child may hold in flight; the burst is twice this.
const DEPTH: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 4 && args[1] == "--cube-host" {
        let label: u32 = args[2].parse()?;
        let parent: SocketAddr = args[3].parse()?;
        let kill_node: Option<u32> = match args.get(4).map(String::as_str) {
            Some("--kill-node") => Some(args[5].parse()?),
            _ => None,
        };
        return cube_host(label, parent, kill_node);
    }
    parent()
}

/// The cube shape both sides share. Attempt budget 1 makes a cube-level
/// fault surface immediately as a loud `Failed` (the fleet handles it);
/// quarantine on the first strike means the next job already runs
/// degraded around the dead node; a child batches up to `DEPTH` of the
/// jobs it holds into one attempt.
fn cube_config() -> SvcConfig {
    SvcConfig::new(3)
        .max_attempts(1)
        .quarantine_after(1)
        .queue_depth(DEPTH)
        .batch_max(DEPTH)
        .recv_timeout(Duration::from_millis(800))
}

/// Child mode: one complete cube on a loopback mux transport, served to
/// the parent until the parent closes the session.
fn cube_host(
    label: u32,
    parent: SocketAddr,
    kill_node: Option<u32>,
) -> Result<(), Box<dyn std::error::Error>> {
    let cube = MuxTransport::loopback(8)?;
    let mut plan = FaultPlan::new();
    if let Some(node) = kill_node {
        plan = plan.with_fault(
            NodeId::new(node),
            FaultKind::Crash,
            Trigger::from_seq(8),
            0xBEEF + u64::from(label),
        );
    }
    CubeHost::serve(
        label,
        parent,
        cube_config(),
        ByzantineTransport::new(cube, plan),
    )?;
    Ok(())
}

fn spawn_child(label: u32, parent: SocketAddr, kill_node: Option<u32>) -> std::io::Result<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--cube-host")
        .arg(label.to_string())
        .arg(parent.to_string())
        .stdin(Stdio::null());
    if let Some(node) = kill_node {
        cmd.arg("--kill-node").arg(node.to_string());
    }
    cmd.spawn()
}

fn job_keys(job: usize) -> Vec<i32> {
    (0..32i32)
        .map(|x| (x + job as i32).wrapping_mul(-61) % 200)
        .collect()
}

fn parent() -> Result<(), Box<dyn std::error::Error>> {
    let control = MuxTransport::bind(MuxConfig::default())?;
    let addr = control.local_addr();
    println!("parent: control plane on {addr}, spawning 2 cube hosts");

    let mut children = vec![
        spawn_child(HEALTHY_CHILD, addr, None)?,
        spawn_child(FAULTY_CHILD, addr, Some(5))?,
    ];

    let router = FleetRouter::connect(
        FleetConfig::new(cube_config(), 2),
        control,
        &[HEALTHY_CHILD, FAULTY_CHILD],
        Duration::from_secs(30),
        Duration::from_secs(60),
    )?;
    println!("parent: both children dialed in");

    let mut failures = Vec::new();
    let mut degraded_served = 0usize;
    let mut check = |job: usize, report: &FleetReport| {
        let ok = report.report.output == sorted(&job_keys(job));
        if !ok {
            failures.push(job);
        }
        if report.cube == FAULTY_CUBE && report.report.dim < 3 {
            degraded_served += 1;
        }
        println!(
            "job {job:2}: cube {} dim {} attempts {} reroutes {} {}",
            report.cube,
            report.report.dim,
            report.report.attempts,
            report.reroutes,
            if ok { "sorted" } else { "CORRUPT" }
        );
    };
    for job in 0..JOBS {
        let report = router.submit(JobSpec::new(job_keys(job)))?.wait()?;
        check(job, &report);
    }
    // A burst of twice one child's bound: the healthy child fills up, and
    // degraded-last routing sends the overflow to the degraded child.
    let burst: Vec<usize> = (JOBS..JOBS + 2 * DEPTH).collect();
    let handles = router.submit_batch(burst.iter().map(|&j| JobSpec::new(job_keys(j))).collect());
    for (&job, handle) in burst.iter().zip(handles) {
        let report = match handle {
            Ok(handle) => handle.wait()?,
            // Both children full: a client backs off and resubmits.
            Err(_) => router.submit(JobSpec::new(job_keys(job)))?.wait()?,
        };
        check(job, &report);
    }

    let metrics = router.metrics();
    let quarantine: Vec<&[u32]> = metrics
        .per_cube
        .iter()
        .map(|c| &c.quarantined[..])
        .collect();
    println!(
        "parent: {} failover(s); degraded cubes {:?}; quarantine per cube: {quarantine:?}; \
         jobs routed per cube: {:?}",
        metrics.failovers, metrics.degraded, metrics.jobs_routed
    );

    // The claims this example (and CI's mux-quick gate) stands on.
    assert!(
        failures.is_empty(),
        "jobs {failures:?} returned unsorted output — silent corruption"
    );
    assert!(
        metrics.failovers >= 1,
        "the sabotaged child must cost at least one loud failover"
    );
    assert!(
        quarantine[FAULTY_CUBE].contains(&5),
        "child {FAULTY_CHILD} must report node 5 quarantined across the \
         process boundary, got {:?}",
        quarantine[FAULTY_CUBE]
    );
    assert!(
        degraded_served > 0,
        "the sabotaged child must serve jobs degraded after quarantine"
    );

    // Shutting the router down closes every child session — their exit
    // signal.
    router.shutdown();
    for child in &mut children {
        let status = child.wait()?;
        assert!(status.success(), "cube host exited with {status}");
    }
    println!("parent: both cube hosts exited cleanly — done");
    Ok(())
}
