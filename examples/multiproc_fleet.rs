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
//! The parent's [`aoft::svc::RemoteFleet`] then does what the paper asks
//! of "the system": it fails the job over to the healthy child, keeps
//! routing, and — because child 101 quarantines the dead node on the
//! first strike — watches the sabotaged child come back in *degraded*
//! mode, reporting its quarantine across the process boundary in every
//! subsequent answer. Every output is verified sorted: one failover, one
//! quarantined node, zero silent corruption.
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
use aoft::svc::{CubeHost, RemoteFleet, SvcConfig};
use common::sorted;

const HEALTHY_CHILD: u32 = 100;
const FAULTY_CHILD: u32 = 101;
const JOBS: usize = 24;

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

/// Child mode: one complete cube on a loopback mux transport, served to
/// the parent until the parent closes the session.
fn cube_host(
    label: u32,
    parent: SocketAddr,
    kill_node: Option<u32>,
) -> Result<(), Box<dyn std::error::Error>> {
    let cube = MuxTransport::loopback(8)?;
    // Attempt budget 1 makes a cube-level fault surface immediately as a
    // loud `Failed` (the fleet handles it); quarantine on the first strike
    // means the next job already runs degraded around the dead node.
    let svc = SvcConfig::new(3)
        .max_attempts(1)
        .quarantine_after(1)
        .recv_timeout(Duration::from_millis(800));
    let mut plan = FaultPlan::new();
    if let Some(node) = kill_node {
        plan = plan.with_fault(
            NodeId::new(node),
            FaultKind::Crash,
            Trigger::from_seq(8),
            0xBEEF + u64::from(label),
        );
    }
    CubeHost::serve(label, parent, svc, ByzantineTransport::new(cube, plan))?;
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

fn parent() -> Result<(), Box<dyn std::error::Error>> {
    let control = MuxTransport::bind(MuxConfig::default())?;
    let addr = control.local_addr();
    println!("parent: control plane on {addr}, spawning 2 cube hosts");

    let mut children = vec![
        spawn_child(HEALTHY_CHILD, addr, None)?,
        spawn_child(FAULTY_CHILD, addr, Some(5))?,
    ];

    let mut fleet = RemoteFleet::connect(
        control,
        &[HEALTHY_CHILD, FAULTY_CHILD],
        Duration::from_secs(30),
        Duration::from_secs(60),
    )?;
    println!("parent: both children dialed in");

    let mut failures = Vec::new();
    let mut recovered_degraded = 0usize;
    for job in 0..JOBS {
        let keys: Vec<i32> = (0..32i32)
            .map(|x| (x + job as i32).wrapping_mul(-61) % 200)
            .collect();
        let expected = sorted(&keys);
        let report = fleet.submit(keys)?;
        if report.output != expected {
            failures.push(job);
        }
        if report.cube == FAULTY_CHILD && report.reroutes == 0 && fleet.failovers() > 0 {
            recovered_degraded += 1;
        }
        println!(
            "job {job:2}: cube {} attempts {} reroutes {} {}",
            report.cube,
            report.attempts,
            report.reroutes,
            if report.output == expected {
                "sorted"
            } else {
                "CORRUPT"
            }
        );
    }

    let failovers = fleet.failovers();
    let quarantine = fleet.quarantine_map();
    println!("parent: {failovers} failover(s); quarantine per child: {quarantine:?}");

    // The three claims this example (and CI's mux-quick gate) stands on.
    assert!(
        failures.is_empty(),
        "jobs {failures:?} returned unsorted output — silent corruption"
    );
    assert!(
        failovers >= 1,
        "the sabotaged child must cost at least one loud failover"
    );
    let faulty_quarantine = quarantine
        .iter()
        .find(|(label, _)| *label == FAULTY_CHILD)
        .map(|(_, nodes)| nodes.clone())
        .unwrap_or_default();
    assert!(
        faulty_quarantine.contains(&5),
        "child {FAULTY_CHILD} must report node 5 quarantined across the \
         process boundary, got {faulty_quarantine:?}"
    );
    assert!(
        recovered_degraded > 0,
        "the sabotaged child must serve jobs degraded after quarantine"
    );

    // Dropping the fleet closes every child session — their exit signal.
    drop(fleet);
    for child in &mut children {
        let status = child.wait()?;
        assert!(status.success(), "cube host exited with {status}");
    }
    println!("parent: both cube hosts exited cleanly — done");
    Ok(())
}
