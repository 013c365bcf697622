//! A fleet of sort cubes over loopback TCP, surviving a cube-killing fault.
//!
//! ```text
//! cargo run --example fleet
//! ```
//!
//! Three d=3 cubes — two active, one standby spare — run behind a
//! [`FleetRouter`], every cube on its own loopback [`MuxTransport`] (one TCP
//! session per peer pair on a fixed thread pool, not a socket per link).
//! Mid-stream, node 5 of cube 1 goes permanently fail-silent. The cube's
//! own attempt budget is 1, so the in-flight job fails *loudly* at the cube
//! level; the fleet layer then takes over:
//!
//! 1. the failed job **fails over** — the router resubmits it to a healthy
//!    cube, where it completes correctly;
//! 2. cube 1's diagnosis quarantines the implicated node, so the router
//!    marks the cube **degraded** and deprioritizes it;
//! 3. the standby spare is **promoted** to keep two healthy cubes active;
//! 4. every later job routes around the shrunken cube.
//!
//! Per the paper's fail-stop discipline, no job is ever answered with a
//! silently wrong result — the fleet's only visible symptoms are one
//! failover and a changed routing distribution.

mod common;

use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::MuxTransport;
use aoft::svc::{FleetConfig, FleetRouter, JobSpec, SvcConfig};
use common::{demo_keys, sorted};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One attempt per job: a cube-level fault is not retried inside the
    // cube, it surfaces immediately so the *fleet* handles it. Quarantine
    // on the first strike makes the cube's degradation visible at once.
    let cube = SvcConfig::new(3)
        .max_attempts(1)
        .quarantine_after(1)
        .recv_timeout(Duration::from_millis(800))
        .metrics_addr("127.0.0.1:0".parse()?);
    let config = FleetConfig::new(cube, 2).spares(1);

    // Every cube gets its own mux transport; cube 1's is additionally
    // wrapped with a fail-silent kill on node 5 after 10 frames per link —
    // a few jobs in, mid-stream (a d=3 job puts ~3 frames on the busiest
    // outgoing link of a node).
    let router = FleetRouter::start(config, |i| {
        let mut plan = FaultPlan::new();
        if i == 1 {
            plan = plan.with_fault(
                NodeId::new(5),
                FaultKind::Crash,
                Trigger::from_seq(10),
                0xf1ee7 + i as u64,
            );
        }
        Ok(ByzantineTransport::new(MuxTransport::loopback(8)?, plan))
    })?;

    println!("fleet: 2 active d=3 cubes + 1 spare, mux sessions over loopback TCP");
    println!("cube 1 node 5 dies fail-silent mid-stream\n");

    let mut failovers = 0usize;
    for index in 0..24u64 {
        let keys = demo_keys(32, index as i64);
        let handle = router.submit(JobSpec::new(keys.clone()))?;
        let cube = handle.cube();
        let report = handle.wait()?;
        // Zero silent corruption: every answer is verified sorted output.
        assert_eq!(report.report.output, sorted(&keys), "never silently wrong");
        if report.reroutes > 0 {
            failovers += report.reroutes;
            println!(
                "job {index:2}: FAILED OVER cube {cube} → cube {} \
                 ({} reroute(s), {:?})",
                report.cube, report.reroutes, report.report.latency
            );
        } else {
            println!(
                "job {index:2}: ok on cube {} in {:?}",
                report.cube, report.report.latency
            );
        }
    }

    let metrics = router.metrics();
    println!(
        "\nfleet: {} cubes ({} active, {} spare), degraded {:?}",
        metrics.cubes, metrics.active, metrics.spares, metrics.degraded
    );
    println!(
        "routing: {:?} jobs/cube, {} failover(s), {} spare(s) promoted",
        metrics.jobs_routed, metrics.failovers, metrics.spares_promoted
    );

    // The mid-stream kill must have surfaced as fleet-level recovery:
    assert!(failovers >= 1, "the killed cube must cause a failover");
    assert!(
        metrics.degraded.contains(&1),
        "cube 1 must be quarantine-shrunken and deprioritized, got {:?}",
        metrics.degraded
    );
    assert!(
        metrics.spares_promoted >= 1,
        "the spare must join the rotation when cube 1 degrades"
    );
    // Deprioritization: the healthy cubes absorbed the rest of the stream —
    // nothing routed to the degraded cube after its strike beyond the jobs
    // already counted when it was healthy.
    let per_cube_completed: Vec<u64> = metrics.per_cube.iter().map(|m| m.jobs_completed).collect();
    println!("completed per cube: {per_cube_completed:?}");
    assert!(
        metrics.jobs_routed[0] + metrics.jobs_routed[2] > metrics.jobs_routed[1],
        "healthy cubes must carry most of the stream: {:?}",
        metrics.jobs_routed
    );

    // The fleet's whole story is on its one endpoint: the fleet's own
    // families, each cube's job families by `cube` label, and the process
    // registry's transport families.
    let endpoint = router.metrics_addr().expect("metrics endpoint enabled");
    let text = aoft::obs::scrape(endpoint)?;
    for family in [
        "aoft_fleet_cubes",
        "aoft_fleet_jobs_routed_total",
        "aoft_fleet_cube_health",
        "aoft_fleet_failovers_total",
        "aoft_fleet_spares_promoted_total",
        "aoft_jobs_completed_total{cube=\"2\"}",
        "aoft_mux_sessions",
        "aoft_mux_bytes_sent_total",
    ] {
        assert!(text.contains(family), "missing {family} in scrape");
    }
    println!("\nfleet, cube and mux families present on http://{endpoint}/metrics ✓");

    router.shutdown();
    println!("fleet survived a mid-stream cube fault: failover, quarantine, spare promotion — zero silent corruption");
    Ok(())
}
