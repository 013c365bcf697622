//! The resident sort service surviving a node death mid-stream.
//!
//! ```text
//! cargo run --example sort_service
//! ```
//!
//! A `SortService` keeps a d=3 cube alive over loopback TCP and serves 32
//! sort jobs. Partway through the stream node 5's outgoing links go
//! permanently silent (a transport-level fail-silent crash — the node keeps
//! believing its sends succeed). The service's recovery loop takes over:
//!
//! 1. the in-flight job fail-stops and its reports are diagnosed;
//! 2. the implicated node is struck and quarantined, its cached links are
//!    purged;
//! 3. the job retries on the surviving subcube (degraded mode, d=2) and
//!    completes *correctly*;
//! 4. every later job avoids the quarantined node from the start.
//!
//! Per the paper's fail-stop discipline no job is ever answered with a
//! silently wrong result — the stream's only visible symptom is the latency
//! blip and the retry counter.

mod common;

use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::MuxTransport;
use aoft::svc::{JobSpec, SortService, SvcConfig};
use common::{demo_keys, sorted};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Node 5 dies fail-silent once each of its links has carried 40 frames
    // — a handful of jobs in. The per-link send counts live in the
    // service's link cache, so the node stays dead across jobs until
    // quarantined.
    let crash = FaultPlan::new().with_fault(
        NodeId::new(5),
        FaultKind::Crash,
        Trigger::from_seq(40),
        0x5e7c,
    );
    let transport = ByzantineTransport::new(MuxTransport::loopback(8)?, crash);

    let config = SvcConfig::new(3)
        .max_attempts(4)
        .quarantine_after(1)
        .backoff(Duration::from_millis(5), Duration::from_millis(40))
        .recv_timeout(Duration::from_millis(800))
        .metrics_addr("127.0.0.1:0".parse()?);
    let service = SortService::start(config, transport)?;
    let metrics_addr = service.metrics_addr().expect("metrics endpoint enabled");

    println!("serving 32 jobs over loopback TCP; node 5 dies mid-stream");
    println!("Prometheus metrics live at http://{metrics_addr}/metrics\n");
    let mut recovered = Vec::new();
    for index in 0..32u64 {
        let keys = demo_keys(32, index as i64);
        let handle = service.submit(JobSpec::new(keys.clone()))?;
        let report = handle.wait()?;
        assert_eq!(report.output, sorted(&keys), "never silently wrong");
        if report.recovered() {
            recovered.push(report.id);
            println!(
                "{}: RECOVERED after {} attempt(s) — fail-stop diagnosed, \
                 retried on a degraded d={} cube ({:?} total)",
                report.id, report.attempts, report.dim, report.latency
            );
        } else {
            println!(
                "{}: ok on d={} in {:?}",
                report.id, report.dim, report.latency
            );
        }
    }

    let metrics = service.metrics();
    println!(
        "\n{} jobs completed ({} recovered, {} retries), p50 {:?}, p99 {:?}",
        metrics.jobs_completed,
        metrics.recovered_jobs,
        metrics.retries,
        metrics.latency_p50,
        metrics.latency_p99,
    );
    println!("quarantined node labels: {:?}", metrics.quarantined);

    // Live scrape of the Prometheus endpoint: the fault shows up as Φ
    // violations and a quarantine event next to the routine job, queue,
    // predicate, and per-session traffic counters.
    let exposition = aoft::obs::scrape(metrics_addr)?;
    let samples = aoft::obs::prom::parse_samples(&exposition).map_err(std::io::Error::other)?;
    println!("\nscrape of http://{metrics_addr}/metrics:");
    for name in [
        "aoft_jobs_completed_total",
        "aoft_job_retries_total",
        "aoft_quarantine_total",
        "aoft_predicate_checks_total",
        "aoft_violations_total",
        "aoft_mux_bytes_sent_total",
    ] {
        println!("  {name} = {}", samples[name]);
    }
    assert!(samples["aoft_predicate_checks_total"] > 0.0);
    assert!(samples["aoft_mux_bytes_sent_total"] > 0.0);
    assert!(
        samples["aoft_violations_total"] > 0.0 || samples["aoft_quarantine_total"] > 0.0,
        "the injected kill must be visible on the scrape"
    );

    assert_eq!(metrics.jobs_completed, 32);
    assert!(
        !recovered.is_empty(),
        "node 5's death must surface as at least one recovered job"
    );
    // Mid-stream kills race cascaded timeouts, so the first diagnosis may
    // implicate the starved neighbors instead of node 5 itself; either way
    // the quarantine lands inside the blast region and the stream routes
    // around it.
    assert!(
        !metrics.quarantined.is_empty(),
        "the fail-stop must have quarantined an implicated node"
    );
    service.shutdown();
    println!("\nstream served: every result verified, zero silent corruption");
    Ok(())
}
