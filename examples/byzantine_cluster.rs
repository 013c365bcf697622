//! A live Byzantine node on a real TCP cube, caught and quarantined.
//!
//! ```text
//! cargo run --example byzantine_cluster
//! ```
//!
//! A d=3 cube runs over loopback TCP with every frame crossing a real
//! socket. Node P0 is *two-faced* (Definition 3): from the first send
//! onward, each of its outgoing links carries an independently-seeded
//! semantic skew — valid CRC, well-formed `Msg`, different story per
//! neighbor. The `ByzantineTransport` interposer mutates frames at the
//! codec boundary, so nothing below the predicate layer can notice.
//!
//! What the run demonstrates, in order:
//!
//! 1. the consistency predicate Φ_C catches a skewed echo — an entry the
//!    checker itself transmitted to P0 one step earlier came back changed,
//!    so the evidence travelled only `checker → P0 → checker` and names P0
//!    (Lemma 6), not a bystander;
//! 2. the service's recovery loop treats that as equivocation proof and
//!    quarantines P0 directly;
//! 3. the job retries on the surviving d=2 subcube and answers correctly —
//!    fail-stop, never silently wrong (Theorem 3).

mod common;

use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::MuxTransport;
use aoft::svc::{JobSpec, SortService, SvcConfig};
use common::{demo_keys, sorted};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const TWO_FACED: u32 = 0;
    let plan = FaultPlan::new().with_fault(
        NodeId::new(TWO_FACED),
        FaultKind::TwoFaced,
        Trigger::always(),
        0xE0_0D,
    );
    let transport = ByzantineTransport::new(MuxTransport::loopback(8)?, plan);

    let config = SvcConfig::new(3)
        .max_attempts(4)
        .quarantine_after(2)
        .min_dim(2)
        .backoff(Duration::from_millis(5), Duration::from_millis(40))
        .recv_timeout(Duration::from_millis(800));
    let service = SortService::start(config, transport)?;

    println!("d=3 loopback TCP cube; P{TWO_FACED} is two-faced from the first frame\n");
    let keys = demo_keys(16, 0xB1);
    let handle = service.submit(JobSpec::new(keys.clone()))?;
    let report = handle.wait()?;

    assert_eq!(report.output, sorted(&keys), "never silently wrong");
    for (attempt, reports) in report.detections.iter().enumerate() {
        for detection in reports {
            println!("attempt {}: {detection}", attempt + 1);
        }
    }
    let quarantined = service.quarantined();
    assert_eq!(
        quarantined,
        vec![TWO_FACED],
        "the equivocator itself is quarantined, no bystanders"
    );
    println!(
        "\nP{TWO_FACED} quarantined on Φ_C evidence; correct answer after {} attempt(s) \
         on a d={} cube, {} ticks of effort",
        report.attempts, report.dim, report.effort
    );

    service.shutdown();
    Ok(())
}
