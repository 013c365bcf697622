//! Live-fire Byzantine acceptance over real TCP: the attack the paper is
//! about, on the wire the paper's model abstracts.
//!
//! A two-faced P0 skews its outgoing frames semantically (valid CRC,
//! well-formed `Msg`, a different story per link). The cube must fail-stop
//! on predicate evidence, the service must quarantine the equivocator
//! *itself* — not a bystander from the suspect region — and the retry on
//! the surviving subcube must answer correctly (Theorem 3: never silently
//! wrong).

mod common;

use std::time::Duration;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::MuxTransport;
use aoft::svc::{JobSpec, SortService, SvcConfig};

#[test]
fn mux_two_faced_node_is_quarantined_by_name() {
    const TWO_FACED: u32 = 0;
    let plan = FaultPlan::new().with_fault(
        NodeId::new(TWO_FACED),
        FaultKind::TwoFaced,
        Trigger::always(),
        0xE0_0D,
    );
    let loopback = MuxTransport::loopback(8).expect("bind loopback");
    let transport = ByzantineTransport::new(loopback, plan);
    let config = SvcConfig::new(3)
        .workers(1)
        .max_attempts(4)
        .quarantine_after(2)
        .min_dim(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(10))
        .recv_timeout(Duration::from_millis(800));
    let service = SortService::start(config, transport).expect("service starts");

    let keys = common::scattered_keys(16, 0xE0);
    let report = service
        .submit(JobSpec::new(keys.clone()))
        .expect("admit")
        .wait()
        .expect("the job survives the equivocator");

    assert_eq!(report.output, common::sorted(&keys), "never silently wrong");
    assert!(report.attempts >= 2, "the first attempt must fail-stop");
    // Φ_C evidence names the two-faced sender: an echoed entry came back
    // changed after travelling only `checker → P0 → checker` (Lemma 6).
    let named = report
        .detections
        .iter()
        .flatten()
        .any(|r| r.suspect == Some(NodeId::new(TWO_FACED)) && r.detail.contains("Φ_C"));
    assert!(
        named,
        "some detection carries Φ_C evidence against P{TWO_FACED}: {:?}",
        report.detections
    );
    assert_eq!(
        service.quarantined(),
        vec![TWO_FACED],
        "the equivocator itself is quarantined, no bystanders"
    );
    service.shutdown();
}
