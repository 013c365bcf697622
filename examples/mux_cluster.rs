//! A d=3 hypercube as eight threads exchanging over loopback mux sessions.
//!
//! ```text
//! cargo run --example mux_cluster
//! ```
//!
//! The simulator's node programs are transport-agnostic: handing
//! [`SortBuilder::run_on`] a [`MuxTransport`] runs the identical `S_FT`
//! schedule with every compare-exchange crossing a real socket — framed,
//! checksummed, heartbeat-monitored, one session per peer pair. Two runs
//! are shown:
//!
//! 1. a clean sort of 64 keys across the 8 nodes;
//! 2. the same sort with node 5's outgoing links cut mid-stage (a
//!    transport-level fail-silent kill): the machine fail-stops and the
//!    host receives an [`ErrorReport`] naming the silent peer — the
//!    paper's "never silently wrong" guarantee holding over a lossy
//!    physical medium.

mod common;

use aoft::adv::ByzantineTransport;
use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::net::MuxTransport;
use aoft::sort::SortError;
use common::{demo_keys, sft_builder, sorted};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let keys = demo_keys(64, 0);

    // Run 1: the cube sorts over TCP.
    let report = sft_builder(keys.clone(), 8).run_on(MuxTransport::loopback(8)?)?;
    assert_eq!(report.output(), sorted(&keys).as_slice());
    println!(
        "clean run: {} keys sorted over loopback TCP by {} nodes \
         ({} messages, {} simulated ticks)",
        report.output().len(),
        report.blocks().len(),
        report.metrics().total_msgs(),
        report.elapsed(),
    );

    // Run 2: cut every link out of node 5 after its second send — the node
    // keeps computing and believes its sends succeed, but the wire is dead.
    let crash = FaultPlan::new().with_fault(
        NodeId::new(5),
        FaultKind::Crash,
        Trigger::from_seq(2),
        0xA0F7,
    );
    let faulty = ByzantineTransport::new(MuxTransport::loopback(8)?, crash);
    match sft_builder(keys, 8).run_on(faulty) {
        Ok(_) => unreachable!("a silenced peer must not yield a sorted result"),
        Err(SortError::Detected { reports, .. }) => {
            println!(
                "killed run: fail-stop with {} error report(s):",
                reports.len()
            );
            for report in &reports {
                println!("  {report}");
            }
        }
        Err(other) => return Err(other.into()),
    }
    Ok(())
}
