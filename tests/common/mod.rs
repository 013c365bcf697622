//! Helpers shared across the integration-test binaries.
#![allow(dead_code)] // not every test binary uses every helper

use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;

/// A sorted copy of `keys` — the expected output every sort run is checked
/// against. Hoisted here so individual tests don't each re-spell the
/// clone-and-sort dance.
pub fn sorted(keys: &[i32]) -> Vec<i32> {
    let mut expected = keys.to_vec();
    expected.sort_unstable();
    expected
}

/// Deterministic scattered keys: a multiplicative hash over `0..count`,
/// folded into `i16` range. `seed` varies the sequence between tests that
/// should not share data.
pub fn scattered_keys(count: usize, seed: u64) -> Vec<i32> {
    (0..count as i64)
        .map(|x| {
            let mixed = x.wrapping_add(seed as i64).wrapping_mul(2_654_435_761);
            (mixed % 65_536 - 32_768) as i32
        })
        .collect()
}

/// A plan in which `node` goes fail-silent on each of its links from that
/// link's send number `from_send` (counted from 0). Mounted on the wire by
/// `ByzantineTransport`, the crash outlives one run: the service's link
/// cache keeps each link's count across jobs.
pub fn crash(node: u32, from_send: u64, seed: u64) -> FaultPlan {
    FaultPlan::new().with_fault(
        NodeId::new(node),
        FaultKind::Crash,
        Trigger::from_seq(from_send),
        seed,
    )
}

/// Batch flushes by `trigger` on a Prometheus scrape, summed over every
/// `cube` label (a lone service's samples carry none).
pub fn flushes(scrape: &str, trigger: &str) -> u64 {
    let label = format!("trigger=\"{trigger}\"}}");
    scrape
        .lines()
        .filter(|line| line.starts_with("aoft_batch_flushes_total{") && line.contains(&label))
        .map(|line| {
            let (_, value) = line.rsplit_once(' ').expect("a sample line");
            value.parse::<u64>().expect("a counter value")
        })
        .sum()
}
