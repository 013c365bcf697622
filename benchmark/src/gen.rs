//! Inputs: everything a run feeds the system is a pure function of `--seed`.

use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;

/// Keys are uniform in ±`KEY_RANGE`, inside the composite-key range of a
/// 16-job batch (±2^20), so every job is batchable.
pub const KEY_RANGE: i32 = 500_000;

/// SplitMix64: small, seedable, and good enough for uniform keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn key(&mut self) -> i32 {
        let span = 2 * KEY_RANGE as u64 + 1;
        (self.next_u64() % span) as i32 - KEY_RANGE
    }

    pub fn keys(&mut self, n: usize) -> Vec<i32> {
        (0..n).map(|_| self.key()).collect()
    }
}

/// The jobs of one run: a fixed pool of distinct key vectors the load
/// generator cycles through, so both arms of a round sort identical keys.
#[derive(Debug, Clone)]
pub struct JobPool {
    jobs: Vec<Vec<i32>>,
}

impl JobPool {
    pub fn new(seed: u64, jobs: usize, keys_per_job: usize) -> Self {
        let mut rng = Rng::new(seed);
        JobPool {
            jobs: (0..jobs).map(|_| rng.keys(keys_per_job)).collect(),
        }
    }

    pub fn get(&self, index: u64) -> &[i32] {
        &self.jobs[(index % self.jobs.len() as u64) as usize]
    }
}

/// The predicate-detected fault kinds the faulted jobs cycle through; each
/// fail-stops through Φ_P/Φ_F/Φ_C, never through a receive timeout, so a
/// recovered job's latency is not the `recv_timeout` constant.
pub const FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::CorruptValue,
    FaultKind::TwoFaced,
    FaultKind::StuckStale,
    FaultKind::Equivocate,
    FaultKind::CorruptLbs,
];

/// Every `FAULT_PERIOD`-th job of a faulted stream carries a fault.
pub const FAULT_PERIOD: u64 = 4;

/// The one-node fault plan of faulted job number `ordinal` (0, 1, 2, …):
/// kinds cycle through [`FAULT_KINDS`], nodes through `0..nodes`, and the
/// adversary's own seed derives from `seed` and the ordinal.
pub fn fault_plan(seed: u64, ordinal: u64, nodes: u32) -> FaultPlan {
    let kind = FAULT_KINDS[(ordinal % FAULT_KINDS.len() as u64) as usize];
    let node = (ordinal % nodes as u64) as u32;
    let fault_seed = Rng::new(seed ^ ordinal.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64();
    // From the second send on: environmental assumption 5 trusts the data
    // through the first exchange, so a lie told there is not S_FT's to catch.
    FaultPlan::new().with_fault(NodeId::new(node), kind, Trigger::from_seq(1), fault_seed)
}

/// The fault carried by job `index` of a faulted stream, if any.
pub fn stream_fault(seed: u64, index: u64, nodes: u32) -> Option<FaultPlan> {
    (index % FAULT_PERIOD == FAULT_PERIOD - 1)
        .then(|| fault_plan(seed, index / FAULT_PERIOD, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_a_pure_function_of_the_seed() {
        let a = JobPool::new(7, 16, 64);
        let b = JobPool::new(7, 16, 64);
        let c = JobPool::new(8, 16, 64);
        for i in 0..16 {
            assert_eq!(a.get(i), b.get(i));
        }
        assert_ne!(a.get(0), c.get(0));
        assert_ne!(a.get(0), a.get(1));
        assert_eq!(a.get(16), a.get(0), "the pool cycles");
    }

    #[test]
    fn keys_stay_inside_the_composite_range() {
        let mut rng = Rng::new(1);
        let keys = rng.keys(100_000);
        assert!(keys.iter().all(|k| (-KEY_RANGE..=KEY_RANGE).contains(k)));
        assert!(keys.iter().any(|&k| k < -KEY_RANGE / 2));
        assert!(keys.iter().any(|&k| k > KEY_RANGE / 2));
    }

    #[test]
    fn fault_schedule_is_periodic_and_reproducible() {
        let faulted: Vec<u64> = (0..40)
            .filter(|&i| stream_fault(3, i, 8).is_some())
            .collect();
        assert_eq!(faulted, vec![3, 7, 11, 15, 19, 23, 27, 31, 35, 39]);
        assert_eq!(stream_fault(3, 7, 8), stream_fault(3, 7, 8));
        let plan = stream_fault(3, 7, 8).unwrap();
        assert_eq!(plan.specs()[0].kind, FAULT_KINDS[1]);
        assert_eq!(plan.specs()[0].node, NodeId::new(1));
    }

    /// With every faulted first attempt detected and retried once, a stream
    /// of `n` jobs takes exactly `n + n / FAULT_PERIOD` attempts: 1250 for
    /// 1000 jobs, i.e. `attempts_per_job` = 1.25. (The measured 1.238 is
    /// this with the ~5 % of faults that are masked taken off.)
    #[test]
    fn fault_schedule_reproduces_attempts_per_job() {
        let attempts = |jobs: u64| {
            let faulted = (0..jobs)
                .filter(|&i| stream_fault(9, i, 8).is_some())
                .count() as u64;
            jobs + faulted
        };
        assert_eq!(attempts(1000), 1250);
        assert_eq!(attempts(400), 500);
        assert_eq!(attempts(1237), 1237 + 309);
        assert_eq!(attempts(1000) as f64 / 1000.0, 1.25);
    }
}
