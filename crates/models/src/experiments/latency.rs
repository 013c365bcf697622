//! Detection latency: *when* does each scheme notice the fault?
//!
//! Theorem 3 is about *whether* a wrong result can escape; an equally
//! practical question is how much work is wasted before the fail-stop. The
//! host-verified baseline can only object after the whole sort has run and
//! been uploaded; `S_FT` checks at every stage boundary, so detection lands
//! mid-algorithm. This experiment injects the same single faults into both
//! schemes and compares the virtual time of the first error report against
//! the length of an honest run.

use std::fmt;

use aoft_faults::{FaultKind, FaultPlan, Trigger};
use aoft_hypercube::NodeId;
use aoft_sort::{Algorithm, SortBuilder, SortError};
use serde::{Deserialize, Serialize};

use crate::tables::{percent, TextTable};
use crate::workload::Workload;

/// Aggregated detection-latency figures for one fault class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Fault class name.
    pub kind: String,
    /// Trials in which `S_FT` detected the fault.
    pub(crate) sft_detections: u32,
    /// Mean `S_FT` detection time as a fraction of the honest makespan.
    pub(crate) sft_mean_fraction: f64,
    /// Trials in which the host-verified baseline detected the fault.
    pub(crate) host_detections: u32,
    /// Mean host-verified detection time as a fraction of *its* honest
    /// makespan.
    pub(crate) host_mean_fraction: f64,
}

/// The detection-latency comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Latency {
    /// One row per fault class.
    pub rows: Vec<LatencyRow>,
    /// Honest `S_FT` makespan (ticks) used for normalization.
    pub(crate) sft_baseline_ticks: f64,
    /// Honest host-verified makespan (ticks) used for normalization.
    pub(crate) host_baseline_ticks: f64,
}

impl Latency {
    /// `true` if `S_FT` detects earlier (as a fraction of its own run) than
    /// the host baseline for every *value* fault class — the classes where
    /// the host's only detector is the end-of-run Theorem 1 check
    /// (`host_mean_fraction ≈ 1`). Omission faults are excluded: both
    /// schemes catch those with timeouts, whose virtual timestamps are not
    /// comparable across schemes (the starved node's clock simply stops
    /// advancing).
    pub(crate) fn sft_detects_earlier(&self) -> bool {
        self.rows
            .iter()
            .filter(|r| r.sft_detections > 0 && r.host_detections > 0 && r.host_mean_fraction > 0.9)
            .all(|r| r.sft_mean_fraction < r.host_mean_fraction)
    }
}

fn detection_fraction(
    algorithm: Algorithm,
    plan: &FaultPlan,
    keys: &[i32],
    baseline_ticks: f64,
) -> Option<f64> {
    let result = SortBuilder::new(algorithm)
        .keys(keys.to_vec())
        .fault_plan(plan.clone())
        .recv_timeout(std::time::Duration::from_millis(400))
        .run();
    match result {
        Err(SortError::Detected { reports, .. }) => {
            let first = reports.first()?;
            Some(first.at.as_ticks_f64() / baseline_ticks)
        }
        _ => None,
    }
}

/// Runs the latency comparison on a `2^dim`-node machine.
///
/// # Panics
///
/// Panics if the honest baseline runs fail.
pub fn run(dim: u32, seed: u64) -> Latency {
    let nodes = 1usize << dim;
    let keys = Workload::UniformRandom.generate(nodes, seed);

    let honest = |algorithm: Algorithm| -> f64 {
        SortBuilder::new(algorithm)
            .keys(keys.clone())
            .run()
            .expect("honest baseline")
            .elapsed()
            .as_ticks_f64()
    };
    let sft_baseline_ticks = honest(Algorithm::FaultTolerant);
    let host_baseline_ticks = honest(Algorithm::HostVerified);

    let mut rows = Vec::new();
    for kind in FaultKind::ALL {
        let mut sft_fracs = Vec::new();
        let mut host_fracs = Vec::new();
        for node in 0..nodes as u32 {
            for at in [1u64, 2, 3] {
                let plan = FaultPlan::new().with_fault(
                    NodeId::new(node),
                    kind,
                    Trigger::from_seq(at),
                    seed ^ (u64::from(node) << 8) ^ at,
                );
                if let Some(f) =
                    detection_fraction(Algorithm::FaultTolerant, &plan, &keys, sft_baseline_ticks)
                {
                    sft_fracs.push(f);
                }
                if let Some(f) =
                    detection_fraction(Algorithm::HostVerified, &plan, &keys, host_baseline_ticks)
                {
                    host_fracs.push(f);
                }
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        rows.push(LatencyRow {
            kind: kind.name().to_string(),
            sft_detections: sft_fracs.len() as u32,
            sft_mean_fraction: mean(&sft_fracs),
            host_detections: host_fracs.len() as u32,
            host_mean_fraction: mean(&host_fracs),
        });
    }
    Latency {
        rows,
        sft_baseline_ticks,
        host_baseline_ticks,
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Detection latency — first report time / honest makespan (lower = earlier)"
        )?;
        let mut table = TextTable::new(vec![
            "fault class",
            "S_FT det.",
            "S_FT when",
            "host det.",
            "host when",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.kind.clone(),
                r.sft_detections.to_string(),
                percent(r.sft_mean_fraction),
                r.host_detections.to_string(),
                percent(r.host_mean_fraction),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "S_FT detects earlier in every value-fault class (host stuck at ~100%): {}",
            if self.sft_detects_earlier() {
                "YES"
            } else {
                "NO"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sft_detects_earlier_than_the_host() {
        let latency = run(2, 17);
        assert!(latency.sft_detects_earlier(), "{latency}");
        // Every class must be detected at least once by each scheme.
        for row in &latency.rows {
            assert!(row.sft_detections > 0, "{latency}");
        }
        let text = latency.to_string();
        assert!(text.contains("Detection latency"));
    }
}
