//! Figure 6: measured sorting time — `S_NR` vs `S_FT` vs host-sequential,
//! one 32-bit key per node, N ∈ {4, 8, 16, 32}.
//!
//! The paper's observation: at these small sizes the host sort's constant
//! factors still win ("the execution results are inconclusive since the
//! cube we have available is very small") while the theoretical curves show
//! `S_FT` overtaking at larger N — which Figure 7 then projects.

use std::fmt;

use aoft_sort::Algorithm;
use serde::{Deserialize, Serialize};

use crate::complexity::ModelConstants;
use crate::measure::{Measurement, RunRecord};
use crate::tables::{ticks, TextTable};

/// One machine size's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Machine size `N`.
    pub nodes: usize,
    /// Measured `S_NR` makespan, ticks.
    pub(crate) snr_ticks: f64,
    /// Measured `S_FT` makespan, ticks.
    pub sft_ticks: f64,
    /// Measured host-sequential makespan, ticks.
    pub(crate) seq_ticks: f64,
    /// Paper-model `S_FT` prediction, ticks.
    pub(crate) theory_sft: f64,
    /// Paper-model sequential prediction, ticks.
    pub(crate) theory_seq: f64,
}

/// The regenerated Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6 {
    /// One row per machine size.
    pub rows: Vec<Fig6Row>,
    /// Full per-run records backing the rows.
    pub(crate) records: Vec<RunRecord>,
}

/// Runs the Figure 6 measurements for machine sizes `4..=2^max_dim`.
///
/// # Panics
///
/// Panics if an honest measurement fail-stops (infrastructure bug).
pub fn run(max_dim: u32, seed: u64) -> Fig6 {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for dim in 2..=max_dim {
        let nodes = 1usize << dim;
        let mut tick = |algorithm: Algorithm| -> f64 {
            let record = Measurement::new(algorithm, nodes)
                .seed(seed)
                .run()
                .expect("honest measurement");
            let elapsed = record.elapsed_ticks;
            records.push(record);
            elapsed
        };
        let snr_ticks = tick(Algorithm::NonRedundant);
        let sft_ticks = tick(Algorithm::FaultTolerant);
        let seq_ticks = tick(Algorithm::HostSequential);
        let n = nodes as f64;
        rows.push(Fig6Row {
            nodes,
            snr_ticks,
            sft_ticks,
            seq_ticks,
            theory_sft: ModelConstants::PAPER.sft_total(n),
            theory_seq: ModelConstants::PAPER.seq_total(n),
        });
    }
    Fig6 { rows, records }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6 — sorting time (ticks), 1 key/node, uniform random input"
        )?;
        let mut table = TextTable::new(vec![
            "N",
            "S_NR",
            "S_FT",
            "host-seq",
            "paper S_FT",
            "paper seq",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.nodes.to_string(),
                ticks(r.snr_ticks),
                ticks(r.sft_ticks),
                ticks(r.seq_ticks),
                ticks(r.theory_sft),
                ticks(r.theory_seq),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` if the measured curves have the paper's shape: `S_NR` fastest
    /// everywhere and `S_FT`'s overhead growing no faster than the
    /// sequential baseline.
    fn shape_holds(fig: &Fig6) -> bool {
        fig.rows.iter().all(|r| r.snr_ticks <= r.sft_ticks)
            && fig.rows.windows(2).all(|w| {
                let growth_sft = w[1].sft_ticks / w[0].sft_ticks;
                let growth_seq = w[1].seq_ticks / w[0].seq_ticks;
                growth_sft <= growth_seq * 1.5
            })
    }

    #[test]
    fn fig6_runs_and_has_shape() {
        let fig = run(4, 42);
        assert_eq!(fig.rows.len(), 3); // dims 2..=4
        assert_eq!(fig.records.len(), 9);
        assert!(fig.records.iter().all(|r| r.output_correct));
        assert!(shape_holds(&fig), "{fig}");
        let text = fig.to_string();
        assert!(text.contains("Figure 6"));
        assert!(text.contains("16"));
    }

    #[test]
    fn sizes_double_per_row() {
        let fig = run(3, 1);
        assert_eq!(
            fig.rows.iter().map(|r| r.nodes).collect::<Vec<_>>(),
            vec![4, 8]
        );
    }
}
