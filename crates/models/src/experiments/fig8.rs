//! Figure 8: block bitonic sort/merge (`m` elements per node) vs host
//! sorting.
//!
//! The paper's closing experiment: keeping `m` keys per node preserves the
//! message structure, scales every predicate by `m`, and — because the host
//! must now move and sort `N·m` keys — shifts the crossover toward smaller
//! machines ("virtually a right shift of the plot of Figure 6"). The paper
//! plots one representative `m`; we sweep several.

use std::fmt;

use aoft_sort::Algorithm;
use serde::{Deserialize, Serialize};

use crate::measure::{Measurement, RunRecord};
use crate::tables::{percent, ticks, TextTable};

/// One `(N, m)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Machine size `N`.
    pub nodes: usize,
    /// Keys per node `m`.
    pub block: usize,
    /// Measured `S_FT` makespan, ticks.
    pub sft_ticks: f64,
    /// Measured host-sequential makespan, ticks.
    pub(crate) seq_ticks: f64,
    /// `S_FT / sequential`.
    pub ratio: f64,
}

/// The regenerated Figure 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8 {
    /// One row per `(N, m)` pair, block-size-major.
    pub rows: Vec<Fig8Row>,
    /// Full per-run records backing the rows.
    pub(crate) records: Vec<RunRecord>,
}

impl Fig8 {
    /// The rows for one block size.
    pub(crate) fn for_block(&self, m: usize) -> Vec<&Fig8Row> {
        self.rows.iter().filter(|r| r.block == m).collect()
    }

    /// `true` if larger blocks shift the advantage toward `S_FT` (the
    /// "right shift" of the paper): for each machine size, the
    /// `S_FT`/sequential ratio is no worse at the largest block size than
    /// at the smallest.
    pub fn right_shift_holds(&self) -> bool {
        let mut blocks: Vec<usize> = self.rows.iter().map(|r| r.block).collect();
        blocks.sort_unstable();
        blocks.dedup();
        let (Some(&small), Some(&large)) = (blocks.first(), blocks.last()) else {
            return false;
        };
        if small == large {
            return true;
        }
        self.for_block(small).iter().all(|small_row| {
            self.for_block(large)
                .iter()
                .find(|r| r.nodes == small_row.nodes)
                .is_some_and(|large_row| large_row.ratio <= small_row.ratio * 1.05)
        })
    }
}

/// Runs the Figure 8 sweep: machine dims `2..=max_dim` × block sizes.
///
/// # Panics
///
/// Panics if an honest measurement fail-stops.
pub fn run(max_dim: u32, blocks: &[usize], seed: u64) -> Fig8 {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &m in blocks {
        for dim in 2..=max_dim {
            let nodes = 1usize << dim;
            let sft = Measurement::new(Algorithm::FaultTolerant, nodes)
                .block(m)
                .seed(seed)
                .run()
                .expect("honest measurement");
            let seq = Measurement::new(Algorithm::HostSequential, nodes)
                .block(m)
                .seed(seed)
                .run()
                .expect("honest measurement");
            rows.push(Fig8Row {
                nodes,
                block: m,
                sft_ticks: sft.elapsed_ticks,
                seq_ticks: seq.elapsed_ticks,
                ratio: sft.elapsed_ticks / seq.elapsed_ticks,
            });
            records.push(sft);
            records.push(seq);
        }
    }
    Fig8 { rows, records }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8 — block sorting time (ticks), m keys/node")?;
        let mut table = TextTable::new(vec!["m", "N", "S_FT", "host-seq", "S_FT/seq"]);
        for r in &self.rows {
            table.row(vec![
                r.block.to_string(),
                r.nodes.to_string(),
                ticks(r.sft_ticks),
                ticks(r.seq_ticks),
                percent(r.ratio),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_right_shifts() {
        let fig = run(3, &[4, 32], 5);
        assert_eq!(fig.rows.len(), 4); // 2 dims × 2 block sizes
        assert!(fig.records.iter().all(|r| r.output_correct));
        assert_eq!(fig.for_block(4).len(), 2);
        assert!(fig.right_shift_holds(), "{fig}");
    }

    #[test]
    fn display_includes_block_sizes() {
        let fig = run(2, &[2], 1);
        let text = fig.to_string();
        assert!(text.contains("Figure 8"));
        assert!(text.contains("S_FT/seq"));
    }
}
