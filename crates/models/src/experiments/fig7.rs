//! Figure 7: projected sorting time for large systems.
//!
//! The paper extrapolates the fitted constants to the machine sizes "we are
//! concerned with in a real multicomputer application" and shows `S_FT`
//! rapidly overtaking host sorting, approaching 11% of its cost in the
//! limit. We project both the paper's constants and the constants fitted to
//! our own measurements (Table 1), and report the crossover each predicts.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::complexity::ModelConstants;
use crate::tables::{percent, ticks, TextTable};

/// One projected machine size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Machine size `N`.
    pub nodes: u64,
    /// Projected `S_FT` time, ticks.
    pub sft_ticks: f64,
    /// Projected sequential time, ticks.
    pub seq_ticks: f64,
    /// `S_FT / sequential`.
    pub ratio: f64,
}

/// The regenerated Figure 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7 {
    /// The constants being projected.
    pub(crate) constants: ModelConstants,
    /// Label for the constants ("paper" or "fitted").
    pub label: String,
    /// One row per projected size.
    pub rows: Vec<Fig7Row>,
    /// Smallest projected size where `S_FT` wins.
    pub crossover: Option<u64>,
    /// Asymptotic `S_FT / sequential` ratio.
    pub limit_ratio: f64,
}

/// Projects `constants` over `2^min_dim ..= 2^max_dim`.
pub fn run(constants: ModelConstants, label: &str, min_dim: u32, max_dim: u32) -> Fig7 {
    let rows = (min_dim..=max_dim)
        .map(|dim| {
            let nodes = 1u64 << dim;
            let n = nodes as f64;
            let sft_ticks = constants.sft_total(n);
            let seq_ticks = constants.seq_total(n);
            Fig7Row {
                nodes,
                sft_ticks,
                seq_ticks,
                ratio: sft_ticks / seq_ticks,
            }
        })
        .collect();
    Fig7 {
        constants,
        label: label.to_string(),
        rows,
        crossover: constants.crossover(),
        limit_ratio: constants.limit_ratio(),
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 — projected sorting time, {} constants",
            self.label
        )?;
        let mut table = TextTable::new(vec!["N", "S_FT", "host-seq", "S_FT/seq"]);
        for r in &self.rows {
            table.row(vec![
                r.nodes.to_string(),
                ticks(r.sft_ticks),
                ticks(r.seq_ticks),
                percent(r.ratio),
            ]);
        }
        write!(f, "{table}")?;
        match self.crossover {
            Some(n) => writeln!(f, "crossover: S_FT wins from N = {n}")?,
            None => writeln!(f, "crossover: none up to 2^30")?,
        }
        writeln!(
            f,
            "limit ratio (S_FT/seq as N → ∞): {}",
            percent(self.limit_ratio)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_projection_crosses_and_heads_to_eleven_percent() {
        let fig = run(ModelConstants::PAPER, "paper", 2, 20);
        assert_eq!(fig.rows.len(), 19);
        assert!((fig.limit_ratio - 0.111).abs() < 0.01);
        let last = fig.rows.last().unwrap();
        assert!(
            last.ratio < 0.6,
            "at 2^20, S_FT costs well under the host: {}",
            last.ratio
        );
        let first = fig.rows.first().unwrap();
        assert!(first.ratio > 1.0, "tiny machines favour the host");
        assert!(fig.crossover.is_some());
    }

    #[test]
    fn ratios_decrease_monotonically() {
        let fig = run(ModelConstants::PAPER, "paper", 3, 18);
        for w in fig.rows.windows(2) {
            assert!(w[1].ratio < w[0].ratio);
        }
    }

    #[test]
    fn display_mentions_crossover() {
        let fig = run(ModelConstants::PAPER, "paper", 2, 10);
        let text = fig.to_string();
        assert!(text.contains("crossover"));
        assert!(text.contains("limit ratio"));
    }
}
