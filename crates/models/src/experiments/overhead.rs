//! The Section 3 headline: piggybacking gives fault tolerance with "no
//! increase in message complexity … although the length of the messages
//! increases".
//!
//! This experiment tabulates, per machine size, the exact message and word
//! counts of `S_NR` vs `S_FT` (and the separate-shipping ablation), checking
//! the schedule-level identities:
//!
//! * `S_NR` sends `N·n(n+1)/2` messages;
//! * `S_FT` adds exactly the final verification stage (`N·n` messages) and
//!   nothing else;
//! * the separate-shipping strawman doubles the main-loop count;
//! * `S_FT`'s word volume carries the `Θ(N·log₂N)`-per-node piggyback.

use std::fmt;

use aoft_hypercube::Hypercube;
use aoft_sim::{CostModel, Engine, SimConfig};
use aoft_sort::{block, SftProgram, Shipping, SnrProgram};
use serde::{Deserialize, Serialize};

use crate::tables::TextTable;
use crate::workload::Workload;

/// One machine size's traffic accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Machine size `N`.
    pub nodes: usize,
    /// Total `S_NR` messages.
    pub(crate) snr_msgs: u64,
    /// Total `S_FT` messages.
    pub(crate) sft_msgs: u64,
    /// Total separate-shipping messages.
    pub(crate) separate_msgs: u64,
    /// Total `S_NR` payload words.
    pub(crate) snr_words: u64,
    /// Total `S_FT` payload words.
    pub(crate) sft_words: u64,
    /// `S_FT` words / `S_NR` words.
    pub(crate) word_ratio: f64,
}

/// The regenerated message-complexity comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Overhead {
    /// One row per machine size.
    pub rows: Vec<OverheadRow>,
}

impl Overhead {
    /// The schedule identities behind the "no extra messages" claim.
    pub fn identities_hold(&self) -> bool {
        self.rows.iter().all(|r| {
            let n = r.nodes.trailing_zeros() as u64;
            let main_loop = r.nodes as u64 * n * (n + 1) / 2;
            let final_stage = r.nodes as u64 * n;
            r.snr_msgs == main_loop
                && r.sft_msgs == main_loop + final_stage
                && r.separate_msgs == 2 * main_loop + final_stage
        })
    }
}

/// Counts traffic for machine dims `1..=max_dim`.
///
/// # Panics
///
/// Panics if an honest run fail-stops.
pub fn run(max_dim: u32, seed: u64) -> Overhead {
    let mut rows = Vec::new();
    for dim in 1..=max_dim {
        let nodes = 1usize << dim;
        let keys = Workload::UniformRandom.generate(nodes, seed);
        let engine = Engine::new(
            Hypercube::new(dim).expect("benchable dims"),
            SimConfig::new().cost_model(CostModel::ncube_1989()),
        );
        let blocks = block::distribute(&keys, nodes);

        let snr = engine.run(&SnrProgram::new(blocks.clone()));
        let sft = engine.run(&SftProgram::new(blocks.clone()));
        let sep = engine.run(&SftProgram::new(blocks).with_shipping(Shipping::Separate));
        for report in [&snr, &sft, &sep] {
            assert!(!report.is_fail_stop(), "honest run");
        }

        let snr_words = snr.metrics().total_words();
        let sft_words = sft.metrics().total_words();
        rows.push(OverheadRow {
            nodes,
            snr_msgs: snr.metrics().total_msgs(),
            sft_msgs: sft.metrics().total_msgs(),
            separate_msgs: sep.metrics().total_msgs(),
            snr_words,
            sft_words,
            word_ratio: sft_words as f64 / snr_words as f64,
        });
    }
    Overhead { rows }
}

impl fmt::Display for Overhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section 3 — message complexity: S_FT adds only the final stage"
        )?;
        let mut table = TextTable::new(vec![
            "N",
            "S_NR msgs",
            "S_FT msgs",
            "separate msgs",
            "S_NR words",
            "S_FT words",
            "word ratio",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.nodes.to_string(),
                r.snr_msgs.to_string(),
                r.sft_msgs.to_string(),
                r.separate_msgs.to_string(),
                r.snr_words.to_string(),
                r.sft_words.to_string(),
                format!("{:.2}x", r.word_ratio),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "identities (S_NR = N·n(n+1)/2; S_FT = +N·n final stage; separate = 2x main loop): {}",
            if self.identities_hold() {
                "HOLD"
            } else {
                "VIOLATED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_hold_across_sizes() {
        let overhead = run(5, 42);
        assert_eq!(overhead.rows.len(), 5);
        assert!(overhead.identities_hold(), "{overhead}");
    }

    #[test]
    fn word_ratio_grows_with_machine_size() {
        // The piggyback's N·logN volume vs S_NR's logN-per-node volume:
        // the ratio must grow with N.
        let overhead = run(5, 1);
        for w in overhead.rows.windows(2) {
            assert!(
                w[1].word_ratio > w[0].word_ratio,
                "ratio must grow: {overhead}"
            );
        }
        assert!(overhead.rows.last().unwrap().word_ratio > 4.0);
    }

    #[test]
    fn display_mentions_identities() {
        let overhead = run(2, 0);
        let text = overhead.to_string();
        assert!(text.contains("message complexity"));
        assert!(text.contains("HOLD"));
    }
}
