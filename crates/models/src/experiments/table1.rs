//! The Section 5 table: fitted communication/computation constants.
//!
//! The paper measures each component of `S_FT` and the sequential baseline
//! and reports the fits
//!
//! ```text
//! S_FT:       comm = 8·log₂²N + 0.05·N·log₂N     comp = 11.5·N
//! Sequential: comm = 14·N                         comp = 0.45·N·log₂N
//! ```
//!
//! We regenerate the table by measuring our runs over a range of machine
//! sizes and fitting the *same functional forms* by least squares. Absolute
//! constants depend on the cost model's calibration; what must reproduce is
//! the form (which term dominates where) and the resulting crossover/limit
//! behaviour of Figure 7.

use std::fmt;

use aoft_sort::Algorithm;
use serde::{Deserialize, Serialize};

use crate::complexity::ModelConstants;
use crate::fitting::least_squares;
use crate::measure::{Measurement, RunRecord};
use crate::tables::TextTable;

/// The regenerated fitted-constants table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// Constants fitted to our measurements.
    pub fitted: ModelConstants,
    /// The paper's constants, for side-by-side comparison.
    pub(crate) paper: ModelConstants,
    /// `R²` of each fit: (sft comm, sft comp, seq comm, seq comp).
    pub(crate) r_squared: [f64; 4],
    /// The measurements backing the fits.
    pub(crate) records: Vec<RunRecord>,
}

/// Measures machine sizes `4..=2^max_dim` and fits the paper's forms.
///
/// The paper's two-term `S_FT` communication form omits the `log₂N` and `N`
/// cross terms that a startup-dominated small machine exhibits, so — like
/// the paper, which fitted on a real 32-node cube and extrapolated — the
/// fit is best over a range reaching at least `2^6` nodes; below that the
/// `N·log₂N` coefficient can even come out negative (see EXPERIMENTS.md).
///
/// # Panics
///
/// Panics if an honest measurement fail-stops or `max_dim < 3` (too few
/// points to fit two coefficients).
pub fn run(max_dim: u32, seed: u64) -> Table1 {
    assert!(max_dim >= 3, "need at least dims 2..=3 to fit");
    let mut records = Vec::new();
    let mut sft_comm_rows = Vec::new();
    let mut sft_comm_y = Vec::new();
    let mut sft_comp_rows = Vec::new();
    let mut sft_comp_y = Vec::new();
    let mut seq_comm_rows = Vec::new();
    let mut seq_comm_y = Vec::new();
    let mut seq_comp_rows = Vec::new();
    let mut seq_comp_y = Vec::new();

    for dim in 2..=max_dim {
        let nodes = 1usize << dim;
        let n = nodes as f64;
        let log = n.log2();

        let sft = Measurement::new(Algorithm::FaultTolerant, nodes)
            .seed(seed)
            .run()
            .expect("honest measurement");
        // Three-term basis: the startup component of the n(n+1)/2-step
        // schedule has both a log² and a log part; without the latter the
        // normal equations are ill-conditioned at benchable sizes and the
        // N·logN coefficient absorbs the residue with the wrong sign.
        sft_comm_rows.push(vec![log * log, log, n * log]);
        sft_comm_y.push(sft.comm_ticks);
        sft_comp_rows.push(vec![n]);
        sft_comp_y.push(sft.comp_ticks);
        records.push(sft);

        let seq = Measurement::new(Algorithm::HostSequential, nodes)
            .seed(seed)
            .run()
            .expect("honest measurement");
        seq_comm_rows.push(vec![n]);
        seq_comm_y.push(seq.host_comm_ticks);
        seq_comp_rows.push(vec![n * log]);
        seq_comp_y.push(seq.host_comp_ticks);
        records.push(seq);
    }

    let sft_comm = least_squares(&sft_comm_rows, &sft_comm_y);
    let sft_comp = least_squares(&sft_comp_rows, &sft_comp_y);
    let seq_comm = least_squares(&seq_comm_rows, &seq_comm_y);
    let seq_comp = least_squares(&seq_comp_rows, &seq_comp_y);

    Table1 {
        fitted: ModelConstants {
            sft_comm_log2: sft_comm.coefficients[0],
            sft_comm_log: sft_comm.coefficients[1],
            sft_comm_nlogn: sft_comm.coefficients[2],
            sft_comp_n: sft_comp.coefficients[0],
            seq_comm_n: seq_comm.coefficients[0],
            seq_comp_nlogn: seq_comp.coefficients[0],
        },
        paper: ModelConstants::PAPER,
        r_squared: [
            sft_comm.r_squared,
            sft_comp.r_squared,
            seq_comm.r_squared,
            seq_comp.r_squared,
        ],
        records,
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 5 table — fitted time components (ticks)")?;
        let mut table = TextTable::new(vec!["component", "fitted", "paper", "R²"]);
        let rows: [(&str, f64, f64, f64); 6] = [
            (
                "S_FT comm log²N",
                self.fitted.sft_comm_log2,
                self.paper.sft_comm_log2,
                self.r_squared[0],
            ),
            (
                "S_FT comm logN",
                self.fitted.sft_comm_log,
                self.paper.sft_comm_log,
                self.r_squared[0],
            ),
            (
                "S_FT comm N·logN",
                self.fitted.sft_comm_nlogn,
                self.paper.sft_comm_nlogn,
                self.r_squared[0],
            ),
            (
                "S_FT comp N",
                self.fitted.sft_comp_n,
                self.paper.sft_comp_n,
                self.r_squared[1],
            ),
            (
                "seq comm N",
                self.fitted.seq_comm_n,
                self.paper.seq_comm_n,
                self.r_squared[2],
            ),
            (
                "seq comp N·logN",
                self.fitted.seq_comp_nlogn,
                self.paper.seq_comp_nlogn,
                self.r_squared[3],
            ),
        ];
        for (name, fitted, paper, r2) in rows {
            table.row(vec![
                name.to_string(),
                format!("{fitted:.3}"),
                format!("{paper:.3}"),
                format!("{r2:.4}"),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_have_sensible_signs_and_quality() {
        let t = run(8, 11);
        // Every coefficient must come out positive with the full basis...
        assert!(t.fitted.sft_comm_log2 > 0.0, "{t}");
        assert!(t.fitted.sft_comm_nlogn > 0.0, "{t}");
        assert!(t.fitted.sft_comp_n > 0.0, "{t}");
        assert!(t.fitted.seq_comm_n > 0.0, "{t}");
        assert!(t.fitted.seq_comp_nlogn > 0.0, "{t}");
        // ...and the S_FT communication model must predict positive,
        // growing cost at scale.
        let at = |n: f64| t.fitted.sft_comm(n);
        assert!(at(1024.0) > 0.0, "{t}");
        assert!(at(65_536.0) > at(1024.0), "{t}");
        // The functional forms are the right ones: the fits should be tight.
        for (i, r2) in t.r_squared.iter().enumerate() {
            assert!(*r2 > 0.95, "component {i}: R² = {r2}\n{t}");
        }
        // Sequential host computation is calibrated to the paper exactly.
        assert!(
            (t.fitted.seq_comp_nlogn - t.paper.seq_comp_nlogn).abs() < 0.05,
            "{t}"
        );
    }

    #[test]
    fn display_renders_all_components() {
        let t = run(4, 3);
        let text = t.to_string();
        for needle in ["S_FT comm", "S_FT comp", "seq comm", "seq comp", "paper"] {
            assert!(text.contains(needle), "{text}");
        }
    }
}
