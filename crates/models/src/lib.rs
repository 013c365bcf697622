//! Analytic models and the experiment harness for the AOFT reproduction.
//!
//! Section 5 of the paper evaluates `S_FT` with one table and three figures;
//! this crate regenerates all of them:
//!
//! | artifact | module | content |
//! |---|---|---|
//! | Figure 6 | [`experiments::fig6`] | measured sorting time, `S_NR` vs `S_FT` vs host-sequential, N ∈ {4..32} |
//! | Section 5 table | [`experiments::table1`] | fitted communication/computation constants |
//! | Figure 7 | [`experiments::fig7`] | projected run times for large cubes |
//! | Figure 8 | [`experiments::fig8`] | block bitonic sort/merge vs host sorting |
//! | Section 4 | [`experiments::coverage`] | error-coverage campaign (Theorem 3, empirically) |
//!
//! Supporting machinery: [`workload`] generators, a tiny `fitting`
//! least-squares solver, the paper's closed-form cost models
//! ([`complexity`]), single-run measurement ([`measure`]) and plain-text
//! table rendering ([`tables`]).
//!
//! The `experiments` binary drives everything:
//!
//! ```text
//! cargo run -p aoft-models --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations, unreachable_pub)]

pub mod complexity;
pub mod experiments;
mod fitting;
pub mod measure;
pub mod tables;
pub mod workload;
