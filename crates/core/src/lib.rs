//! Reliable distributed sorting through the application-oriented fault
//! tolerance paradigm — the core contribution of McMillin & Ni (ICDCS 1989).
//!
//! This crate implements, on top of the [`aoft_sim`] multicomputer:
//!
//! * **`S_NR`** ([`SnrProgram`]) — the non-redundant distributed bitonic sort
//!   of Figure 2, in both one-element-per-node and block (m elements per
//!   node) form;
//! * **`S_FT`** ([`SftProgram`]) — the fault-tolerant bitonic sort of
//!   Figure 3: intermediate bitonic sequences are piggybacked on the sort's
//!   own messages and checked by the *constraint predicate*
//!   Φ = (Φ_P, Φ_F, Φ_C);
//! * the **constraint predicates** ([`predicates`]) — progress (Figure 4a),
//!   feasibility (Figure 4b) and consistency (Figure 4c) with `vect_mask`
//!   and `bit_compare`;
//! * the **host baselines** of Section 5 ([`host`]) — gather-sort-scatter
//!   sequential sorting and host verification via Theorem 1;
//! * a high-level [`SortBuilder`] API tying it all together.
//!
//! # Quickstart
//!
//! Sort the paper's Figure 5 worked example with the fault-tolerant
//! algorithm:
//!
//! ```
//! use aoft_sort::{Algorithm, SortBuilder};
//!
//! let report = SortBuilder::new(Algorithm::FaultTolerant)
//!     .keys(vec![10, 8, 3, 9, 4, 2, 7, 5])
//!     .run()?;
//! assert_eq!(report.output(), &[2, 3, 4, 5, 7, 8, 9, 10]);
//! # Ok::<(), aoft_sort::SortError>(())
//! ```
//!
//! Inject a Byzantine two-faced fault and observe the fail-stop:
//!
//! ```
//! use aoft_faults::{FaultKind, FaultPlan, Trigger};
//! use aoft_hypercube::NodeId;
//! use aoft_sort::{Algorithm, SortBuilder, SortError};
//!
//! let plan = FaultPlan::new()
//!     .with_fault(NodeId::new(5), FaultKind::TwoFaced, Trigger::from_seq(1), 7);
//! let result = SortBuilder::new(Algorithm::FaultTolerant)
//!     .keys(vec![10, 8, 3, 9, 4, 2, 7, 5])
//!     .fault_plan(plan)
//!     .run();
//! match result {
//!     Err(SortError::Detected { reports, .. }) => assert!(!reports.is_empty()),
//!     other => panic!("expected fail-stop, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations, unreachable_pub)]

pub mod bitonic;
pub mod block;
pub mod composite;
pub mod diagnosis;
pub mod host;
mod lbs;
mod msg;
pub mod predicates;
mod runner;
mod sft;
mod snr;
mod theorem1;
mod violation;

pub use bitonic::{is_bitonic, is_circular_bitonic};
pub use block::{Block, MergeScratch};
pub use composite::{demux, mux, CompositeCodec, DemuxError};
pub use lbs::LbsBuffer;
pub use msg::{LbsWire, Msg};
pub use runner::{Algorithm, SortBuilder, SortDirection, SortError, SortReport};
pub use sft::{SftProgram, Shipping};
pub use snr::SnrProgram;
pub use violation::Violation;

/// The key type being sorted: 32-bit integers, as in the paper's Section 5
/// experiments.
pub type Key = i32;

/// `true` if the aligned subcube of dimension `dim` containing `start` is
/// sorted *ascending* by the bitonic schedule, `false` for descending.
///
/// After stage `s−1` of the bitonic sort, each subcube `SC_s` is monotone;
/// its direction is given by bit `s` of any member label: subcubes that form
/// the lower half of their parent sort ascending, upper halves descending,
/// so that each parent holds an ascending-then-descending bitonic sequence.
/// For the full cube (`dim = n`) bit `n` is always 0: the final sort is
/// ascending.
pub fn subcube_ascending(sub: aoft_hypercube::Subcube) -> bool {
    !sub.start().bit(sub.dim())
}

#[cfg(test)]
mod tests {
    use aoft_hypercube::{NodeId, Subcube};

    use super::*;

    #[test]
    fn direction_alternates_between_buddies() {
        for dim in 0..4u32 {
            for node in 0..16u32 {
                let sub = Subcube::home(dim, NodeId::new(node));
                assert_ne!(
                    subcube_ascending(sub),
                    subcube_ascending(sub.buddy()),
                    "buddies sort in opposite directions"
                );
            }
        }
    }

    #[test]
    fn full_cube_is_always_ascending() {
        for n in 0..5u32 {
            let sub = Subcube::home(n, NodeId::new(0));
            assert!(subcube_ascending(sub));
        }
    }

    #[test]
    fn direction_matches_paper_mod_test() {
        // S_NR's branch: `node mod 2^{i+2} < 2^{i+1}` selects the ascending
        // region during stage i — the same as asking whether the node's
        // SC_{i+1} home subcube sorts ascending.
        for i in 0..4u32 {
            for node in 0..64u32 {
                let paper = node % (1 << (i + 2)) < (1 << (i + 1));
                let sub = Subcube::home(i + 1, NodeId::new(node));
                assert_eq!(subcube_ascending(sub), paper, "i={i} node={node}");
            }
        }
    }
}
