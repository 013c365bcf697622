//! The constraint predicate Φ = (Φ_P, Φ_F, Φ_C).
//!
//! The application-oriented fault tolerance paradigm derives executable
//! assertions from three basis metrics (Section 1):
//!
//! * **progress** ([`phi_p_stage`], [`phi_p_final_with`]) — each testable step
//!   advances toward the goal: intermediate sequences are bitonic, the final
//!   sequence is sorted (Figure 4a);
//! * **feasibility** ([`phi_f`]) — intermediate results stay inside the
//!   solution space: each stage's output is a permutation of its input
//!   (Figure 4b);
//! * **consistency** ([`phi_c`]) — every checker hears the *same* version of
//!   a sequence: copies arriving over vertex-disjoint paths must agree
//!   (Figure 4c), with [`vect_mask`] computing which entries a sender
//!   legitimately holds.
//!
//! [`bit_compare_stage`] and [`bit_compare_final_with`] compose Φ_P and Φ_F
//! into the end-of-stage test of Figure 3.
//!
//! All functions are pure with respect to the simulator: programs call them
//! on local state and translate an `Err(Violation)` into
//! [`signal_error`](aoft_sim::NodeCtx::signal_error).

mod bit_compare;
mod consistency;
mod feasibility;
mod progress;
mod scratch;
mod vect_mask;

pub use bit_compare::{bit_compare_final_with, bit_compare_stage};
pub use consistency::{phi_c, PhiCOutcome};
pub use feasibility::{is_merge_of, phi_f, phi_f_with};
pub use progress::{phi_p_final_with, phi_p_stage};
pub use scratch::PredicateScratch;
pub use vect_mask::{vect_mask, vect_mask_before, vect_mask_into, vect_mask_recursive};

pub(crate) use bit_compare::{bit_compare_cost, bit_compare_stage_with};
pub(crate) use progress::phi_p_stage_with;
pub(crate) use vect_mask::vect_mask_before_into;
