//! Byzantine fault injection for the simulated multicomputer.
//!
//! The paper evaluates *error coverage* (Section 4): under the fault classes
//! of Definition 3 — Byzantine processors and links, message loss, early
//! termination — the fault-tolerant sort must either produce a correct
//! result or fail-stop; it must **never** silently return a wrong answer.
//! Real hardware faults cannot be injected on demand, so this crate supplies
//! programmable adversaries that exercise exactly those fault classes:
//!
//! * `ValueCorruptor` — flips the data a node sends (processor/link data
//!   fault);
//! * [`TwoFaced`] — sends *different* plausible values to different peers,
//!   the classical Byzantine behaviour the consistency predicate Φ_C is
//!   designed to catch;
//! * `MessageDropper` — suppresses messages (detectable absence,
//!   environmental assumption 4);
//! * [`Crash`] — goes silent forever from a trigger point (fail-silent
//!   node);
//! * `Equivocator` — lies about *its own* entry to higher-labelled peers,
//!   so the Φ_C witness names the liar itself (Lemma 6);
//! * `LbsCorruptor` — damages the piggybacked check metadata over intact
//!   data (a fault in the redundancy machinery);
//! * [`StuckStale`] — replays the previously sent payload (stuck-at fault);
//! * `Delayer` — holds messages back and releases them late (FIFO link
//!   congestion that desynchronizes the protocol);
//! * [`RandomByzantine`] — a seeded mix of all of the above.
//!
//! Faults are described declaratively by a [`FaultPlan`] (which nodes, which
//! behaviour, triggered when), compiled to an
//! [`AdversarySet`](aoft_sim::AdversarySet) per run, and exercised at scale
//! by [`campaign::run_campaign`], which produces the coverage statistics
//! reported in `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! ```
//! use aoft_faults::{FaultKind, FaultPlan, Trigger};
//! use aoft_hypercube::NodeId;
//! use aoft_sim::Word;
//!
//! let plan = FaultPlan::new()
//!     .with_fault(NodeId::new(3), FaultKind::TwoFaced, Trigger::from_seq(2), 42);
//! let advs = plan.build::<Word>(8);
//! assert!(advs.is_faulty(NodeId::new(3)));
//! assert!(!advs.is_faulty(NodeId::new(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations, unreachable_pub)]

mod adversaries;
pub mod campaign;
mod corrupt;
mod plan;
mod trigger;

pub use adversaries::{Crash, RandomByzantine, StuckStale, TwoFaced};
pub use campaign::{
    periodic_fault_stream, run_campaign, CampaignResult, KindStats, TrialOutcome, TrialRecord,
};
pub use corrupt::Corruptible;
pub use plan::{FaultKind, FaultPlan, FaultSpec};
pub use trigger::Trigger;
