use std::fmt;

use aoft_hypercube::NodeId;
use serde::{Deserialize, Serialize};

/// A constraint-predicate violation: the observable symptom of a fault.
///
/// Each variant corresponds to one executable assertion of the paper; the
/// [`code`](Violation::code) is what travels in the
/// [`ErrorReport`](aoft_sim::ErrorReport) to the host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// Φ_P failed: the distributed intermediate sequence is not bitonic in
    /// the expected orientation (Figure 4a).
    NonBitonic {
        /// Stage whose output failed the check.
        stage: u32,
    },
    /// Φ_F failed: the stage's output is not a permutation of its input —
    /// an element was lost, duplicated or invented (Figure 4b).
    NotPermutation {
        /// Stage whose output failed the check.
        stage: u32,
    },
    /// Φ_C failed: two copies of the same sequence entry, received over
    /// vertex-disjoint paths, disagree (Figure 4c) — inconsistent Byzantine
    /// behaviour.
    Inconsistent {
        /// Stage of the exchange.
        stage: u32,
        /// Dimension of the exchange step.
        step: u32,
        /// The sequence entry (by owning node) that disagreed.
        entry: NodeId,
    },
    /// Φ_C failed: the sender should legitimately hold an entry (per
    /// `vect_mask`) but did not transmit it.
    MissingEntry {
        /// Stage of the exchange.
        stage: u32,
        /// Dimension of the exchange step.
        step: u32,
        /// The absent sequence entry (by owning node).
        entry: NodeId,
    },
    /// `bit_compare` found the collected sequence incomplete: after a full
    /// stage of piggybacked exchanges some entry of the home subcube was
    /// never received.
    IncompleteSequence {
        /// Stage whose collection is incomplete.
        stage: u32,
        /// The entry (by owning node) that never arrived.
        entry: NodeId,
    },
    /// A received block had the wrong number of keys — structurally
    /// malformed data.
    MalformedBlock {
        /// Stage of the exchange.
        stage: u32,
        /// Keys expected per block (`m`).
        expected: u32,
        /// Keys actually received.
        got: u32,
    },
    /// A message of the wrong protocol variant arrived (e.g. a bare data
    /// block where a tagged exchange message was required).
    UnexpectedMessage {
        /// Stage of the exchange.
        stage: u32,
        /// Dimension of the exchange step.
        step: u32,
    },
    /// A neighbor's message never arrived (environmental assumption 4).
    MessageLost {
        /// The silent neighbor.
        from: NodeId,
    },
    /// The final host-side Theorem 1 verification rejected the output
    /// (used by the host-verified baseline).
    OutputRejected,
}

impl Violation {
    /// Stable numeric code carried in error reports.
    pub fn code(&self) -> u32 {
        match self {
            Violation::NonBitonic { .. } => 1,
            Violation::NotPermutation { .. } => 2,
            Violation::Inconsistent { .. } => 3,
            Violation::MissingEntry { .. } => 4,
            Violation::MalformedBlock { .. } => 5,
            Violation::MessageLost { .. } => 6,
            Violation::OutputRejected => 7,
            Violation::IncompleteSequence { .. } => 8,
            Violation::UnexpectedMessage { .. } => 9,
        }
    }

    /// The stage at which the violation was observed, when meaningful.
    pub fn stage_hint(&self) -> Option<u32> {
        match self {
            Violation::NonBitonic { stage }
            | Violation::NotPermutation { stage }
            | Violation::Inconsistent { stage, .. }
            | Violation::MissingEntry { stage, .. }
            | Violation::IncompleteSequence { stage, .. }
            | Violation::MalformedBlock { stage, .. }
            | Violation::UnexpectedMessage { stage, .. } => Some(*stage),
            Violation::MessageLost { .. } | Violation::OutputRejected => None,
        }
    }

    /// A directly implicated node, when the violation names one.
    pub(crate) fn suspect_hint(&self) -> Option<NodeId> {
        match self {
            Violation::MessageLost { from } => Some(*from),
            _ => None,
        }
    }

    /// ASCII key for the predicate family, suitable as a metric label value
    /// (`aoft_violations_total{predicate="..."}`).
    pub(crate) fn family(&self) -> &'static str {
        match self {
            Violation::NonBitonic { .. } => "phi_p",
            Violation::NotPermutation { .. } => "phi_f",
            Violation::Inconsistent { .. }
            | Violation::MissingEntry { .. }
            | Violation::IncompleteSequence { .. } => "phi_c",
            Violation::MalformedBlock { .. } | Violation::UnexpectedMessage { .. } => "structure",
            Violation::MessageLost { .. } => "timeout",
            Violation::OutputRejected => "theorem1",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NonBitonic { stage } => {
                write!(f, "Φ_P: sequence after stage {stage} is not bitonic")
            }
            Violation::NotPermutation { stage } => write!(
                f,
                "Φ_F: stage {stage} output is not a permutation of its input"
            ),
            Violation::Inconsistent { stage, step, entry } => write!(
                f,
                "Φ_C: disagreeing copies of entry {entry} at stage {stage} step {step}"
            ),
            Violation::MissingEntry { stage, step, entry } => write!(
                f,
                "Φ_C: entry {entry} missing from message at stage {stage} step {step}"
            ),
            Violation::MalformedBlock {
                stage,
                expected,
                got,
            } => write!(
                f,
                "malformed block at stage {stage}: expected {expected} keys, got {got}"
            ),
            Violation::UnexpectedMessage { stage, step } => {
                write!(f, "unexpected message variant at stage {stage} step {step}")
            }
            Violation::IncompleteSequence { stage, entry } => write!(
                f,
                "bit_compare: entry {entry} never collected during stage {stage}"
            ),
            Violation::MessageLost { from } => write!(f, "no message from {from}"),
            Violation::OutputRejected => write!(f, "host verification rejected the output"),
        }
    }
}

impl std::error::Error for Violation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<Violation> {
        vec![
            Violation::NonBitonic { stage: 1 },
            Violation::NotPermutation { stage: 2 },
            Violation::Inconsistent {
                stage: 1,
                step: 0,
                entry: NodeId::new(3),
            },
            Violation::MissingEntry {
                stage: 2,
                step: 1,
                entry: NodeId::new(4),
            },
            Violation::MalformedBlock {
                stage: 0,
                expected: 4,
                got: 3,
            },
            Violation::MessageLost {
                from: NodeId::new(7),
            },
            Violation::OutputRejected,
            Violation::IncompleteSequence {
                stage: 3,
                entry: NodeId::new(1),
            },
            Violation::UnexpectedMessage { stage: 1, step: 0 },
        ]
    }

    #[test]
    fn codes_are_distinct_and_nonzero() {
        let codes: Vec<u32> = all().iter().map(Violation::code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len());
        assert!(codes.iter().all(|&c| c != 0), "0 is reserved for runtime");
    }

    #[test]
    fn families_are_ascii_label_values() {
        for v in all() {
            let family = v.family();
            assert!(family.is_ascii(), "{family}");
            assert!(
                family
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{family}"
            );
        }
        assert_eq!(Violation::NonBitonic { stage: 1 }.family(), "phi_p");
        assert_eq!(Violation::NotPermutation { stage: 1 }.family(), "phi_f");
        assert_eq!(Violation::OutputRejected.family(), "theorem1");
    }

    #[test]
    fn display() {
        for v in all() {
            assert!(!v.to_string().is_empty());
        }
        assert!(Violation::MessageLost {
            from: NodeId::new(7)
        }
        .to_string()
        .contains("P7"));
    }
}
