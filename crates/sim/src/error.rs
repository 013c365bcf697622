use std::error::Error;
use std::fmt;
use std::time::Duration;

use aoft_hypercube::NodeId;
use aoft_net::{CodecError, Wire};
use serde::{Deserialize, Serialize};

use crate::Ticks;

/// Errors surfaced to node programs by the simulator runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run was cancelled — some node detected faulty behaviour and the
    /// machine fail-stopped, or the engine shut the run down.
    Cancelled,
    /// No message arrived from `from` within the receive timeout.
    ///
    /// Environmental assumption 4: "the absence of a message can be detected
    /// and constitutes an error."
    MissingMessage {
        /// The neighbor the node was waiting on.
        from: NodeId,
        /// How long the node waited (real time).
        waited: Duration,
    },
    /// The peer endpoint disappeared (its thread exited) while a receive was
    /// pending — distinguishable from a timeout because the channel closed.
    LinkClosed {
        /// The vanished peer.
        peer: NodeId,
    },
    /// A send addressed a node that is not a hypercube neighbor (and not the
    /// host). Point-to-point links only — assumption 3.
    NotANeighbor {
        /// The sending node.
        from: NodeId,
        /// The illegal destination.
        to: NodeId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Cancelled => write!(f, "run cancelled (machine fail-stopped)"),
            SimError::MissingMessage { from, waited } => {
                write!(f, "no message from {from} within {waited:?}")
            }
            SimError::LinkClosed { peer } => write!(f, "link to {peer} closed"),
            SimError::NotANeighbor { from, to } => {
                write!(f, "{from} has no link to {to}")
            }
        }
    }
}

impl Error for SimError {}

/// A diagnostic report delivered to the host when a node's executable
/// assertions detect faulty behaviour.
///
/// The paper's `signal ERROR to host`: reliable communication of diagnostic
/// information "so that appropriate actions may be taken" (Section 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReport {
    /// The node that detected the violation (not necessarily the faulty one).
    pub detector: NodeId,
    /// Virtual time of detection on the detector's clock.
    pub at: Ticks,
    /// Machine-readable violation code (assigned by the application layer;
    /// the sorting crate maps its `Violation` kinds here).
    pub code: u32,
    /// The algorithm stage during which the violation was observed, when
    /// the application layer knows it — localizes the fault for diagnosis.
    pub stage: Option<u32>,
    /// A directly implicated node, when the violation names one (e.g. the
    /// silent neighbor of a missing-message timeout).
    pub suspect: Option<NodeId>,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl ErrorReport {
    /// The `code` of a report the engine files itself when a node died of a
    /// runtime failure (missing message, closed link) without any assertion
    /// having signalled. Application-layer violation codes start at 1.
    pub const RUNTIME_FAILURE: u32 = 0;
}

/// How a report crosses a process boundary (a cube host's answer carries
/// the fail-stop reports of every failed attempt).
impl Wire for ErrorReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.detector.encode(out);
        self.at.encode(out);
        self.code.encode(out);
        self.stage.encode(out);
        self.suspect.encode(out);
        self.detail.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ErrorReport {
            detector: NodeId::decode(input)?,
            at: Ticks::decode(input)?,
            code: u32::decode(input)?,
            stage: Option::decode(input)?,
            suspect: Option::decode(input)?,
            detail: String::decode(input)?,
        })
    }
}

impl fmt::Display for ErrorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ERROR signalled by {} at {}: [{}] {}",
            self.detector, self.at, self.code, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SimError::Cancelled.to_string().contains("fail-stopped"));
        let missing = SimError::MissingMessage {
            from: NodeId::new(3),
            waited: Duration::from_millis(250),
        };
        assert!(missing.to_string().contains("P3"));
        let closed = SimError::LinkClosed {
            peer: NodeId::new(1),
        };
        assert!(closed.to_string().contains("P1"));
        let bad = SimError::NotANeighbor {
            from: NodeId::new(0),
            to: NodeId::new(3),
        };
        assert!(bad.to_string().contains("no link"));
    }

    #[test]
    fn report_display() {
        let report = ErrorReport {
            detector: NodeId::new(2),
            at: Ticks::from_ticks(10),
            code: 7,
            stage: Some(2),
            suspect: None,
            detail: "non-bitonic LBS".to_string(),
        };
        let s = report.to_string();
        assert!(s.contains("P2"));
        assert!(s.contains("[7]"));
        assert!(s.contains("non-bitonic"));
    }

    #[test]
    fn report_round_trips_on_the_wire() {
        let report = ErrorReport {
            detector: NodeId::new(6),
            at: Ticks::from_ticks(1234),
            code: 3,
            stage: Some(1),
            suspect: Some(NodeId::new(2)),
            detail: "Φ_C conflict".to_string(),
        };
        let bytes = aoft_net::wire::to_bytes(&report);
        assert_eq!(aoft_net::wire::from_bytes(&bytes), Ok(report));
    }
}
