//! Fault diagnosis from fail-stop reports.
//!
//! The paper ends at the fail-stop: "a reliable communication of this
//! diagnostic information is provided to the system so that appropriate
//! actions may be taken" (Section 1). This module implements the first such
//! action — *localizing* the fault from the delivered reports:
//!
//! * a missing-message report names its silent neighbor directly;
//! * a predicate violation observed by node `X` at stage `s` implicates the
//!   home subcube `SC_{s+1, X}` — all information checked at that stage
//!   entered through that subcube's exchanges, and the lag-one verification
//!   discipline means a fault from stage `s−1` still lies inside it;
//! * intersecting the candidate regions of independent detectors narrows
//!   the suspect set, often to a single node.
//!
//! Diagnosis is best-effort, for two inherent reasons:
//!
//! * under multiple colluding faults the detectors themselves may be lying
//!   (a missing-message report implicates *both* link endpoints — the
//!   paper's Definition 3 case 2a ambiguity);
//! * omission faults cascade: a silent node starves its partner, which then
//!   starves *its* partners, and the first timeout to fire may be several
//!   hops downstream of the root cause. The implicated link is always on a
//!   dead data path, but corroboration (e.g. across retry attempts) is
//!   needed to walk it back to the origin.
//!
//! The result is advice for the operator (or for a retry loop such as the
//! sort service's, which re-plans around the suspects), not a proof.

use aoft_hypercube::{NodeSet, Subcube};
use aoft_sim::ErrorReport;

use crate::Violation;

/// The outcome of analyzing a run's fail-stop reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    suspects: NodeSet,
    candidates: Vec<NodeSet>,
    exact: bool,
}

impl Diagnosis {
    /// Nodes consistent with *every* report (falls back to the union of all
    /// candidate regions when the reports' regions have no common node —
    /// which itself indicates multiple faults).
    pub fn suspects(&self) -> &NodeSet {
        &self.suspects
    }

    /// Per-report candidate regions, in report order.
    pub fn candidates(&self) -> &[NodeSet] {
        &self.candidates
    }

    /// `true` if the suspect set is the intersection of all reports (the
    /// reports are mutually consistent); `false` if it fell back to the
    /// union.
    pub fn is_consistent(&self) -> bool {
        self.exact
    }
}

impl std::fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.suspects.iter().map(|n| n.to_string()).collect();
        write!(
            f,
            "{} suspect(s): {} ({})",
            self.suspects.len(),
            names.join(", "),
            if self.exact {
                "consistent reports"
            } else {
                "inconsistent reports — union of regions"
            }
        )
    }
}

/// The candidate region one report implicates.
fn candidate(report: &ErrorReport, nodes: usize, dim: u32) -> NodeSet {
    let dead_link = Violation::MessageLost {
        from: report.detector,
    }
    .code();
    if let Some(suspect) = report.suspect {
        if suspect.index() < nodes {
            if report.code == dead_link {
                let mut set = NodeSet::singleton(nodes, suspect);
                // Definition 3 case 2a: a dead link between P_i and P_j
                // cannot be attributed to either endpoint alone — and the
                // detector itself may be the Byzantine party fabricating
                // the accusation.
                if report.detector.index() < nodes {
                    set.insert(report.detector);
                }
                return set;
            }
            // A value accusation (the Φ_C equivocation proof) names the
            // sender that contradicted its own entry, but a corruptor on a
            // relayed route can shift that blame one hop to the entry's
            // honest owner — so the named node *joins* the stage region
            // (which provably contains the fault) rather than replacing it.
            let mut set = stage_region(report, nodes, dim);
            set.insert(suspect);
            return set;
        }
    }
    stage_region(report, nodes, dim)
}

/// The home-subcube region implicated by the report's stage, or the full
/// machine when unlocalized.
fn stage_region(report: &ErrorReport, nodes: usize, dim: u32) -> NodeSet {
    match report.stage {
        Some(stage) if report.detector.index() < nodes => {
            let span_dim = (stage + 1).min(dim);
            Subcube::home(span_dim, report.detector).to_node_set(nodes)
        }
        // Host-detected or unlocalized: anyone.
        _ => NodeSet::full(nodes),
    }
}

/// Triangulates a suspect set from the reports of one fail-stopped run on a
/// `2^dim`-node machine.
///
/// # Panics
///
/// Panics if `reports` is empty — a completed run has nothing to diagnose.
pub fn diagnose(reports: &[ErrorReport], dim: u32) -> Diagnosis {
    assert!(!reports.is_empty(), "no reports to diagnose");
    let nodes = 1usize << dim;
    let candidates: Vec<NodeSet> = reports.iter().map(|r| candidate(r, nodes, dim)).collect();

    let mut intersection = NodeSet::full(nodes);
    for cand in &candidates {
        intersection &= cand;
    }
    if !intersection.is_empty() {
        return Diagnosis {
            suspects: intersection,
            candidates,
            exact: true,
        };
    }
    let mut union = NodeSet::empty(nodes);
    for cand in &candidates {
        union |= cand;
    }
    Diagnosis {
        suspects: union,
        candidates,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use aoft_hypercube::NodeId;
    use aoft_sim::Ticks;

    use super::*;

    fn report(detector: u32, stage: Option<u32>, suspect: Option<u32>) -> ErrorReport {
        // Suspect-carrying reports here model missing-message accusations.
        let code = if suspect.is_some() {
            Violation::MessageLost {
                from: NodeId::new(detector),
            }
            .code()
        } else {
            1
        };
        ErrorReport {
            detector: NodeId::new(detector),
            at: Ticks::from_ticks(1),
            code,
            stage,
            suspect: suspect.map(NodeId::new),
            detail: String::new(),
        }
    }

    fn value_report(detector: u32, stage: u32, suspect: u32) -> ErrorReport {
        ErrorReport {
            detector: NodeId::new(detector),
            at: Ticks::from_ticks(1),
            code: Violation::Inconsistent {
                stage,
                step: 0,
                entry: NodeId::new(suspect),
            }
            .code(),
            stage: Some(stage),
            suspect: Some(NodeId::new(suspect)),
            detail: String::new(),
        }
    }

    #[test]
    fn named_suspect_implicates_both_link_endpoints() {
        // Definition 3 case 2a: one missing-message report cannot separate
        // the silent neighbor from a lying detector.
        let d = diagnose(&[report(6, None, Some(7))], 3);
        assert_eq!(d.suspects().len(), 2);
        assert!(d.suspects().contains(NodeId::new(7)));
        assert!(d.suspects().contains(NodeId::new(6)));
    }

    #[test]
    fn corroborating_reports_pinpoint_a_crashed_node() {
        // Two independent neighbors report P5 silent: {5,4} ∩ {5,7} = {5}.
        let d = diagnose(&[report(4, None, Some(5)), report(7, None, Some(5))], 3);
        assert!(d.is_consistent() && d.suspects().len() == 1);
        assert!(d.suspects().contains(NodeId::new(5)));
    }

    #[test]
    fn stage_report_implicates_home_subcube() {
        // Detector P5 at stage 1: SC_2 of P5 = {4..7}.
        let d = diagnose(&[report(5, Some(1), None)], 3);
        assert_eq!(d.suspects().len(), 4);
        for n in 4..8u32 {
            assert!(d.suspects().contains(NodeId::new(n)));
        }
        assert!(d.is_consistent());
    }

    #[test]
    fn intersection_narrows_regions() {
        // P5's stage-1 region {4..7} ∩ accusation {6, 0} = {6}.
        let d = diagnose(&[report(5, Some(1), None), report(0, None, Some(6))], 3);
        assert!(d.is_consistent() && d.suspects().len() == 1);
        assert!(d.suspects().contains(NodeId::new(6)));
        assert_eq!(d.candidates().len(), 2);
    }

    #[test]
    fn contradictory_reports_fall_back_to_union() {
        let d = diagnose(&[report(0, None, Some(1)), report(7, None, Some(6))], 3);
        assert!(!d.is_consistent());
        assert_eq!(d.suspects().len(), 4, "both link pairs stay suspect");
        for n in [0u32, 1, 6, 7] {
            assert!(d.suspects().contains(NodeId::new(n)));
        }
    }

    #[test]
    fn value_accusation_joins_its_stage_region() {
        // Φ_C equivocation proof: detector P5 at stage 1 names P0. The
        // region is SC_2 of P5 = {4..7} plus the named node, never the
        // bare {suspect, detector} pair reserved for dead links.
        let d = diagnose(&[value_report(5, 1, 0)], 3);
        assert_eq!(d.suspects().len(), 5);
        assert!(d.suspects().contains(NodeId::new(0)));
        for n in 4..8u32 {
            assert!(d.suspects().contains(NodeId::new(n)));
        }
    }

    #[test]
    fn value_accusation_intersects_with_corroboration() {
        // A second detector's accusation of the same node pins it down.
        let d = diagnose(&[value_report(5, 1, 0), value_report(2, 0, 0)], 3);
        assert!(d.is_consistent() && d.suspects().len() == 1);
        assert!(d.suspects().contains(NodeId::new(0)));
    }

    #[test]
    fn final_stage_report_spans_whole_machine() {
        // stage = n reports clamp to the full cube.
        let d = diagnose(&[report(2, Some(3), None)], 3);
        assert_eq!(d.suspects().len(), 8);
    }

    #[test]
    fn host_report_is_uninformative_alone() {
        let host_report = ErrorReport {
            detector: aoft_sim::HOST_ID,
            at: Ticks::ZERO,
            code: 7,
            stage: None,
            suspect: None,
            detail: String::new(),
        };
        let d = diagnose(&[host_report], 2);
        assert_eq!(d.suspects().len(), 4);
    }

    #[test]
    fn display_lists_suspects() {
        let d = diagnose(&[report(6, None, Some(7))], 3);
        let text = d.to_string();
        assert!(text.contains("P7"));
        assert!(text.contains("consistent"));
    }

    #[test]
    #[should_panic(expected = "no reports")]
    fn empty_reports_panic() {
        diagnose(&[], 3);
    }
}
