//! Diagnosis-driven recovery bookkeeping: strikes, quarantine, and degraded
//! cube planning.
//!
//! The service keeps the paper's fail-stop loop alive across jobs: every
//! fail-stopped attempt is fed to the diagnosis layer, implicated *physical*
//! nodes accumulate strikes, and repeat offenders are quarantined
//! service-wide. Retries run on the largest subcube of surviving nodes —
//! degraded mode — until the cube shrinks below the configured minimum.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use aoft_sim::ErrorReport;
use aoft_sort::diagnosis::diagnose;
use aoft_sort::Violation;
use parking_lot::Mutex;

/// Where an attempt runs: a logical `2^dim` cube mapped onto physical labels.
#[derive(Debug, Clone)]
pub(crate) struct CubePlan {
    /// Logical cube dimension of the attempt.
    pub(crate) dim: u32,
    /// `map[logical] = physical` for each of the `2^dim` logical labels.
    pub(crate) map: Vec<u32>,
}

/// When a retry may start, decided from what the failed attempt reported
/// and where the retry would run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetryTiming {
    /// The retry runs on other physical nodes than the attempt that failed:
    /// whatever ailed those, waiting for them is pointless. Start now.
    Replanned,
    /// Same machine, and every report is a value predicate (Φ_P/Φ_F/Φ_C or
    /// a structural check). A predicate never fires because the machine was
    /// *slow*, so time cures nothing. Start now.
    ValueEvidence,
    /// Same machine, and some report says something was *absent* — a
    /// receive timed out, a link closed, a peer died, a node failed at
    /// run time. The transient-environment case: back off.
    Absence,
}

/// The retry policy: back off only when time can help.
///
/// The next attempt waits iff the failed attempt's `reports` contain
/// absence evidence **and** the retry lands on exactly the physical nodes
/// that just failed (`failed.map == next.map`: an empty or cleared avoid
/// set). Pure — it decides *when* the next attempt starts, never what any
/// attempt checks, so Theorem 3 is untouched.
pub(crate) fn retry_timing(
    reports: &[ErrorReport],
    failed: &CubePlan,
    next: &CubePlan,
) -> RetryTiming {
    let dead_link = dead_link_code();
    let absence = |report: &ErrorReport| {
        report.code == dead_link || report.code == ErrorReport::RUNTIME_FAILURE
    };
    if failed.map != next.map {
        RetryTiming::Replanned
    } else if reports.iter().any(absence) {
        RetryTiming::Absence
    } else {
        RetryTiming::ValueEvidence
    }
}

/// The delays an [`RetryTiming::Absence`] retry serves: `initial,
/// 2·initial, 4·initial, …` clamped to `max`. Deterministic (no jitter), so
/// failure traces stay comparable across runs.
#[derive(Debug, Clone)]
pub(crate) struct Backoff {
    max: Duration,
    current: Duration,
}

impl Backoff {
    /// Starts a sequence at `initial`, never exceeding `max`.
    pub(crate) fn new(initial: Duration, max: Duration) -> Self {
        Self {
            max,
            current: initial,
        }
    }

    /// The delay to sleep before the next retry; doubles for the one after.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let delay = self.current.min(self.max);
        self.current = (self.current * 2).min(self.max);
        delay
    }
}

/// What [`Recovery::record_failure`] learned from one fail-stopped attempt.
pub(crate) struct FailureVerdict {
    /// Physical labels implicated by diagnosis (the job avoids these on its
    /// own retries even when the evidence is too weak to strike).
    pub(crate) suspects: Vec<u32>,
    /// Physical labels whose strike count just crossed the quarantine
    /// threshold (the service should purge their cached links).
    pub(crate) newly_quarantined: Vec<u32>,
}

// Ordered containers throughout: recovery decisions must be identical under
// replay, so nothing in the strike/quarantine path may depend on hash-map
// iteration order (the suspects themselves are accumulated in BTreeSets by
// `record_failure` and the diagnosis layer for the same reason).
struct RecoveryState {
    strikes: BTreeMap<u32, u32>,
    quarantined: BTreeSet<u32>,
}

/// Service-wide fault memory shared by all workers.
pub(crate) struct Recovery {
    dim: u32,
    min_dim: u32,
    quarantine_after: u32,
    state: Mutex<RecoveryState>,
}

impl Recovery {
    pub(crate) fn new(dim: u32, min_dim: u32, quarantine_after: u32) -> Self {
        Self {
            dim,
            min_dim,
            quarantine_after,
            state: Mutex::new(RecoveryState {
                strikes: BTreeMap::new(),
                quarantined: BTreeSet::new(),
            }),
        }
    }

    /// Plans the largest cube that avoids both the service quarantine and
    /// the job's own `avoid` set; `Err(healthy)` when fewer than
    /// `2^min_dim` nodes remain.
    pub(crate) fn plan(&self, avoid: &BTreeSet<u32>) -> Result<CubePlan, usize> {
        let state = self.state.lock();
        let healthy: Vec<u32> = (0..1u32 << self.dim)
            .filter(|label| !state.quarantined.contains(label) && !avoid.contains(label))
            .collect();
        drop(state);
        let dim = (usize::BITS - 1)
            .checked_sub(healthy.len().leading_zeros())
            .map(|d| d.min(self.dim))
            .unwrap_or(0);
        if dim < self.min_dim {
            return Err(healthy.len());
        }
        let map = healthy[..1 << dim].to_vec();
        Ok(CubePlan { dim, map })
    }

    /// Digests a fail-stopped attempt: diagnoses the reports on the
    /// attempt's logical cube, translates the implicated nodes to physical
    /// labels, and applies strikes.
    ///
    /// Two evidence classes feed the strike set. Every *missing-message*
    /// accusation strikes *both* endpoints of the dead link — Definition 3
    /// case 2a: the blame cannot be attributed to either endpoint alone,
    /// and the detector itself may be the faulty party (a node whose sends
    /// are silently dropped ends up accusing its own starved partner).
    /// Value-predicate accusations (Φ_P/Φ_F/Φ_C) implicate only the named
    /// suspect, never the detector: receiver-side detection of bad *content*
    /// is evidence the detector works — a Byzantine sender can make many
    /// healthy receivers fire at once, and striking them all would evict
    /// the whole cube. When the reports are additionally mutually
    /// consistent *and* their intersection localizes to link granularity
    /// (at most two nodes), the intersection is struck too. Coarser
    /// consistent regions — a home subcube, or the whole machine for a
    /// late-stage predicate — are detection without localization: striking
    /// them would quarantine healthy hardware wholesale, so they are left
    /// to the retry (and, for persistent faults, to the sharper dead-link
    /// evidence repeat failures produce). The broad union of an
    /// inconsistent report set is never struck for the same reason.
    ///
    /// One evidence class is stronger than a strike: a Φ_C *equivocation
    /// proof*. When the detection site reports a consistency violation with
    /// a named suspect, the disagreeing entry was the sender's *own* —
    /// vertex-disjoint copies of it share only the owner (Lemma 6), so the
    /// sender was caught contradicting itself about its own value. That
    /// node is quarantined directly, bypassing the repeat-offender
    /// threshold: an equivocator that survives to a retry gets another
    /// chance to poison a fresh subcube.
    pub(crate) fn record_failure(
        &self,
        reports: &[ErrorReport],
        plan: &CubePlan,
    ) -> FailureVerdict {
        if reports.is_empty() {
            return FailureVerdict {
                suspects: Vec::new(),
                newly_quarantined: Vec::new(),
            };
        }
        let dead_link = dead_link_code();
        let equivocation = equivocation_codes();
        let diagnosis = diagnose(reports, plan.dim);
        let mut logical: BTreeSet<usize> = BTreeSet::new();
        let mut proven: BTreeSet<usize> = BTreeSet::new();
        for report in reports {
            if let Some(suspect) = report.suspect {
                // Fail-stop cascades echo: once the first detector
                // fail-stops, every partner still waiting on it times out
                // and accuses the now-silent node, and those partners'
                // fail-stops trigger accusations in turn. An accusation is
                // an echo — a reaction to the protocol's own fail-stop, not
                // independent evidence — when its suspect is already on
                // record as a detector at a strictly earlier tick: the
                // suspect was demonstrably alive and vigilant then, so its
                // later silence is the fail-stop contract at work. Striking
                // echoes would let one fault implicate half the machine.
                // The genuinely faulty stay covered: a crashed node never
                // files a report, and a Byzantine node that fabricates an
                // early accusation to immunize itself strikes its own link
                // pair by filing it (case 2a strikes both endpoints).
                if report.code == dead_link
                    && reports
                        .iter()
                        .any(|prior| prior.detector == suspect && prior.at < report.at)
                {
                    continue;
                }
                logical.insert(suspect.index());
                if report.code == dead_link {
                    logical.insert(report.detector.index());
                }
                if equivocation.contains(&report.code) {
                    proven.insert(suspect.index());
                }
            }
        }
        if diagnosis.is_consistent() && diagnosis.suspects().len() <= 2 {
            logical.extend(diagnosis.suspects().iter().map(|node| node.index()));
        }
        let proven: BTreeSet<u32> = proven
            .into_iter()
            .filter_map(|index| plan.map.get(index).copied())
            .collect();
        let suspects: Vec<u32> = logical
            .into_iter()
            .filter_map(|index| plan.map.get(index).copied())
            .collect();
        // `u32::MAX` is the documented "quarantine disabled" sentinel
        // (soak harnesses rotate transient faults through every node, where
        // eviction would exhaust the cube). Suspects still feed the per-job
        // avoid set either way; only the service-wide eviction is gated.
        let disabled = self.quarantine_after == u32::MAX;
        let mut newly_quarantined = Vec::new();
        let mut state = self.state.lock();
        for &label in &suspects {
            if state.quarantined.contains(&label) {
                continue;
            }
            let strikes = state.strikes.entry(label).or_insert(0);
            *strikes = (*strikes).saturating_add(1);
            if proven.contains(&label) {
                // Equivocation proof: saturate past the threshold.
                *strikes = (*strikes).max(self.quarantine_after);
            }
            if !disabled && *strikes >= self.quarantine_after {
                state.quarantined.insert(label);
                newly_quarantined.push(label);
            }
        }
        FailureVerdict {
            suspects,
            newly_quarantined,
        }
    }

    /// Physical labels currently quarantined, ascending.
    pub(crate) fn quarantined(&self) -> Vec<u32> {
        self.state.lock().quarantined.iter().copied().collect()
    }

    /// How many nodes are quarantined, without copying the set.
    pub(crate) fn quarantined_count(&self) -> usize {
        self.state.lock().quarantined.len()
    }
}

/// The violation code of a missing message (receive timeout, closed link,
/// dead peer): the one predicate whose evidence is *absence*.
fn dead_link_code() -> u32 {
    Violation::MessageLost {
        from: aoft_hypercube::NodeId::new(0),
    }
    .code()
}

/// The violation codes whose named suspect constitutes an equivocation
/// proof: the Φ_C checks fire them only when a sender's *own* entry
/// disagreed with (or was missing from) a vertex-disjoint copy.
fn equivocation_codes() -> [u32; 2] {
    let probe = aoft_hypercube::NodeId::new(0);
    [
        Violation::Inconsistent {
            stage: 0,
            step: 0,
            entry: probe,
        }
        .code(),
        Violation::MissingEntry {
            stage: 0,
            step: 0,
            entry: probe,
        }
        .code(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoft_hypercube::NodeId;
    use aoft_sim::Ticks;

    #[test]
    fn backoff_doubles_until_capped() {
        let mut b = Backoff::new(Duration::from_millis(5), Duration::from_millis(35));
        assert_eq!(b.next_delay(), Duration::from_millis(5));
        assert_eq!(b.next_delay(), Duration::from_millis(10));
        assert_eq!(b.next_delay(), Duration::from_millis(20));
        assert_eq!(b.next_delay(), Duration::from_millis(35));
        assert_eq!(b.next_delay(), Duration::from_millis(35));
    }

    fn missing_message(detector: u32, suspect: u32) -> ErrorReport {
        ErrorReport {
            detector: NodeId::new(detector),
            at: Ticks::ZERO,
            code: Violation::MessageLost {
                from: NodeId::new(suspect),
            }
            .code(),
            stage: Some(0),
            suspect: Some(NodeId::new(suspect)),
            detail: String::new(),
        }
    }

    fn bad_value(detector: u32, suspect: u32) -> ErrorReport {
        ErrorReport {
            detector: NodeId::new(detector),
            at: Ticks::ZERO,
            code: Violation::Inconsistent {
                stage: 0,
                step: 0,
                entry: NodeId::new(suspect),
            }
            .code(),
            stage: Some(0),
            suspect: Some(NodeId::new(suspect)),
            detail: String::new(),
        }
    }

    fn value_only(detector: u32, code_of: Violation) -> ErrorReport {
        ErrorReport {
            detector: NodeId::new(detector),
            at: Ticks::ZERO,
            code: code_of.code(),
            stage: code_of.stage_hint(),
            suspect: None,
            detail: String::new(),
        }
    }

    #[test]
    fn retry_backs_off_only_for_absence_on_the_same_machine() {
        let full = CubePlan {
            dim: 3,
            map: (0..8).collect(),
        };
        let degraded = CubePlan {
            dim: 2,
            map: vec![0, 1, 2, 3],
        };
        let shifted = CubePlan {
            dim: 3,
            map: vec![0, 1, 2, 3, 4, 5, 6, 8],
        };
        let phi_p = value_only(1, Violation::NonBitonic { stage: 1 });
        let phi_f = value_only(2, Violation::NotPermutation { stage: 2 });
        let phi_c = bad_value(1, 5);
        let timeout = missing_message(1, 5);
        let runtime = ErrorReport {
            code: ErrorReport::RUNTIME_FAILURE,
            ..value_only(3, Violation::OutputRejected)
        };
        use RetryTiming::{Absence, Replanned, ValueEvidence};
        let table: [(&str, Vec<ErrorReport>, &CubePlan, RetryTiming); 11] = [
            ("Φ_P, same map", vec![phi_p.clone()], &full, ValueEvidence),
            (
                "Φ_P + Φ_F, same map",
                vec![phi_p.clone(), phi_f],
                &full,
                ValueEvidence,
            ),
            ("Φ_C, same map", vec![phi_c.clone()], &full, ValueEvidence),
            ("Φ_C, degraded", vec![phi_c.clone()], &degraded, Replanned),
            (
                "Φ_P, same dim other nodes",
                vec![phi_p],
                &shifted,
                Replanned,
            ),
            ("timeout, same map", vec![timeout.clone()], &full, Absence),
            (
                "timeout, degraded",
                vec![timeout.clone()],
                &degraded,
                Replanned,
            ),
            (
                "value then timeout, same map",
                vec![phi_c.clone(), timeout.clone()],
                &full,
                Absence,
            ),
            (
                "value then timeout, degraded",
                vec![phi_c, timeout],
                &degraded,
                Replanned,
            ),
            ("runtime failure, same map", vec![runtime], &full, Absence),
            // Unreachable from the engine (a fail-stop always carries a
            // report); nothing in an empty set says time would help.
            ("no reports, same map", vec![], &full, ValueEvidence),
        ];
        for (case, reports, next, expect) in table {
            assert_eq!(retry_timing(&reports, &full, next), expect, "{case}");
        }
    }

    #[test]
    fn full_cube_plan_is_identity() {
        let recovery = Recovery::new(3, 1, 2);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        assert_eq!(plan.dim, 3);
        assert_eq!(plan.map, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn avoid_set_degrades_the_cube() {
        let recovery = Recovery::new(3, 1, 2);
        let avoid: BTreeSet<u32> = [5].into();
        let plan = recovery.plan(&avoid).unwrap();
        assert_eq!(plan.dim, 2, "7 healthy nodes hold a 4-node cube");
        assert_eq!(plan.map, vec![0, 1, 2, 3]);
        // Avoiding a low label shifts the map past it.
        let avoid: BTreeSet<u32> = [0, 2].into();
        let plan = recovery.plan(&avoid).unwrap();
        assert_eq!(plan.map, vec![1, 3, 4, 5]);
    }

    #[test]
    fn repeat_strikes_quarantine_and_exhaust() {
        let recovery = Recovery::new(3, 3, 2);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        // Corroborated accusations: {1,3} ∩ {2,3} = {3}; both detectors are
        // link endpoints too, so the strike set is {1, 2, 3}.
        let reports = [missing_message(1, 3), missing_message(2, 3)];
        let first = recovery.record_failure(&reports, &plan);
        assert_eq!(first.suspects, vec![1, 2, 3]);
        assert!(
            first.newly_quarantined.is_empty(),
            "one strike is not enough"
        );
        let second = recovery.record_failure(&reports, &plan);
        assert_eq!(second.newly_quarantined, vec![1, 2, 3]);
        assert_eq!(recovery.quarantined(), vec![1, 2, 3]);
        // 5 healthy nodes cannot hold the 2^3 minimum cube.
        assert!(matches!(recovery.plan(&BTreeSet::new()), Err(5)));
    }

    #[test]
    fn value_accusations_spare_the_detectors() {
        // Three healthy receivers catch one Byzantine sender's inconsistent
        // values. Only the sender is struck — striking the detectors too
        // would let one faulty node evict the cube.
        let recovery = Recovery::new(3, 1, 1);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        let reports = [bad_value(1, 5), bad_value(4, 5), bad_value(7, 5)];
        let verdict = recovery.record_failure(&reports, &plan);
        assert_eq!(verdict.suspects, vec![5]);
        assert_eq!(recovery.quarantined(), vec![5]);
    }

    #[test]
    fn equivocation_proof_quarantines_immediately() {
        // quarantine_after = 2, but a Φ_C equivocation proof (a consistency
        // violation naming the self-contradicting sender) bypasses the
        // repeat-offender threshold.
        let recovery = Recovery::new(3, 1, 2);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        let verdict = recovery.record_failure(&[bad_value(1, 5)], &plan);
        assert_eq!(verdict.suspects, vec![5]);
        assert_eq!(verdict.newly_quarantined, vec![5]);
        assert_eq!(recovery.quarantined(), vec![5]);
    }

    #[test]
    fn cascade_echo_accusations_are_not_evidence() {
        // P1 catches crashed P5 at tick 10 and fail-stops; P3 then times
        // out on the now-silent P1 (tick 70), and P6 on the now-silent P3
        // (tick 130). Only the root accusation may strike: P1 and P3 were
        // detectors at earlier ticks, so their silence is the fail-stop
        // contract, not a fault. Without the filter one crash would strike
        // six of eight nodes.
        let recovery = Recovery::new(3, 1, 1);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        let at = |report: ErrorReport, tick: u64| ErrorReport {
            at: Ticks::from_ticks(tick),
            ..report
        };
        let reports = [
            at(missing_message(1, 5), 10),
            at(missing_message(3, 1), 70),
            at(missing_message(6, 3), 130),
        ];
        let verdict = recovery.record_failure(&reports, &plan);
        assert_eq!(verdict.suspects, vec![1, 5], "root link pair only");
        assert_eq!(recovery.quarantined(), vec![1, 5]);
    }

    #[test]
    fn simultaneous_mutual_accusations_strike_the_pair() {
        // Both endpoints of one dead link time out on each other at the
        // same tick. Neither accusation is an echo (no strictly earlier
        // report), so the pair is struck symmetrically — case 2a.
        let recovery = Recovery::new(3, 1, 1);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        let reports = [missing_message(4, 5), missing_message(5, 4)];
        let verdict = recovery.record_failure(&reports, &plan);
        assert_eq!(verdict.suspects, vec![4, 5]);
    }

    #[test]
    fn max_threshold_disables_quarantine_even_for_proofs() {
        // `u32::MAX` is the "quarantine disabled" sentinel: a soak harness
        // rotating transient faults through every node must never evict
        // hardware service-wide, yet the suspect still feeds the per-job
        // avoid set so the striking job retries around it.
        let recovery = Recovery::new(3, 1, u32::MAX);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        for _ in 0..3 {
            let verdict = recovery.record_failure(&[bad_value(1, 5)], &plan);
            assert_eq!(verdict.suspects, vec![5]);
            assert!(verdict.newly_quarantined.is_empty());
        }
        assert!(recovery.quarantined().is_empty());
    }

    #[test]
    fn missing_message_still_needs_repeat_evidence() {
        // Contrast with the equivocation proof: a dead-link accusation is
        // ambiguous (Definition 3 case 2a) and must recur before anyone is
        // quarantined.
        let recovery = Recovery::new(3, 1, 2);
        let plan = recovery.plan(&BTreeSet::new()).unwrap();
        let verdict = recovery.record_failure(&[missing_message(1, 5)], &plan);
        assert!(verdict.newly_quarantined.is_empty());
        assert!(recovery.quarantined().is_empty());
    }

    #[test]
    fn equivocation_attribution_is_deterministic() {
        // The same synthetic Φ_C evidence must produce the same verdict on
        // every fresh recovery state — replay depends on it.
        let reports = [bad_value(1, 3), bad_value(6, 3), missing_message(2, 4)];
        let mut verdicts = Vec::new();
        for _ in 0..3 {
            let recovery = Recovery::new(3, 1, 2);
            let plan = recovery.plan(&BTreeSet::new()).unwrap();
            let v = recovery.record_failure(&reports, &plan);
            verdicts.push((v.suspects, v.newly_quarantined, recovery.quarantined()));
        }
        assert_eq!(verdicts[0], verdicts[1]);
        assert_eq!(verdicts[1], verdicts[2]);
        let (suspects, quarantined, _) = &verdicts[0];
        assert!(suspects.contains(&3), "the equivocator is a suspect");
        assert_eq!(
            quarantined,
            &vec![3],
            "only the proven equivocator is quarantined on first evidence"
        );
    }

    #[test]
    fn suspects_translate_through_the_map() {
        let recovery = Recovery::new(3, 1, 1);
        // Degraded 4-node cube on physical labels {1, 3, 4, 5}.
        let plan = CubePlan {
            dim: 2,
            map: vec![1, 3, 4, 5],
        };
        // Logical node 2 is physical label 4.
        let reports = [missing_message(0, 2), missing_message(3, 2)];
        let verdict = recovery.record_failure(&reports, &plan);
        assert!(verdict.suspects.contains(&4));
        assert_eq!(recovery.quarantined(), verdict.newly_quarantined);
        assert!(recovery.quarantined().contains(&4));
    }
}
