//! Fault-injection campaigns: run many planned-fault trials and tabulate
//! coverage, reproducing the error-coverage analysis of Section 4.
//!
//! A *trial* executes one application run under one [`FaultPlan`] and
//! classifies the outcome:
//!
//! * [`TrialOutcome::Correct`] — the run completed with a correct result
//!   (the fault was absorbed or never manifested in observable state);
//! * [`TrialOutcome::Detected`] — the machine fail-stopped: an executable
//!   assertion fired (or the missing-message timeout did);
//! * [`TrialOutcome::SilentlyWrong`] — the run completed with a **wrong**
//!   result. This is a coverage escape; Theorem 3 claims it never happens
//!   for the fault bounds it states, and the campaign exists to check that
//!   claim empirically;
//! * [`TrialOutcome::Inconclusive`] — the trial could not be classified
//!   (e.g. an infrastructure failure).

use std::collections::BTreeMap;
use std::fmt;

use aoft_hypercube::NodeId;
use serde::{Deserialize, Serialize};

use crate::{FaultKind, FaultPlan, Trigger};

/// Classification of one fault-injection trial.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialOutcome {
    /// Completed with a correct result despite the injected fault.
    Correct,
    /// Fail-stopped: the fault was detected and no output was produced.
    Detected,
    /// Completed with an incorrect result — a coverage escape.
    SilentlyWrong,
    /// Could not be classified.
    Inconclusive(String),
}

/// One trial's record: the plan that was injected and what happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// The injected faults.
    pub(crate) plan: FaultPlan,
    /// The classified outcome.
    pub outcome: TrialOutcome,
}

/// Aggregated outcomes for one fault kind (or one sweep label).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindStats {
    /// Trials run.
    pub trials: u64,
    /// Outcomes classified [`TrialOutcome::Correct`].
    pub correct: u64,
    /// Outcomes classified [`TrialOutcome::Detected`].
    pub detected: u64,
    /// Outcomes classified [`TrialOutcome::SilentlyWrong`].
    pub silently_wrong: u64,
    /// Outcomes classified [`TrialOutcome::Inconclusive`].
    pub inconclusive: u64,
}

impl KindStats {
    fn record(&mut self, outcome: &TrialOutcome) {
        self.trials += 1;
        match outcome {
            TrialOutcome::Correct => self.correct += 1,
            TrialOutcome::Detected => self.detected += 1,
            TrialOutcome::SilentlyWrong => self.silently_wrong += 1,
            TrialOutcome::Inconclusive(_) => self.inconclusive += 1,
        }
    }

    /// Fraction of manifested faults that were caught:
    /// `detected / (detected + silently_wrong)`; 1.0 when no fault
    /// manifested in observable state.
    pub(crate) fn coverage(&self) -> f64 {
        let manifested = self.detected + self.silently_wrong;
        if manifested == 0 {
            1.0
        } else {
            self.detected as f64 / manifested as f64
        }
    }
}

/// The tabulated result of a fault-injection campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Stats per sweep label (usually the fault kind name).
    pub(crate) per_label: BTreeMap<String, KindStats>,
    /// Every trial, in execution order.
    pub trials: Vec<TrialRecord>,
}

impl CampaignResult {
    /// Overall stats across all labels.
    pub fn total(&self) -> KindStats {
        let mut total = KindStats::default();
        for stats in self.per_label.values() {
            total.trials += stats.trials;
            total.correct += stats.correct;
            total.detected += stats.detected;
            total.silently_wrong += stats.silently_wrong;
            total.inconclusive += stats.inconclusive;
        }
        total
    }

    /// `true` if no trial ever produced a silently wrong result — the
    /// empirical form of Theorem 3's guarantee.
    pub fn never_silently_wrong(&self) -> bool {
        self.total().silently_wrong == 0
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<20} {:>7} {:>9} {:>9} {:>7} {:>9} {:>9}",
            "fault class", "trials", "correct", "detected", "wrong", "inconcl", "coverage"
        )?;
        for (label, s) in &self.per_label {
            writeln!(
                f,
                "{label:<20} {:>7} {:>9} {:>9} {:>7} {:>9} {:>8.1}%",
                s.trials,
                s.correct,
                s.detected,
                s.silently_wrong,
                s.inconclusive,
                s.coverage() * 100.0
            )?;
        }
        let t = self.total();
        writeln!(
            f,
            "{:<20} {:>7} {:>9} {:>9} {:>7} {:>9} {:>8.1}%",
            "TOTAL",
            t.trials,
            t.correct,
            t.detected,
            t.silently_wrong,
            t.inconclusive,
            t.coverage() * 100.0
        )
    }
}

/// Runs one trial per `(label, plan)` pair and tabulates outcomes by label.
///
/// The `runner` executes the application under the given plan and classifies
/// the result; it is typically a closure around
/// [`Engine::run_faulty`](aoft_sim::Engine::run_faulty) plus an output check
/// against a known-good oracle.
pub fn run_campaign<F>(
    plans: impl IntoIterator<Item = (String, FaultPlan)>,
    mut runner: F,
) -> CampaignResult
where
    F: FnMut(&FaultPlan) -> TrialOutcome,
{
    let mut result = CampaignResult::default();
    for (label, plan) in plans {
        let outcome = runner(&plan);
        result.per_label.entry(label).or_default().record(&outcome);
        result.trials.push(TrialRecord { plan, outcome });
    }
    result
}

/// Generates the `(label, plan)` stream for a *service-level* fault
/// campaign: `jobs` consecutive sort jobs of which every `period`-th runs
/// under an injected fault, the rest clean.
///
/// A resident service is exercised differently from a one-shot run — the
/// interesting question is whether a continuous job stream survives faults
/// arriving *sporadically over time* with zero silently-wrong deliveries.
/// Faulty jobs rotate deterministically through `kinds` and through the
/// `nodes` labels, so a long soak visits every (kind, node) combination
/// without any randomness to un-reproduce a failure.
///
/// Labels are `"clean"` or the fault kind's name, matching what
/// [`run_campaign`] tabulates by. `period == 0` yields an all-clean stream.
///
/// # Panics
///
/// Panics if `nodes` is zero or `kinds` is empty while `period > 0`.
pub fn periodic_fault_stream(
    jobs: usize,
    period: usize,
    nodes: u32,
    kinds: &[FaultKind],
) -> Vec<(String, FaultPlan)> {
    assert!(nodes > 0, "a machine has at least one node");
    if period > 0 {
        assert!(!kinds.is_empty(), "need at least one fault kind to inject");
    }
    (0..jobs)
        .map(|job| {
            let faulty = period > 0 && (job + 1) % period == 0;
            if !faulty {
                return ("clean".to_string(), FaultPlan::new());
            }
            let strike = (job + 1) / period - 1;
            let kind = kinds[strike % kinds.len()];
            let node = NodeId::new((strike as u32) % nodes);
            let plan = FaultPlan::new().with_fault(
                node,
                kind,
                Trigger::from_seq(1 + (strike as u64) % 3),
                0x5eed ^ job as u64,
            );
            (kind.name().to_string(), plan)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, Trigger};
    use aoft_hypercube::NodeId;

    fn plan(kind: FaultKind) -> FaultPlan {
        FaultPlan::new().with_fault(NodeId::new(0), kind, Trigger::always(), 0)
    }

    #[test]
    fn campaign_tabulates_by_label() {
        let plans = vec![
            ("a".to_string(), plan(FaultKind::Crash)),
            ("a".to_string(), plan(FaultKind::Crash)),
            ("b".to_string(), plan(FaultKind::TwoFaced)),
        ];
        let mut flip = false;
        let result = run_campaign(plans, |_plan| {
            flip = !flip;
            if flip {
                TrialOutcome::Detected
            } else {
                TrialOutcome::Correct
            }
        });
        assert_eq!(result.trials.len(), 3);
        assert_eq!(result.per_label["a"].trials, 2);
        assert_eq!(result.per_label["a"].detected, 1);
        assert_eq!(result.per_label["a"].correct, 1);
        assert_eq!(result.per_label["b"].detected, 1);
        assert!(result.never_silently_wrong());
    }

    #[test]
    fn coverage_counts_only_manifested_faults() {
        let mut stats = KindStats::default();
        stats.record(&TrialOutcome::Correct);
        assert_eq!(stats.coverage(), 1.0, "benign faults do not hurt coverage");
        stats.record(&TrialOutcome::Detected);
        stats.record(&TrialOutcome::Detected);
        stats.record(&TrialOutcome::SilentlyWrong);
        assert!((stats.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn silent_wrong_flags_campaign() {
        let result = run_campaign(
            vec![("x".to_string(), plan(FaultKind::CorruptValue))],
            |_| TrialOutcome::SilentlyWrong,
        );
        assert!(!result.never_silently_wrong());
        assert_eq!(result.total().silently_wrong, 1);
    }

    #[test]
    fn display_renders_table() {
        let result = run_campaign(
            vec![
                ("crash".to_string(), plan(FaultKind::Crash)),
                ("crash".to_string(), plan(FaultKind::Crash)),
            ],
            |_| TrialOutcome::Detected,
        );
        let text = result.to_string();
        assert!(text.contains("fault class"));
        assert!(text.contains("crash"));
        assert!(text.contains("TOTAL"));
        assert!(text.contains("100.0%"));
    }

    #[test]
    fn periodic_stream_rotates_kinds_and_nodes() {
        let kinds = [FaultKind::CorruptValue, FaultKind::Crash];
        let stream = periodic_fault_stream(12, 3, 4, &kinds);
        assert_eq!(stream.len(), 12);
        let faulty: Vec<usize> = stream
            .iter()
            .enumerate()
            .filter(|(_, (_, plan))| !plan.specs().is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(faulty, vec![2, 5, 8, 11], "every third job is faulty");
        assert_eq!(stream[2].0, "corrupt-value");
        assert_eq!(stream[5].0, "crash");
        assert_eq!(stream[8].0, "corrupt-value");
        // Strikes walk the labels: 0, 1, 2, 3.
        let nodes: Vec<u32> = faulty
            .iter()
            .map(|&i| stream[i].1.specs()[0].node.raw())
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        for (label, plan) in &stream {
            if label == "clean" {
                assert!(plan.specs().is_empty());
            }
        }
    }

    #[test]
    fn zero_period_is_all_clean() {
        let stream = periodic_fault_stream(5, 0, 8, &[]);
        assert_eq!(stream.len(), 5);
        assert!(stream
            .iter()
            .all(|(label, plan)| { label == "clean" && plan.specs().is_empty() }));
    }

    #[test]
    fn inconclusive_is_tracked() {
        let result = run_campaign(vec![("x".to_string(), FaultPlan::new())], |_| {
            TrialOutcome::Inconclusive("infra".to_string())
        });
        assert_eq!(result.total().inconclusive, 1);
        assert_eq!(result.total().trials, 1);
    }
}
