//! Deterministic record/replay of AOFT sorting runs.
//!
//! Under the cooperative scheduler ([`aoft_sim::DetEngine`]) a run is a pure
//! function of its inputs: the keys, the algorithm, the cost model, and the
//! fault plan (whose adversaries draw from seeded RNG streams) determine
//! every message, every adversary decision, every virtual timeout, and
//! therefore the entire Φ-violation sequence bit for bit. A replay trace
//! consequently does not need to journal each delivery — it records the
//! *inputs* plus the *observed outcome*, and verification re-executes the
//! inputs deterministically and diffs the outcomes. Any divergence means
//! the code under test changed behaviour (or the trace was tampered with);
//! bit-equality means the incident is fully reproduced.
//!
//! The trace is schema-versioned JSON so nightly-soak artifacts survive
//! crate upgrades: readers reject traces from a newer schema instead of
//! misinterpreting them.
//!
//! # Quickstart
//!
//! ```
//! use aoft_replay::{record, verify, RecordSpec};
//! use aoft_sort::Algorithm;
//!
//! // Record a faulty run: corrupt node 3's messages, watch it fail-stop.
//! use aoft_faults::{FaultKind, FaultPlan, Trigger};
//! use aoft_hypercube::NodeId;
//! let plan = FaultPlan::new().with_fault(
//!     NodeId::new(3), FaultKind::CorruptValue, Trigger::always(), 9,
//! );
//! let spec = RecordSpec::new(Algorithm::FaultTolerant, (0..16).rev().collect())
//!     .nodes(16)
//!     .fault_plan(plan);
//! let trace = record(spec)?;
//!
//! // Later (another process, another build): bit-exact re-execution.
//! let report = verify(&trace)?;
//! assert!(report.is_bit_exact(), "{report}");
//! # Ok::<(), aoft_replay::ReplayError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations, unreachable_pub)]

use std::fmt;
use std::path::Path;
use std::time::Duration;

use aoft_faults::FaultPlan;
use aoft_sim::{CostModel, ErrorReport, Ticks, Trace};
use aoft_sort::{Algorithm, Key, SortBuilder, SortDirection, SortError};
use serde::{Deserialize, Serialize};

/// Trace format version written by this build; readers reject anything
/// newer.
///
/// History:
/// * **v1** — initial format.
/// * **v2** — [`FaultPlan`] gained the Byzantine fault kinds `equivocate`
///   and `corrupt-lbs` (each with its explicit adversary seed). v1 traces
///   are a strict subset of v2 and still load and verify; a v2 trace using
///   a new kind is rejected by v1 readers via its schema number instead of
///   being misparsed.
pub(crate) const SCHEMA_VERSION: u32 = 2;

/// Everything needed to (re-)execute one deterministic run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSpec {
    /// Which sorting strategy to run.
    pub algorithm: Algorithm,
    /// The keys to sort.
    pub keys: Vec<Key>,
    /// Hypercube size (power of two dividing the key count); `None` means
    /// one key per node.
    pub nodes: Option<usize>,
    /// Requested output order.
    pub direction: SortDirection,
    /// Virtual-time cost model.
    pub(crate) cost: CostModel,
    /// Receive deadline. Under the deterministic scheduler timeouts are
    /// *virtual* (they fire on global stall regardless of this value), but
    /// the value is recorded for fidelity with threaded re-runs.
    pub recv_timeout: Duration,
    /// Job tag stamped on every packet.
    pub job: u64,
    /// Byzantine faults to inject (empty = honest run).
    pub(crate) plan: FaultPlan,
    /// Capture the simulator's full event trace into the recording
    /// (successful runs only; costs memory proportional to traffic).
    pub capture_events: bool,
}

impl RecordSpec {
    /// A spec with the crate defaults: one key per node, ascending,
    /// `ncube_1989` costs, honest, no event capture.
    pub fn new(algorithm: Algorithm, keys: Vec<Key>) -> Self {
        Self {
            algorithm,
            keys,
            nodes: None,
            direction: SortDirection::Ascending,
            cost: CostModel::ncube_1989(),
            recv_timeout: Duration::from_secs(2),
            job: 0,
            plan: FaultPlan::new(),
            capture_events: false,
        }
    }

    /// Sets the hypercube size.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Sets the output order.
    pub fn direction(mut self, direction: SortDirection) -> Self {
        self.direction = direction;
        self
    }

    /// Sets the cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the receive deadline.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Sets the job tag.
    pub fn job(mut self, job: u64) -> Self {
        self.job = job;
        self
    }

    /// Injects faults.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Enables event capture.
    pub fn capture_events(mut self, enabled: bool) -> Self {
        self.capture_events = enabled;
        self
    }
}

/// What a recorded run was observed to do.
///
/// Either branch is a *verified* fact about the deterministic execution:
/// a completed sort's full output, or the ordered Φ-violation reports of a
/// fail-stop (Theorem 3 — detection, never silent corruption).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecordedOutcome {
    /// The sort completed; the machine delivered `output`.
    Completed {
        /// The fully sorted keys, node 0's block first.
        output: Vec<Key>,
        /// Virtual makespan of the run.
        elapsed: Ticks,
    },
    /// The machine fail-stopped with these diagnostics, in detection order.
    FailStop {
        /// Every [`ErrorReport`] the host received.
        reports: Vec<ErrorReport>,
    },
}

impl RecordedOutcome {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self {
            RecordedOutcome::Completed { output, elapsed } => {
                format!("completed: {} keys in {elapsed}", output.len())
            }
            RecordedOutcome::FailStop { reports } => match reports.first() {
                Some(first) => format!("fail-stop: {} report(s); first: {first}", reports.len()),
                None => "fail-stop: no reports".to_string(),
            },
        }
    }
}

/// A schema-versioned recording of one deterministic run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Trace format version ([`SCHEMA_VERSION`] at write time).
    pub(crate) schema: u32,
    /// Which sorting strategy ran.
    pub algorithm: Algorithm,
    /// The keys that were sorted.
    pub keys: Vec<Key>,
    /// Hypercube size of the run.
    pub nodes: u64,
    /// Requested output order.
    pub direction: SortDirection,
    /// Virtual-time cost model.
    pub(crate) cost: CostModel,
    /// Recorded receive deadline (informational under the deterministic
    /// scheduler; see [`RecordSpec::recv_timeout`]).
    pub recv_timeout: Duration,
    /// Job tag of the run.
    pub job: u64,
    /// The fault plan, including every adversary RNG seed.
    pub(crate) plan: FaultPlan,
    /// What the run did.
    pub outcome: RecordedOutcome,
    /// Full simulator event trace, when capture was requested and the run
    /// completed (fail-stopped runs discard in-flight traces).
    pub events: Option<Trace>,
}

impl RunTrace {
    /// One-line human summary (the CLI's `show`).
    pub fn summary(&self) -> String {
        format!(
            "schema v{}: {} over {} keys on {} nodes, {} fault(s) — {}",
            self.schema,
            self.algorithm,
            self.keys.len(),
            self.nodes,
            self.plan.fault_count(),
            self.outcome.summary(),
        )
    }
}

/// Why recording, replaying, or loading a trace failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The trace was written by a newer schema than this build reads.
    Schema {
        /// Version found in the trace.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// The run inputs are unusable (sizes, divisibility, …).
    InvalidSpec(String),
    /// Reading or writing the trace file failed.
    Io(String),
    /// The trace file is not valid trace JSON.
    Parse(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Schema { found, supported } => write!(
                f,
                "trace schema v{found} is newer than supported v{supported}"
            ),
            ReplayError::InvalidSpec(msg) => write!(f, "invalid run spec: {msg}"),
            ReplayError::Io(msg) => write!(f, "trace i/o failed: {msg}"),
            ReplayError::Parse(msg) => write!(f, "trace parse failed: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Executes `spec` on the deterministic scheduler and records what happened.
///
/// # Errors
///
/// [`ReplayError::InvalidSpec`] when the inputs cannot form a run (e.g. the
/// key count does not divide over the cube).
pub fn record(spec: RecordSpec) -> Result<RunTrace, ReplayError> {
    let nodes = spec.nodes.unwrap_or(spec.keys.len());
    let (outcome, events) = execute(
        spec.algorithm,
        &spec.keys,
        nodes,
        spec.direction,
        spec.cost,
        spec.recv_timeout,
        spec.job,
        &spec.plan,
        spec.capture_events,
    )?;
    Ok(RunTrace {
        schema: SCHEMA_VERSION,
        algorithm: spec.algorithm,
        keys: spec.keys,
        nodes: nodes as u64,
        direction: spec.direction,
        cost: spec.cost,
        recv_timeout: spec.recv_timeout,
        job: spec.job,
        plan: spec.plan,
        outcome,
        events,
    })
}

/// Re-executes a trace's inputs deterministically and returns the fresh
/// recording (same schema, same inputs, freshly observed outcome).
///
/// # Errors
///
/// [`ReplayError::Schema`] for traces from a newer format;
/// [`ReplayError::InvalidSpec`] when the recorded inputs no longer form a
/// valid run.
pub(crate) fn replay(trace: &RunTrace) -> Result<RunTrace, ReplayError> {
    if trace.schema > SCHEMA_VERSION {
        return Err(ReplayError::Schema {
            found: trace.schema,
            supported: SCHEMA_VERSION,
        });
    }
    let (outcome, events) = execute(
        trace.algorithm,
        &trace.keys,
        trace.nodes as usize,
        trace.direction,
        trace.cost,
        trace.recv_timeout,
        trace.job,
        &trace.plan,
        trace.events.is_some(),
    )?;
    Ok(RunTrace {
        schema: SCHEMA_VERSION,
        algorithm: trace.algorithm,
        keys: trace.keys.clone(),
        nodes: trace.nodes,
        direction: trace.direction,
        cost: trace.cost,
        recv_timeout: trace.recv_timeout,
        job: trace.job,
        plan: trace.plan.clone(),
        outcome,
        events,
    })
}

#[allow(clippy::too_many_arguments)]
fn execute(
    algorithm: Algorithm,
    keys: &[Key],
    nodes: usize,
    direction: SortDirection,
    cost: CostModel,
    recv_timeout: Duration,
    job: u64,
    plan: &FaultPlan,
    capture_events: bool,
) -> Result<(RecordedOutcome, Option<Trace>), ReplayError> {
    let builder = SortBuilder::new(algorithm)
        .keys(keys.to_vec())
        .nodes(nodes)
        .direction(direction)
        .cost_model(cost)
        .recv_timeout(recv_timeout)
        .job(job)
        .fault_plan(plan.clone())
        .trace(capture_events);
    match builder.run_deterministic() {
        Ok(report) => {
            let elapsed = report.elapsed();
            let events = capture_events.then(|| report.trace().clone());
            Ok((
                RecordedOutcome::Completed {
                    output: report.output().to_vec(),
                    elapsed,
                },
                events,
            ))
        }
        Err(SortError::Detected { reports, .. }) => {
            Ok((RecordedOutcome::FailStop { reports }, None))
        }
        Err(err) => Err(ReplayError::InvalidSpec(err.to_string())),
    }
}

/// The outcome of verifying a trace: every divergence between the recording
/// and its deterministic re-execution.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Human-readable divergences; empty means bit-exact.
    pub(crate) diffs: Vec<String>,
}

impl VerifyReport {
    /// `true` when the re-execution reproduced the recording bit for bit.
    pub fn is_bit_exact(&self) -> bool {
        self.diffs.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diffs.is_empty() {
            return f.write_str("bit-exact");
        }
        writeln!(f, "{} divergence(s):", self.diffs.len())?;
        for diff in &self.diffs {
            writeln!(f, "  - {diff}")?;
        }
        Ok(())
    }
}

/// Replays `trace` and diffs the observed run against the recording.
///
/// # Errors
///
/// Propagates the replay's errors; a *successfully executed* divergent run
/// is not an error — it is a [`VerifyReport`] with diffs.
pub fn verify(trace: &RunTrace) -> Result<VerifyReport, ReplayError> {
    let fresh = replay(trace)?;
    let mut diffs = Vec::new();
    diff_outcomes(&trace.outcome, &fresh.outcome, &mut diffs);
    if let (Some(recorded), Some(observed)) = (&trace.events, &fresh.events) {
        diff_events(recorded, observed, &mut diffs);
    }
    Ok(VerifyReport { diffs })
}

fn diff_outcomes(recorded: &RecordedOutcome, observed: &RecordedOutcome, diffs: &mut Vec<String>) {
    match (recorded, observed) {
        (
            RecordedOutcome::Completed {
                output: a,
                elapsed: ea,
            },
            RecordedOutcome::Completed {
                output: b,
                elapsed: eb,
            },
        ) => {
            if ea != eb {
                diffs.push(format!("makespan: recorded {ea}, replay {eb}"));
            }
            if a != b {
                match first_mismatch(a, b) {
                    Some(i) => diffs.push(format!(
                        "output diverges at index {i}: recorded {:?}, replay {:?}",
                        a.get(i),
                        b.get(i)
                    )),
                    None => diffs.push(format!(
                        "output length: recorded {}, replay {}",
                        a.len(),
                        b.len()
                    )),
                }
            }
        }
        (RecordedOutcome::FailStop { reports: a }, RecordedOutcome::FailStop { reports: b }) => {
            if a.len() != b.len() {
                diffs.push(format!(
                    "report count: recorded {}, replay {}",
                    a.len(),
                    b.len()
                ));
            }
            for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
                if ra != rb {
                    diffs.push(format!("report {i}: recorded [{ra}], replay [{rb}]"));
                }
            }
        }
        (RecordedOutcome::Completed { .. }, RecordedOutcome::FailStop { reports }) => {
            diffs.push(format!(
                "recorded a completed sort; replay fail-stopped with {} report(s)",
                reports.len()
            ));
        }
        (RecordedOutcome::FailStop { reports }, RecordedOutcome::Completed { .. }) => {
            diffs.push(format!(
                "recorded a fail-stop ({} report(s)); replay completed",
                reports.len()
            ));
        }
    }
}

fn diff_events(recorded: &Trace, observed: &Trace, diffs: &mut Vec<String>) {
    let a = recorded.events();
    let b = observed.events();
    if a.len() != b.len() {
        diffs.push(format!(
            "event count: recorded {}, replay {}",
            a.len(),
            b.len()
        ));
    }
    if let Some(i) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        diffs.push(format!(
            "event stream diverges at {i}: recorded [{}], replay [{}]",
            a[i], b[i]
        ));
    }
}

fn first_mismatch(a: &[Key], b: &[Key]) -> Option<usize> {
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}

/// Serializes a trace to its JSON wire form.
pub fn to_json(trace: &RunTrace) -> String {
    serde_json::to_string(trace).unwrap_or_default()
}

/// Parses a trace from JSON, enforcing the schema bound.
///
/// # Errors
///
/// [`ReplayError::Parse`] on malformed JSON, [`ReplayError::Schema`] on a
/// trace from a newer format.
pub fn from_json(json: &str) -> Result<RunTrace, ReplayError> {
    let trace: RunTrace =
        serde_json::from_str(json).map_err(|err| ReplayError::Parse(err.to_string()))?;
    if trace.schema > SCHEMA_VERSION {
        return Err(ReplayError::Schema {
            found: trace.schema,
            supported: SCHEMA_VERSION,
        });
    }
    Ok(trace)
}

/// Writes a trace as JSON to `path` (the nightly-soak artifact format).
///
/// # Errors
///
/// [`ReplayError::Io`] when the file cannot be written.
pub fn write_trace(path: impl AsRef<Path>, trace: &RunTrace) -> Result<(), ReplayError> {
    std::fs::write(path.as_ref(), to_json(trace))
        .map_err(|err| ReplayError::Io(format!("{}: {err}", path.as_ref().display())))
}

/// Reads a trace written by [`write_trace`].
///
/// # Errors
///
/// [`ReplayError::Io`] on unreadable files, plus [`from_json`]'s errors.
pub fn read_trace(path: impl AsRef<Path>) -> Result<RunTrace, ReplayError> {
    let json = std::fs::read_to_string(path.as_ref())
        .map_err(|err| ReplayError::Io(format!("{}: {err}", path.as_ref().display())))?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoft_faults::{FaultKind, Trigger};
    use aoft_hypercube::NodeId;
    use proptest::prelude::*;

    fn corrupt_plan() -> FaultPlan {
        FaultPlan::new().with_fault(
            NodeId::new(3),
            FaultKind::CorruptValue,
            Trigger::always(),
            9,
        )
    }

    #[test]
    fn honest_run_records_and_verifies() {
        let spec = RecordSpec::new(Algorithm::FaultTolerant, (0..16).rev().collect())
            .nodes(16)
            .capture_events(true);
        let trace = record(spec).unwrap();
        assert!(matches!(
            &trace.outcome,
            RecordedOutcome::Completed { output, .. } if output == &(0..16).collect::<Vec<_>>()
        ));
        assert!(trace
            .events
            .as_ref()
            .is_some_and(|t| !t.events().is_empty()));
        let report = verify(&trace).unwrap();
        assert!(report.is_bit_exact(), "{report}");
    }

    #[test]
    fn faulty_run_records_the_violation_sequence() {
        let spec = RecordSpec::new(Algorithm::FaultTolerant, (0..16).rev().collect())
            .nodes(16)
            .fault_plan(corrupt_plan());
        let trace = record(spec).unwrap();
        let RecordedOutcome::FailStop { reports } = &trace.outcome else {
            panic!(
                "corrupting adversary must fail-stop, got {:?}",
                trace.outcome
            );
        };
        assert!(!reports.is_empty());
        let report = verify(&trace).unwrap();
        assert!(report.is_bit_exact(), "{report}");
    }

    #[test]
    fn tampered_trace_is_caught() {
        let spec = RecordSpec::new(Algorithm::NonRedundant, (0..8).rev().collect());
        let mut trace = record(spec).unwrap();
        // An attacker (or a code regression) flips one output key.
        let RecordedOutcome::Completed { output, .. } = &mut trace.outcome else {
            panic!("honest run completes");
        };
        output[0] ^= 1;
        let report = verify(&trace).unwrap();
        assert!(!report.is_bit_exact());
        assert!(report.to_string().contains("output diverges at index 0"));
    }

    #[test]
    fn v1_trace_still_loads_and_verifies() {
        // A v1 trace is a strict subset of the v2 format: same fields, only
        // the v1-era fault kinds. Re-stamping a v1 schema number on such a
        // trace must round-trip and verify unchanged.
        let spec = RecordSpec::new(Algorithm::FaultTolerant, (0..16).rev().collect())
            .nodes(16)
            .fault_plan(corrupt_plan());
        let mut trace = record(spec).unwrap();
        trace.schema = 1;
        let back = from_json(&to_json(&trace)).unwrap();
        assert_eq!(back.schema, 1);
        let report = verify(&back).unwrap();
        assert!(report.is_bit_exact(), "{report}");
    }

    #[test]
    fn byzantine_kinds_record_and_verify_bit_exact() {
        // The v2 additions: equivocation and check-metadata corruption
        // replay bit-exactly from their recorded seeds.
        for kind in [FaultKind::Equivocate, FaultKind::CorruptLbs] {
            let plan = FaultPlan::new().with_fault(NodeId::new(2), kind, Trigger::from_seq(1), 77);
            let spec = RecordSpec::new(Algorithm::FaultTolerant, (0..16).rev().collect())
                .nodes(8)
                .fault_plan(plan);
            let trace = record(spec).unwrap();
            assert_eq!(trace.schema, SCHEMA_VERSION);
            let report = verify(&trace).unwrap();
            assert!(report.is_bit_exact(), "{kind}: {report}");
        }
    }

    #[test]
    fn newer_schema_is_rejected() {
        let spec = RecordSpec::new(Algorithm::NonRedundant, vec![2, 1]);
        let mut trace = record(spec).unwrap();
        trace.schema = SCHEMA_VERSION + 1;
        let json = to_json(&trace);
        assert_eq!(
            from_json(&json),
            Err(ReplayError::Schema {
                found: SCHEMA_VERSION + 1,
                supported: SCHEMA_VERSION,
            })
        );
        assert!(matches!(verify(&trace), Err(ReplayError::Schema { .. })));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("aoft-replay-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let trace = record(
            RecordSpec::new(Algorithm::FaultTolerant, (0..8).rev().collect())
                .fault_plan(corrupt_plan())
                .job(42),
        )
        .unwrap();
        write_trace(&path, &trace).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back, trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Trace JSON encode→decode is the identity, across honest and
        /// faulty runs, all algorithms, both directions.
        #[test]
        fn trace_json_round_trip_identity(
            algo_pick in 0usize..4,
            descending in any::<bool>(),
            keys in prop::collection::vec(-1000i32..1000, 1..9),
            faulty in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let algorithm = Algorithm::ALL[algo_pick];
            // Pad to a power-of-two key count (one key per node).
            let mut keys = keys;
            let len = keys.len().next_power_of_two();
            while keys.len() < len {
                keys.push(0);
            }
            let mut spec = RecordSpec::new(algorithm, keys).job(seed % 1000);
            if descending {
                spec = spec.direction(SortDirection::Descending);
            }
            if faulty && len >= 4 {
                spec = spec.fault_plan(FaultPlan::new().with_fault(
                    NodeId::new(1),
                    FaultKind::CorruptValue,
                    Trigger::from_seq(seed % 4),
                    seed,
                ));
            }
            let trace = record(spec).unwrap();
            let back = from_json(&to_json(&trace)).unwrap();
            prop_assert_eq!(back, trace);
        }
    }
}
