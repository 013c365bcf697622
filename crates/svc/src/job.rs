//! Jobs: what clients submit, what they get back, and how either side can
//! fail.

use std::fmt;
use std::time::Duration;

use aoft_faults::FaultPlan;
use aoft_sim::{ErrorReport, NodeMetrics, Trace};
use aoft_sort::{Key, SortDirection};
use crossbeam_channel::{Receiver, RecvTimeoutError};

/// Service-assigned job identity, unique for the service's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One sort request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The keys to sort.
    pub keys: Vec<Key>,
    /// Requested output order.
    pub direction: SortDirection,
    /// Model-level faults injected into this job's *first* attempt — the
    /// service-side hook for fault campaigns and soak tests; `None` runs
    /// clean. Retries run without it, modeling a transient fault: the
    /// paper's recovery loop re-runs on a machine the fault has left (a
    /// deterministic model fault would otherwise defeat every retry).
    /// A fault that outlives one run is the same kind of plan mounted on
    /// the wire (`aoft_adv::ByzantineTransport`), whose per-link state the
    /// service's link cache keeps alive across jobs.
    pub fault_plan: Option<FaultPlan>,
    /// Capture the simulator's event trace of the successful attempt into
    /// [`JobReport::trace`] — the raw material `aoft-replay` records
    /// alongside a soak run. Off by default (tracing costs memory
    /// proportional to message count).
    pub capture_trace: bool,
}

impl JobSpec {
    /// An ascending sort of `keys`.
    pub fn new(keys: Vec<Key>) -> Self {
        Self {
            keys,
            direction: SortDirection::Ascending,
            fault_plan: None,
            capture_trace: false,
        }
    }

    /// Overrides the output order.
    pub fn direction(mut self, direction: SortDirection) -> Self {
        self.direction = direction;
        self
    }

    /// Injects model-level faults into the job's first attempt.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Captures the successful attempt's simulator trace in the report.
    pub fn capture_trace(mut self, enabled: bool) -> Self {
        self.capture_trace = enabled;
        self
    }

    /// Refuses a spec no `2^dim`-node cube can run: any degraded subcube
    /// is a smaller power of two, so checking the full cube suffices.
    pub(crate) fn servable_on(&self, dim: u32) -> Result<(), SubmitError> {
        let (keys, nodes) = (self.keys.len(), 1usize << dim);
        if keys == 0 || keys % nodes != 0 {
            return Err(SubmitError::Invalid(format!(
                "{keys} keys are not a positive multiple of the {nodes}-node cube"
            )));
        }
        Ok(())
    }
}

/// The result of a completed job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job this report answers.
    pub id: JobId,
    /// The fully sorted keys.
    pub output: Vec<Key>,
    /// Attempts consumed, including the successful one.
    pub attempts: usize,
    /// Cube dimension the *successful* attempt ran on (smaller than the
    /// service's dimension when the job completed in degraded mode).
    pub dim: u32,
    /// Fail-stop reports of each failed attempt, in order (empty when the
    /// first attempt succeeded).
    pub detections: Vec<Vec<ErrorReport>>,
    /// Wall-clock time from submission to completion (queue wait included).
    pub latency: Duration,
    /// Merged per-node simulator counters of the successful attempt (empty
    /// for a job a cube-host child answered: they stay in the child).
    pub metrics: NodeMetrics,
    /// Total effort billed to this job, in ticks: node-time (send + idle +
    /// compute) summed over *every* attempt, including fail-stopped ones —
    /// the Dwork–Halpern–Waarts-style work measure, as opposed to
    /// `latency` (the client-visible makespan).
    pub effort: u64,
    /// Event trace of the successful attempt (empty unless the spec set
    /// [`JobSpec::capture_trace`], and always empty for a job a cube-host
    /// child answered).
    pub trace: Trace,
}

impl JobReport {
    /// `true` if the job needed recovery (at least one attempt fail-stopped
    /// before the successful one).
    pub fn recovered(&self) -> bool {
        !self.detections.is_empty()
    }
}

/// Why a job submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and resubmit.
    Backpressure {
        /// The configured admission bound that was hit.
        depth: usize,
    },
    /// The request can never run on this service (shape mismatch).
    Invalid(String),
    /// The service has shut down.
    Stopped,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Backpressure { depth } => {
                write!(f, "queue full ({depth} jobs): backpressure")
            }
            SubmitError::Invalid(msg) => write!(f, "unservable job: {msg}"),
            SubmitError::Stopped => write!(f, "service stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an admitted job ultimately failed.
///
/// Every variant is a *loud* failure: per the paper's fail-stop discipline
/// the service never delivers an unverified (possibly wrong) result.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Every attempt fail-stopped; the final attempt's reports are
    /// attached.
    Exhausted {
        /// Attempts consumed.
        attempts: usize,
        /// Fail-stop reports of every attempt, in order.
        detections: Vec<Vec<ErrorReport>>,
    },
    /// Quarantine shrank the healthy cube below the configured minimum
    /// dimension — no machine is left to retry on.
    CubeExhausted {
        /// Healthy (non-quarantined, non-suspect) nodes remaining.
        healthy: usize,
        /// The smallest dimension the service may degrade to.
        min_dim: u32,
    },
    /// The job's shape is unusable (caught post-admission, e.g. after a
    /// degraded cube changed the divisibility requirement).
    Invalid(String),
    /// The worker's run infrastructure failed (e.g. a link could not be
    /// established); the job did not produce a result.
    Runtime(String),
    /// The service shut down before the job ran to completion.
    Stopped,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Exhausted {
                attempts,
                detections,
            } => write!(
                f,
                "all {attempts} attempt(s) fail-stopped ({} report set(s))",
                detections.len()
            ),
            JobError::CubeExhausted { healthy, min_dim } => write!(
                f,
                "only {healthy} healthy node(s) left, below the 2^{min_dim} minimum cube"
            ),
            JobError::Invalid(msg) => write!(f, "invalid job: {msg}"),
            JobError::Runtime(msg) => write!(f, "run infrastructure failed: {msg}"),
            JobError::Stopped => write!(f, "service stopped before completion"),
        }
    }
}

impl std::error::Error for JobError {}

/// A submitted job's claim ticket.
///
/// The service completes jobs asynchronously; the handle is the reliable
/// reply channel (the service's analogue of the paper's host link).
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) reply: Receiver<Result<JobReport, JobError>>,
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks until the job completes or fails.
    ///
    /// # Errors
    ///
    /// The job's [`JobError`]; a service torn down mid-job yields
    /// [`JobError::Stopped`].
    pub fn wait(self) -> Result<JobReport, JobError> {
        match self.reply.recv() {
            Ok(result) => result,
            Err(_) => Err(JobError::Stopped),
        }
    }

    /// Like [`wait`](JobHandle::wait), bounded by `timeout`. `None` means
    /// the job is still in flight (the handle remains usable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobReport, JobError>> {
        match self.reply.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(JobError::Stopped)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    #[test]
    fn handle_relays_the_result() {
        let (tx, rx) = unbounded();
        let handle = JobHandle {
            id: JobId(7),
            reply: rx,
        };
        assert_eq!(handle.id(), JobId(7));
        tx.send(Err(JobError::Stopped)).unwrap();
        assert!(matches!(handle.wait(), Err(JobError::Stopped)));
    }

    #[test]
    fn dropped_service_reads_as_stopped() {
        let (tx, rx) = unbounded::<Result<JobReport, JobError>>();
        drop(tx);
        let handle = JobHandle {
            id: JobId(1),
            reply: rx,
        };
        assert!(matches!(handle.wait(), Err(JobError::Stopped)));
    }

    #[test]
    fn wait_timeout_distinguishes_in_flight() {
        let (tx, rx) = unbounded();
        let handle = JobHandle {
            id: JobId(2),
            reply: rx,
        };
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_none());
        tx.send(Err(JobError::Stopped)).unwrap();
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_some());
    }

    #[test]
    fn errors_display() {
        assert!(SubmitError::Backpressure { depth: 4 }
            .to_string()
            .contains("backpressure"));
        assert!(JobError::CubeExhausted {
            healthy: 1,
            min_dim: 1
        }
        .to_string()
        .contains("healthy"));
        assert!(JobId(3).to_string().contains('3'));
    }
}
