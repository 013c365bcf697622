//! High-level API: configure a machine, pick an algorithm, sort.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use aoft_faults::FaultPlan;
use aoft_hypercube::Hypercube;
use aoft_sim::{
    CostModel, DetEngine, Engine, ErrorReport, InProc, Packet, RunMetrics, RunReport, SimConfig,
    Simulator, Ticks, Trace, Transport,
};

use crate::{block, host, Block, Key, Msg, SftProgram, SnrProgram};

/// Which sorting strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// `S_NR` (Figure 2): fast, unreliable.
    NonRedundant,
    /// `S_FT` (Figure 3): constraint-predicate checked, fail-stop.
    FaultTolerant,
    /// Gather–sort–scatter on the host (Section 5 baseline).
    HostSequential,
    /// `S_NR` in the nodes, Theorem 1 verification on the host (Section 5
    /// baseline).
    HostVerified,
}

impl Algorithm {
    /// All algorithms, for sweeps.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::NonRedundant,
        Algorithm::FaultTolerant,
        Algorithm::HostSequential,
        Algorithm::HostVerified,
    ];

    /// Short stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::NonRedundant => "S_NR",
            Algorithm::FaultTolerant => "S_FT",
            Algorithm::HostSequential => "host-seq",
            Algorithm::HostVerified => "host-verify",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Requested output order (Definition 1 admits either).
///
/// The bitonic network itself always produces an ascending arrangement; a
/// descending sort runs the identical schedule on order-reflected keys
/// (`k ↦ !k`, the overflow-free two's-complement reflection) and reflects
/// the output back, so fault coverage and costs are exactly those of the
/// ascending sort.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum SortDirection {
    /// Non-decreasing output (the default).
    #[default]
    Ascending,
    /// Non-increasing output.
    Descending,
}

/// Errors from [`SortBuilder::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum SortError {
    /// The requested configuration is unusable (sizes, divisibility, …).
    InvalidInput(String),
    /// The machine fail-stopped: faulty behaviour was detected and no
    /// output was produced — the guarantee of Theorem 3, surfaced as an
    /// error so callers cannot mistake a detection for a result.
    Detected {
        /// The diagnostics delivered to the host, in detection order.
        reports: Vec<ErrorReport>,
        /// Effort spent before the fail-stop: total node-time (send +
        /// idle + compute) in ticks across the machine — the work the
        /// detection discarded, which retry-level accounting must still
        /// bill.
        effort: u64,
    },
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            SortError::Detected { reports, .. } => match reports.first() {
                Some(first) => write!(
                    f,
                    "fault detected, machine fail-stopped ({} report(s); first: {first})",
                    reports.len()
                ),
                None => write!(f, "fault detected, machine fail-stopped"),
            },
        }
    }
}

impl Error for SortError {}

/// The result of a completed (non-fail-stopped) sort.
#[derive(Debug, Clone)]
pub struct SortReport {
    algorithm: Algorithm,
    output: Vec<Key>,
    blocks: Vec<Block>,
    metrics: RunMetrics,
    trace: Trace,
}

impl SortReport {
    /// The fully sorted keys, in machine order (node 0's block first).
    pub fn output(&self) -> &[Key] {
        &self.output
    }

    /// Per-node result blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The algorithm that ran.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Virtual-time and traffic metrics of the run.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The run's virtual makespan (the quantity of Figures 6–8).
    pub fn elapsed(&self) -> Ticks {
        self.metrics.elapsed()
    }

    /// The event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// Configures and runs one distributed sort.
///
/// Consuming builder: configure, then [`run`](SortBuilder::run).
///
/// # Examples
///
/// ```
/// use aoft_sort::{Algorithm, SortBuilder};
///
/// // 16 keys over 4 nodes: blocks of m = 4.
/// let keys: Vec<i32> = (0..16).rev().collect();
/// let report = SortBuilder::new(Algorithm::FaultTolerant)
///     .keys(keys)
///     .nodes(4)
///     .run()?;
/// assert_eq!(report.output(), (0..16).collect::<Vec<i32>>());
/// # Ok::<(), aoft_sort::SortError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SortBuilder {
    algorithm: Algorithm,
    keys: Vec<Key>,
    nodes: Option<usize>,
    cost: CostModel,
    timeout: Duration,
    plan: FaultPlan,
    trace: bool,
    direction: SortDirection,
    job: u64,
}

impl SortBuilder {
    /// Starts a sort configuration for `algorithm`.
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            keys: Vec::new(),
            nodes: None,
            cost: CostModel::default(),
            timeout: Duration::from_secs(2),
            plan: FaultPlan::new(),
            trace: false,
            direction: SortDirection::Ascending,
            job: 0,
        }
    }

    /// The keys to sort. Without [`nodes`](SortBuilder::nodes) set, one key
    /// per node.
    pub fn keys(mut self, keys: Vec<Key>) -> Self {
        self.keys = keys;
        self
    }

    /// Number of hypercube nodes (must be a power of two dividing the key
    /// count).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Virtual-time cost model (defaults to
    /// [`CostModel::ncube_1989`]).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Real-time receive timeout (assumption 4's absence detector).
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Byzantine faults to inject.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Enables event tracing.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Selects ascending (default) or descending output order.
    pub fn direction(mut self, direction: SortDirection) -> Self {
        self.direction = direction;
        self
    }

    /// Tags every packet of this run with a job id (see
    /// [`SimConfig::job`]).
    ///
    /// Irrelevant for a one-shot sort on a fresh transport; required to be
    /// unique per run when a service multiplexes a stream of sorts over
    /// reused links, so stale frames from a fail-stopped predecessor are
    /// discarded instead of consumed.
    pub fn job(mut self, id: u64) -> Self {
        self.job = id;
        self
    }

    fn resolve_shape(&self) -> Result<(usize, usize), SortError> {
        let len = self.keys.len();
        if len == 0 {
            return Err(SortError::InvalidInput("no keys to sort".into()));
        }
        let (nodes, m) = match self.nodes {
            None => (len, 1),
            Some(n) => {
                if n == 0 || len % n != 0 {
                    return Err(SortError::InvalidInput(format!(
                        "{len} keys do not divide over {n} nodes"
                    )));
                }
                (n, len / n)
            }
        };
        if !nodes.is_power_of_two() {
            return Err(SortError::InvalidInput(format!(
                "node count {nodes} is not a power of two"
            )));
        }
        Ok((nodes, m))
    }

    /// Runs the configured sort.
    ///
    /// # Errors
    ///
    /// * [`SortError::InvalidInput`] — unusable configuration;
    /// * [`SortError::Detected`] — the machine fail-stopped (for `S_FT` and
    ///   the host-verified baseline this is the *designed* response to
    ///   faults; for `S_NR` it only occurs on omission faults that starve a
    ///   receive).
    pub fn run(self) -> Result<SortReport, SortError> {
        self.run_on(InProc::new())
    }

    /// Runs the configured sort over an explicit transport medium.
    ///
    /// [`run`](SortBuilder::run) is this with [`InProc`] — the node
    /// programs are identical either way; only the medium carrying their
    /// compare-exchange traffic changes. Hand a
    /// [`MuxTransport`](aoft_net::MuxTransport) here and the same `S_FT`
    /// schedule runs over real sockets, with the transport's failure
    /// detector feeding the very same fail-stop path as a simulated
    /// omission fault. Host links stay in-process regardless (environmental
    /// assumption 2: host links are reliable).
    ///
    /// # Errors
    ///
    /// As [`run`](SortBuilder::run); transport-level failures (dead peer,
    /// corrupt stream) surface as [`SortError::Detected`].
    pub fn run_on<T>(self, transport: T) -> Result<SortReport, SortError>
    where
        T: Transport<Packet<Msg>> + Send,
    {
        self.run_machine(|cube, config| Engine::with_transport(cube, config, transport))
    }

    /// Runs the configured sort on the deterministic cooperative scheduler
    /// ([`DetEngine`]) instead of free-running threads.
    ///
    /// The node programs, cost accounting and fault plan are identical to
    /// [`run`](SortBuilder::run); what changes is that every scheduling
    /// decision — delivery order, timeout firing, cancellation observation —
    /// is made deterministically, so two calls with the same builder
    /// configuration produce bit-equal reports (and `aoft-replay` can verify
    /// a recorded run). Receive timeouts become *virtual*: they fire only
    /// when the machine is globally stalled, never from wall-clock pressure,
    /// which also makes 1024-node-and-up machines cheap enough for CI.
    ///
    /// # Errors
    ///
    /// As [`run`](SortBuilder::run).
    pub fn run_deterministic(self) -> Result<SortReport, SortError> {
        self.run_machine(DetEngine::new)
    }

    fn run_machine<E, F>(self, make_engine: F) -> Result<SortReport, SortError>
    where
        E: Simulator<Msg>,
        F: FnOnce(Hypercube, SimConfig) -> E,
    {
        let (nodes, _m) = self.resolve_shape()?;
        let dim = nodes.trailing_zeros();
        let cube = Hypercube::new(dim).map_err(|e| SortError::InvalidInput(e.to_string()))?;
        let config = SimConfig::new()
            .cost_model(self.cost)
            .recv_timeout(self.timeout)
            .trace(self.trace)
            .job(self.job);
        let engine = make_engine(cube, config);
        let keys: Vec<Key> = match self.direction {
            SortDirection::Ascending => self.keys,
            // Order reflection: !k = -k-1 is a strictly order-reversing
            // bijection on i32 with no overflow edge cases.
            SortDirection::Descending => self.keys.iter().map(|k| !k).collect(),
        };
        let blocks = block::distribute(&keys, nodes);
        for spec in self.plan.specs() {
            if spec.node.index() >= nodes {
                return Err(SortError::InvalidInput(format!(
                    "fault plan names {} but the machine has {nodes} nodes",
                    spec.node
                )));
            }
        }

        // Journal the active fault plan (kinds, triggers, RNG seeds) so a
        // recorded run carries everything replay needs to re-arm the same
        // adversaries.
        if !self.plan.specs().is_empty() {
            aoft_obs::emit(
                aoft_obs::Event::new("fault_plan")
                    .job(self.job)
                    .detail(serde_json::to_string(&self.plan).unwrap_or_default()),
            );
            for spec in self.plan.specs() {
                aoft_obs::emit(
                    aoft_obs::Event::new("fault_armed")
                        .job(self.job)
                        .node(spec.node.index() as u32)
                        .seed(spec.seed)
                        .detail(format!("{:?}", spec.kind)),
                );
            }
        }

        let reg = aoft_obs::global();
        reg.sort_runs.inc();
        let run_watch = aoft_obs::Stopwatch::new();
        let report: RunReport<Block> = match self.algorithm {
            Algorithm::NonRedundant => {
                engine.run_faulty(&SnrProgram::new(blocks), self.plan.build(nodes))
            }
            Algorithm::FaultTolerant => {
                engine.run_faulty(&SftProgram::new(blocks), self.plan.build(nodes))
            }
            Algorithm::HostSequential => host::sequential(&engine, blocks),
            Algorithm::HostVerified => host::verified(&engine, blocks, self.plan.build(nodes)),
        };
        reg.run_time.record(run_watch.elapsed());

        let (outcome, metrics, trace) = report.into_parts();
        match outcome {
            aoft_sim::Outcome::Completed(outputs) => {
                let outputs = match self.direction {
                    SortDirection::Ascending => outputs,
                    SortDirection::Descending => outputs
                        .into_iter()
                        .map(|b| {
                            // Reflect back: each block (and the whole
                            // machine order) becomes non-increasing.
                            Block::from_wire(b.keys().iter().map(|k| !k).collect())
                        })
                        .collect(),
                };
                Ok(SortReport {
                    algorithm: self.algorithm,
                    output: block::collect(&outputs),
                    blocks: outputs,
                    metrics,
                    trace,
                })
            }
            aoft_sim::Outcome::FailStop { reports } => {
                reg.sort_failstops.inc();
                aoft_obs::emit(aoft_obs::Event::new("sort_failstop").job(self.job).detail(
                    format!(
                            "{} report(s); first: {}",
                            reports.len(),
                            reports
                                .first()
                                .map_or_else(|| "none".to_string(), ToString::to_string)
                        ),
                ));
                Err(SortError::Detected {
                    reports,
                    effort: metrics.effort(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use aoft_faults::{FaultKind, Trigger};
    use aoft_hypercube::NodeId;

    use super::*;

    #[test]
    fn all_algorithms_sort_honest_input() {
        let keys = vec![10, 8, 3, 9, 4, 2, 7, 5];
        let mut expected = keys.clone();
        expected.sort_unstable();
        for algorithm in Algorithm::ALL {
            let report = SortBuilder::new(algorithm)
                .keys(keys.clone())
                .run()
                .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            assert_eq!(report.output(), expected, "{algorithm}");
            assert_eq!(report.algorithm(), algorithm);
            assert!(report.elapsed() > Ticks::ZERO);
        }
    }

    #[test]
    fn block_shapes() {
        let keys: Vec<Key> = (0..32).rev().collect();
        let by_nodes = SortBuilder::new(Algorithm::FaultTolerant)
            .keys(keys)
            .nodes(8)
            .run()
            .unwrap();
        assert_eq!(by_nodes.output(), (0..32).collect::<Vec<Key>>());
        assert_eq!(by_nodes.blocks().len(), 8);
        assert_eq!(by_nodes.blocks()[0].len(), 4);
    }

    #[test]
    fn invalid_shapes_rejected() {
        let err = |b: SortBuilder| match b.run() {
            Err(SortError::InvalidInput(msg)) => msg,
            other => panic!("expected InvalidInput, got {other:?}"),
        };
        assert!(err(SortBuilder::new(Algorithm::NonRedundant)).contains("no keys"));
        assert!(
            err(SortBuilder::new(Algorithm::NonRedundant).keys(vec![1, 2, 3]))
                .contains("power of two")
        );
        assert!(
            err(SortBuilder::new(Algorithm::NonRedundant)
                .keys(vec![1, 2, 3, 4])
                .nodes(3))
            .contains("not a power of two")
                || err(SortBuilder::new(Algorithm::NonRedundant)
                    .keys(vec![1, 2, 3, 4])
                    .nodes(3))
                .contains("divide")
        );
        assert!(err(SortBuilder::new(Algorithm::NonRedundant)
            .keys(vec![1, 2])
            .fault_plan(FaultPlan::new().with_fault(
                NodeId::new(7),
                FaultKind::Crash,
                Trigger::always(),
                0
            )))
        .contains("fault plan"));
    }

    #[test]
    fn sft_detects_injected_fault() {
        let plan = FaultPlan::new().with_fault(
            NodeId::new(3),
            FaultKind::CorruptValue,
            Trigger::from_seq(1),
            9,
        );
        let result = SortBuilder::new(Algorithm::FaultTolerant)
            .keys((0..16).rev().collect())
            .fault_plan(plan)
            .run();
        match result {
            Err(SortError::Detected { reports, effort }) => {
                assert!(!reports.is_empty());
                assert_ne!(reports[0].code, 0, "a predicate fired, not a timeout");
                assert!(effort > 0, "a fail-stopped run still did work");
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn snr_is_silently_wrong_under_corruption() {
        let plan = FaultPlan::new().with_fault(
            NodeId::new(3),
            FaultKind::CorruptValue,
            Trigger::always(),
            9,
        );
        let keys: Vec<Key> = (0..16).rev().collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        let report = SortBuilder::new(Algorithm::NonRedundant)
            .keys(keys)
            .fault_plan(plan)
            .run()
            .expect("S_NR has no checks and completes");
        assert_ne!(report.output(), expected, "the baseline silently corrupts");
    }

    #[test]
    fn descending_sorts_all_algorithms() {
        let keys = vec![10, 8, 3, 9, 4, 2, 7, 5];
        let mut expected = keys.clone();
        expected.sort_unstable();
        expected.reverse();
        for algorithm in Algorithm::ALL {
            let report = SortBuilder::new(algorithm)
                .keys(keys.clone())
                .direction(SortDirection::Descending)
                .run()
                .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            assert_eq!(report.output(), expected, "{algorithm}");
        }
    }

    #[test]
    fn descending_handles_extremes_without_overflow() {
        let keys = vec![i32::MIN, i32::MAX, 0, -1];
        let report = SortBuilder::new(Algorithm::FaultTolerant)
            .keys(keys)
            .direction(SortDirection::Descending)
            .run()
            .unwrap();
        assert_eq!(report.output(), &[i32::MAX, 0, -1, i32::MIN]);
    }

    #[test]
    fn descending_preserves_fault_detection() {
        let plan = FaultPlan::new().with_fault(
            NodeId::new(1),
            FaultKind::TwoFaced,
            Trigger::from_seq(1),
            4,
        );
        let result = SortBuilder::new(Algorithm::FaultTolerant)
            .keys((0..16).collect())
            .direction(SortDirection::Descending)
            .fault_plan(plan)
            .run();
        assert!(matches!(result, Err(SortError::Detected { .. })));
    }

    #[test]
    fn display_and_names() {
        assert_eq!(Algorithm::FaultTolerant.to_string(), "S_FT");
        let err = SortError::InvalidInput("nope".into());
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn diagnosis_localizes_an_injected_fault() {
        for faulty in 0..8u32 {
            let plan = FaultPlan::new().with_fault(
                NodeId::new(faulty),
                FaultKind::CorruptValue,
                Trigger::from_seq(1),
                faulty as u64 + 40,
            );
            let Err(SortError::Detected { reports, .. }) =
                SortBuilder::new(Algorithm::FaultTolerant)
                    .keys((0..8).rev().collect())
                    .fault_plan(plan)
                    .recv_timeout(Duration::from_millis(300))
                    .run()
            else {
                continue; // fault absorbed: nothing to diagnose
            };
            let diagnosis = crate::diagnosis::diagnose(&reports, 3);
            assert!(
                diagnosis.suspects().contains(NodeId::new(faulty)),
                "P{faulty} missing from {diagnosis}"
            );
        }
    }

    #[test]
    fn deterministic_engine_runs_all_algorithms() {
        let keys = vec![10, 8, 3, 9, 4, 2, 7, 5];
        for algorithm in Algorithm::ALL {
            let threaded = SortBuilder::new(algorithm)
                .keys(keys.clone())
                .run()
                .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            let det = SortBuilder::new(algorithm)
                .keys(keys.clone())
                .run_deterministic()
                .unwrap_or_else(|e| panic!("{algorithm} (det): {e}"));
            assert_eq!(det.output(), threaded.output(), "{algorithm}");
            assert_eq!(det.elapsed(), threaded.elapsed(), "{algorithm} makespan");
        }
    }

    #[test]
    fn deterministic_detection_is_bit_stable() {
        let plan = || {
            FaultPlan::new().with_fault(
                NodeId::new(3),
                FaultKind::CorruptValue,
                Trigger::from_seq(1),
                9,
            )
        };
        let attempt = || {
            SortBuilder::new(Algorithm::FaultTolerant)
                .keys((0..16).rev().collect())
                .fault_plan(plan())
                .run_deterministic()
        };
        let (a, b) = (attempt(), attempt());
        match (a, b) {
            (
                Err(SortError::Detected { reports: ra, .. }),
                Err(SortError::Detected { reports: rb, .. }),
            ) => {
                assert!(!ra.is_empty());
                assert_eq!(ra, rb, "identical Φ-violation sequence across runs");
            }
            other => panic!("expected two detections, got {other:?}"),
        }
    }

    #[test]
    fn trace_can_be_enabled() {
        let report = SortBuilder::new(Algorithm::NonRedundant)
            .keys(vec![2, 1])
            .trace(true)
            .run()
            .unwrap();
        assert!(!report.trace().is_empty());
    }
}
