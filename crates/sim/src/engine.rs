use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use aoft_hypercube::{Hypercube, NodeId};
use aoft_net::{mailbox, InProc, LinkId, LinkRx, LinkTx, Transport};
use crossbeam_channel::unbounded;

use crate::adversary::AdversarySet;
use crate::error::{ErrorReport, SimError};
use crate::host::HostCtx;
use crate::message::{Packet, Payload};
use crate::metrics::{NodeMetrics, RunMetrics};
use crate::node::NodeCtx;
use crate::program::Program;
use crate::trace::{Event, Trace};
use crate::SimConfig;

// The machine-wide fail-stop token lives in the transport layer, where
// `cancel()` wakes every blocked receive — mailbox or socket.
pub(crate) use aoft_net::CancelToken;

/// How long link establishment may block per endpoint. Instant for
/// [`InProc`]; for TCP it bounds the dial plus the acceptor's routing of the
/// handshake, which on loopback is well under a millisecond per link.
const LINK_DEADLINE: Duration = Duration::from_secs(5);

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<T> {
    /// Every node finished; per-node outputs in label order.
    Completed(Vec<T>),
    /// The machine fail-stopped: at least one executable assertion fired (or
    /// a node died without output). No result was produced — exactly the
    /// guarantee of the paper's Theorem 3.
    FailStop {
        /// All error reports received by the host, ordered by detection time.
        reports: Vec<ErrorReport>,
    },
}

/// The result of one simulated run: outcome, metrics and (optionally) trace.
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    outcome: Outcome<T>,
    metrics: RunMetrics,
    trace: Trace,
}

impl<T> RunReport<T> {
    /// The run outcome.
    pub fn outcome(&self) -> &Outcome<T> {
        &self.outcome
    }

    /// Per-node outputs if the run completed, `None` if it fail-stopped.
    pub fn outputs(&self) -> Option<&[T]> {
        match &self.outcome {
            Outcome::Completed(outputs) => Some(outputs),
            Outcome::FailStop { .. } => None,
        }
    }

    /// Consumes the report, yielding outputs or the error reports.
    ///
    /// # Errors
    ///
    /// Returns the fail-stop reports if the run did not complete.
    pub fn into_outputs(self) -> Result<Vec<T>, Vec<ErrorReport>> {
        match self.outcome {
            Outcome::Completed(outputs) => Ok(outputs),
            Outcome::FailStop { reports } => Err(reports),
        }
    }

    /// Error reports delivered to the host (empty when the run completed).
    pub fn reports(&self) -> &[ErrorReport] {
        match &self.outcome {
            Outcome::Completed(_) => &[],
            Outcome::FailStop { reports } => reports,
        }
    }

    /// `true` if the machine fail-stopped.
    pub fn is_fail_stop(&self) -> bool {
        matches!(self.outcome, Outcome::FailStop { .. })
    }

    /// Virtual-time and traffic metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The merged event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the report, yielding outcome, metrics and trace as owned
    /// values — for callers that keep all three, without cloning any.
    pub fn into_parts(self) -> (Outcome<T>, RunMetrics, Trace) {
        (self.outcome, self.metrics, self.trace)
    }
}

/// The simulated multicomputer: topology, configuration and the medium its
/// links run over.
///
/// `Engine` is generic over the [`Transport`] that carries node-to-node
/// traffic. The default, [`InProc`], moves packets over in-process channels
/// — the original simulator. [`Engine::with_transport`] substitutes any
/// other medium (e.g. `aoft_net::MuxTransport` for a real-socket cluster)
/// without touching program code: host links and error signalling stay
/// in-process because the paper's host links are reliable by assumption 2,
/// and the medium under test is the node interconnect.
///
/// See the [crate-level documentation](crate) for the simulation model and
/// an end-to-end example.
pub struct Engine<T = InProc> {
    cube: Hypercube,
    config: SimConfig,
    transport: Arc<T>,
}

impl Engine {
    /// Creates a machine with the given topology and configuration, linked
    /// by in-process channels.
    pub fn new(cube: Hypercube, config: SimConfig) -> Self {
        Self::with_transport(cube, config, InProc::new())
    }
}

impl<T> Engine<T> {
    /// Creates a machine whose node links run over `transport`.
    pub fn with_transport(cube: Hypercube, config: SimConfig, transport: T) -> Self {
        Self {
            cube,
            config,
            transport: Arc::new(transport),
        }
    }

    /// The machine's topology.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }

    /// The machine's configuration.
    pub(crate) fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `program` on every node of a fully honest machine, with no host
    /// logic beyond error collection.
    pub fn run<M, P>(&self, program: &P) -> RunReport<P::Output>
    where
        M: Payload,
        P: Program<M>,
        T: Transport<Packet<M>>,
    {
        self.run_faulty(program, AdversarySet::honest(self.cube.len()))
    }

    /// Runs `program` with the given per-node adversaries installed.
    pub fn run_faulty<M, P>(
        &self,
        program: &P,
        adversaries: AdversarySet<M>,
    ) -> RunReport<P::Output>
    where
        M: Payload,
        P: Program<M>,
        T: Transport<Packet<M>>,
    {
        self.run_with_host(program, adversaries, |_host| {}).0
    }

    /// Runs `program` on the nodes and `host_fn` on the host processor.
    ///
    /// The host function runs on the calling thread while node threads run
    /// concurrently; its return value is handed back alongside the report.
    ///
    /// # Panics
    ///
    /// Panics if `adversaries` was built for a different machine size, if
    /// the transport cannot establish a link, or if a node program panics.
    pub fn run_with_host<M, P, H, R>(
        &self,
        program: &P,
        adversaries: AdversarySet<M>,
        host_fn: H,
    ) -> (RunReport<P::Output>, R)
    where
        M: Payload,
        P: Program<M>,
        H: FnOnce(&mut HostCtx<'_, M>) -> R,
        T: Transport<Packet<M>>,
    {
        let n = self.cube.len();
        assert_eq!(
            adversaries.len(),
            n,
            "adversary set sized for {} nodes, machine has {n}",
            adversaries.len()
        );

        // Directed node-to-node links through the transport: for each u and
        // dimension d, link {from: u, to: u^2^d, tag: d}. Every sending end
        // is dialled first so that, over a socket medium, all handshakes are
        // in flight before any receiving end starts waiting for one.
        let dims = self.cube.dim() as usize;
        let transport = &*self.transport;
        let link_id = |from: usize, d: usize| {
            let to = NodeId::new(from as u32).neighbor(d as u32).raw();
            LinkId {
                from: from as u32,
                to,
                tag: d as u8,
            }
        };
        let mut out_links: Vec<Vec<Box<dyn LinkTx<Packet<M>>>>> = (0..n)
            .map(|u| {
                (0..dims)
                    .map(|d| {
                        let id = link_id(u, d);
                        transport
                            .connect_tx(id, LINK_DEADLINE)
                            .unwrap_or_else(|e| panic!("establish send link {id}: {e}"))
                    })
                    .collect()
            })
            .collect();
        // in_links[v][d] receives from v's dimension-d neighbor.
        let mut in_links: Vec<Vec<Box<dyn LinkRx<Packet<M>>>>> = (0..n)
            .map(|v| {
                (0..dims)
                    .map(|d| {
                        let id = link_id(NodeId::new(v as u32).neighbor(d as u32).index(), d);
                        transport
                            .connect_rx(id, LINK_DEADLINE)
                            .unwrap_or_else(|e| panic!("establish recv link {id}: {e}"))
                    })
                    .collect()
            })
            .collect();

        // Host links: bare `aoft-net` mailboxes — the same link endpoints
        // `InProc` hands out, so the contexts stay medium-agnostic.
        // Deliberately not routed through the transport — host links are
        // reliable by assumption 2, and the mailbox's closed-on-drop gives
        // send-to-finished-host the LinkClosed error the baselines rely on.
        let mut to_host_txs: Vec<Box<dyn LinkTx<Packet<M>>>> = Vec::with_capacity(n);
        let mut to_host_rxs: Vec<Box<dyn LinkRx<Packet<M>>>> = Vec::with_capacity(n);
        let mut from_host_txs: Vec<Box<dyn LinkTx<Packet<M>>>> = Vec::with_capacity(n);
        let mut from_host_rxs: Vec<Box<dyn LinkRx<Packet<M>>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mailbox();
            to_host_txs.push(Box::new(tx));
            to_host_rxs.push(Box::new(rx));
            let (tx, rx) = mailbox();
            from_host_txs.push(Box::new(tx));
            from_host_rxs.push(Box::new(rx));
        }

        let (err_tx, err_rx) = unbounded();
        let cancel = CancelToken::new();
        let cost = *self.config.cost();
        let timeout = self.config.timeout();
        let tracing = self.config.trace_enabled();
        let job = self.config.job_id();

        let mut slots = adversaries.take_all();
        let mut node_inputs = Vec::with_capacity(n);
        {
            let mut out_links = out_links.drain(..);
            let mut in_links = in_links.drain(..);
            let mut to_host = to_host_txs.drain(..);
            let mut from_host = from_host_rxs.drain(..);
            for (i, adversary) in slots.drain(..).enumerate() {
                node_inputs.push((
                    NodeId::new(i as u32),
                    out_links.next().expect("out links per node"),
                    in_links.next().expect("in links per node"),
                    to_host.next().expect("host uplink per node"),
                    from_host.next().expect("host downlink per node"),
                    adversary,
                ));
            }
        }

        let cube = self.cube;
        let (node_results, host_result, host_metrics, host_events) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (id, outs, ins, host_tx, host_rx, adversary) in node_inputs {
                let err_tx = err_tx.clone();
                let cancel = cancel.clone();
                let cost = &cost;
                let program = &program;
                handles.push(scope.spawn(move || {
                    let mut ctx = NodeCtx::new(
                        id, cube, cost, timeout, outs, ins, host_tx, host_rx, err_tx, cancel,
                        adversary, job, tracing,
                    );
                    let result = program.run(&mut ctx);
                    let (metrics, events) = ctx.finish();
                    (id, result, metrics, events)
                }));
            }

            let mut host_ctx = HostCtx::new(
                cube,
                &cost,
                timeout,
                from_host_txs,
                to_host_rxs,
                err_tx.clone(),
                cancel.clone(),
                job,
                tracing,
            );
            let host_result = host_fn(&mut host_ctx);
            let (host_metrics, host_events) = host_ctx.finish();

            let mut node_results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect();
            node_results.sort_by_key(|(id, ..)| *id);
            (node_results, host_result, host_metrics, host_events)
        });

        if let Some(first_cancel) = cancel.cancelled_at() {
            // The fail-stop's fan-out: how long the halt took to reach every
            // node thread, blocked receivers included.
            aoft_obs::emit(
                aoft_obs::Event::new("failstop_fanout")
                    .job(job)
                    .elapsed(first_cancel.elapsed())
                    .detail(format!(
                        "first cancel() to last of {n} node threads returned"
                    )),
            );
        }

        drop(err_tx);
        let reports: Vec<ErrorReport> = err_rx.try_iter().collect();
        let report = assemble_report(node_results, host_metrics, host_events, reports);
        (report, host_result)
    }
}

/// One node's contribution to a run: label, program result, metrics, and
/// the events it traced.
pub(crate) type NodeOutcome<T> = (NodeId, Result<T, SimError>, NodeMetrics, Vec<Event>);

/// Folds per-node results, metrics and error reports into a [`RunReport`] —
/// the outcome logic shared by the threaded [`Engine`] and the deterministic
/// [`DetEngine`](crate::DetEngine). `node_results` must be in label order.
pub(crate) fn assemble_report<T>(
    node_results: Vec<NodeOutcome<T>>,
    host_metrics: NodeMetrics,
    host_events: Vec<Event>,
    mut reports: Vec<ErrorReport>,
) -> RunReport<T> {
    reports.sort_by_key(|a| (a.at, a.detector));

    let n = node_results.len();
    let mut outputs = Vec::with_capacity(n);
    let mut runtime_failures: Vec<(NodeId, SimError)> = Vec::new();
    let mut node_metrics: Vec<NodeMetrics> = Vec::with_capacity(n);
    let mut event_parts = Vec::with_capacity(n + 1);
    for (id, result, metrics, events) in node_results {
        node_metrics.push(metrics);
        event_parts.push(events);
        match result {
            Ok(output) => outputs.push(output),
            Err(err) => runtime_failures.push((id, err)),
        }
    }
    event_parts.push(host_events);

    // A node that died without *anyone* signalling (e.g. starved by a
    // mute neighbor before any assertion could fire) still fails the
    // run; once a real diagnostic exists, secondary runtime casualties
    // of the fail-stop (closed links, cancellations) are not reported.
    if reports.is_empty() {
        for (id, err) in &runtime_failures {
            reports.push(ErrorReport {
                detector: *id,
                at: node_metrics[id.index()].finished_at,
                code: ErrorReport::RUNTIME_FAILURE,
                stage: None,
                suspect: match err {
                    SimError::MissingMessage { from, .. } | SimError::LinkClosed { peer: from } => {
                        Some(*from)
                    }
                    _ => None,
                },
                detail: format!("runtime failure: {err}"),
            });
        }
    }

    let outcome = if runtime_failures.is_empty() && reports.is_empty() {
        Outcome::Completed(outputs)
    } else {
        Outcome::FailStop { reports }
    };

    RunReport {
        outcome,
        metrics: RunMetrics {
            nodes: node_metrics,
            host: host_metrics,
        },
        trace: Trace::from_parts(event_parts),
    }
}

/// A machine that can execute a [`Program`] on every node of a hypercube and
/// a host function beside it.
///
/// Two machines implement this: the thread-per-node [`Engine`] (wall-clock
/// concurrency over any [`Transport`] medium) and the cooperative
/// [`DetEngine`](crate::DetEngine) (deterministic round-robin scheduling for
/// record/replay and 1024-node-scale sweeps). Algorithm layers written
/// against `Simulator` run unchanged on either.
pub trait Simulator<M: Payload>: Sync {
    /// The machine's topology.
    fn cube(&self) -> &Hypercube;

    /// The machine's configuration.
    fn config(&self) -> &SimConfig;

    /// Runs `program` on the nodes and `host_fn` on the host processor,
    /// returning the run report alongside the host function's result.
    ///
    /// # Panics
    ///
    /// Panics if `adversaries` was built for a different machine size or a
    /// node program panics.
    fn run_with_host<P, H, R>(
        &self,
        program: &P,
        adversaries: AdversarySet<M>,
        host_fn: H,
    ) -> (RunReport<P::Output>, R)
    where
        P: Program<M>,
        H: FnOnce(&mut HostCtx<'_, M>) -> R + Send,
        R: Send;

    /// Runs `program` with the given per-node adversaries installed.
    fn run_faulty<P: Program<M>>(
        &self,
        program: &P,
        adversaries: AdversarySet<M>,
    ) -> RunReport<P::Output> {
        self.run_with_host(program, adversaries, |_host| {}).0
    }

    /// Runs `program` on every node of a fully honest machine.
    fn run<P: Program<M>>(&self, program: &P) -> RunReport<P::Output> {
        self.run_faulty(program, AdversarySet::honest(self.cube().len()))
    }
}

impl<M, T> Simulator<M> for Engine<T>
where
    M: Payload,
    T: Transport<Packet<M>> + Send,
{
    fn cube(&self) -> &Hypercube {
        Engine::cube(self)
    }

    fn config(&self) -> &SimConfig {
        Engine::config(self)
    }

    fn run_with_host<P, H, R>(
        &self,
        program: &P,
        adversaries: AdversarySet<M>,
        host_fn: H,
    ) -> (RunReport<P::Output>, R)
    where
        P: Program<M>,
        H: FnOnce(&mut HostCtx<'_, M>) -> R + Send,
        R: Send,
    {
        Engine::run_with_host(self, program, adversaries, host_fn)
    }
}

impl<T> Clone for Engine<T> {
    /// Clones share the transport (an `Arc`), so two clones of a TCP engine
    /// route over the same listener.
    fn clone(&self) -> Self {
        Self {
            cube: self.cube,
            config: self.config,
            transport: Arc::clone(&self.transport),
        }
    }
}

impl<T> fmt::Debug for Engine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("cube", &self.cube)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<T> fmt::Display for Engine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Engine on {}", self.cube)
    }
}
