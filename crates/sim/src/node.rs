use std::time::Duration;

use aoft_hypercube::{Hypercube, NodeId};
use aoft_net::{LinkRx, LinkTx, NetError};
use crossbeam_channel::Sender;

use crate::adversary::{Action, Adversary, SendContext};
use crate::engine::CancelToken;
use crate::error::{ErrorReport, SimError};
use crate::message::{Packet, Payload};
use crate::metrics::NodeMetrics;
use crate::time::{CostModel, Ticks};
use crate::trace::{Event, EventKind};
use crate::HOST_ID;

/// The runtime interface a node program sees: its identity, its links, its
/// virtual clock and the error-signalling path to the host.
///
/// One `NodeCtx` exists per node per run, owned by that node's thread. All
/// sends charge communication time per the [`CostModel`]; computation must be
/// charged explicitly with [`charge_compares`](NodeCtx::charge_compares) and
/// friends — the simulator cannot observe real CPU work, and virtual-time
/// determinism requires explicit accounting.
pub struct NodeCtx<'a, M: Payload> {
    id: NodeId,
    cube: Hypercube,
    cost: &'a CostModel,
    timeout: Duration,
    out_links: Vec<Box<dyn LinkTx<Packet<M>>>>,
    in_links: Vec<Box<dyn LinkRx<Packet<M>>>>,
    host_tx: Box<dyn LinkTx<Packet<M>>>,
    host_rx: Box<dyn LinkRx<Packet<M>>>,
    err_tx: Sender<ErrorReport>,
    cancel: CancelToken,
    adversary: Option<Box<dyn Adversary<M>>>,
    job: u64,
    clock: Ticks,
    seq: u64,
    metrics: NodeMetrics,
    trace: Option<Vec<Event>>,
}

impl<'a, M: Payload> NodeCtx<'a, M> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        cube: Hypercube,
        cost: &'a CostModel,
        timeout: Duration,
        out_links: Vec<Box<dyn LinkTx<Packet<M>>>>,
        in_links: Vec<Box<dyn LinkRx<Packet<M>>>>,
        host_tx: Box<dyn LinkTx<Packet<M>>>,
        host_rx: Box<dyn LinkRx<Packet<M>>>,
        err_tx: Sender<ErrorReport>,
        cancel: CancelToken,
        adversary: Option<Box<dyn Adversary<M>>>,
        job: u64,
        trace: bool,
    ) -> Self {
        Self {
            id,
            cube,
            cost,
            timeout,
            out_links,
            in_links,
            host_tx,
            host_rx,
            err_tx,
            cancel,
            adversary,
            job,
            clock: Ticks::ZERO,
            seq: 0,
            metrics: NodeMetrics::default(),
            trace: trace.then(Vec::new),
        }
    }

    /// This node's label.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The machine's topology.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }

    /// The cube dimension `n`.
    pub fn dim(&self) -> u32 {
        self.cube.dim()
    }

    /// Number of nodes `N = 2^n`.
    pub fn machine_size(&self) -> usize {
        self.cube.len()
    }

    /// The local virtual clock.
    pub fn now(&self) -> Ticks {
        self.clock
    }

    /// `true` once the machine has fail-stopped; long local computations can
    /// poll this to exit early.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Charges `count` key comparisons to the local clock.
    pub fn charge_compares(&mut self, count: usize) {
        self.charge(self.cost.compare_cost(count));
    }

    /// Charges movement of `count` words to the local clock.
    pub fn charge_moves(&mut self, count: usize) {
        self.charge(self.cost.move_cost(count));
    }

    /// Charges an arbitrary computation cost to the local clock.
    pub fn charge(&mut self, cost: Ticks) {
        self.clock += cost;
        self.metrics.compute_time += cost;
        if cost > Ticks::ZERO {
            self.record(EventKind::Compute {
                millis: cost.as_millis(),
            });
        }
    }

    /// Sends `payload` to hypercube neighbor `dst` (or to the host if `dst`
    /// is [`HOST_ID`]).
    ///
    /// Charges `α + β·len` communication ticks, then passes the message to
    /// this node's [`Adversary`] (if faulty). Host-bound traffic is reliable
    /// and bypasses the adversary (environmental assumption 2).
    ///
    /// # Errors
    ///
    /// [`SimError::NotANeighbor`] if `dst` is neither a neighbor nor the
    /// host. Delivery failure to an already-terminated peer is *not* an
    /// error: the data is simply lost, exactly as on real hardware.
    pub fn send(&mut self, dst: NodeId, payload: M) -> Result<(), SimError> {
        if dst == HOST_ID {
            return self.send_host(payload);
        }
        let dim = self
            .id
            .adjacency_dim(dst)
            .filter(|_| self.cube.contains(dst))
            .ok_or(SimError::NotANeighbor {
                from: self.id,
                to: dst,
            })?;

        let words = payload.wire_size();
        let cost = self.cost.link_cost(words);
        self.clock += cost;
        self.metrics.send_time += cost;
        self.metrics.msgs_sent += 1;
        self.metrics.words_sent += words as u64;
        let seq = self.seq;
        self.seq += 1;
        self.record(EventKind::Send {
            to: dst,
            words: words as u64,
            seq,
        });

        let action = match self.adversary.as_mut() {
            Some(adv) => {
                let ctx = SendContext {
                    src: self.id,
                    dst,
                    seq,
                    now: self.clock,
                };
                adv.intercept(&ctx, payload)
            }
            None => Action::Deliver(payload),
        };

        match action {
            Action::Deliver(m) => self.deliver(dim, dst, seq, m),
            Action::Drop => {
                self.record(EventKind::AdversaryDropped { to: dst });
            }
            Action::Fan(outs) => {
                let delivered = outs.len() as u32;
                self.record(EventKind::AdversaryRewrote { to: dst, delivered });
                for (target, m) in outs {
                    let target_dim = self
                        .id
                        .adjacency_dim(target)
                        .filter(|_| self.cube.contains(target))
                        .unwrap_or_else(|| {
                            panic!("adversary at {} fanned to non-neighbor {}", self.id, target)
                        });
                    self.deliver(target_dim, target, seq, m);
                }
            }
        }
        Ok(())
    }

    fn deliver(&mut self, dim: u32, dst: NodeId, seq: u64, payload: M) {
        let packet = Packet {
            src: self.id,
            dst,
            available_at: self.clock,
            seq,
            job: self.job,
            payload,
        };
        // A closed link means the peer already terminated (fail-stop in
        // progress); the message is simply lost. Over a socket medium the
        // transport queues asynchronously, so delivery failure surfaces at
        // the receiver — either way, receiver-side detection (assumption 4).
        let _ = self.out_links[dim as usize].send(packet);
    }

    /// Receives the next message from neighbor `src` (or from the host if
    /// `src` is [`HOST_ID`]), synchronizing the local clock with the
    /// message's availability time.
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingMessage`] — nothing arrived within the timeout
    ///   (assumption 4: a missing message is detectable and is an error).
    /// * [`SimError::Cancelled`] — the machine fail-stopped while waiting.
    /// * [`SimError::LinkClosed`] — the peer terminated.
    /// * [`SimError::NotANeighbor`] — `src` is neither a neighbor nor the
    ///   host.
    pub fn recv_from(&mut self, src: NodeId) -> Result<M, SimError> {
        if src == HOST_ID {
            let packet = self
                .host_rx
                .recv_deadline(self.timeout, &self.cancel)
                .map_err(|err| map_net_error(err, src, self.timeout))?;
            return Ok(self.accept(packet));
        }
        let dim = self
            .id
            .adjacency_dim(src)
            .filter(|_| self.cube.contains(src))
            .ok_or(SimError::NotANeighbor {
                from: self.id,
                to: src,
            })?;
        // Drain frames left over from earlier runs on a reused link: a
        // resident service keeps links alive across jobs, so a packet
        // abandoned mid-flight by a fail-stopped run may still be queued.
        // Consuming it as current data would be a silent wrong answer; the
        // job tag makes staleness detectable (receiver-side, assumption 4).
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let packet = self.in_links[dim as usize]
                .recv_deadline(remaining, &self.cancel)
                .map_err(|err| map_net_error(err, src, self.timeout))?;
            if packet.job != self.job {
                self.metrics.stale_dropped += 1;
                self.record(EventKind::StaleDropped {
                    from: src,
                    job: packet.job,
                });
                continue;
            }
            return Ok(self.accept(packet));
        }
    }

    fn accept(&mut self, packet: Packet<M>) -> M {
        let idle = packet.available_at.saturating_sub(self.clock);
        self.metrics.idle_time += idle;
        self.clock = self.clock.max(packet.available_at);
        let words = packet.payload.wire_size() as u64;
        self.metrics.msgs_received += 1;
        self.metrics.words_received += words;
        self.record(EventKind::Recv {
            from: packet.src,
            words,
        });
        packet.payload
    }

    /// Sends `payload` to the host over the reliable host link.
    ///
    /// # Errors
    ///
    /// [`SimError::LinkClosed`] if no host endpoint is attached to this run.
    pub fn send_host(&mut self, payload: M) -> Result<(), SimError> {
        let words = payload.wire_size();
        let cost = self.cost.host_link_cost(words);
        self.clock += cost;
        self.metrics.send_time += cost;
        self.metrics.msgs_sent += 1;
        self.metrics.words_sent += words as u64;
        let seq = self.seq;
        self.seq += 1;
        self.record(EventKind::Send {
            to: HOST_ID,
            words: words as u64,
            seq,
        });
        let packet = Packet {
            src: self.id,
            dst: HOST_ID,
            available_at: self.clock,
            seq,
            job: self.job,
            payload,
        };
        self.host_tx
            .send(packet)
            .map_err(|_| SimError::LinkClosed { peer: HOST_ID })
    }

    /// Receives the next message from the host.
    ///
    /// # Errors
    ///
    /// As for [`recv_from`](NodeCtx::recv_from).
    pub fn recv_host(&mut self) -> Result<M, SimError> {
        self.recv_from(HOST_ID)
    }

    /// Signals ERROR to the host and fail-stops the machine.
    ///
    /// The paper's `signal ERROR to host`: the diagnostic is delivered over
    /// the reliable host link and the entire computation halts without
    /// producing output (Theorem 3's fail-stop discipline).
    pub fn signal_error(&mut self, code: u32, detail: impl Into<String>) {
        self.signal_report(code, None, None, detail);
    }

    /// Like [`signal_error`](NodeCtx::signal_error), with structured
    /// localization: the stage at which the violation was observed and a
    /// directly implicated node, when known. Fault diagnosis
    /// (`aoft-sort::diagnosis`) triangulates from these.
    pub fn signal_report(
        &mut self,
        code: u32,
        stage: Option<u32>,
        suspect: Option<NodeId>,
        detail: impl Into<String>,
    ) {
        self.metrics.errors_signalled += 1;
        self.record(EventKind::ErrorSignalled { code });
        let detail = detail.into();
        aoft_obs::global().error_reports.inc();
        {
            let mut event = aoft_obs::Event::new("error_report")
                .job(self.job)
                .node(self.id.index() as u32)
                .stage(stage)
                .code(code)
                .seq(self.seq)
                .detail(detail.clone());
            if let Some(suspect) = suspect {
                event = event.detail(format!("{detail} (suspect {suspect})"));
            }
            aoft_obs::emit(event);
        }
        let _ = self.err_tx.send(ErrorReport {
            detector: self.id,
            at: self.clock,
            code,
            stage,
            suspect,
            detail,
        });
        self.cancel.cancel();
    }

    fn record(&mut self, kind: EventKind) {
        if let Some(events) = self.trace.as_mut() {
            events.push(Event {
                node: self.id,
                at: self.clock,
                kind,
            });
        }
    }

    pub(crate) fn finish(mut self) -> (NodeMetrics, Vec<Event>) {
        self.metrics.finished_at = self.clock;
        (self.metrics, self.trace.unwrap_or_default())
    }
}

impl<M: Payload> std::fmt::Debug for NodeCtx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCtx")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// Translates a transport-level failure into the simulator's error model.
///
/// Anything that means "the peer can no longer be heard from" — an orderly
/// close, the failure detector's verdict, a corrupted stream, a dead socket
/// — collapses to [`SimError::LinkClosed`]: under the paper's fail-stop
/// model they all carry the same information (the peer is gone or cannot be
/// trusted) and all feed the same `signal ERROR to host` path.
pub(crate) fn map_net_error(err: NetError, peer: NodeId, waited: Duration) -> SimError {
    match err {
        NetError::Timeout { .. } => SimError::MissingMessage { from: peer, waited },
        NetError::Cancelled => SimError::Cancelled,
        NetError::Closed | NetError::PeerDead { .. } | NetError::Codec(_) | NetError::Io(_) => {
            SimError::LinkClosed { peer }
        }
    }
}
