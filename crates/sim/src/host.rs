use std::time::Duration;

use aoft_hypercube::{Hypercube, NodeId};
use aoft_net::{LinkRx, LinkTx};
use crossbeam_channel::Sender;

use crate::engine::CancelToken;
use crate::error::{ErrorReport, SimError};
use crate::message::{Packet, Payload};
use crate::metrics::NodeMetrics;
use crate::node::map_net_error;
use crate::time::{CostModel, Ticks};
use crate::trace::{Event, EventKind};
use crate::HOST_ID;

/// The host processor's runtime interface.
///
/// The host sits outside the hypercube graph (Section 1: host connections
/// are "mainly used for program/data downloading and result uploading").
/// Host links are reliable (environmental assumption 2), so there is no
/// adversary hook here; host communication and computation still cost
/// virtual time, which is exactly what makes the sequential baselines of
/// Section 5 expensive.
pub struct HostCtx<'a, M: Payload> {
    cube: Hypercube,
    cost: &'a CostModel,
    timeout: Duration,
    to_nodes: Vec<Box<dyn LinkTx<Packet<M>>>>,
    from_nodes: Vec<Box<dyn LinkRx<Packet<M>>>>,
    err_tx: Sender<ErrorReport>,
    cancel: CancelToken,
    job: u64,
    clock: Ticks,
    seq: u64,
    metrics: NodeMetrics,
    trace: Option<Vec<Event>>,
}

impl<'a, M: Payload> HostCtx<'a, M> {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring NodeCtx
    pub(crate) fn new(
        cube: Hypercube,
        cost: &'a CostModel,
        timeout: Duration,
        to_nodes: Vec<Box<dyn LinkTx<Packet<M>>>>,
        from_nodes: Vec<Box<dyn LinkRx<Packet<M>>>>,
        err_tx: Sender<ErrorReport>,
        cancel: CancelToken,
        job: u64,
        trace: bool,
    ) -> Self {
        Self {
            cube,
            cost,
            timeout,
            to_nodes,
            from_nodes,
            err_tx,
            cancel,
            job,
            clock: Ticks::ZERO,
            seq: 0,
            metrics: NodeMetrics::default(),
            trace: trace.then(Vec::new),
        }
    }

    /// The machine's topology.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }

    /// The host's virtual clock.
    pub fn now(&self) -> Ticks {
        self.clock
    }

    /// `true` once the machine has fail-stopped.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Charges `count` key comparisons to the host clock.
    pub fn charge_compares(&mut self, count: usize) {
        self.charge(self.cost.compare_cost(count));
    }

    /// Charges movement of `count` words to the host clock.
    pub fn charge_moves(&mut self, count: usize) {
        self.charge(self.cost.move_cost(count));
    }

    /// Charges an arbitrary computation cost to the host clock.
    pub fn charge(&mut self, cost: Ticks) {
        self.clock += cost;
        self.metrics.compute_time += cost;
        if cost > Ticks::ZERO {
            self.record(EventKind::Compute {
                millis: cost.as_millis(),
            });
        }
    }

    /// Downloads `payload` to `node` over the reliable host link.
    ///
    /// # Errors
    ///
    /// [`SimError::LinkClosed`] if the node already terminated.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine.
    pub(crate) fn send_to(&mut self, node: NodeId, payload: M) -> Result<(), SimError> {
        assert!(self.cube.contains(node), "{node} outside {}", self.cube);
        let words = payload.wire_size();
        let cost = self.cost.host_link_cost(words);
        self.clock += cost;
        self.metrics.send_time += cost;
        self.metrics.msgs_sent += 1;
        self.metrics.words_sent += words as u64;
        let seq = self.seq;
        self.seq += 1;
        self.record(EventKind::Send {
            to: node,
            words: words as u64,
            seq,
        });
        let packet = Packet {
            src: HOST_ID,
            dst: node,
            available_at: self.clock,
            seq,
            job: self.job,
            payload,
        };
        self.to_nodes[node.index()]
            .send(packet)
            .map_err(|_| SimError::LinkClosed { peer: node })
    }

    /// Uploads the next message from `node`.
    ///
    /// # Errors
    ///
    /// As for [`NodeCtx::recv_from`](crate::NodeCtx::recv_from).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine.
    pub fn recv_from(&mut self, node: NodeId) -> Result<M, SimError> {
        assert!(self.cube.contains(node), "{node} outside {}", self.cube);
        let packet = self.from_nodes[node.index()]
            .recv_deadline(self.timeout, &self.cancel)
            .map_err(|err| map_net_error(err, node, self.timeout))?;
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
        Ok(packet.payload)
    }

    /// Gathers one message from every node, in label order.
    ///
    /// # Errors
    ///
    /// Fails on the first node whose upload is missing.
    pub fn gather(&mut self) -> Result<Vec<M>, SimError> {
        self.cube.nodes().map(|node| self.recv_from(node)).collect()
    }

    /// Downloads one message to every node, in label order.
    ///
    /// # Errors
    ///
    /// Fails on the first node that already terminated.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` does not have exactly one entry per node.
    pub fn scatter(&mut self, payloads: Vec<M>) -> Result<(), SimError> {
        assert_eq!(
            payloads.len(),
            self.cube.len(),
            "scatter needs one payload per node"
        );
        for (i, payload) in payloads.into_iter().enumerate() {
            self.send_to(NodeId::new(i as u32), payload)?;
        }
        Ok(())
    }

    /// Signals ERROR detected by the host itself and fail-stops the machine
    /// (used by the host-verification baseline of Section 4/5).
    pub fn signal_error(&mut self, code: u32, detail: impl Into<String>) {
        self.metrics.errors_signalled += 1;
        self.record(EventKind::ErrorSignalled { code });
        let _ = self.err_tx.send(ErrorReport {
            detector: HOST_ID,
            at: self.clock,
            code,
            stage: None,
            suspect: None,
            detail: detail.into(),
        });
        self.cancel.cancel();
    }

    fn record(&mut self, kind: EventKind) {
        if let Some(events) = self.trace.as_mut() {
            events.push(Event {
                node: HOST_ID,
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

impl<M: Payload> std::fmt::Debug for HostCtx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostCtx")
            .field("clock", &self.clock)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}
