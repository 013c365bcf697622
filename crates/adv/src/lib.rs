//! # aoft-adv — live-fire Byzantine adversaries over the real wire
//!
//! The adversaries of [`aoft_faults`] run *inside* the simulator, rewriting
//! typed payloads before the engine routes them. That proves the algorithm
//! detects semantic lies, but only on an idealized medium. This crate moves
//! the same Definition-3 fault classes down to the transport seam:
//! [`ByzantineTransport`] wraps any [`Transport`] carrying
//! [`Packet`]`<`[`Msg`]`>` — in-process channels or a real TCP cluster —
//! and mutates messages **at the wire codec boundary**.
//!
//! The discipline that makes the attack meaningful: every mutation is
//! applied to the *decoded* [`Msg`] and the result is re-encoded through
//! the production codec. The frame that eventually travels therefore
//! carries a valid CRC over a well-formed message; framing, checksums and
//! retries all pass. Nothing below the application can notice — detection
//! is the job of the paper's constraint predicates (Φ_P, Φ_F, Φ_C), which
//! is exactly the application-oriented fault tolerance claim under test.
//!
//! Injection is declarative and deterministic: a [`FaultPlan`] names the
//! faulty nodes, and every link leaving a faulty node gets its own
//! [`FrameInjector`] whose adversary draws from a stream seeded by
//! `(spec.seed, link identity)` — a run is bit-reproducible given the plan.
//!
//! Outcomes are observable process-wide: mutated sends count into
//! `aoft_adv_mutations_total` and suppressed sends into
//! `aoft_adv_drops_total` (both labeled by fault kind) in the
//! [`aoft_obs`] registry.
//!
//! The `aoft-adv` binary drives the campaign gate: every fault kind ×
//! medium × cube dimension, tabulated with [`aoft_faults::campaign`] and
//! failing loudly on any silently-wrong trial (Theorem 3, live-fire
//! edition).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations, unreachable_pub)]

use std::fmt;
use std::time::Duration;

use aoft_faults::{FaultPlan, FaultSpec};
use aoft_hypercube::NodeId;
use aoft_net::wire::{from_bytes, to_bytes, CodecError};
use aoft_net::{LinkId, LinkRx, LinkTx, NetError, Transport};
use aoft_sim::{Action, Adversary, Packet, SendContext, Ticks};
use aoft_sort::Msg;
use parking_lot::Mutex;

/// One link's adversary, operating at the wire codec boundary.
///
/// The injector round-trips every outgoing payload through the production
/// [`Msg`] codec, hands the decoded form to the hosted
/// [`Adversary`], and round-trips whatever comes back. Both directions use
/// the same `encode`/`decode` a receiver uses, so a mutation that survives
/// the injector is guaranteed to frame with a valid CRC and parse as a
/// well-formed `Msg` at the far end.
pub struct FrameInjector {
    adversary: Box<dyn Adversary<Msg>>,
    kind: &'static str,
    src: NodeId,
    dst: NodeId,
    seq: u64,
}

impl fmt::Debug for FrameInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FrameInjector({} on {}->{}, seq {})",
            self.kind, self.src, self.dst, self.seq
        )
    }
}

impl FrameInjector {
    /// Builds the injector for `spec` on one concrete `link`.
    ///
    /// The adversary's seed mixes the link identity into `spec.seed`, so
    /// each link leaving a faulty node draws an independent, reproducible
    /// stream and no map iteration order can leak into fault behaviour.
    pub fn new(spec: &FaultSpec, link: LinkId) -> Self {
        let mix = (u64::from(link.from) << 40) ^ (u64::from(link.to) << 8) ^ u64::from(link.tag);
        Self {
            adversary: spec.build_adversary::<Msg>(spec.seed ^ mix),
            kind: spec.kind.name(),
            src: NodeId::new(link.from),
            dst: NodeId::new(link.to),
            seq: 0,
        }
    }

    /// The hosted fault kind's stable kebab-case name.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Intercepts one outgoing payload; `now` is the sender's virtual
    /// timestamp (the packet's `available_at` in transit).
    ///
    /// Sequence numbers are per *link*, starting from 0 — a node-level
    /// trigger like `Trigger::from_seq(1)` therefore fires from each
    /// link's second message, which is the conservative (more hostile)
    /// reading for a wire-level adversary.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the original payload or any adversary-produced
    /// replacement fails the codec round trip. The hosted adversaries
    /// mutate within the `Msg` value space, so in practice this is
    /// unreachable; the property test in `tests/frame_integrity.rs` pins
    /// it.
    pub fn intercept(&mut self, payload: &Msg, now: Ticks) -> Result<InterceptOutcome, CodecError> {
        let ctx = SendContext {
            src: self.src,
            dst: self.dst,
            seq: self.seq,
            now,
        };
        self.seq += 1;
        // What the wire actually carries: decode the encoded form so the
        // adversary sees exactly what a receiver would.
        let on_wire = from_bytes::<Msg>(&to_bytes(payload))?;
        let deliver = match self.adversary.intercept(&ctx, on_wire) {
            Action::Deliver(msg) => vec![msg],
            Action::Drop => Vec::new(),
            // A per-link injector can only use this one link (assumption 3:
            // no conjured links); fan entries are buffered replays of this
            // link's own sends, delivered here in order.
            Action::Fan(entries) => entries.into_iter().map(|(_, msg)| msg).collect(),
        };
        // Re-encode and decode every survivor: the mutation must stay
        // codec-clean, so the eventual frame is a semantic lie under a
        // valid CRC — never a transport-visible error.
        let mut checked = Vec::with_capacity(deliver.len());
        for msg in deliver {
            checked.push(from_bytes::<Msg>(&to_bytes(&msg))?);
        }
        let dropped = checked.is_empty();
        let mutated = !dropped && (checked.len() != 1 || checked[0] != *payload);
        Ok(InterceptOutcome {
            deliver: checked,
            mutated,
            dropped,
        })
    }
}

/// What one intercepted send turned into.
#[derive(Debug, Clone, PartialEq)]
pub struct InterceptOutcome {
    /// The payloads to put on the wire, in order (empty = suppressed).
    pub deliver: Vec<Msg>,
    /// `true` if the delivery differs from the original single payload.
    pub(crate) mutated: bool,
    /// `true` if nothing is delivered (the receiver's deadline is the only
    /// witness — assumption 4 makes the absence detectable).
    pub dropped: bool,
}

/// Wraps a [`Transport`] and mounts a [`FrameInjector`] on every link
/// leaving a node the [`FaultPlan`] names as faulty.
///
/// Receiving endpoints pass through untouched: Definition 3 attributes all
/// link faults to the *sending* node, so injection on the send side models
/// a faulty processor's whole outgoing port set. Honest nodes' links are
/// returned unwrapped — zero overhead off the faulty paths.
///
/// Node labels in the plan are interpreted in the transport's own label
/// space. Under a mapped (degraded-mode) transport that is the *physical*
/// label, which is what a physically broken processor corrupts.
#[derive(Debug)]
pub struct ByzantineTransport<T> {
    inner: T,
    plan: FaultPlan,
}

impl<T> ByzantineTransport<T> {
    /// Wraps `inner`; links leaving nodes faulty under `plan` get
    /// injectors, everything else passes through.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The inner transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The injector this transport would mount on `link`, if its sending
    /// endpoint is faulty — the hook the property tests drive directly.
    ///
    /// Host-bound links are never injected, matching the engine-level
    /// adversaries: environmental assumption 2 makes host I/O reliable, so
    /// the fault surface is the cube's links, not the result gather.
    pub(crate) fn injector_for(&self, link: LinkId) -> Option<FrameInjector> {
        if link.to == aoft_sim::HOST_ID.raw() {
            return None;
        }
        self.plan
            .specs()
            .iter()
            .find(|spec| spec.node.raw() == link.from)
            .map(|spec| FrameInjector::new(spec, link))
    }
}

impl<T: Transport<Packet<Msg>>> Transport<Packet<Msg>> for ByzantineTransport<T> {
    fn connect_tx(
        &self,
        link: LinkId,
        deadline: Duration,
    ) -> Result<Box<dyn LinkTx<Packet<Msg>>>, NetError> {
        let inner = self.inner.connect_tx(link, deadline)?;
        match self.injector_for(link) {
            None => Ok(inner),
            Some(injector) => Ok(Box::new(ByzantineTx {
                inner,
                injector: Mutex::new(injector),
            })),
        }
    }

    fn connect_rx(
        &self,
        link: LinkId,
        deadline: Duration,
    ) -> Result<Box<dyn LinkRx<Packet<Msg>>>, NetError> {
        self.inner.connect_rx(link, deadline)
    }
}

struct ByzantineTx {
    inner: Box<dyn LinkTx<Packet<Msg>>>,
    injector: Mutex<FrameInjector>,
}

impl LinkTx<Packet<Msg>> for ByzantineTx {
    fn send(&self, packet: Packet<Msg>) -> Result<(), NetError> {
        let (outcome, kind) = {
            let mut injector = self.injector.lock();
            let outcome = injector
                .intercept(&packet.payload, packet.available_at)
                .expect("adversary mutations stay within the Msg value space");
            (outcome, injector.kind())
        };
        let reg = aoft_obs::global();
        if outcome.dropped {
            reg.adv_drops.add(kind, 1);
            // Fail-silent, like a cut wire: the sender sees success and the
            // receiver's deadline does the detecting.
            return Ok(());
        }
        if outcome.mutated {
            reg.adv_mutations.add(kind, 1);
        }
        for payload in outcome.deliver {
            self.inner.send(Packet {
                src: packet.src,
                dst: packet.dst,
                available_at: packet.available_at,
                seq: packet.seq,
                job: packet.job,
                payload,
            })?;
        }
        Ok(())
    }

    fn close(&self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use aoft_faults::{FaultKind, Trigger};
    use aoft_net::{CancelToken, InProc, LinkCache};
    use aoft_sort::{Block, LbsWire};

    use super::*;

    const DEADLINE: Duration = Duration::from_secs(1);

    fn link(from: u32, to: u32) -> LinkId {
        LinkId { from, to, tag: 0 }
    }

    fn tagged(owner: u32, keys: &[i32]) -> Msg {
        Msg::Tagged {
            data: Block::from_wire(keys.to_vec()),
            lbs: LbsWire {
                span_start: owner,
                block_len: keys.len() as u32,
                slots: vec![Some(Block::from_wire(keys.to_vec()))],
            },
        }
    }

    fn packet(from: u32, to: u32, seq: u64, payload: Msg) -> Packet<Msg> {
        Packet {
            src: NodeId::new(from),
            dst: NodeId::new(to),
            available_at: Ticks::ZERO,
            seq,
            job: 0,
            payload,
        }
    }

    fn recv(rx: &dyn LinkRx<Packet<Msg>>, timeout: Duration) -> Result<Packet<Msg>, NetError> {
        rx.recv_deadline(timeout, &CancelToken::new())
    }

    fn plan(node: u32, kind: FaultKind) -> FaultPlan {
        FaultPlan::new().with_fault(NodeId::new(node), kind, Trigger::always(), 42)
    }

    #[test]
    fn honest_plan_passes_through_unchanged() {
        let transport = ByzantineTransport::new(InProc::new(), FaultPlan::new());
        let tx = transport.connect_tx(link(0, 1), DEADLINE).unwrap();
        let rx = transport.connect_rx(link(0, 1), DEADLINE).unwrap();
        let msg = tagged(0, &[3, 1, 4]);
        tx.send(packet(0, 1, 0, msg.clone())).unwrap();
        assert_eq!(recv(rx.as_ref(), DEADLINE).unwrap().payload, msg);
    }

    #[test]
    fn honest_senders_bypass_the_injector() {
        // Node 2 is faulty, but the 0->1 link belongs to an honest sender.
        let transport = ByzantineTransport::new(InProc::new(), plan(2, FaultKind::CorruptValue));
        assert!(transport.injector_for(link(0, 1)).is_none());
        assert!(transport.injector_for(link(2, 3)).is_some());
    }

    #[test]
    fn host_bound_links_are_never_injected() {
        // Environmental assumption 2: the gather to the host is reliable
        // even when the sending node is faulty on its cube links.
        let transport = ByzantineTransport::new(InProc::new(), plan(0, FaultKind::CorruptValue));
        let host = LinkId {
            from: 0,
            to: aoft_sim::HOST_ID.raw(),
            tag: 0,
        };
        assert!(transport.injector_for(host).is_none());
        assert!(transport.injector_for(link(0, 1)).is_some());
    }

    #[test]
    fn corruptor_mutates_but_stays_codec_clean() {
        let transport = ByzantineTransport::new(InProc::new(), plan(0, FaultKind::CorruptValue));
        let tx = transport.connect_tx(link(0, 1), DEADLINE).unwrap();
        let rx = transport.connect_rx(link(0, 1), DEADLINE).unwrap();
        let msg = tagged(0, &[10, 20, 30]);
        tx.send(packet(0, 1, 0, msg.clone())).unwrap();
        let got = recv(rx.as_ref(), DEADLINE).unwrap().payload;
        assert_ne!(got, msg, "the corruptor must change the payload");
        // The delivered payload crossed the real codec twice already; one
        // more round trip shows it is a well-formed Msg, not wire damage.
        assert_eq!(from_bytes::<Msg>(&to_bytes(&got)).unwrap(), got);
    }

    #[test]
    fn dropper_is_fail_silent() {
        let transport = ByzantineTransport::new(InProc::new(), plan(0, FaultKind::Crash));
        let tx = transport.connect_tx(link(0, 1), DEADLINE).unwrap();
        let rx = transport.connect_rx(link(0, 1), DEADLINE).unwrap();
        tx.send(packet(0, 1, 0, tagged(0, &[1]))).unwrap();
        let err = recv(rx.as_ref(), Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn crash_quota_spans_every_handle_a_link_cache_hands_out() {
        // A resident service reconnects every link per job through its
        // link cache, so a crash counted from send k must stay dead across
        // handles: the link carries k frames in total, not k per handle.
        let plan =
            FaultPlan::new().with_fault(NodeId::new(0), FaultKind::Crash, Trigger::from_seq(2), 7);
        let transport = LinkCache::new(ByzantineTransport::new(InProc::new(), plan));
        let rx = transport.connect_rx(link(0, 1), DEADLINE).unwrap();
        for job in 0..2 {
            let tx = transport.connect_tx(link(0, 1), DEADLINE).unwrap();
            for seq in 0..3 {
                // Every send reports success, even past the quota: fail-silent.
                tx.send(packet(0, 1, seq, tagged(0, &[job, seq as i32])))
                    .unwrap();
            }
        }
        for seq in 0..2 {
            let got = recv(rx.as_ref(), DEADLINE).unwrap();
            assert_eq!(got.payload, tagged(0, &[0, seq]));
        }
        let err = recv(rx.as_ref(), Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn equivocator_skews_only_its_own_slot() {
        let spec = FaultSpec {
            node: NodeId::new(0),
            kind: FaultKind::Equivocate,
            trigger: Trigger::always(),
            seed: 7,
        };
        // dst > src, so the equivocator lies on this link.
        let mut injector = FrameInjector::new(&spec, link(0, 1));
        let original = Msg::Tagged {
            data: Block::from_wire(vec![5, 6]),
            lbs: LbsWire {
                span_start: 0,
                block_len: 2,
                slots: vec![
                    Some(Block::from_wire(vec![5, 6])),
                    Some(Block::from_wire(vec![7, 8])),
                ],
            },
        };
        let outcome = injector.intercept(&original, Ticks::ZERO).unwrap();
        assert!(outcome.mutated);
        let [got] = &outcome.deliver[..] else {
            panic!("equivocation delivers exactly one message")
        };
        let (
            Msg::Tagged { data, lbs },
            Msg::Tagged {
                data: odata,
                lbs: olbs,
            },
        ) = (got, &original)
        else {
            panic!("variant must be preserved")
        };
        assert_eq!(data, odata, "operand data stays intact");
        assert_ne!(lbs.slots[0], olbs.slots[0], "own slot is the lie");
        assert_eq!(
            lbs.slots[1], olbs.slots[1],
            "other nodes' entries untouched"
        );
    }

    #[test]
    fn injection_is_deterministic_per_plan() {
        let deliveries = || {
            let transport =
                ByzantineTransport::new(InProc::new(), plan(0, FaultKind::RandomByzantine));
            let tx = transport.connect_tx(link(0, 1), DEADLINE).unwrap();
            let rx = transport.connect_rx(link(0, 1), DEADLINE).unwrap();
            for seq in 0..16 {
                tx.send(packet(0, 1, seq, tagged(0, &[seq as i32, -3])))
                    .unwrap();
            }
            drop(tx);
            let mut got = Vec::new();
            while let Ok(pkt) = recv(rx.as_ref(), Duration::from_millis(20)) {
                got.push(pkt.payload);
            }
            got
        };
        assert_eq!(deliveries(), deliveries());
    }
}
