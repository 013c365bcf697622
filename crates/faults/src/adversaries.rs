//! Concrete Byzantine adversaries, one per fault class of Definition 3.

use aoft_sim::{Action, Adversary, SendContext};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Corruptible, Trigger};

/// Data fault: armed sends carry a corrupted payload.
///
/// Models a processor computing the wrong value or a link damaging the data
/// in flight — by Definition 3 both are attributed to the sending node.
#[derive(Debug)]
pub(crate) struct ValueCorruptor {
    trigger: Trigger,
    rng: ChaCha8Rng,
}

impl ValueCorruptor {
    /// Creates a corruptor firing per `trigger`, seeded for reproducibility.
    pub(crate) fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl<M: Corruptible> Adversary<M> for ValueCorruptor {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        if self.trigger.fires(ctx.seq, &mut self.rng) {
            Action::Deliver(payload.corrupt(&mut self.rng))
        } else {
            Action::Deliver(payload)
        }
    }

    fn label(&self) -> &str {
        "value-corruptor"
    }
}

/// Classical Byzantine inconsistency: different peers hear different values.
///
/// While armed, messages to lower-labelled peers carry the true payload and
/// messages to higher-labelled peers carry a plausibly-skewed variant — each
/// copy can pass local feasibility tests while being globally inconsistent,
/// which is precisely the attack the consistency predicate Φ_C defeats by
/// comparing copies that travelled vertex-disjoint paths (Lemma 6).
#[derive(Debug)]
pub struct TwoFaced {
    trigger: Trigger,
    rng: ChaCha8Rng,
}

impl TwoFaced {
    /// Creates a two-faced sender firing per `trigger`.
    pub fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl<M: Corruptible> Adversary<M> for TwoFaced {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        if self.trigger.fires(ctx.seq, &mut self.rng) && ctx.dst > ctx.src {
            Action::Deliver(payload.skew(&mut self.rng))
        } else {
            Action::Deliver(payload)
        }
    }

    fn label(&self) -> &str {
        "two-faced"
    }
}

/// Targeted equivocation: the sender lies *about its own entry* to
/// higher-labelled peers.
///
/// [`TwoFaced`] skews an arbitrary part of the payload, so the Φ_C witness
/// may name a bystander whose relayed copy happened to be damaged. The
/// equivocator instead skews only the slot the sender itself owns
/// ([`Corruptible::skew_own`]): when vertex-disjoint copies of that entry
/// disagree, the disagreeing entry *is* the sender — Lemma 6's
/// vertex-disjointness means the only node common to both routes is the
/// owner, so the detection evidence names the equivocator directly and
/// recovery can quarantine it without collateral.
#[derive(Debug)]
pub(crate) struct Equivocator {
    trigger: Trigger,
    rng: ChaCha8Rng,
}

impl Equivocator {
    /// Creates an equivocator firing per `trigger`.
    pub(crate) fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl<M: Corruptible> Adversary<M> for Equivocator {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        if self.trigger.fires(ctx.seq, &mut self.rng) && ctx.dst > ctx.src {
            Action::Deliver(payload.skew_own(ctx.src.raw(), &mut self.rng))
        } else {
            Action::Deliver(payload)
        }
    }

    fn label(&self) -> &str {
        "equivocator"
    }
}

/// Metadata fault: armed sends carry damaged check metadata (the
/// piggybacked LBS) over intact primary data.
///
/// Models a fault in the redundancy machinery itself — the hardest case for
/// a checker to survive, because the data path alone would accept every
/// message ([`Corruptible::corrupt_meta`]).
#[derive(Debug)]
pub(crate) struct LbsCorruptor {
    trigger: Trigger,
    rng: ChaCha8Rng,
}

impl LbsCorruptor {
    /// Creates an LBS corruptor firing per `trigger`.
    pub(crate) fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl<M: Corruptible> Adversary<M> for LbsCorruptor {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        if self.trigger.fires(ctx.seq, &mut self.rng) {
            Action::Deliver(payload.corrupt_meta(&mut self.rng))
        } else {
            Action::Deliver(payload)
        }
    }

    fn label(&self) -> &str {
        "lbs-corruptor"
    }
}

/// Omission fault: armed sends disappear.
///
/// The receiver's timeout makes the absence detectable (environmental
/// assumption 4).
#[derive(Debug)]
pub(crate) struct MessageDropper {
    trigger: Trigger,
    rng: ChaCha8Rng,
}

impl MessageDropper {
    /// Creates a dropper firing per `trigger`.
    pub(crate) fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl<M: Corruptible> Adversary<M> for MessageDropper {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        if self.trigger.fires(ctx.seq, &mut self.rng) {
            Action::Drop
        } else {
            Action::Deliver(payload)
        }
    }

    fn label(&self) -> &str {
        "message-dropper"
    }
}

/// Fail-silent node: every send from `after_seq` onward is lost, forever.
///
/// Models a node halting mid-algorithm (the paper's "early termination" —
/// the progress predicate Φ_P requires the full number of stages, so any
/// premature silence is an error).
#[derive(Debug)]
pub struct Crash {
    after_seq: u64,
}

impl Crash {
    /// Creates a node that dies just before its `after_seq`-th send.
    pub fn new(after_seq: u64) -> Self {
        Self { after_seq }
    }
}

impl<M: Corruptible> Adversary<M> for Crash {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        if ctx.seq >= self.after_seq {
            Action::Drop
        } else {
            Action::Deliver(payload)
        }
    }

    fn label(&self) -> &str {
        "crash"
    }
}

/// Stuck-at fault: armed sends replay the *previous* payload instead of the
/// current one.
///
/// Models a latched output register or a stale retransmit buffer. The first
/// send has no predecessor and is delivered intact.
#[derive(Debug)]
pub struct StuckStale<M> {
    trigger: Trigger,
    rng: ChaCha8Rng,
    last: Option<M>,
}

impl<M> StuckStale<M> {
    /// Creates a stale-replayer firing per `trigger`.
    pub fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
            last: None,
        }
    }
}

impl<M: Corruptible> Adversary<M> for StuckStale<M> {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        let fire = self.trigger.fires(ctx.seq, &mut self.rng);
        let replay = self.last.replace(payload.clone());
        match (fire, replay) {
            (true, Some(stale)) => Action::Deliver(stale),
            _ => Action::Deliver(payload),
        }
    }

    fn label(&self) -> &str {
        "stuck-stale"
    }
}

/// Delay fault: armed sends are held back and released together with the
/// node's *next* send — the link stays FIFO, but the protocol
/// desynchronizes (the peer's next receive yields a stale step's message).
///
/// Models a congested or flaky link that buffers traffic. Unlike a drop,
/// every payload is eventually delivered intact, so the only observable
/// symptom is messages arriving at the wrong protocol step — which the
/// structural and mask checks of Φ_C must catch. Anything still held at the
/// node's last send is lost (the paper's absence detection covers that
/// tail).
#[derive(Debug)]
pub(crate) struct Delayer<M> {
    trigger: Trigger,
    rng: ChaCha8Rng,
    buffer: Vec<(aoft_hypercube::NodeId, M)>,
}

impl<M> Delayer<M> {
    /// Creates a delayer firing per `trigger`.
    pub(crate) fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
            buffer: Vec::new(),
        }
    }
}

impl<M: Corruptible> Adversary<M> for Delayer<M> {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        if self.trigger.fires(ctx.seq, &mut self.rng) {
            // Hold this message back.
            self.buffer.push((ctx.dst, payload));
            return Action::Drop;
        }
        if self.buffer.is_empty() {
            return Action::Deliver(payload);
        }
        // Release everything held, oldest first, then the current message.
        let mut out: Vec<(aoft_hypercube::NodeId, M)> = self.buffer.drain(..).collect();
        out.push((ctx.dst, payload));
        Action::Fan(out)
    }

    fn label(&self) -> &str {
        "delayer"
    }
}

/// A seeded mix of all misbehaviours: on each armed send, uniformly deliver
/// clean, corrupt, skew, replay stale, or drop.
///
/// This is the "most malicious manner possible" catch-all used by the random
/// sweeps of the coverage campaign.
#[derive(Debug)]
pub struct RandomByzantine<M> {
    trigger: Trigger,
    rng: ChaCha8Rng,
    last: Option<M>,
}

impl<M> RandomByzantine<M> {
    /// Creates a random Byzantine node firing per `trigger`.
    pub fn new(trigger: Trigger, seed: u64) -> Self {
        Self {
            trigger,
            rng: ChaCha8Rng::seed_from_u64(seed),
            last: None,
        }
    }
}

impl<M: Corruptible> Adversary<M> for RandomByzantine<M> {
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M> {
        let fire = self.trigger.fires(ctx.seq, &mut self.rng);
        let stale = self.last.replace(payload.clone());
        if !fire {
            return Action::Deliver(payload);
        }
        match self.rng.gen_range(0..5u8) {
            0 => Action::Deliver(payload),
            1 => Action::Deliver(payload.corrupt(&mut self.rng)),
            2 => Action::Deliver(payload.skew(&mut self.rng)),
            3 => match stale {
                Some(old) => Action::Deliver(old),
                None => Action::Deliver(payload),
            },
            _ => Action::Drop,
        }
    }

    fn label(&self) -> &str {
        "random-byzantine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoft_hypercube::NodeId;
    use aoft_sim::{Ticks, Word};

    fn ctx(src: u32, dst: u32, seq: u64) -> SendContext {
        SendContext {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            seq,
            now: Ticks::ZERO,
        }
    }

    fn delivered(action: Action<Word>) -> Option<Word> {
        match action {
            Action::Deliver(w) => Some(w),
            Action::Drop => None,
            Action::Fan(_) => panic!("unexpected fan"),
        }
    }

    #[test]
    fn corruptor_outside_window_is_honest() {
        let mut adv = ValueCorruptor::new(Trigger::at_seq(5), 1);
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 0), Word(9))),
            Some(Word(9))
        );
        let hit = delivered(adv.intercept(&ctx(0, 1, 5), Word(9))).unwrap();
        assert_ne!(hit, Word(9));
    }

    #[test]
    fn two_faced_splits_by_destination() {
        let mut adv = TwoFaced::new(Trigger::always(), 2);
        let down = delivered(adv.intercept(&ctx(4, 0, 0), Word(100))).unwrap();
        let up = delivered(adv.intercept(&ctx(4, 5, 1), Word(100))).unwrap();
        assert_eq!(down, Word(100), "lower peers hear the truth");
        assert_ne!(up, Word(100), "higher peers hear a skewed value");
    }

    #[test]
    fn equivocator_lies_upward_only() {
        let mut adv = Equivocator::new(Trigger::always(), 6);
        let down = delivered(adv.intercept(&ctx(4, 0, 0), Word(100))).unwrap();
        let up = delivered(adv.intercept(&ctx(4, 5, 1), Word(100))).unwrap();
        assert_eq!(down, Word(100), "lower peers hear the truth");
        assert_ne!(up, Word(100), "higher peers hear the lie");
    }

    #[test]
    fn lbs_corruptor_fires_per_trigger() {
        let mut adv = LbsCorruptor::new(Trigger::at_seq(1), 6);
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 0), Word(7))),
            Some(Word(7))
        );
        let hit = delivered(adv.intercept(&ctx(0, 1, 1), Word(7))).unwrap();
        assert_ne!(hit, Word(7), "Word has no separable metadata: falls back");
    }

    #[test]
    fn dropper_drops_only_in_window() {
        let mut adv = MessageDropper::new(Trigger::window(1, 2), 3);
        assert!(delivered(adv.intercept(&ctx(0, 1, 0), Word(1))).is_some());
        assert!(delivered(adv.intercept(&ctx(0, 1, 1), Word(1))).is_none());
        assert!(delivered(adv.intercept(&ctx(0, 1, 2), Word(1))).is_some());
    }

    #[test]
    fn crash_is_permanent() {
        let mut adv = Crash::new(2);
        assert!(delivered(adv.intercept(&ctx(0, 1, 1), Word(1))).is_some());
        for seq in 2..10 {
            assert!(delivered(adv.intercept(&ctx(0, 1, seq), Word(1))).is_none());
        }
    }

    #[test]
    fn stuck_stale_replays_previous() {
        let mut adv: StuckStale<Word> = StuckStale::new(Trigger::from_seq(1), 4);
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 0), Word(10))),
            Some(Word(10))
        );
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 1), Word(20))),
            Some(Word(10)),
            "second send replays the first payload"
        );
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 2), Word(30))),
            Some(Word(20)),
            "replay chain advances one behind"
        );
    }

    #[test]
    fn stuck_stale_first_send_is_clean() {
        let mut adv: StuckStale<Word> = StuckStale::new(Trigger::always(), 4);
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 0), Word(10))),
            Some(Word(10))
        );
    }

    #[test]
    fn delayer_holds_and_releases_in_order() {
        let mut adv: Delayer<Word> = Delayer::new(Trigger::at_seq(1), 8);
        // seq 0: passes through.
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 0), Word(10))),
            Some(Word(10))
        );
        // seq 1: held.
        assert!(delivered(adv.intercept(&ctx(0, 2, 1), Word(20))).is_none());
        // seq 2: releases the held message plus the current one, in order.
        match adv.intercept(&ctx(0, 1, 2), Word(30)) {
            Action::Fan(out) => {
                assert_eq!(out.len(), 2);
                assert_eq!(out[0], (NodeId::new(2), Word(20)));
                assert_eq!(out[1], (NodeId::new(1), Word(30)));
            }
            other => panic!("expected fan, got {other:?}"),
        }
        // seq 3: buffer empty again.
        assert_eq!(
            delivered(adv.intercept(&ctx(0, 1, 3), Word(40))),
            Some(Word(40))
        );
    }

    #[test]
    fn random_byzantine_is_reproducible() {
        let run = |seed: u64| -> Vec<Option<Word>> {
            let mut adv: RandomByzantine<Word> = RandomByzantine::new(Trigger::always(), seed);
            (0..32)
                .map(|seq| delivered(adv.intercept(&ctx(0, 1, seq), Word(seq as u32))))
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn random_byzantine_mixes_behaviours() {
        let mut adv: RandomByzantine<Word> = RandomByzantine::new(Trigger::always(), 13);
        let mut clean = 0;
        let mut altered = 0;
        let mut dropped = 0;
        for seq in 0..200 {
            match delivered(adv.intercept(&ctx(0, 1, seq), Word(seq as u32))) {
                Some(w) if w == Word(seq as u32) => clean += 1,
                Some(_) => altered += 1,
                None => dropped += 1,
            }
        }
        assert!(clean > 0, "sometimes honest");
        assert!(altered > 0, "sometimes corrupt");
        assert!(dropped > 0, "sometimes mute");
    }

    #[test]
    fn labels() {
        assert_eq!(
            Adversary::<Word>::label(&ValueCorruptor::new(Trigger::always(), 0)),
            "value-corruptor"
        );
        assert_eq!(Adversary::<Word>::label(&Crash::new(0)), "crash");
    }
}
