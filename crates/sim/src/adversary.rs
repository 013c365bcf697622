use std::fmt;

use aoft_hypercube::NodeId;

use crate::{Payload, Ticks};

/// Everything an adversary may observe about an outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendContext {
    /// The (faulty) sending node.
    pub src: NodeId,
    /// The intended destination.
    pub dst: NodeId,
    /// Sequence number of this send at the sender, starting from 0.
    pub seq: u64,
    /// Sender virtual time just before the send.
    pub now: Ticks,
}

/// What a Byzantine node does with an outgoing message.
#[derive(Debug, Clone)]
pub enum Action<M> {
    /// Deliver a (possibly modified) payload to the intended destination.
    Deliver(M),
    /// Suppress the message entirely — the receiver's timeout will fire
    /// (environmental assumption 4 makes the absence detectable).
    Drop,
    /// Use the node's links arbitrarily: deliver any number of payloads to
    /// any *neighbors* (assumption 3 still holds — a faulty node cannot
    /// conjure links it does not have). The original message is replaced by
    /// this fan-out.
    Fan(Vec<(NodeId, M)>),
}

/// A Byzantine fault model for a single node, interposed on all of its
/// outgoing node-to-node links.
///
/// Definition 3 of the paper folds link failures into node failures (a node
/// with a faulty incident link is declared faulty), so interposing at the
/// sender captures the whole fault class: processor faults corrupt what the
/// node computes and therefore what it sends; link faults corrupt what the
/// link carries. Host links are reliable (assumption 2) and bypass the
/// adversary.
///
/// Implementations live in `aoft-faults`; honest nodes simply have no
/// adversary installed.
pub trait Adversary<M: Payload>: Send {
    /// Intercepts one outgoing message and decides its fate.
    fn intercept(&mut self, ctx: &SendContext, payload: M) -> Action<M>;

    /// A short label for reports and traces.
    fn label(&self) -> &str {
        "adversary"
    }
}

/// Per-node adversary assignment for one run.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::NodeId;
/// use aoft_sim::{Action, Adversary, AdversarySet, SendContext, Word};
///
/// struct Mute;
/// impl Adversary<Word> for Mute {
///     fn intercept(&mut self, _ctx: &SendContext, _payload: Word) -> Action<Word> {
///         Action::Drop
///     }
/// }
///
/// let mut set = AdversarySet::honest(8);
/// set.install(NodeId::new(3), Box::new(Mute));
/// assert!(set.is_faulty(NodeId::new(3)));
/// ```
pub struct AdversarySet<M> {
    slots: Vec<Option<Box<dyn Adversary<M>>>>,
}

impl<M: Payload> AdversarySet<M> {
    /// A fully honest machine of `nodes` nodes.
    pub fn honest(nodes: usize) -> Self {
        Self {
            slots: (0..nodes).map(|_| None).collect(),
        }
    }

    /// Number of node slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if there are no node slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Installs an adversary on `node`, replacing any previous one.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine.
    pub fn install(&mut self, node: NodeId, adversary: Box<dyn Adversary<M>>) {
        self.slots[node.index()] = Some(adversary);
    }

    /// `true` if `node` has an adversary installed.
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.slots[node.index()].is_some()
    }

    /// The faulty nodes, in label order.
    pub(crate) fn faulty_nodes(&self) -> Vec<NodeId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| NodeId::new(i as u32)))
            .collect()
    }

    /// Number of faulty nodes.
    pub fn fault_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    pub(crate) fn take_all(self) -> Vec<Option<Box<dyn Adversary<M>>>> {
        self.slots
    }
}

impl<M: Payload> fmt::Debug for AdversarySet<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AdversarySet(faulty: {:?})", self.faulty_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Word;

    struct Corrupt;

    impl Adversary<Word> for Corrupt {
        fn intercept(&mut self, _ctx: &SendContext, payload: Word) -> Action<Word> {
            Action::Deliver(Word(payload.0 ^ 1))
        }

        fn label(&self) -> &str {
            "corrupt"
        }
    }

    #[test]
    fn honest_set_has_no_faults() {
        let set: AdversarySet<Word> = AdversarySet::honest(4);
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert_eq!(set.fault_count(), 0);
        assert!(set.faulty_nodes().is_empty());
    }

    #[test]
    fn install_and_query() {
        let mut set: AdversarySet<Word> = AdversarySet::honest(4);
        set.install(NodeId::new(2), Box::new(Corrupt));
        assert!(set.is_faulty(NodeId::new(2)));
        assert!(!set.is_faulty(NodeId::new(1)));
        assert_eq!(set.fault_count(), 1);

        let mut slots = set.take_all();
        let mut adv = slots[2].take().unwrap();
        assert_eq!(adv.label(), "corrupt");
        let ctx = SendContext {
            src: NodeId::new(2),
            dst: NodeId::new(3),
            seq: 0,
            now: Ticks::ZERO,
        };
        match adv.intercept(&ctx, Word(10)) {
            Action::Deliver(w) => assert_eq!(w.0, 11),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn debug_lists_faulty() {
        let mut set: AdversarySet<Word> = AdversarySet::honest(4);
        set.install(NodeId::new(1), Box::new(Corrupt));
        assert!(format!("{set:?}").contains('1'));
    }
}
