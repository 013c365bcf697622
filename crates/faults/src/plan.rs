use std::fmt;

use aoft_hypercube::NodeId;
use aoft_sim::AdversarySet;
use serde::{Deserialize, Serialize};

use crate::adversaries::{
    Crash, Delayer, Equivocator, LbsCorruptor, MessageDropper, RandomByzantine, StuckStale,
    TwoFaced, ValueCorruptor,
};
use crate::{Corruptible, Trigger};

/// The fault classes exercised by the coverage campaign, one per adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Data corruption on outgoing messages (`ValueCorruptor`).
    CorruptValue,
    /// Inconsistent Byzantine sends ([`TwoFaced`]).
    TwoFaced,
    /// Message omission (`MessageDropper`).
    DropMessages,
    /// Fail-silent from the trigger origin ([`Crash`]).
    Crash,
    /// Stale replay of the previous payload ([`StuckStale`]).
    StuckStale,
    /// Delayed (but eventually delivered) messages (`Delayer`).
    DelayMessages,
    /// Seeded mix of all misbehaviours ([`RandomByzantine`]).
    RandomByzantine,
    /// Targeted equivocation about the sender's own entry (`Equivocator`).
    Equivocate,
    /// Check-metadata (LBS) corruption over intact data (`LbsCorruptor`).
    CorruptLbs,
}

impl FaultKind {
    /// All fault kinds, for exhaustive sweeps.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::CorruptValue,
        FaultKind::TwoFaced,
        FaultKind::DropMessages,
        FaultKind::Crash,
        FaultKind::StuckStale,
        FaultKind::DelayMessages,
        FaultKind::RandomByzantine,
        FaultKind::Equivocate,
        FaultKind::CorruptLbs,
    ];

    /// Stable kebab-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CorruptValue => "corrupt-value",
            FaultKind::TwoFaced => "two-faced",
            FaultKind::DropMessages => "drop-messages",
            FaultKind::Crash => "crash",
            FaultKind::StuckStale => "stuck-stale",
            FaultKind::DelayMessages => "delay-messages",
            FaultKind::RandomByzantine => "random-byzantine",
            FaultKind::Equivocate => "equivocate",
            FaultKind::CorruptLbs => "corrupt-lbs",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injected fault: which node misbehaves, how, and when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The faulty node.
    pub node: NodeId,
    /// The behaviour class.
    pub kind: FaultKind,
    /// When the fault manifests.
    pub trigger: Trigger,
    /// RNG seed for the adversary's random choices.
    pub seed: u64,
}

impl FaultSpec {
    /// Instantiates this spec's adversary with an explicit `seed` (which
    /// may differ from [`FaultSpec::seed`]: wire-level injection mixes the
    /// link identity into the seed so each link draws an independent,
    /// reproducible stream).
    pub fn build_adversary<M: Corruptible>(&self, seed: u64) -> Box<dyn aoft_sim::Adversary<M>> {
        match self.kind {
            FaultKind::CorruptValue => Box::new(ValueCorruptor::new(self.trigger, seed)),
            FaultKind::TwoFaced => Box::new(TwoFaced::new(self.trigger, seed)),
            FaultKind::DropMessages => Box::new(MessageDropper::new(self.trigger, seed)),
            FaultKind::Crash => Box::new(Crash::new(self.trigger.from)),
            FaultKind::StuckStale => Box::new(StuckStale::<M>::new(self.trigger, seed)),
            FaultKind::DelayMessages => Box::new(Delayer::<M>::new(self.trigger, seed)),
            FaultKind::RandomByzantine => Box::new(RandomByzantine::<M>::new(self.trigger, seed)),
            FaultKind::Equivocate => Box::new(Equivocator::new(self.trigger, seed)),
            FaultKind::CorruptLbs => Box::new(LbsCorruptor::new(self.trigger, seed)),
        }
    }
}

/// A declarative, serializable description of all faults in one run.
///
/// Compiled with [`FaultPlan::build`] into the
/// [`AdversarySet`](aoft_sim::AdversarySet) the engine consumes.
///
/// # Examples
///
/// ```
/// use aoft_faults::{FaultKind, FaultPlan, Trigger};
/// use aoft_hypercube::NodeId;
///
/// let plan = FaultPlan::new()
///     .with_fault(NodeId::new(1), FaultKind::CorruptValue, Trigger::at_seq(3), 7)
///     .with_fault(NodeId::new(6), FaultKind::Crash, Trigger::from_seq(5), 8);
/// assert_eq!(plan.fault_count(), 2);
/// assert!(plan.is_faulty(NodeId::new(6)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An all-honest plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `node` already has a fault in this plan — one adversary per
    /// node, matching Definition 3's per-node fault attribution.
    pub fn with_fault(
        mut self,
        node: NodeId,
        kind: FaultKind,
        trigger: Trigger,
        seed: u64,
    ) -> Self {
        self.push(FaultSpec {
            node,
            kind,
            trigger,
            seed,
        });
        self
    }

    /// Adds a fault spec in place.
    ///
    /// # Panics
    ///
    /// Panics if the spec's node already has a fault in this plan.
    pub(crate) fn push(&mut self, spec: FaultSpec) {
        assert!(
            !self.is_faulty(spec.node),
            "{} already has a fault in this plan",
            spec.node
        );
        self.specs.push(spec);
    }

    /// The fault specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of faulty nodes.
    pub fn fault_count(&self) -> usize {
        self.specs.len()
    }

    /// `true` if `node` has a planned fault.
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.specs.iter().any(|s| s.node == node)
    }

    /// Compiles the plan into an adversary set for a machine of `nodes`
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if any planned node lies outside the machine.
    pub fn build<M: Corruptible>(&self, nodes: usize) -> AdversarySet<M> {
        let mut set = AdversarySet::honest(nodes);
        for spec in &self.specs {
            assert!(
                spec.node.index() < nodes,
                "fault plan names {} but the machine has {nodes} nodes",
                spec.node
            );
            set.install(spec.node, spec.build_adversary::<M>(spec.seed));
        }
        set
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.specs.is_empty() {
            return write!(f, "honest");
        }
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}@{}", spec.kind, spec.node)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoft_sim::Word;

    #[test]
    fn builds_adversaries_for_every_kind() {
        let mut plan = FaultPlan::new();
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            plan.push(FaultSpec {
                node: NodeId::new(i as u32),
                kind,
                trigger: Trigger::always(),
                seed: i as u64,
            });
        }
        let set = plan.build::<Word>(16);
        assert_eq!(set.fault_count(), 9);
        for i in 0..9 {
            assert!(set.is_faulty(NodeId::new(i)));
        }
        assert!(!set.is_faulty(NodeId::new(9)));
    }

    #[test]
    #[should_panic(expected = "already has a fault")]
    fn duplicate_node_rejected() {
        FaultPlan::new()
            .with_fault(NodeId::new(0), FaultKind::Crash, Trigger::always(), 0)
            .with_fault(NodeId::new(0), FaultKind::TwoFaced, Trigger::always(), 0);
    }

    #[test]
    #[should_panic(expected = "but the machine has")]
    fn out_of_range_node_rejected() {
        FaultPlan::new()
            .with_fault(NodeId::new(9), FaultKind::Crash, Trigger::always(), 0)
            .build::<Word>(4);
    }

    #[test]
    fn display_and_names() {
        assert_eq!(FaultPlan::new().to_string(), "honest");
        let plan = FaultPlan::new()
            .with_fault(NodeId::new(2), FaultKind::TwoFaced, Trigger::always(), 0)
            .with_fault(NodeId::new(5), FaultKind::Crash, Trigger::from_seq(1), 0);
        assert_eq!(plan.to_string(), "two-faced@P2, crash@P5");
        for kind in FaultKind::ALL {
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::new().with_fault(
            NodeId::new(3),
            FaultKind::RandomByzantine,
            Trigger::window(2, 9),
            77,
        );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
