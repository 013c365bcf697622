//! Φ_C, the consistency predicate (Figure 4c).
//!
//! A Byzantine node can send different versions of the "same" sequence to
//! different peers, each locally plausible. The bitonic exchange pattern
//! already routes every entry to each checker over vertex-disjoint paths
//! (Lemma 6), so consistency is enforced for free: whenever a received copy
//! overlaps an entry the node already holds, the copies must agree.
//!
//! Φ_C is "closely intertwined with the actual message delivery": it *is*
//! the merge step that fills the local `LBS` from the piggybacked wire
//! array, with the overlap comparison folded in.

use aoft_hypercube::NodeSet;

use crate::msg::LbsWire;
use crate::{LbsBuffer, Violation};

/// What a Φ_C merge did — the caller charges virtual time from these
/// counts (`adopted` entries are moves, `compared` entries are comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhiCOutcome {
    /// Entries newly adopted into the local `LBS`.
    pub adopted: usize,
    /// Entries compared against already-held copies.
    pub compared: usize,
}

/// Merges one piggybacked `LBS` array into the local buffer, checking
/// consistency.
///
/// `expected` is the sender's legitimate holdings at this point of the
/// schedule (from [`vect_mask_before`](super::vect_mask_before) for an
/// initiating message, [`vect_mask`](super::vect_mask) for a reply). For
/// every expected entry:
///
/// * absent from the wire → [`Violation::MissingEntry`] (the sender held it
///   and must transmit it);
/// * wrong block size → [`Violation::MalformedBlock`];
/// * already held locally → the copies must be equal, else
///   [`Violation::Inconsistent`];
/// * otherwise → adopted (`LBS[k] := lbuf[k]`).
///
/// Entries on the wire *outside* `expected` are ignored: `vect_mask` is
/// computed locally from the schedule, never trusted from the message, so a
/// faulty sender cannot plant entries it could not legitimately hold.
///
/// Adoption *moves* the entry out of `incoming` (which is consumed
/// bookkeeping, not reused by callers): the local `LBS` ends up holding the
/// storage the message carried — in-process, the owner's own. An echo of an
/// entry this node sent out in-process comes back as a handle to the same
/// storage and compares equal without a key being read; copies decoded off
/// a socket never alias and are compared key by key. The verdict is the
/// same either way, and so is the `compared` count the caller charges.
///
/// On success the local held-mask has grown to `lmask ∪ expected`, the
/// paper's returned `omask`.
pub fn phi_c(
    lbs: &mut LbsBuffer,
    incoming: &mut LbsWire,
    expected: &NodeSet,
    stage: u32,
    step: u32,
) -> Result<PhiCOutcome, Violation> {
    let mut outcome = PhiCOutcome::default();
    for node in expected.iter() {
        let block = incoming.get(node).ok_or(Violation::MissingEntry {
            stage,
            step,
            entry: node,
        })?;
        if block.len() != lbs.block_len() as usize {
            return Err(Violation::MalformedBlock {
                stage,
                expected: lbs.block_len(),
                got: block.len() as u32,
            });
        }
        if let Some(held) = lbs.get(node) {
            outcome.compared += 1;
            if held != block {
                return Err(Violation::Inconsistent {
                    stage,
                    step,
                    entry: node,
                });
            }
            continue;
        }
        outcome.adopted += 1;
        let block = incoming.take(node).expect("presence checked above");
        lbs.set(node, block);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use aoft_hypercube::NodeId;

    use super::*;
    use crate::Block;

    fn wire(span_start: u32, slots: Vec<Option<Block>>) -> LbsWire {
        LbsWire {
            span_start,
            block_len: 1,
            slots,
        }
    }

    fn expect(nodes: &[u32]) -> NodeSet {
        let mut set = NodeSet::empty(8);
        for &n in nodes {
            set.insert(NodeId::new(n));
        }
        set
    }

    #[test]
    fn adopts_new_entries() {
        let mut lbs = LbsBuffer::new(8, 1);
        lbs.set(NodeId::new(0), Block::new(vec![5]));
        let mut incoming = wire(0, vec![None, Some(Block::new(vec![7])), None, None]);
        let outcome = phi_c(&mut lbs, &mut incoming, &expect(&[1]), 1, 1).unwrap();
        assert_eq!(
            outcome,
            PhiCOutcome {
                adopted: 1,
                compared: 0
            }
        );
        assert_eq!(lbs.get(NodeId::new(1)).unwrap().keys(), &[7]);
        assert_eq!((0..8).filter(|&n| lbs.holds(NodeId::new(n))).count(), 2);
    }

    #[test]
    fn adopted_entry_is_the_wire_slot_itself() {
        let mut lbs = LbsBuffer::new(8, 1);
        let sent = Block::new(vec![7]);
        let mut incoming = wire(0, vec![None, Some(sent.clone()), None, None]);
        phi_c(&mut lbs, &mut incoming, &expect(&[1]), 1, 1).unwrap();
        assert_eq!(
            lbs.get(NodeId::new(1)).unwrap().keys().as_ptr(),
            sent.keys().as_ptr(),
            "adoption moves the handle; no key is copied"
        );
        assert!(incoming.get(NodeId::new(1)).is_none());
    }

    #[test]
    fn agreeing_overlap_passes() {
        // An echo that is the held entry's own storage (in-process) and an
        // equal copy in storage of its own (decoded off a socket) get the
        // same verdict and the same count: the caller's charge cannot tell
        // them apart.
        let held = Block::new(vec![9]);
        for echoed in [held.clone(), Block::new(vec![9])] {
            let mut lbs = LbsBuffer::new(8, 1);
            lbs.set(NodeId::new(2), held.clone());
            let mut incoming = wire(0, vec![None, None, Some(echoed), None]);
            let outcome = phi_c(&mut lbs, &mut incoming, &expect(&[2]), 2, 0).unwrap();
            assert_eq!(
                outcome,
                PhiCOutcome {
                    adopted: 0,
                    compared: 1
                }
            );
        }
    }

    #[test]
    fn disagreeing_overlap_is_inconsistent() {
        let mut lbs = LbsBuffer::new(8, 1);
        lbs.set(NodeId::new(2), Block::new(vec![9]));
        let mut incoming = wire(0, vec![None, None, Some(Block::new(vec![8])), None]);
        assert_eq!(
            phi_c(&mut lbs, &mut incoming, &expect(&[2]), 2, 0),
            Err(Violation::Inconsistent {
                stage: 2,
                step: 0,
                entry: NodeId::new(2)
            })
        );
    }

    #[test]
    fn expected_but_absent_entry_is_missing() {
        let mut lbs = LbsBuffer::new(8, 1);
        let mut incoming = wire(0, vec![Some(Block::new(vec![1])), None, None, None]);
        assert_eq!(
            phi_c(&mut lbs, &mut incoming, &expect(&[0, 1]), 1, 0),
            Err(Violation::MissingEntry {
                stage: 1,
                step: 0,
                entry: NodeId::new(1)
            })
        );
    }

    #[test]
    fn unexpected_entries_are_ignored() {
        // The wire claims entry 3, but vect_mask says the sender can only
        // hold entry 0 — the plant must not be adopted.
        let mut lbs = LbsBuffer::new(8, 1);
        let mut incoming = wire(
            0,
            vec![
                Some(Block::new(vec![1])),
                None,
                None,
                Some(Block::new(vec![66])),
            ],
        );
        phi_c(&mut lbs, &mut incoming, &expect(&[0]), 1, 1).unwrap();
        assert!(lbs.get(NodeId::new(3)).is_none());
        assert!(lbs.holds(NodeId::new(0)));
    }

    #[test]
    fn malformed_block_is_rejected() {
        let mut lbs = LbsBuffer::new(8, 2);
        let mut incoming = LbsWire {
            span_start: 0,
            block_len: 2,
            slots: vec![Some(Block::new(vec![1]))], // only one key, m = 2
        };
        assert_eq!(
            phi_c(&mut lbs, &mut incoming, &expect(&[0]), 0, 0),
            Err(Violation::MalformedBlock {
                stage: 0,
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn block_overlap_compares_whole_block() {
        let mut lbs = LbsBuffer::new(8, 2);
        lbs.set(NodeId::new(1), Block::new(vec![3, 4]));
        let mut incoming = LbsWire {
            span_start: 0,
            block_len: 2,
            slots: vec![None, Some(Block::new(vec![3, 5]))],
        };
        assert_eq!(
            phi_c(&mut lbs, &mut incoming, &expect(&[1]), 1, 0),
            Err(Violation::Inconsistent {
                stage: 1,
                step: 0,
                entry: NodeId::new(1)
            })
        );
    }

    #[test]
    fn grown_mask_is_union() {
        let mut lbs = LbsBuffer::new(8, 1);
        lbs.set(NodeId::new(0), Block::new(vec![1]));
        let mut incoming = wire(
            0,
            vec![
                Some(Block::new(vec![1])),
                Some(Block::new(vec![2])),
                None,
                None,
            ],
        );
        phi_c(&mut lbs, &mut incoming, &expect(&[0, 1]), 1, 0).unwrap();
        assert!(lbs.holds(NodeId::new(0)));
        assert!(lbs.holds(NodeId::new(1)));
        assert_eq!((0..8).filter(|&n| lbs.holds(NodeId::new(n))).count(), 2);
    }
}
