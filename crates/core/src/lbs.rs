//! The `LBS` / `LLBS` bookkeeping of Figure 3.
//!
//! Each `S_FT` node maintains two distributed-sequence buffers:
//!
//! * `LBS` — the *last bitonic sequence*: the values that entered the current
//!   stage, collected entry by entry from the piggybacked messages;
//! * `LLBS` — the previous stage's fully-collected sequence, the reference
//!   against which feasibility (Φ_F) is checked.
//!
//! A buffer holds one optional [`Block`] per node of the machine plus the
//! held-entry mask (`lmask` in the paper's pseudocode, generalized from a
//! machine word to a [`NodeSet`]).

use aoft_hypercube::{NodeId, NodeSet, Subcube};

use crate::msg::LbsWire;
use crate::{subcube_ascending, Block, Key};

/// One node's view of a distributed (bitonic) sequence.
///
/// An entry is a handle to the block its owner produced: storing, sending
/// and snapshotting entries share that one allocation and never copy keys.
/// A slot is `Some` exactly when the mask marks it held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbsBuffer {
    entries: Vec<Option<Block>>,
    held: NodeSet,
    block_len: u32,
}

impl LbsBuffer {
    /// An empty buffer for a machine of `nodes` nodes holding blocks of
    /// `block_len` keys.
    pub fn new(nodes: usize, block_len: u32) -> Self {
        Self {
            entries: vec![None; nodes],
            held: NodeSet::empty(nodes),
            block_len,
        }
    }

    /// Keys per block (`m`).
    pub fn block_len(&self) -> u32 {
        self.block_len
    }

    /// The entry owned by `node`, if held.
    pub fn get(&self, node: NodeId) -> Option<&Block> {
        self.entries[node.index()].as_ref()
    }

    /// Stores `node`'s entry (the paper's `LBS[k] := lbuf[k]`).
    pub fn set(&mut self, node: NodeId, block: Block) {
        self.held.insert(node);
        self.entries[node.index()] = Some(block);
    }

    /// Stores another handle to `block` as `node`'s entry.
    pub fn set_from(&mut self, node: NodeId, block: &Block) {
        self.set(node, block.clone());
    }

    /// `true` if `node`'s entry is held.
    pub(crate) fn holds(&self, node: NodeId) -> bool {
        self.held.contains(node)
    }

    /// Drops everything and re-seeds with this node's own entry — the
    /// paper's end-of-stage `LBS[node] := a; lmask := 2^node`. Letting go
    /// of an entry frees its keys if this was the last node holding them.
    pub(crate) fn reset_to_self(&mut self, me: NodeId, own: Block) {
        for node in self.held.iter() {
            self.entries[node.index()] = None;
        }
        self.held.clear();
        self.set(me, own);
    }

    /// The entries of `span` for piggybacking — the full-span array the
    /// paper transmits with every exchange. Each filled slot is a handle to
    /// the held entry's storage: in-process the receiver reads the very
    /// keys the owner wrote, and a socket transport encodes straight from
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `span` extends past the machine.
    pub fn to_wire(&self, span: Subcube) -> LbsWire {
        assert!(
            span.end().index() < self.entries.len(),
            "span {span} exceeds machine size {}",
            self.entries.len()
        );
        LbsWire {
            span_start: span.start().raw(),
            block_len: self.block_len,
            slots: self.entries[span.start().index()..=span.end().index()].to_vec(),
        }
    }

    /// Flattens the entries of `span` into `out` as one ascending key
    /// sequence, honouring the subcube's sort direction.
    ///
    /// After its stage completes, `span` is monotone *at block granularity*
    /// (every key of one node bounds every key of the next), with each block
    /// internally ascending. Ascending subcubes flatten in node order;
    /// descending subcubes flatten in reverse node order (each block still
    /// forward). Either way the result is globally ascending exactly when
    /// the distributed sequence satisfied its invariant — which is how the
    /// predicates check Φ_P.
    ///
    /// `out` is cleared and filled; returns `false` (leaving a partial fill
    /// behind) if any entry of the span is missing. Reusing one buffer
    /// across predicate checks keeps the verification path free of per-step
    /// allocations.
    pub(crate) fn flatten_ascending_into(&self, span: Subcube, out: &mut Vec<Key>) -> bool {
        out.clear();
        out.reserve(span.len() * self.block_len as usize);
        let ascending = subcube_ascending(span);
        let mut push = |node: NodeId| -> bool {
            match self.get(node) {
                Some(block) => {
                    out.extend_from_slice(block.keys());
                    true
                }
                None => false,
            }
        };
        if ascending {
            span.iter().all(&mut push)
        } else {
            span.iter().rev().all(&mut push)
        }
    }

    /// Promotes this buffer into the `LLBS` role (the paper's end-of-stage
    /// `LLBS[m] := LBS[m]` copy loop): a second set of handles to the same
    /// entries. Later writes to either buffer replace handles, never keys,
    /// so the two stay independent.
    pub(crate) fn snapshot(&self) -> LbsBuffer {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(keys: &[Key]) -> Block {
        Block::new(keys.to_vec())
    }

    #[test]
    fn set_get_holds() {
        let mut buf = LbsBuffer::new(8, 1);
        assert!(!buf.holds(NodeId::new(3)));
        buf.set(NodeId::new(3), block(&[7]));
        assert!(buf.holds(NodeId::new(3)));
        assert_eq!(buf.get(NodeId::new(3)).unwrap().keys(), &[7]);
        assert_eq!(buf.held.len(), 1);
        assert_eq!(buf.block_len(), 1);
    }

    #[test]
    fn reset_to_self_clears_everything_else() {
        let mut buf = LbsBuffer::new(4, 1);
        buf.set(NodeId::new(0), block(&[1]));
        buf.set(NodeId::new(1), block(&[2]));
        buf.reset_to_self(NodeId::new(2), block(&[9]));
        assert_eq!(buf.held.len(), 1);
        assert!(buf.holds(NodeId::new(2)));
        assert_eq!(buf.get(NodeId::new(2)).unwrap().keys(), &[9]);
        assert!(buf.get(NodeId::new(0)).is_none());
        assert!(!buf.holds(NodeId::new(0)));
        let wire = buf.to_wire(Subcube::home(2, NodeId::new(0)));
        assert_eq!(wire.slots.iter().flatten().count(), 1);
        assert!(wire.get(NodeId::new(0)).is_none());
        // A reset buffer is indistinguishable from a freshly seeded one.
        let mut fresh = LbsBuffer::new(4, 1);
        fresh.set(NodeId::new(2), block(&[9]));
        assert_eq!(buf, fresh);
        fresh.set(NodeId::new(3), block(&[4]));
        assert_ne!(buf, fresh);
    }

    #[test]
    fn reset_to_self_releases_the_dropped_entries() {
        let mut buf = LbsBuffer::new(4, 1);
        let entry = block(&[1]);
        buf.set(NodeId::new(0), entry.clone());
        buf.reset_to_self(NodeId::new(2), block(&[9]));
        // The buffer's handle is gone: `entry` is the sole holder again and
        // takes its storage out without a copy.
        let storage = entry.keys().as_ptr();
        let taken = entry.into_keys();
        assert_eq!(taken.as_ptr(), storage);
    }

    #[test]
    fn wire_round_trip() {
        let mut buf = LbsBuffer::new(8, 2);
        buf.set(NodeId::new(4), block(&[1, 2]));
        buf.set(NodeId::new(6), block(&[3, 4]));
        let span = Subcube::home(2, NodeId::new(5)); // 4..=7
        let wire = buf.to_wire(span);
        assert_eq!(wire.span_start, 4);
        assert_eq!(wire.slots.len(), 4);
        assert_eq!(wire.slots.iter().flatten().count(), 2);
        assert_eq!(wire.get(NodeId::new(6)).unwrap().keys(), &[3, 4]);
        assert!(wire.get(NodeId::new(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds machine size")]
    fn wire_span_out_of_range_panics() {
        LbsBuffer::new(4, 1).to_wire(Subcube::home(3, NodeId::new(0)));
    }

    fn flatten(buf: &LbsBuffer, span: Subcube) -> Option<Vec<Key>> {
        let mut out = Vec::new();
        buf.flatten_ascending_into(span, &mut out).then_some(out)
    }

    #[test]
    fn flatten_ascending_subcube() {
        // SC(dim=1) starting at node 0: bit 1 of start = 0 -> ascending.
        let mut buf = LbsBuffer::new(4, 2);
        buf.set(NodeId::new(0), block(&[1, 3]));
        buf.set(NodeId::new(1), block(&[5, 9]));
        let span = Subcube::home(1, NodeId::new(0));
        assert_eq!(flatten(&buf, span).unwrap(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn flatten_descending_subcube_reverses_nodes() {
        // SC(dim=1) starting at node 2: bit 1 of start = 1 -> descending.
        // Node 2 holds the large keys, node 3 the small ones; blocks stay
        // internally ascending.
        let mut buf = LbsBuffer::new(4, 2);
        buf.set(NodeId::new(2), block(&[5, 9]));
        buf.set(NodeId::new(3), block(&[1, 3]));
        let span = Subcube::home(1, NodeId::new(2));
        assert_eq!(flatten(&buf, span).unwrap(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn flatten_missing_entry_is_none() {
        let mut buf = LbsBuffer::new(4, 1);
        buf.set(NodeId::new(0), block(&[1]));
        assert!(flatten(&buf, Subcube::home(1, NodeId::new(0))).is_none());
    }

    #[test]
    fn set_from_shares_the_source_storage() {
        let mut buf = LbsBuffer::new(4, 2);
        let source = block(&[3, 4]);
        buf.set_from(NodeId::new(1), &source);
        let entry = buf.get(NodeId::new(1)).unwrap();
        assert_eq!(entry.keys(), &[3, 4]);
        assert_eq!(entry.keys().as_ptr(), source.keys().as_ptr());
    }

    #[test]
    fn to_wire_slots_alias_the_entries() {
        let mut buf = LbsBuffer::new(8, 2);
        buf.set(NodeId::new(4), block(&[1, 2]));
        buf.set(NodeId::new(6), block(&[3, 4]));
        let wire = buf.to_wire(Subcube::home(2, NodeId::new(5)));
        for node in [4, 6].map(NodeId::new) {
            assert_eq!(
                wire.get(node).unwrap().keys().as_ptr(),
                buf.get(node).unwrap().keys().as_ptr(),
                "slot {node} is the entry, not a copy"
            );
        }
        // Emptying a slot of the array is invisible to the buffer.
        let mut wire = wire;
        wire.slots[0] = None;
        assert_eq!(buf.get(NodeId::new(4)).unwrap().keys(), &[1, 2]);
    }

    #[test]
    fn flatten_into_reuses_buffer() {
        let mut buf = LbsBuffer::new(4, 2);
        buf.set(NodeId::new(0), block(&[1, 3]));
        buf.set(NodeId::new(1), block(&[5, 9]));
        let span = Subcube::home(1, NodeId::new(0));
        let mut out = Vec::with_capacity(4);
        let ptr = out.as_ptr();
        assert!(buf.flatten_ascending_into(span, &mut out));
        assert_eq!(out, vec![1, 3, 5, 9]);
        assert!(buf.flatten_ascending_into(span, &mut out));
        assert_eq!(out, vec![1, 3, 5, 9]);
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    fn snapshot_shares_storage_and_stays_independent() {
        let mut buf = LbsBuffer::new(4, 1);
        buf.set(NodeId::new(1), block(&[4]));
        let snap = buf.snapshot();
        assert_eq!(
            snap.get(NodeId::new(1)).unwrap().keys().as_ptr(),
            buf.get(NodeId::new(1)).unwrap().keys().as_ptr()
        );
        // Replacing an entry swaps a handle; the snapshot keeps the old one.
        buf.set(NodeId::new(1), block(&[5]));
        assert_eq!(snap.get(NodeId::new(1)).unwrap().keys(), &[4]);
        buf.reset_to_self(NodeId::new(0), block(&[0]));
        assert_eq!(snap.get(NodeId::new(1)).unwrap().keys(), &[4]);
    }
}
