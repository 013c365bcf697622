//! The wire format of the sorting algorithms.
//!
//! `S_NR` exchanges bare data blocks; `S_FT` piggybacks the last bitonic
//! sequence (`LBS`) on the very same messages — "the test for faulty
//! behavior is closely intertwined with the actual message delivery"
//! (Section 3). The fault-tolerant algorithm therefore sends *no extra
//! messages*, only longer ones, which is what produces the paper's
//! `0.05·N·log₂N` communication term.

use aoft_faults::Corruptible;
use aoft_hypercube::NodeId;
use aoft_net::{CodecError, Wire};
use aoft_sim::Payload;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Block, Key};

/// The piggybacked `LBS` array as transmitted: one slot per node of the
/// sender's current home subcube span, each either a block of keys or empty.
///
/// The paper's `write from data,LBS to node+d` ships the whole current-stage
/// array, so the wire size is the *full span* (`span_len · m` words)
/// regardless of how many slots are filled — absent slots travel as
/// sentinels. That full-array cost is what the communication-complexity
/// analysis of Theorem 4 counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbsWire {
    /// First node label of the span.
    pub span_start: u32,
    /// Keys per block (`m`).
    pub block_len: u32,
    /// One slot per span node, in label order.
    pub slots: Vec<Option<Block>>,
}

impl LbsWire {
    /// The slot for `node`, if it lies in the span and is filled.
    pub fn get(&self, node: NodeId) -> Option<&Block> {
        let idx = node.raw().checked_sub(self.span_start)? as usize;
        self.slots.get(idx)?.as_ref()
    }

    /// Moves the slot for `node` out of the array, if it lies in the span
    /// and is filled — lets Φ_C adopt a received block without copying its
    /// keys.
    pub fn take(&mut self, node: NodeId) -> Option<Block> {
        let idx = node.raw().checked_sub(self.span_start)? as usize;
        self.slots.get_mut(idx)?.take()
    }

    /// Words on the wire: header plus the full span at `m` words per slot.
    pub(crate) fn wire_words(&self) -> usize {
        2 + self.slots.len() * self.block_len.max(1) as usize
    }
}

/// A message of the distributed sorting algorithms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Msg {
    /// A bare data block: `S_NR` exchanges and host scatter/gather traffic.
    Data(Block),
    /// An `S_FT` main-loop message: the compare-exchange operand plus the
    /// piggybacked last bitonic sequence (Figure 3's `write from data,LBS`).
    Tagged {
        /// The compare-exchange operand.
        data: Block,
        /// The piggybacked sequence.
        lbs: LbsWire,
    },
    /// An `S_FT` final-verification message: pure `LBS` exchange, no data
    /// (the extra stage at the bottom of Figure 3).
    Lbs(LbsWire),
}

impl Payload for Msg {
    fn wire_size(&self) -> usize {
        match self {
            Msg::Data(block) => 1 + block.len(),
            Msg::Tagged { data, lbs } => 1 + data.len() + lbs.wire_words(),
            Msg::Lbs(lbs) => 1 + lbs.wire_words(),
        }
    }
}

impl Wire for LbsWire {
    fn encode(&self, out: &mut Vec<u8>) {
        self.span_start.encode(out);
        self.block_len.encode(out);
        self.slots.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(LbsWire {
            span_start: u32::decode(input)?,
            block_len: u32::decode(input)?,
            slots: Vec::decode(input)?,
        })
    }
}

impl Wire for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Data(block) => {
                out.push(0);
                block.encode(out);
            }
            Msg::Tagged { data, lbs } => {
                out.push(1);
                data.encode(out);
                lbs.encode(out);
            }
            Msg::Lbs(lbs) => {
                out.push(2);
                lbs.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(Msg::Data(Block::decode(input)?)),
            1 => Ok(Msg::Tagged {
                data: Block::decode(input)?,
                lbs: LbsWire::decode(input)?,
            }),
            2 => Ok(Msg::Lbs(LbsWire::decode(input)?)),
            other => Err(CodecError::msg(format!("bad Msg tag {other:#04x}"))),
        }
    }
}

fn corrupt_block<R: Rng + ?Sized>(block: &Block, rng: &mut R) -> Block {
    if block.is_empty() {
        return block.clone();
    }
    let mut keys = block.keys().to_vec();
    let idx = rng.gen_range(0..keys.len());
    keys[idx] ^= 1 << rng.gen_range(0..31);
    Block::from_wire(keys)
}

fn skew_block<R: Rng + ?Sized>(block: &Block, rng: &mut R) -> Block {
    if block.is_empty() {
        return block.clone();
    }
    let mut keys = block.keys().to_vec();
    let idx = rng.gen_range(0..keys.len());
    let delta = rng.gen_range(1..=4) as Key;
    keys[idx] = keys[idx].wrapping_add(if rng.gen_bool(0.5) { delta } else { -delta });
    Block::from_wire(keys)
}

fn mutate_lbs<R: Rng + ?Sized>(
    lbs: &LbsWire,
    rng: &mut R,
    f: impl Fn(&Block, &mut R) -> Block,
) -> LbsWire {
    let mut out = lbs.clone();
    let filled: Vec<usize> = out
        .slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|_| i))
        .collect();
    if filled.is_empty() {
        return out;
    }
    let idx = filled[rng.gen_range(0..filled.len())];
    let slot = out.slots[idx].as_ref().expect("index of a filled slot");
    out.slots[idx] = Some(f(slot, rng));
    out
}

impl Corruptible for Msg {
    /// Hard data fault: flips a random bit in whichever field the die picks.
    fn corrupt<R: Rng + ?Sized>(&self, rng: &mut R) -> Self {
        match self {
            Msg::Data(block) => Msg::Data(corrupt_block(block, rng)),
            Msg::Tagged { data, lbs } => {
                if rng.gen_bool(0.5) {
                    Msg::Tagged {
                        data: corrupt_block(data, rng),
                        lbs: lbs.clone(),
                    }
                } else {
                    Msg::Tagged {
                        data: data.clone(),
                        lbs: mutate_lbs(lbs, rng, corrupt_block),
                    }
                }
            }
            Msg::Lbs(lbs) => Msg::Lbs(mutate_lbs(lbs, rng, corrupt_block)),
        }
    }

    /// Malicious skew: small plausible perturbation, the hardest case for
    /// an assertion to catch.
    fn skew<R: Rng + ?Sized>(&self, rng: &mut R) -> Self {
        match self {
            Msg::Data(block) => Msg::Data(skew_block(block, rng)),
            Msg::Tagged { data, lbs } => {
                if rng.gen_bool(0.5) {
                    Msg::Tagged {
                        data: skew_block(data, rng),
                        lbs: lbs.clone(),
                    }
                } else {
                    Msg::Tagged {
                        data: data.clone(),
                        lbs: mutate_lbs(lbs, rng, skew_block),
                    }
                }
            }
            Msg::Lbs(lbs) => Msg::Lbs(mutate_lbs(lbs, rng, skew_block)),
        }
    }

    /// Targeted equivocation: skews only the LBS slot *owned by* `owner`
    /// (the sending node), leaving data and every other slot intact — so
    /// when Φ_C compares vertex-disjoint copies, the disagreeing entry is
    /// the sender's own. Falls back to [`skew`](Corruptible::skew) when the
    /// message carries no slot for `owner` (bare data, or the owner's entry
    /// lies outside the piggybacked span).
    fn skew_own<R: Rng + ?Sized>(&self, owner: u32, rng: &mut R) -> Self {
        let skew_slot = |lbs: &LbsWire, rng: &mut R| -> Option<LbsWire> {
            let idx = owner.checked_sub(lbs.span_start)? as usize;
            let slot = lbs.slots.get(idx)?.as_ref()?;
            if slot.is_empty() {
                return None;
            }
            let mut out = lbs.clone();
            out.slots[idx] = Some(skew_block(slot, rng));
            Some(out)
        };
        match self {
            Msg::Tagged { data, lbs } => match skew_slot(lbs, rng) {
                Some(lbs) => Msg::Tagged {
                    data: data.clone(),
                    lbs,
                },
                None => self.skew(rng),
            },
            Msg::Lbs(lbs) => match skew_slot(lbs, rng) {
                Some(lbs) => Msg::Lbs(lbs),
                None => self.skew(rng),
            },
            Msg::Data(_) => self.skew(rng),
        }
    }

    /// Metadata-only fault: damages one filled LBS slot, never the data
    /// block — the message remains acceptable to the whole data path and
    /// only the consistency machinery can notice. Bare data messages have
    /// no metadata and fall back to [`corrupt`](Corruptible::corrupt).
    fn corrupt_meta<R: Rng + ?Sized>(&self, rng: &mut R) -> Self {
        match self {
            Msg::Tagged { data, lbs } => Msg::Tagged {
                data: data.clone(),
                lbs: mutate_lbs(lbs, rng, corrupt_block),
            },
            Msg::Lbs(lbs) => Msg::Lbs(mutate_lbs(lbs, rng, corrupt_block)),
            Msg::Data(_) => self.corrupt(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    fn wire(span_start: u32, slots: Vec<Option<Block>>) -> LbsWire {
        LbsWire {
            span_start,
            block_len: 1,
            slots,
        }
    }

    #[test]
    fn wire_get_by_node() {
        let w = wire(
            4,
            vec![
                Some(Block::new(vec![7])),
                None,
                Some(Block::new(vec![9])),
                None,
            ],
        );
        assert_eq!(w.get(NodeId::new(4)).unwrap().keys(), &[7]);
        assert!(w.get(NodeId::new(5)).is_none());
        assert_eq!(w.get(NodeId::new(6)).unwrap().keys(), &[9]);
        assert!(w.get(NodeId::new(3)).is_none(), "below span");
        assert!(w.get(NodeId::new(8)).is_none(), "past span");
        assert_eq!(w.slots.iter().flatten().count(), 2);
    }

    #[test]
    fn wire_size_counts_full_span() {
        // Full-array transmission: 4 slots of 1 word each + header, whether
        // filled or not.
        let full = wire(0, vec![Some(Block::new(vec![1])); 4]);
        let sparse = wire(0, vec![None, None, None, Some(Block::new(vec![1]))]);
        assert_eq!(full.wire_words(), sparse.wire_words());
        assert_eq!(full.wire_words(), 2 + 4);
    }

    #[test]
    fn msg_wire_sizes() {
        let block = Block::new(vec![1, 2, 3]);
        assert_eq!(Msg::Data(block.clone()).wire_size(), 4);
        let lbs = LbsWire {
            span_start: 0,
            block_len: 3,
            slots: vec![Some(block.clone()), None],
        };
        assert_eq!(Msg::Lbs(lbs.clone()).wire_size(), 1 + 2 + 6);
        assert_eq!(Msg::Tagged { data: block, lbs }.wire_size(), 1 + 3 + 2 + 6);
    }

    #[test]
    fn clone_aliases_and_faults_build_new_blocks() {
        let data = Block::new(vec![10, 20]);
        let entry = Block::new(vec![5, 6]);
        let msg = Msg::Tagged {
            data: data.clone(),
            lbs: LbsWire {
                span_start: 0,
                block_len: 2,
                slots: vec![Some(entry.clone())],
            },
        };
        let Msg::Tagged {
            data: cloned_data,
            lbs: cloned_lbs,
        } = msg.clone()
        else {
            panic!("variant preserved");
        };
        assert_eq!(cloned_data.keys().as_ptr(), data.keys().as_ptr());
        assert_eq!(
            cloned_lbs.slots[0].as_ref().unwrap().keys().as_ptr(),
            entry.keys().as_ptr()
        );
        // Every fault builds its lie in storage of its own: the blocks the
        // message shares with `data` and `entry` still read what they read.
        let mut r = rng();
        for _ in 0..8 {
            for lie in [
                msg.corrupt(&mut r),
                msg.skew(&mut r),
                msg.skew_own(0, &mut r),
                msg.corrupt_meta(&mut r),
            ] {
                assert_ne!(lie, msg);
            }
        }
        assert_eq!(data.keys(), &[10, 20]);
        assert_eq!(entry.keys(), &[5, 6]);
    }

    #[test]
    fn corrupt_changes_data_somewhere() {
        let mut r = rng();
        let msg = Msg::Tagged {
            data: Block::new(vec![10, 20]),
            lbs: wire(
                0,
                vec![Some(Block::new(vec![5])), Some(Block::new(vec![6]))],
            ),
        };
        let mut changed = false;
        for _ in 0..16 {
            changed |= msg.corrupt(&mut r) != msg;
        }
        assert!(changed);
    }

    #[test]
    fn skew_is_small() {
        let mut r = rng();
        for _ in 0..32 {
            if let Msg::Data(block) = Msg::Data(Block::new(vec![100])).skew(&mut r) {
                let delta = (block.keys()[0] - 100).abs();
                assert!((1..=4).contains(&delta), "delta {delta}");
            } else {
                panic!("variant preserved");
            }
        }
    }

    #[test]
    fn corrupt_empty_lbs_is_safe() {
        let mut r = rng();
        let msg = Msg::Lbs(wire(0, vec![None, None]));
        let out = msg.corrupt(&mut r);
        assert_eq!(out, msg, "nothing to corrupt");
    }

    #[test]
    fn corruption_is_deterministic() {
        let msg = Msg::Data(Block::new(vec![1, 2, 3, 4]));
        let a = msg.corrupt(&mut ChaCha8Rng::seed_from_u64(3));
        let b = msg.corrupt(&mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn skew_own_touches_only_the_owners_slot() {
        // Owner node 5 maps to slot index 1 of a span starting at 4.
        let msg = Msg::Tagged {
            data: Block::new(vec![1]),
            lbs: wire(
                4,
                vec![Some(Block::new(vec![7])), Some(Block::new(vec![8]))],
            ),
        };
        let mut r = rng();
        match msg.skew_own(5, &mut r) {
            Msg::Tagged { data, lbs } => {
                assert_eq!(data.keys(), &[1], "data untouched");
                assert_eq!(
                    lbs.get(NodeId::new(4)).unwrap().keys(),
                    &[7],
                    "bystander slot untouched"
                );
                assert_ne!(
                    lbs.get(NodeId::new(5)).unwrap().keys(),
                    &[8],
                    "own slot skewed"
                );
            }
            other => panic!("variant preserved, got {other:?}"),
        }
    }

    #[test]
    fn skew_own_without_own_slot_falls_back() {
        // Owner 6 has no slot in a span [4, 6): falls back to plain skew,
        // which must still change the message.
        let msg = Msg::Lbs(wire(4, vec![Some(Block::new(vec![7])), None]));
        let out = msg.skew_own(6, &mut rng());
        assert_ne!(out, msg);
    }

    #[test]
    fn corrupt_meta_leaves_data_intact() {
        let msg = Msg::Tagged {
            data: Block::new(vec![10, 20]),
            lbs: wire(0, vec![Some(Block::new(vec![5]))]),
        };
        let mut r = rng();
        match msg.corrupt_meta(&mut r) {
            Msg::Tagged { data, lbs } => {
                assert_eq!(data.keys(), &[10, 20], "data path sees nothing");
                assert_ne!(lbs.get(NodeId::new(0)).unwrap().keys(), &[5]);
            }
            other => panic!("variant preserved, got {other:?}"),
        }
    }
}
