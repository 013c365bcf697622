//! Φ_P, the progress predicate (Figure 4a).
//!
//! At the end of stage `i`, the sequence that entered the stage has been
//! fully distributed over the home subcube `SC_{i+1}` and must be bitonic:
//! its lower half `SC_i` ascending and its upper half descending (always in
//! that orientation — lower halves sort ascending, upper halves descending,
//! by the direction rule of [`subcube_ascending`](crate::subcube_ascending)).
//! After the final pure-exchange stage the full sequence must simply be
//! sorted.
//!
//! Checks operate at block granularity: a subcube's entries flatten to one
//! ascending key sequence exactly when every block is internally sorted
//! *and* consecutive blocks (taken in the subcube's direction) are ordered
//! across their boundary. The walk checks both in place, block by block, in
//! the `O(2^i)` time of Lemma 8 — no flattened copy is ever built.

use aoft_hypercube::{NodeId, Subcube};

use super::PredicateScratch;
use crate::{subcube_ascending, Key, LbsBuffer, Violation};

/// Walks the blocks of `span` in flatten order (honouring the subcube's
/// sort direction, as [`LbsBuffer::flatten_ascending_into`]) and checks that
/// the flattening *would be* ascending — each entry present with exactly
/// `m` keys, each block internally sorted, and consecutive blocks ordered
/// across the boundary — without materializing the flattened sequence. This
/// keeps Φ_P inside Lemma 8's `O(2^i · m)` scan while eliminating the
/// `2^i · m`-key copy the flattening form paid per check.
fn walk_sorted(buf: &LbsBuffer, span: Subcube, stage: u32) -> Result<(), Violation> {
    let mut prev_last: Option<Key> = None;
    let mut check = |node: NodeId| -> Result<(), Violation> {
        let block = buf
            .get(node)
            .ok_or(Violation::IncompleteSequence { stage, entry: node })?;
        if block.len() != buf.block_len() as usize {
            return Err(Violation::MalformedBlock {
                stage,
                expected: buf.block_len(),
                got: block.len() as u32,
            });
        }
        let keys = block.keys();
        if !crate::bitonic::is_monotone(keys, true) {
            return Err(Violation::NonBitonic { stage });
        }
        if let (Some(prev), Some(&first)) = (prev_last, keys.first()) {
            if prev > first {
                return Err(Violation::NonBitonic { stage });
            }
        }
        if let Some(&last) = keys.last() {
            prev_last = Some(last);
        }
        Ok(())
    };
    if subcube_ascending(span) {
        span.iter().try_for_each(&mut check)
    } else {
        span.iter().rev().try_for_each(&mut check)
    }
}

/// Φ_P at the end of stage `stage`: the sequence distributed over `span`
/// (= `SC_{stage+1}`) must be ascending over its lower half and descending
/// over its upper half.
///
/// # Errors
///
/// * [`Violation::IncompleteSequence`] — an entry of the span was never
///   collected;
/// * [`Violation::MalformedBlock`] — an entry has the wrong number of keys;
/// * [`Violation::NonBitonic`] — the orientation check failed.
///
/// # Panics
///
/// Panics if `span` has dimension zero (a one-node span has no halves).
pub fn phi_p_stage(buf: &LbsBuffer, span: Subcube, stage: u32) -> Result<(), Violation> {
    phi_p_stage_with(buf, span, stage, &mut PredicateScratch::new())
}

/// [`phi_p_stage`] in the hot-path calling convention shared with the other
/// predicates. Φ_P checks blocks in place and needs no scratch storage; the
/// parameter keeps the `bit_compare` call sites uniform.
///
/// # Errors
///
/// As for [`phi_p_stage`].
///
/// # Panics
///
/// As for [`phi_p_stage`].
pub(crate) fn phi_p_stage_with(
    buf: &LbsBuffer,
    span: Subcube,
    stage: u32,
    _scratch: &mut PredicateScratch,
) -> Result<(), Violation> {
    let (low, high) = span.halves();
    walk_sorted(buf, low, stage)?;
    walk_sorted(buf, high, stage)
}

/// Φ_P after the final verification stage: the full output over `span`
/// (= the whole cube) must be sorted ascending.
///
/// This is the `if (i ≠ n)` branch of Figure 4a: at the last check there is
/// no descending half. As with `phi_p_stage_with` the scratch is unused —
/// the walk is in place.
///
/// # Errors
///
/// As for [`phi_p_stage`], with [`Violation::NonBitonic`] reported when the
/// output is not fully sorted.
pub fn phi_p_final_with(
    buf: &LbsBuffer,
    span: Subcube,
    stage: u32,
    _scratch: &mut PredicateScratch,
) -> Result<(), Violation> {
    walk_sorted(buf, span, stage)
}

#[cfg(test)]
mod tests {
    use aoft_hypercube::NodeId;

    use super::*;
    use crate::Block;

    fn buffer(values: &[&[i32]]) -> LbsBuffer {
        let m = values[0].len() as u32;
        let mut buf = LbsBuffer::new(values.len(), m);
        for (i, keys) in values.iter().enumerate() {
            buf.set(NodeId::new(i as u32), Block::from_wire(keys.to_vec()));
        }
        buf
    }

    #[test]
    fn accepts_ascending_then_descending() {
        // Stage 1 output over SC_2 {0..3}: lower half ascending, upper
        // descending.
        let buf = buffer(&[&[1], &[5], &[9], &[4]]);
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(phi_p_stage(&buf, span, 1), Ok(()));
    }

    #[test]
    fn rejects_broken_lower_half() {
        let buf = buffer(&[&[5], &[1], &[9], &[4]]);
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(
            phi_p_stage(&buf, span, 1),
            Err(Violation::NonBitonic { stage: 1 })
        );
    }

    #[test]
    fn rejects_broken_upper_half() {
        let buf = buffer(&[&[1], &[5], &[4], &[9]]);
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(
            phi_p_stage(&buf, span, 1),
            Err(Violation::NonBitonic { stage: 1 })
        );
    }

    #[test]
    fn blocks_participate_in_orientation() {
        // m = 2: descending upper half at block granularity with internally
        // ascending blocks.
        let buf = buffer(&[&[1, 2], &[3, 9], &[7, 8], &[4, 5]]);
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(phi_p_stage(&buf, span, 1), Ok(()));
    }

    #[test]
    fn rejects_internally_unsorted_block() {
        let buf = buffer(&[&[2, 1], &[3, 9], &[7, 8], &[4, 5]]);
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(
            phi_p_stage(&buf, span, 1),
            Err(Violation::NonBitonic { stage: 1 })
        );
    }

    #[test]
    fn rejects_missing_entry() {
        let mut buf = buffer(&[&[1], &[5], &[9], &[4]]);
        buf = {
            let mut fresh = LbsBuffer::new(4, 1);
            for i in [0u32, 1, 3] {
                fresh.set(NodeId::new(i), buf.get(NodeId::new(i)).unwrap().clone());
            }
            fresh
        };
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(
            phi_p_stage(&buf, span, 1),
            Err(Violation::IncompleteSequence {
                stage: 1,
                entry: NodeId::new(2)
            })
        );
    }

    #[test]
    fn rejects_malformed_block() {
        let mut buf = LbsBuffer::new(2, 2);
        buf.set(NodeId::new(0), Block::new(vec![1, 2]));
        buf.set(NodeId::new(1), Block::new(vec![3])); // one key short
        let span = Subcube::home(1, NodeId::new(0));
        assert_eq!(
            phi_p_final_with(&buf, span, 0, &mut PredicateScratch::new()),
            Err(Violation::MalformedBlock {
                stage: 0,
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn final_check_demands_full_sort() {
        let sorted = buffer(&[&[1], &[2], &[3], &[4]]);
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(
            phi_p_final_with(&sorted, span, 2, &mut PredicateScratch::new()),
            Ok(())
        );

        // A perfectly bitonic (but unsorted) final sequence must fail.
        let bitonic = buffer(&[&[1], &[5], &[9], &[4]]);
        assert_eq!(
            phi_p_final_with(&bitonic, span, 2, &mut PredicateScratch::new()),
            Err(Violation::NonBitonic { stage: 2 })
        );
    }

    #[test]
    fn duplicates_are_fine() {
        let buf = buffer(&[&[2], &[2], &[2], &[2]]);
        let span = Subcube::home(2, NodeId::new(0));
        assert_eq!(phi_p_stage(&buf, span, 1), Ok(()));
        assert_eq!(
            phi_p_final_with(&buf, span, 2, &mut PredicateScratch::new()),
            Ok(())
        );
    }
}
