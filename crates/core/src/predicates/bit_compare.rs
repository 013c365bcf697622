//! `bit_compare`: the end-of-stage composition of Φ_P and Φ_F (Figure 3).
//!
//! At the end of stage `i` every node holds, via piggybacking, the sequence
//! that *entered* the stage, distributed over its home subcube `SC_{i+1}` —
//! so the check necessarily verifies the *previous* stage's output (the one
//! lag the final pure-exchange stage exists to close).
//!
//! * Φ_P runs over the full collected span `SC_{i+1}`;
//! * Φ_F runs over the node's own half `SC_i` — the previous stage sorted
//!   within each half, so the permutation property holds per half, and the
//!   sibling half is checked by its own nodes (at least one of which is
//!   honest under the fault bounds of Theorem 3).
//!
//! After the final verification stage, both predicates run over the whole
//! cube: stage `n−1` sorted across the entire machine, so feasibility must
//! be checked against the full previous sequence.

use aoft_hypercube::{NodeId, Subcube};

use crate::{LbsBuffer, Violation};

use super::{phi_f_with, phi_p_final_with, phi_p_stage_with, PredicateScratch};

/// The end-of-stage check (`if (i ≠ 0) bit_compare(LLBS, LBS)`).
///
/// `lbs` is the sequence collected during stage `stage` (spanning
/// `SC_{stage+1, me}`); `llbs` is the previous collection (spanning
/// `SC_{stage, me}`).
///
/// # Errors
///
/// Propagates the first violation found by Φ_P or Φ_F.
///
/// # Panics
///
/// Panics if `stage` is 0 — the paper skips the check there (environmental
/// assumption 5 trusts the data through the first exchange, and there is no
/// earlier sequence to compare against).
pub fn bit_compare_stage(
    lbs: &LbsBuffer,
    llbs: &LbsBuffer,
    me: NodeId,
    stage: u32,
) -> Result<(), Violation> {
    bit_compare_stage_with(lbs, llbs, me, stage, &mut PredicateScratch::new())
}

/// [`bit_compare_stage`] running Φ_P and Φ_F through caller-owned scratch —
/// the hot-path form node programs call once per stage without allocating.
///
/// # Errors
///
/// As for [`bit_compare_stage`].
///
/// # Panics
///
/// As for [`bit_compare_stage`].
pub(crate) fn bit_compare_stage_with(
    lbs: &LbsBuffer,
    llbs: &LbsBuffer,
    me: NodeId,
    stage: u32,
    scratch: &mut PredicateScratch,
) -> Result<(), Violation> {
    assert!(stage > 0, "bit_compare is skipped at stage 0");
    let full_span = Subcube::home(stage + 1, me);
    phi_p_stage_with(lbs, full_span, stage, scratch)?;
    let my_half = Subcube::home(stage, me);
    phi_f_with(lbs, llbs, my_half, stage, scratch)
}

/// The final check after the pure-exchange verification stage, running Φ_P
/// and Φ_F through caller-owned scratch.
///
/// `lbs` holds the final output distributed over the whole cube (dimension
/// `n`); `llbs` holds the sequence that entered the last stage, over the
/// same span. The output must be fully sorted (Φ_P with no descending half
/// — Figure 4a's `i ≠ n` guard) and a permutation of the last stage's input
/// over the *whole* cube (stage `n−1` sorts across all of it).
///
/// # Errors
///
/// Propagates the first violation found by Φ_P or Φ_F.
///
/// # Panics
///
/// Panics if `n` is 0 (a one-node machine exchanges nothing).
pub fn bit_compare_final_with(
    lbs: &LbsBuffer,
    llbs: &LbsBuffer,
    me: NodeId,
    n: u32,
    scratch: &mut PredicateScratch,
) -> Result<(), Violation> {
    assert!(n > 0, "no verification stage on a one-node machine");
    let span = Subcube::home(n, me);
    phi_p_final_with(lbs, span, n, scratch)?;
    phi_f_with(lbs, llbs, span, n, scratch)
}

/// Comparison-operation count of one `bit_compare` at stage `i` with blocks
/// of `m` keys: `O(2^i · m)` — Lemma 8's bound, used for virtual-time
/// charging.
pub(crate) fn bit_compare_cost(stage: u32, block_len: usize) -> usize {
    // Φ_P scans the full span (2^{stage+1} blocks), Φ_F scans the half span
    // plus both reference runs (2 · 2^{stage} blocks).
    (1usize << (stage + 1)) * block_len * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Block;

    /// Builds an LBS/LLBS pair for the end of stage 1 on a 4-node machine:
    /// stage 0 sorted pairs {0,1} asc and {2,3} desc (llbs), stage 1 then
    /// sorted each SC_1 producing the sequence entering stage 2 (lbs).
    fn stage1_buffers() -> (LbsBuffer, LbsBuffer) {
        let mut llbs = LbsBuffer::new(4, 1);
        // After stage 0: pairs (3,9) asc in {0,1} and (8,2) desc in {2,3}.
        for (i, v) in [(0u32, 3), (1, 9), (2, 8), (3, 2)] {
            llbs.set(NodeId::new(i), Block::new(vec![v]));
        }
        let mut lbs = LbsBuffer::new(4, 1);
        // Stage 1 sorted {0,1} ascending -> 3,9 and {2,3} descending -> 8,2:
        // the collected sequence entering stage 2 must be asc-then-desc.
        for (i, v) in [(0u32, 3), (1, 9), (2, 8), (3, 2)] {
            lbs.set(NodeId::new(i), Block::new(vec![v]));
        }
        (lbs, llbs)
    }

    #[test]
    fn stage_check_passes_on_honest_state() {
        let (lbs, llbs) = stage1_buffers();
        for node in 0..4u32 {
            assert_eq!(
                bit_compare_stage(&lbs, &llbs, NodeId::new(node), 1),
                Ok(()),
                "node {node}"
            );
        }
    }

    #[test]
    fn stage_check_catches_non_bitonic() {
        let (mut lbs, llbs) = stage1_buffers();
        lbs.set(NodeId::new(0), Block::new(vec![99])); // breaks ascending half
        let err = bit_compare_stage(&lbs, &llbs, NodeId::new(0), 1).unwrap_err();
        assert_eq!(err, Violation::NonBitonic { stage: 1 });
    }

    #[test]
    fn stage_check_catches_non_permutation() {
        let (mut lbs, llbs) = stage1_buffers();
        // Keep the sequence bitonic but change the multiset: 3 -> 4.
        lbs.set(NodeId::new(0), Block::new(vec![4]));
        let err = bit_compare_stage(&lbs, &llbs, NodeId::new(0), 1).unwrap_err();
        assert_eq!(err, Violation::NotPermutation { stage: 1 });
    }

    #[test]
    fn feasibility_is_per_half() {
        // A corruption confined to the sibling half passes this node's Φ_F
        // but still fails its Φ_P (it sees the whole span) — and the sibling
        // half's own nodes would catch the Φ_F side.
        let (mut lbs, llbs) = stage1_buffers();
        lbs.set(NodeId::new(3), Block::new(vec![1])); // plausible desc half: 8,1 (was 8,2)
        let err = bit_compare_stage(&lbs, &llbs, NodeId::new(3), 1).unwrap_err();
        assert_eq!(err, Violation::NotPermutation { stage: 1 });
        // Node 0's half is {0,1}: Φ_F passes there, and 3,9,8,1 is still
        // bitonic, so node 0 sees nothing wrong.
        assert_eq!(bit_compare_stage(&lbs, &llbs, NodeId::new(0), 1), Ok(()));
    }

    #[test]
    fn final_check_demands_sorted_permutation() {
        // llbs: the bitonic sequence entering stage n-1; lbs: final output.
        let mut llbs = LbsBuffer::new(4, 1);
        for (i, v) in [(0u32, 3), (1, 9), (2, 8), (3, 2)] {
            llbs.set(NodeId::new(i), Block::new(vec![v]));
        }
        let mut lbs = LbsBuffer::new(4, 1);
        for (i, v) in [(0u32, 2), (1, 3), (2, 8), (3, 9)] {
            lbs.set(NodeId::new(i), Block::new(vec![v]));
        }
        assert_eq!(
            bit_compare_final_with(&lbs, &llbs, NodeId::new(2), 2, &mut PredicateScratch::new()),
            Ok(())
        );

        // Unsorted final output fails Φ_P.
        let mut unsorted = lbs.clone();
        unsorted.set(NodeId::new(0), Block::new(vec![10]));
        assert_eq!(
            bit_compare_final_with(
                &unsorted,
                &llbs,
                NodeId::new(0),
                2,
                &mut PredicateScratch::new()
            ),
            Err(Violation::NonBitonic { stage: 2 })
        );

        // Sorted but wrong multiset fails Φ_F.
        let mut wrong = lbs.clone();
        wrong.set(NodeId::new(0), Block::new(vec![1]));
        assert_eq!(
            bit_compare_final_with(
                &wrong,
                &llbs,
                NodeId::new(0),
                2,
                &mut PredicateScratch::new()
            ),
            Err(Violation::NotPermutation { stage: 2 })
        );
    }

    #[test]
    fn incomplete_collection_is_reported() {
        let (lbs, llbs) = stage1_buffers();
        let mut sparse = LbsBuffer::new(4, 1);
        sparse.set(NodeId::new(0), lbs.get(NodeId::new(0)).unwrap().clone());
        let err = bit_compare_stage(&sparse, &llbs, NodeId::new(0), 1).unwrap_err();
        assert!(matches!(
            err,
            Violation::IncompleteSequence { stage: 1, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "skipped at stage 0")]
    fn stage_zero_check_panics() {
        let (lbs, llbs) = stage1_buffers();
        let _ = bit_compare_stage(&lbs, &llbs, NodeId::new(0), 0);
    }

    #[test]
    fn cost_grows_linearly_in_span() {
        assert_eq!(bit_compare_cost(1, 1), 8);
        assert_eq!(bit_compare_cost(2, 1), 16);
        assert_eq!(bit_compare_cost(2, 4), 64);
    }
}
