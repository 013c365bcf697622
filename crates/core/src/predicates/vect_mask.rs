//! `vect_mask` (Figure 4c): which sequence entries a node legitimately holds
//! at each step of a stage's exchange schedule.
//!
//! During stage `i` the dimensions `i, i−1, …, 0` are exchanged in order, and
//! every message carries the sender's whole `LBS` view. A node's view after
//! the dimension-`j` exchange is the union of its own previous view and its
//! partner's — Lemma 3. Unfolding the recursion gives the closed form: the
//! set of labels reachable from the node by flipping any subset of the
//! dimensions `{j, …, i}`.

use aoft_hypercube::{NodeId, NodeSet};

/// The entry-holdings mask *after* the dimension-`step` exchange of stage
/// `stage` — closed form.
///
/// Returns the set `{ node ⊕ x : x's set bits ⊆ {step..=stage} }`, of size
/// `2^{stage−step+1}` (Lemma 3).
///
/// # Panics
///
/// Panics if `step > stage` or the mask would overflow the machine.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::NodeId;
/// use aoft_sort::predicates::vect_mask;
///
/// // After the first exchange (j = i = 1) node 0 holds itself and node 2.
/// let mask = vect_mask(8, 1, 1, NodeId::new(0));
/// assert_eq!(mask.len(), 2);
/// assert!(mask.contains(NodeId::new(2)));
///
/// // After the full stage (j = 0) it holds its whole 4-node subcube.
/// let mask = vect_mask(8, 1, 0, NodeId::new(0));
/// assert_eq!(mask.len(), 4);
/// ```
pub fn vect_mask(nodes: usize, stage: u32, step: u32, node: NodeId) -> NodeSet {
    let mut set = NodeSet::empty(nodes);
    vect_mask_into(nodes, stage, step, node, &mut set);
    set
}

/// [`vect_mask`] written into a caller-owned set — the hot-path form: a
/// reused `out` of the right capacity is cleared and refilled with no
/// allocation. A set of the wrong capacity is replaced.
///
/// # Panics
///
/// As for [`vect_mask`].
pub fn vect_mask_into(nodes: usize, stage: u32, step: u32, node: NodeId, out: &mut NodeSet) {
    assert!(step <= stage, "step {step} beyond stage {stage}");
    assert!(
        node.index() < nodes,
        "{node} outside machine of {nodes} nodes"
    );
    reset_mask(out, nodes);
    let dims = stage - step + 1;
    let span = 1u32 << dims;
    // The reachable labels are node with bits step..=stage replaced by every
    // possible pattern: `base | (j << step)` for j in 0..2^dims. With
    // step = 0 (the end of every stage) that is a contiguous label range,
    // filled by whole-word masking instead of bit-at-a-time inserts.
    let base = node.raw() & !((span - 1) << step);
    if step == 0 {
        out.insert_range(base as usize..(base + span) as usize);
    } else {
        for j in 0..span {
            out.insert(NodeId::new(base | (j << step)));
        }
    }
}

/// Clears `out` for refilling, replacing it only on a capacity mismatch.
fn reset_mask(out: &mut NodeSet, nodes: usize) {
    if out.capacity() == nodes {
        out.clear();
    } else {
        *out = NodeSet::empty(nodes);
    }
}

/// The paper's recursive formulation of `vect_mask` (Figure 4c), preserved
/// verbatim for the Lemma 7 complexity benchmark and as the executable
/// specification the closed form is property-tested against.
///
/// # Panics
///
/// As for [`vect_mask`].
pub fn vect_mask_recursive(nodes: usize, stage: u32, step: u32, node: NodeId) -> NodeSet {
    assert!(step <= stage, "step {step} beyond stage {stage}");
    assert!(
        node.index() < nodes,
        "{node} outside machine of {nodes} nodes"
    );
    let d = 1u32 << step;
    if step == stage {
        let mut set = NodeSet::empty(nodes);
        set.insert(node);
        // `node mod 2d < d` picks +d, otherwise −d — both are node ⊕ d.
        set.insert(NodeId::new(node.raw() ^ d));
        set
    } else {
        let partner = NodeId::new(node.raw() ^ d);
        vect_mask_recursive(nodes, stage, step + 1, partner)
            | vect_mask_recursive(nodes, stage, step + 1, node)
    }
}

/// The holdings mask *before* the dimension-`step` exchange: what an honest
/// sender can legitimately transmit at that point.
///
/// At the first step of a stage (`step == stage`) a node holds only its own
/// entry (the end-of-stage reset `lmask := 2^node`); afterwards it holds the
/// after-mask of the previous step.
///
/// This is the expectation Φ_C checks each *incoming initiating* message
/// against; the reply carries the post-exchange union, i.e. the plain
/// [`vect_mask`]. (The paper's Figure 4c uses the post-exchange mask for
/// both directions, which over-demands entries the initiator cannot yet
/// have; see DESIGN.md §7.)
///
/// # Panics
///
/// As for [`vect_mask`].
pub fn vect_mask_before(nodes: usize, stage: u32, step: u32, node: NodeId) -> NodeSet {
    let mut set = NodeSet::empty(nodes);
    vect_mask_before_into(nodes, stage, step, node, &mut set);
    set
}

/// [`vect_mask_before`] written into a caller-owned set; same reuse
/// contract as [`vect_mask_into`].
///
/// # Panics
///
/// As for [`vect_mask`].
pub(crate) fn vect_mask_before_into(
    nodes: usize,
    stage: u32,
    step: u32,
    node: NodeId,
    out: &mut NodeSet,
) {
    assert!(step <= stage, "step {step} beyond stage {stage}");
    if step == stage {
        reset_mask(out, nodes);
        out.insert(node);
    } else {
        vect_mask_into(nodes, stage, step + 1, node, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_is_pair() {
        let mask = vect_mask(16, 2, 2, NodeId::new(5));
        assert_eq!(mask.len(), 2);
        assert!(mask.contains(NodeId::new(5)));
        assert!(mask.contains(NodeId::new(1))); // 5 ^ 4
    }

    #[test]
    fn size_doubles_per_step() {
        for stage in 0..4u32 {
            for step in (0..=stage).rev() {
                let mask = vect_mask(16, stage, step, NodeId::new(3));
                assert_eq!(mask.len(), 1 << (stage - step + 1));
            }
        }
    }

    #[test]
    fn closed_form_matches_recursive_exhaustively() {
        let nodes = 32;
        for stage in 0..5u32 {
            for step in 0..=stage {
                for node in 0..nodes as u32 {
                    let node = NodeId::new(node);
                    assert_eq!(
                        vect_mask(nodes, stage, step, node),
                        vect_mask_recursive(nodes, stage, step, node),
                        "stage {stage} step {step} node {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_is_symmetric_across_partners() {
        // After the exchange at dim j, both endpoints hold the same union.
        let nodes = 16;
        for stage in 0..4u32 {
            for step in 0..=stage {
                for node in 0..nodes as u32 {
                    let node = NodeId::new(node);
                    let partner = node.neighbor(step);
                    assert_eq!(
                        vect_mask(nodes, stage, step, node),
                        vect_mask(nodes, stage, step, partner)
                    );
                }
            }
        }
    }

    #[test]
    fn after_mask_is_union_of_before_masks() {
        let nodes = 16;
        for stage in 1..4u32 {
            for step in 0..stage {
                for node in 0..nodes as u32 {
                    let node = NodeId::new(node);
                    let partner = node.neighbor(step);
                    let union = vect_mask_before(nodes, stage, step, node)
                        | vect_mask_before(nodes, stage, step, partner);
                    assert_eq!(union, vect_mask(nodes, stage, step, node));
                }
            }
        }
    }

    #[test]
    fn before_mask_at_stage_start_is_self() {
        let mask = vect_mask_before(8, 2, 2, NodeId::new(6));
        assert_eq!(mask.len(), 1);
        assert!(mask.contains(NodeId::new(6)));
    }

    #[test]
    fn full_stage_covers_home_subcube() {
        use aoft_hypercube::Subcube;
        // After step 0 of stage i, the mask is exactly SC_{i+1, node}.
        for stage in 0..4u32 {
            let node = NodeId::new(13);
            let mask = vect_mask(16, stage, 0, node);
            let home = Subcube::home(stage + 1, node);
            assert_eq!(mask.len(), home.len());
            for member in home.iter() {
                assert!(mask.contains(member));
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond stage")]
    fn step_beyond_stage_panics() {
        vect_mask(8, 1, 2, NodeId::new(0));
    }
}
