//! Reusable working memory for the predicate checks.
//!
//! Every Φ check flattens distributed sequences into contiguous key runs
//! and materializes expectation masks. Done naively that is several heap
//! allocations per exchange step — on the hot path of every node, every
//! stage. [`PredicateScratch`] owns those buffers once, sized from the
//! machine, so evaluating a predicate allocates nothing. (The blocks the
//! predicates read are another matter: each is allocated once, by the node
//! that produced it, and shared from then on — see `Block`.)

use aoft_hypercube::NodeSet;

use crate::Key;

/// Scratch space threaded through the `_with` predicate variants
/// (`phi_p_stage_with`,
/// [`phi_f_with`](super::phi_f_with),
/// `bit_compare_stage_with`, …).
///
/// One instance per node program; construct with
/// [`for_machine`](PredicateScratch::for_machine) so the buffers start at
/// their steady-state size and never grow again.
#[derive(Debug)]
pub struct PredicateScratch {
    /// Flattened candidate sequence (Φ_P halves, Φ_F target).
    pub(crate) target: Vec<Key>,
    /// Flattened ascending reference run (Φ_F).
    pub(crate) run_a: Vec<Key>,
    /// Flattened descending-half reference run (Φ_F).
    pub(crate) run_b: Vec<Key>,
    /// Expectation mask (`vect_mask` output) for Φ_C.
    pub(crate) mask: NodeSet,
}

impl Default for PredicateScratch {
    fn default() -> Self {
        Self::for_machine(0, 0)
    }
}

impl PredicateScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for a machine of `nodes` nodes with blocks of
    /// `block_len` keys: the largest flatten any predicate performs spans
    /// the whole cube.
    pub fn for_machine(nodes: usize, block_len: u32) -> Self {
        let keys = nodes * block_len as usize;
        Self {
            target: Vec::with_capacity(keys),
            run_a: Vec::with_capacity(keys / 2 + 1),
            run_b: Vec::with_capacity(keys / 2 + 1),
            mask: NodeSet::empty(nodes),
        }
    }

    /// The expectation mask buffer, for `vect_mask_into`-style fills.
    pub fn mask_mut(&mut self) -> &mut NodeSet {
        &mut self.mask
    }
}
