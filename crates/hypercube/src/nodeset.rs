use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign};

use serde::{Deserialize, Serialize};

use crate::NodeId;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of hypercube nodes, stored as a bitmask.
///
/// The paper's pseudocode manipulates masks with expressions like
/// `lmask := 2^node` and `mask & 01`; those only work while `N` fits in a
/// machine word. `NodeSet` generalizes the same operations to any supported
/// cube size, which the consistency predicate Φ_C needs for cubes beyond
/// dimension 6.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::{NodeId, NodeSet};
///
/// let mut held = NodeSet::empty(128);
/// held.insert(NodeId::new(5));
/// held.insert(NodeId::new(97));
/// assert!(held.contains(NodeId::new(97)));
/// assert_eq!(held.len(), 2);
///
/// let other = NodeSet::singleton(128, NodeId::new(5));
/// assert_eq!((held & other).len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeSet {
    /// Number of addressable nodes (bits).
    capacity: usize,
    words: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set able to hold nodes `0..capacity`.
    pub fn empty(capacity: usize) -> Self {
        let words = vec![0; capacity.div_ceil(WORD_BITS)];
        Self { capacity, words }
    }

    /// Creates a set containing every node in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = Self::empty(capacity);
        for w in &mut set.words {
            *w = u64::MAX;
        }
        set.trim();
        set
    }

    /// Creates a set containing exactly `node`.
    ///
    /// This is the paper's `lmask := 2^node` initialization.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= capacity`.
    pub fn singleton(capacity: usize, node: NodeId) -> Self {
        let mut set = Self::empty(capacity);
        set.insert(node);
        set
    }

    /// Creates a set containing a contiguous index range, e.g. a subcube span.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds `capacity`.
    pub(crate) fn from_range(capacity: usize, range: std::ops::RangeInclusive<usize>) -> Self {
        let mut set = Self::empty(capacity);
        for index in range {
            set.insert(NodeId::new(index as u32));
        }
        set
    }

    /// Number of addressable nodes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of nodes currently in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no node is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if `node` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= capacity`.
    pub fn contains(&self, node: NodeId) -> bool {
        let idx = self.checked_index(node);
        self.words[idx / WORD_BITS] >> (idx % WORD_BITS) & 1 == 1
    }

    /// Inserts `node`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= capacity`.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let idx = self.checked_index(node);
        let word = &mut self.words[idx / WORD_BITS];
        let mask = 1u64 << (idx % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `node`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= capacity`.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let idx = self.checked_index(node);
        let word = &mut self.words[idx / WORD_BITS];
        let mask = 1u64 << (idx % WORD_BITS);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Removes all nodes.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Inserts every index in `range` at once, whole `u64` words at a time —
    /// the fast path for contiguous spans (a subcube's labels), `O(range /
    /// 64)` instead of one masked store per node.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds `capacity`.
    pub fn insert_range(&mut self, range: std::ops::Range<usize>) {
        assert!(
            range.end <= self.capacity,
            "range end {} out of NodeSet capacity {}",
            range.end,
            self.capacity
        );
        if range.is_empty() {
            return;
        }
        let (first, last) = (range.start / WORD_BITS, (range.end - 1) / WORD_BITS);
        let head = !0u64 << (range.start % WORD_BITS);
        let tail = !0u64 >> (WORD_BITS - 1 - (range.end - 1) % WORD_BITS);
        if first == last {
            self.words[first] |= head & tail;
            return;
        }
        self.words[first] |= head;
        for word in &mut self.words[first + 1..last] {
            *word = !0;
        }
        self.words[last] |= tail;
    }

    /// `true` if every node of `self` is also in `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_subset_of(&self, other: &NodeSet) -> bool {
        self.check_same_capacity(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over member nodes in increasing label order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    fn checked_index(&self, node: NodeId) -> usize {
        let idx = node.index();
        assert!(
            idx < self.capacity,
            "node {node} out of NodeSet capacity {}",
            self.capacity
        );
        idx
    }

    fn check_same_capacity(&self, other: &NodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "NodeSet capacity mismatch ({} vs {})",
            self.capacity, other.capacity
        );
    }

    /// Clears any bits beyond `capacity` (after whole-word operations).
    fn trim(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Iterator over the members of a [`NodeSet`] in increasing label order.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a NodeSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(NodeId::new((self.word * WORD_BITS + bit) as u32));
            }
            self.word += 1;
            self.bits = *self.set.words.get(self.word)?;
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for NodeSet {
            type Output = NodeSet;

            fn $method(mut self, rhs: NodeSet) -> NodeSet {
                self.$assign_method(&rhs);
                self
            }
        }

        impl $trait<&NodeSet> for &NodeSet {
            type Output = NodeSet;

            fn $method(self, rhs: &NodeSet) -> NodeSet {
                let mut out = self.clone();
                out.$assign_method(rhs);
                out
            }
        }

        impl $assign_trait<&NodeSet> for NodeSet {
            fn $assign_method(&mut self, rhs: &NodeSet) {
                self.check_same_capacity(rhs);
                for (a, b) in self.words.iter_mut().zip(&rhs.words) {
                    *a = *a $op *b;
                }
                self.trim();
            }
        }
    };
}

impl_bitop!(BitOr, bitor, BitOrAssign, bitor_assign, |);
impl_bitop!(BitAnd, bitand, BitAndAssign, bitand_assign, &);
impl_bitop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^);

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeSet({}/{}){{", self.len(), self.capacity)?;
        for (i, node) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", node.index())?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Collects nodes into a set whose capacity is the next power of two
    /// large enough to hold the largest label (minimum 1).
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let nodes: Vec<NodeId> = iter.into_iter().collect();
        let max = nodes.iter().map(|n| n.index()).max().unwrap_or(0);
        let mut set = Self::empty((max + 1).next_power_of_two());
        for node in nodes {
            set.insert(node);
        }
        set
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for node in iter {
            self.insert(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let empty = NodeSet::empty(100);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);

        let full = NodeSet::full(100);
        assert_eq!(full.len(), 100);
        assert!(full.contains(NodeId::new(99)));
    }

    #[test]
    fn full_trims_past_capacity_bits() {
        // Capacity not a multiple of 64: high bits of the last word must stay 0
        // so len() is exact.
        let full = NodeSet::full(65);
        assert_eq!(full.len(), 65);
        let xor = full.clone() ^ NodeSet::full(65);
        assert!(xor.is_empty());
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = NodeSet::empty(128);
        assert!(set.insert(NodeId::new(127)));
        assert!(!set.insert(NodeId::new(127)), "double insert");
        assert!(set.contains(NodeId::new(127)));
        assert!(set.remove(NodeId::new(127)));
        assert!(!set.remove(NodeId::new(127)), "double remove");
        assert!(set.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of NodeSet capacity")]
    fn contains_out_of_range_panics() {
        NodeSet::empty(8).contains(NodeId::new(8));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn bitop_capacity_mismatch_panics() {
        let _ = NodeSet::empty(8) | NodeSet::empty(16);
    }

    #[test]
    fn bit_operations() {
        let a = NodeSet::from_range(128, 0..=9);
        let b = NodeSet::from_range(128, 5..=14);
        assert_eq!((&a | &b).len(), 15);
        assert_eq!((&a & &b).len(), 5);
        assert_eq!((&a ^ &b).len(), 10);
    }

    #[test]
    fn iter_in_order_across_words() {
        let mut set = NodeSet::empty(200);
        for &i in &[0u32, 63, 64, 65, 128, 199] {
            set.insert(NodeId::new(i));
        }
        let got: Vec<u32> = set.iter().map(|n| n.raw()).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn subset() {
        let small = NodeSet::from_range(64, 2..=4);
        let big = NodeSet::from_range(64, 0..=8);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn from_iterator_rounds_capacity() {
        let set: NodeSet = [NodeId::new(5), NodeId::new(9)].into_iter().collect();
        assert_eq!(set.capacity(), 16);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn extend_adds_members() {
        let mut set = NodeSet::empty(32);
        set.extend([NodeId::new(1), NodeId::new(2)]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn debug_lists_members() {
        let set = NodeSet::from_range(16, 1..=2);
        assert_eq!(format!("{set:?}"), "NodeSet(2/16){1, 2}");
    }

    #[test]
    fn singleton_matches_paper_mask_init() {
        let set = NodeSet::singleton(64, NodeId::new(10));
        assert_eq!(set.len(), 1);
        assert!(set.contains(NodeId::new(10)));
    }

    #[test]
    fn range_ops_match_per_node_ops_exhaustively() {
        // Every (start, end) over capacities that straddle word boundaries:
        // the masked insert must agree with the bit-at-a-time reference.
        for capacity in [1usize, 63, 64, 65, 130] {
            let mut reference = NodeSet::empty(capacity);
            for start in 0..=capacity {
                for end in start..=capacity {
                    let mut masked = NodeSet::empty(capacity);
                    masked.insert_range(start..end);
                    reference.clear();
                    for i in start..end {
                        reference.insert(NodeId::new(i as u32));
                    }
                    assert_eq!(masked, reference, "insert {start}..{end} cap {capacity}");
                }
            }
        }
    }
}
