use std::fmt;

use serde::{Deserialize, Serialize};

/// A node label in an *n*-dimensional hypercube.
///
/// Following Section 1 of the paper, nodes are labelled `P_0 .. P_{N-1}` and
/// an edge connects `P_i` and `P_j` exactly when the binary representations of
/// `i` and `j` differ in one bit. `NodeId` is a thin newtype over that binary
/// label exposing the bit arithmetic the sorting algorithms use.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::NodeId;
///
/// let node = NodeId::new(0b101);
/// assert_eq!(node.neighbor(1), NodeId::new(0b111));
/// assert_eq!(node.bit(2), true);
/// assert_eq!(node.hamming_distance(NodeId::new(0b010)), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its binary label.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The binary label as a `usize`, suitable for indexing node arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The binary label as the underlying `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The neighbor across dimension `dim`: `self XOR 2^dim`.
    ///
    /// In the paper's notation this is `P_{j ⊕ 2^k}`, the unique node whose
    /// label differs from ours in exactly bit `dim`.
    pub const fn neighbor(self, dim: u32) -> Self {
        Self(self.0 ^ (1 << dim))
    }

    /// Value of bit `dim` of the label.
    pub const fn bit(self, dim: u32) -> bool {
        (self.0 >> dim) & 1 == 1
    }

    /// Number of bit positions in which `self` and `other` differ.
    ///
    /// This is the graph distance between the two nodes in the hypercube.
    pub const fn hamming_distance(self, other: NodeId) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// `true` if `self` and `other` are adjacent (labels differ in one bit).
    pub const fn is_neighbor_of(self, other: NodeId) -> bool {
        self.hamming_distance(other) == 1
    }

    /// The dimension across which `self` and `other` are adjacent, if any.
    ///
    /// Returns `None` when the nodes are identical or more than one hop apart.
    pub fn adjacency_dim(self, other: NodeId) -> Option<u32> {
        let diff = self.0 ^ other.0;
        if diff.count_ones() == 1 {
            Some(diff.trailing_zeros())
        } else {
            None
        }
    }

    /// `true` if this node is the lower-labelled endpoint of its dimension-`dim`
    /// link, i.e. `node mod 2d < d` with `d = 2^dim` in the paper's pseudocode.
    ///
    /// In every compare-exchange step of [`Figure 2`] the lower endpoint is the
    /// "active" node that computes both min and max.
    ///
    /// [`Figure 2`]: https://doi.org/10.1109/ICDCS.1989.37983
    pub const fn is_low_end(self, dim: u32) -> bool {
        !self.bit(dim)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Binary for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        Self::new(index)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_flips_exactly_one_bit() {
        let node = NodeId::new(0b1010);
        for dim in 0..8 {
            let nb = node.neighbor(dim);
            assert_eq!(node.hamming_distance(nb), 1);
            assert_eq!(nb.neighbor(dim), node, "neighbor is an involution");
            assert_eq!(node.adjacency_dim(nb), Some(dim));
        }
    }

    #[test]
    fn bit_reads_each_dimension() {
        let node = NodeId::new(0b0110);
        assert!(!node.bit(0));
        assert!(node.bit(1));
        assert!(node.bit(2));
        assert!(!node.bit(3));
    }

    #[test]
    fn low_end_matches_paper_mod_test() {
        // The paper tests `node mod (2d) < d` with d = 2^j.
        for node in 0u32..32 {
            for dim in 0..5 {
                let d = 1u32 << dim;
                let paper = node % (2 * d) < d;
                assert_eq!(NodeId::new(node).is_low_end(dim), paper);
            }
        }
    }

    #[test]
    fn adjacency_dim_rejects_non_neighbors() {
        assert_eq!(NodeId::new(3).adjacency_dim(NodeId::new(3)), None);
        assert_eq!(NodeId::new(0).adjacency_dim(NodeId::new(3)), None);
    }

    #[test]
    fn display_formats() {
        let node = NodeId::new(5);
        assert_eq!(node.to_string(), "P5");
        assert_eq!(format!("{node:b}"), "101");
        assert_eq!(format!("{node:x}"), "5");
    }

    #[test]
    fn conversions() {
        let node: NodeId = 7u32.into();
        assert_eq!(u32::from(node), 7);
        assert_eq!(usize::from(node), 7);
    }

    #[test]
    fn hamming_distance_is_symmetric_and_zero_on_self() {
        let a = NodeId::new(0b1100);
        let b = NodeId::new(0b0011);
        assert_eq!(a.hamming_distance(b), b.hamming_distance(a));
        assert_eq!(a.hamming_distance(a), 0);
        assert_eq!(a.hamming_distance(b), 4);
    }
}
