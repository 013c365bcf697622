use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{NodeId, NodeSet};

/// A *home subcube* `SC_{i,j}` (Definition 4 of the paper).
///
/// The home subcube of dimension `i` of processor `P_j` is the aligned block
/// of `2^i` consecutive labels containing `j`:
///
/// * start `SC^S_{i,j} = j − (j mod 2^i)`
/// * end `SC^E_{i,j} = SC^S_{i,j} + 2^i − 1`
///
/// Every constraint predicate in the fault-tolerant sort is evaluated over a
/// home subcube: Φ_P checks bitonicity of the sequence distributed over
/// `SC_{i+1,node}`, Φ_F checks feasibility over the node's own half
/// `SC_{i,node}`, and `vect_mask` reasons about which subcube members' values
/// a sender holds.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::{NodeId, Subcube};
///
/// let sc = Subcube::home(2, NodeId::new(6));
/// assert_eq!(sc.start().index(), 4);
/// assert_eq!(sc.end().index(), 7);
/// assert_eq!(sc.len(), 4);
/// assert!(sc.contains(NodeId::new(5)));
///
/// // The two halves are the home subcubes one dimension down.
/// let (low, high) = sc.halves();
/// assert_eq!(low, Subcube::home(1, NodeId::new(4)));
/// assert_eq!(high, Subcube::home(1, NodeId::new(6)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Subcube {
    /// Subcube dimension `i`; the subcube spans `2^i` nodes.
    dim: u32,
    /// First node label in the subcube (`SC^S`).
    start: u32,
}

impl Subcube {
    /// The home subcube `SC_{dim,node}` of Definition 4.
    ///
    /// # Panics
    ///
    /// Panics if `dim` exceeds [`MAX_DIMENSION`](crate::MAX_DIMENSION).
    pub fn home(dim: u32, node: NodeId) -> Self {
        assert!(
            dim <= crate::MAX_DIMENSION,
            "subcube dimension {dim} exceeds MAX_DIMENSION"
        );
        let size = 1u32 << dim;
        Self {
            dim,
            start: node.raw() & !(size - 1),
        }
    }

    /// Subcube dimension `i`.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of nodes in the subcube, `2^i`.
    pub fn len(&self) -> usize {
        1usize << self.dim
    }

    /// A subcube always contains at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first node, `SC^S_{i,j}`.
    pub fn start(&self) -> NodeId {
        NodeId::new(self.start)
    }

    /// The last node, `SC^E_{i,j}`.
    pub fn end(&self) -> NodeId {
        NodeId::new(self.start + (self.len() as u32 - 1))
    }

    /// `true` if `node`'s label lies within the subcube span.
    pub fn contains(&self, node: NodeId) -> bool {
        let n = node.raw();
        n >= self.start && n < self.start + self.len() as u32
    }

    /// Iterates over the member nodes in increasing label order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + use<> {
        let start = self.start;
        (0..self.len() as u32).map(move |off| NodeId::new(start + off))
    }

    /// The lower and upper halves, each a home subcube of dimension `i−1`.
    ///
    /// # Panics
    ///
    /// Panics for a zero-dimensional subcube.
    pub fn halves(&self) -> (Subcube, Subcube) {
        assert!(self.dim > 0, "a 0-dimensional subcube has no halves");
        let low = Subcube {
            dim: self.dim - 1,
            start: self.start,
        };
        let high = Subcube {
            dim: self.dim - 1,
            start: self.start + (1 << (self.dim - 1)),
        };
        (low, high)
    }

    /// The sibling half within the enclosing `(i+1)`-dimensional subcube.
    ///
    /// `SC_{i,j}` and its buddy partition `SC_{i+1,j}`.
    pub fn buddy(&self) -> Subcube {
        Subcube {
            dim: self.dim,
            start: self.start ^ (1 << self.dim),
        }
    }

    /// The enclosing home subcube one dimension up.
    pub fn parent(&self) -> Subcube {
        Subcube::home(self.dim + 1, self.start())
    }

    /// Members as a [`NodeSet`] with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if the subcube extends past `capacity`.
    pub fn to_node_set(&self, capacity: usize) -> NodeSet {
        NodeSet::from_range(capacity, self.start().index()..=self.end().index())
    }
}

impl fmt::Display for Subcube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SC(dim={}, {}..={})",
            self.dim,
            self.start().index(),
            self.end().index()
        )
    }
}

impl IntoIterator for &Subcube {
    type Item = NodeId;
    type IntoIter = std::iter::Map<std::ops::Range<u32>, Box<dyn Fn(u32) -> NodeId>>;

    fn into_iter(self) -> Self::IntoIter {
        let start = self.start;
        (0..self.len() as u32).map(Box::new(move |off| NodeId::new(start + off)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_subcube_matches_definition_4() {
        // Definition 4: SC^S = j - j mod 2^i, SC^E = SC^S + 2^i - 1.
        for j in 0u32..64 {
            for i in 0..=6 {
                let sc = Subcube::home(i, NodeId::new(j));
                let expected_start = j - j % (1 << i);
                assert_eq!(sc.start().raw(), expected_start);
                assert_eq!(sc.end().raw(), expected_start + (1 << i) - 1);
                assert!(sc.contains(NodeId::new(j)));
            }
        }
    }

    #[test]
    fn all_members_share_home_subcube() {
        let sc = Subcube::home(3, NodeId::new(21));
        for member in sc.iter() {
            assert_eq!(Subcube::home(3, member), sc);
        }
    }

    #[test]
    fn halves_partition() {
        let sc = Subcube::home(3, NodeId::new(9));
        let (low, high) = sc.halves();
        assert_eq!(low.len() + high.len(), sc.len());
        assert_eq!(low.end().raw() + 1, high.start().raw());
        for member in sc.iter() {
            assert!(low.contains(member) ^ high.contains(member));
        }
    }

    #[test]
    fn buddy_is_involution_and_shares_parent() {
        let sc = Subcube::home(2, NodeId::new(13));
        let buddy = sc.buddy();
        assert_eq!(buddy.buddy(), sc);
        assert_eq!(sc.parent(), buddy.parent());
    }

    #[test]
    fn zero_dimensional_subcube() {
        let sc = Subcube::home(0, NodeId::new(5));
        assert_eq!(sc.len(), 1);
        assert_eq!(sc.start(), sc.end());
        assert!(!sc.is_empty());
    }

    #[test]
    fn to_node_set() {
        let sc = Subcube::home(2, NodeId::new(5));
        let set = sc.to_node_set(16);
        assert_eq!(set.len(), 4);
        for member in sc.iter() {
            assert!(set.contains(member));
        }
    }

    #[test]
    fn display() {
        let sc = Subcube::home(1, NodeId::new(2));
        assert_eq!(sc.to_string(), "SC(dim=1, 2..=3)");
    }

    #[test]
    fn iter_is_double_ended_and_exact() {
        let sc = Subcube::home(2, NodeId::new(0));
        let fwd: Vec<u32> = sc.iter().map(NodeId::raw).collect();
        let rev: Vec<u32> = sc.iter().rev().map(NodeId::raw).collect();
        assert_eq!(fwd, vec![0, 1, 2, 3]);
        assert_eq!(rev, vec![3, 2, 1, 0]);
        assert_eq!(sc.iter().len(), 4);
    }
}
