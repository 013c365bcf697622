use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DimensionError, NodeId, MAX_DIMENSION};

/// The hypercube graph `G(P, E)` of Section 1.
///
/// An *n*-dimensional hypercube has `N = 2^n` nodes labelled `P_0..P_{N−1}`
/// and an edge wherever two labels differ in exactly one bit, so every node
/// has exactly `n` neighbors.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::{Hypercube, NodeId};
///
/// let cube = Hypercube::new(4)?;
/// assert_eq!(cube.len(), 16);
/// assert!(cube.contains(NodeId::new(15)));
/// assert!(!cube.contains(NodeId::new(16)));
/// # Ok::<(), aoft_hypercube::DimensionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Creates an `dim`-dimensional hypercube.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] if `dim > MAX_DIMENSION`.
    pub fn new(dim: u32) -> Result<Self, DimensionError> {
        if dim > MAX_DIMENSION {
            return Err(DimensionError::new(dim));
        }
        Ok(Self { dim })
    }

    /// The cube's dimension `n`.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of nodes, `N = 2^n`.
    pub fn len(&self) -> usize {
        1usize << self.dim
    }

    /// A hypercube always has at least one node (`N = 1` when `n = 0`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if `node`'s label is a valid node of this cube.
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.len()
    }

    /// Iterates over all nodes in label order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + use<> {
        (0..self.len() as u32).map(NodeId::new)
    }
}

impl fmt::Display for Hypercube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{} ({} nodes)", self.dim, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts() {
        for dim in 0..=8 {
            let cube = Hypercube::new(dim).unwrap();
            assert_eq!(cube.len(), 1 << dim);
            assert_eq!(cube.nodes().len(), cube.len());
        }
    }

    #[test]
    fn dimension_limit() {
        assert!(Hypercube::new(MAX_DIMENSION).is_ok());
        let err = Hypercube::new(MAX_DIMENSION + 1).unwrap_err();
        assert_eq!(err, DimensionError::new(MAX_DIMENSION + 1));
    }

    #[test]
    fn display() {
        assert_eq!(Hypercube::new(3).unwrap().to_string(), "Q3 (8 nodes)");
    }

    #[test]
    fn zero_dimensional_cube() {
        let cube = Hypercube::new(0).unwrap();
        assert_eq!(cube.len(), 1);
        assert!(!cube.is_empty());
    }
}
