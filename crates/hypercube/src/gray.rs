//! Binary-reflected Gray codes and the hypercube ring embedding.
//!
//! Hypercube multicomputers of the Ncube era were routinely used through
//! ring embeddings built from Gray codes; `examples/jacobi_aoft.rs` lays its
//! one-dimensional grid out along this ring.

use crate::NodeId;

/// The `i`-th codeword of the binary-reflected Gray code.
///
/// Adjacent codewords differ in exactly one bit, so the sequence
/// `gray(0) .. gray(2^n − 1)` walks a Hamiltonian path of the hypercube.
pub(crate) fn gray(i: u32) -> u32 {
    i ^ (i >> 1)
}

/// The Hamiltonian ring of a `dim`-dimensional hypercube, as node ids.
///
/// Position `k` of the returned vector is the node holding ring rank `k`;
/// consecutive positions (cyclically) are hypercube neighbors.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::gray;
///
/// let ring: Vec<u32> = gray::ring_embedding(3).iter().map(|n| n.raw()).collect();
/// assert_eq!(ring, vec![0, 1, 3, 2, 6, 7, 5, 4]);
/// ```
///
/// # Panics
///
/// Panics if `dim` exceeds [`MAX_DIMENSION`](crate::MAX_DIMENSION).
pub fn ring_embedding(dim: u32) -> Vec<NodeId> {
    assert!(
        dim <= crate::MAX_DIMENSION,
        "dimension {dim} exceeds MAX_DIMENSION"
    );
    (0..1u32 << dim).map(|i| NodeId::new(gray(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn gray_adjacent_codes_differ_in_one_bit() {
        for i in 0u32..1024 {
            let a = gray(i);
            let b = gray(i + 1);
            assert_eq!((a ^ b).count_ones(), 1, "gray({i}) vs gray({})", i + 1);
        }
    }

    #[test]
    fn ring_is_hamiltonian_cycle() {
        for dim in 1..=6 {
            let ring = ring_embedding(dim);
            assert_eq!(ring.len(), 1 << dim);
            let unique: HashSet<NodeId> = ring.iter().copied().collect();
            assert_eq!(unique.len(), ring.len(), "every node appears once");
            for w in ring.windows(2) {
                assert!(w[0].is_neighbor_of(w[1]));
            }
            assert!(
                ring[0].is_neighbor_of(*ring.last().unwrap()),
                "ring wraps around"
            );
        }
    }

    #[test]
    fn trivial_ring() {
        let ring = ring_embedding(0);
        assert_eq!(ring, vec![NodeId::new(0)]);
    }
}
