//! Theorem 1: output verification for an arbitrary (black-box) sort.
//!
//! A result `O` of sorting `I` is incorrect iff `O` is not a permutation of
//! `I` or `O` is not non-decreasing. This is the *sequential-environment*
//! assertion the paper contrasts the constraint predicate with: it needs
//! the complete input and output in one place and can only run after
//! termination — which is exactly why the host-verified baseline pays `O(N)`
//! communication and why `S_FT` checks incrementally instead.

use crate::Key;

/// Why a Theorem 1 verification rejected the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Theorem1Failure {
    /// `O_j > O_{j+1}` for some `j` (condition 2).
    NotSorted {
        /// First out-of-order index.
        at: usize,
    },
    /// `O` is not a permutation of `I` (condition 1).
    NotPermutation,
}

impl std::fmt::Display for Theorem1Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Theorem1Failure::NotSorted { at } => {
                write!(f, "output not sorted at index {at}")
            }
            Theorem1Failure::NotPermutation => {
                write!(f, "output is not a permutation of the input")
            }
        }
    }
}

impl std::error::Error for Theorem1Failure {}

/// Verifies `output` against `input` per Theorem 1.
///
/// # Errors
///
/// Returns the first failed condition.
pub(crate) fn verify(input: &[Key], output: &[Key]) -> Result<(), Theorem1Failure> {
    if let Some(at) = output.windows(2).position(|w| w[0] > w[1]) {
        return Err(Theorem1Failure::NotSorted { at });
    }
    if input.len() != output.len() {
        return Err(Theorem1Failure::NotPermutation);
    }
    let mut sorted_input = input.to_vec();
    sorted_input.sort_unstable();
    if sorted_input != output {
        return Err(Theorem1Failure::NotPermutation);
    }
    Ok(())
}

/// Comparison count charged for a host-side Theorem 1 verification of `n`
/// keys: matching the ordered and unordered lists is equivalent to finding
/// the permutation, `O(N·log₂ N)` (Section 5), plus the `O(N)` sortedness
/// scan.
pub(crate) fn verification_compares(n: usize) -> usize {
    if n <= 1 {
        return n;
    }
    let log = usize::BITS - (n - 1).leading_zeros();
    n * log as usize + n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_correct_sort() {
        assert_eq!(verify(&[5, 3, 8, 1], &[1, 3, 5, 8]), Ok(()));
        assert_eq!(verify(&[], &[]), Ok(()));
        assert_eq!(verify(&[7], &[7]), Ok(()));
        assert_eq!(verify(&[2, 2, 2], &[2, 2, 2]), Ok(()));
    }

    #[test]
    fn rejects_unsorted_output() {
        assert_eq!(
            verify(&[1, 2, 3], &[1, 3, 2]),
            Err(Theorem1Failure::NotSorted { at: 1 })
        );
    }

    #[test]
    fn rejects_lost_element() {
        assert_eq!(
            verify(&[1, 2, 3], &[1, 2]),
            Err(Theorem1Failure::NotPermutation)
        );
    }

    #[test]
    fn rejects_substituted_element() {
        // Sorted, right length, wrong multiset — the subtle case.
        assert_eq!(
            verify(&[1, 2, 3], &[1, 2, 4]),
            Err(Theorem1Failure::NotPermutation)
        );
    }

    #[test]
    fn rejects_duplicated_element() {
        assert_eq!(
            verify(&[1, 2, 3], &[1, 2, 2]),
            Err(Theorem1Failure::NotPermutation)
        );
    }

    #[test]
    fn sortedness_checked_before_permutation() {
        assert_eq!(
            verify(&[1, 2], &[9, 1]),
            Err(Theorem1Failure::NotSorted { at: 0 })
        );
    }

    #[test]
    fn compare_count_shape() {
        assert_eq!(verification_compares(0), 0);
        assert_eq!(verification_compares(1), 1);
        // n(log n + 1)
        assert_eq!(verification_compares(8), 8 * 3 + 8);
        assert!(verification_compares(1024) >= 1024 * 10);
    }

    #[test]
    fn display() {
        assert!(Theorem1Failure::NotSorted { at: 3 }
            .to_string()
            .contains('3'));
        assert!(Theorem1Failure::NotPermutation
            .to_string()
            .contains("permutation"));
    }
}
