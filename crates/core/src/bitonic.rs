//! Sequence-level bitonic machinery: Definition 2, Lemma 1 and Batcher's
//! in-memory bitonic sorting network.
//!
//! The distributed algorithms live in [`SnrProgram`](crate::SnrProgram) and
//! [`SftProgram`](crate::SftProgram); this module provides the underlying
//! sequence operations for local (in-node) use, for the reference oracle in
//! tests, and for the micro-benchmarks of the complexity lemmas.

use crate::Key;

/// `true` if `seq` is a bitonic sequence per Definition 2: it first
/// ascends then descends, or first descends then ascends (monotone
/// sequences are degenerate bitonic sequences).
///
/// Note that Definition 2 covers exactly the sequences that arise inside the
/// bitonic sorter; it is *not* closed under rotation (the circular variant
/// is not needed by the algorithm and is not checked here).
///
/// # Examples
///
/// ```
/// use aoft_sort::bitonic::is_bitonic;
///
/// assert!(is_bitonic(&[1, 4, 9, 7, 2]));
/// assert!(is_bitonic(&[9, 3, 1, 5, 8]));
/// assert!(is_bitonic(&[1, 2, 3]));
/// assert!(!is_bitonic(&[1, 5, 2, 6]));
/// ```
pub fn is_bitonic(seq: &[Key]) -> bool {
    ascends_then_descends(seq) || descends_then_ascends(seq)
}

fn ascends_then_descends(seq: &[Key]) -> bool {
    let mut i = 1;
    while i < seq.len() && seq[i - 1] <= seq[i] {
        i += 1;
    }
    while i < seq.len() && seq[i - 1] >= seq[i] {
        i += 1;
    }
    i >= seq.len()
}

fn descends_then_ascends(seq: &[Key]) -> bool {
    let mut i = 1;
    while i < seq.len() && seq[i - 1] >= seq[i] {
        i += 1;
    }
    while i < seq.len() && seq[i - 1] <= seq[i] {
        i += 1;
    }
    i >= seq.len()
}

/// `true` if `seq` is bitonic in the *circular* sense: some rotation of it
/// satisfies Definition 2.
///
/// Equivalently, walking the sequence cyclically changes direction at most
/// twice. This is the invariant Batcher's half-cleaner actually preserves:
/// the halves it produces are circularly bitonic (and still merge
/// correctly), but need not start on their ascending run.
///
/// # Examples
///
/// ```
/// use aoft_sort::bitonic::{is_bitonic, is_circular_bitonic};
///
/// let rotated = [1, 0, 0, 2, 1]; // rotation of [0, 0, 2, 1, 1]
/// assert!(!is_bitonic(&rotated));
/// assert!(is_circular_bitonic(&rotated));
/// assert!(!is_circular_bitonic(&[1, 3, 1, 3]));
/// ```
pub fn is_circular_bitonic(seq: &[Key]) -> bool {
    let n = seq.len();
    if n <= 2 {
        return true;
    }
    // Collect the direction of each non-flat cyclic step, then count the
    // direction changes around the cycle.
    let mut directions = Vec::with_capacity(n);
    for i in 0..n {
        let (a, b) = (seq[i], seq[(i + 1) % n]);
        match a.cmp(&b) {
            std::cmp::Ordering::Less => directions.push(true),
            std::cmp::Ordering::Greater => directions.push(false),
            std::cmp::Ordering::Equal => {}
        }
    }
    if directions.is_empty() {
        return true; // all elements equal
    }
    let changes = (0..directions.len())
        .filter(|&i| directions[i] != directions[(i + 1) % directions.len()])
        .count();
    changes <= 2
}

/// `true` if `seq` is sorted in the given direction.
///
/// The scan is chunked: each 64-element window accumulates its comparisons
/// branch-free (`ok &= prev <= next`), which the compiler turns into SIMD
/// compares, and the chunk boundary gives early exit on unsorted input. The
/// predicates run this over every collected subcube each stage (Lemma 8's
/// `O(2^i · m)` term), so the large-`m` throughput matters.
pub(crate) fn is_monotone(seq: &[Key], ascending: bool) -> bool {
    if ascending {
        monotone_by(seq, |prev, next| prev <= next)
    } else {
        monotone_by(seq, |prev, next| prev >= next)
    }
}

#[inline(always)]
fn monotone_by(seq: &[Key], in_order: impl Fn(Key, Key) -> bool) -> bool {
    const CHUNK: usize = 64;
    let mut i = 1;
    while i + CHUNK <= seq.len() {
        let mut ok = true;
        for k in 0..CHUNK {
            ok &= in_order(seq[i + k - 1], seq[i + k]);
        }
        if !ok {
            return false;
        }
        i += CHUNK;
    }
    while i < seq.len() {
        if !in_order(seq[i - 1], seq[i]) {
            return false;
        }
        i += 1;
    }
    true
}

/// One parallel compare-exchange sweep of Lemma 1 applied in place:
/// `min(I_k, I_{k+N/2})` lands in the lower half and `max` in the upper
/// half (swapped when `ascending` is `false`).
///
/// Given a bitonic input, each half is bitonic afterwards and every element
/// of one half bounds every element of the other — the splitting property
/// the whole algorithm is built on.
///
/// # Panics
///
/// Panics if `seq.len()` is odd.
pub fn half_clean(seq: &mut [Key], ascending: bool) {
    assert!(seq.len() % 2 == 0, "half-clean needs an even length");
    let half = seq.len() / 2;
    for k in 0..half {
        let keep_min_low = ascending == (seq[k] <= seq[k + half]);
        if !keep_min_low {
            seq.swap(k, k + half);
        }
    }
}

/// Sorts a bitonic sequence in place by recursive halving (Lemma 1 applied
/// `log₂ len` times).
///
/// # Panics
///
/// Panics if `seq.len()` is not a power of two.
pub fn bitonic_merge(seq: &mut [Key], ascending: bool) {
    assert!(
        seq.len().is_power_of_two(),
        "bitonic merge needs a power-of-two length"
    );
    if seq.len() <= 1 {
        return;
    }
    half_clean(seq, ascending);
    let half = seq.len() / 2;
    bitonic_merge(&mut seq[..half], ascending);
    bitonic_merge(&mut seq[half..], ascending);
}

/// Batcher's full bitonic sort on an in-memory slice: builds ever-longer
/// bitonic sequences and merges them, exactly the schedule `S_NR`
/// distributes over the hypercube.
///
/// Runs in `O(len · log² len)` comparisons; used as the reference oracle and
/// by the sequential baselines.
///
/// # Panics
///
/// Panics if `seq.len()` is not a power of two.
pub fn bitonic_sort(seq: &mut [Key], ascending: bool) {
    assert!(
        seq.len().is_power_of_two(),
        "bitonic sort needs a power-of-two length"
    );
    if seq.len() <= 1 {
        return;
    }
    let half = seq.len() / 2;
    bitonic_sort(&mut seq[..half], true);
    bitonic_sort(&mut seq[half..], false);
    bitonic_merge(seq, ascending);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitonic_recognition() {
        assert!(is_bitonic(&[]));
        assert!(is_bitonic(&[5]));
        assert!(is_bitonic(&[1, 9]));
        assert!(is_bitonic(&[1, 2, 3, 2, 1]));
        assert!(is_bitonic(&[3, 2, 1, 2, 3]));
        assert!(is_bitonic(&[2, 2, 2]));
        assert!(!is_bitonic(&[1, 3, 2, 4]));
        assert!(!is_bitonic(&[2, 1, 3, 1]));
    }

    #[test]
    fn circular_bitonic_recognition() {
        assert!(is_circular_bitonic(&[]));
        assert!(is_circular_bitonic(&[1]));
        assert!(is_circular_bitonic(&[2, 1]));
        assert!(is_circular_bitonic(&[1, 2, 3, 2])); // already linear bitonic
        assert!(is_circular_bitonic(&[3, 1, 2, 4])); // rotation: desc-asc + wrap
        assert!(is_circular_bitonic(&[2, 1, 1, 3]));
        assert!(is_circular_bitonic(&[5, 5, 5]));
        assert!(!is_circular_bitonic(&[1, 3, 1, 3]));
        assert!(!is_circular_bitonic(&[0, 2, 1, 2, 0, 2]));
        // Every linear bitonic sequence is circular bitonic.
        for seq in [&[1, 4, 9, 7, 2][..], &[9, 3, 1, 5, 8][..]] {
            assert!(is_bitonic(seq));
            assert!(is_circular_bitonic(seq));
        }
    }

    #[test]
    fn half_clean_halves_are_circular_but_not_always_linear_bitonic() {
        // Sweep small bitonic inputs; every half must be circularly
        // bitonic, and at least one half must fail the *linear* test —
        // demonstrating why the recursion's invariant is the circular one.
        let mut found_non_linear = false;
        for peak in 0..8usize {
            for valley_depth in 0..4i32 {
                let mut seq: Vec<Key> = (0..=peak as Key).collect();
                let mut tail: Vec<Key> = (0..(8 - seq.len()) as Key)
                    .map(|x| peak as Key - x - valley_depth)
                    .collect();
                seq.append(&mut tail);
                seq.truncate(8);
                if seq.len() != 8 || !is_bitonic(&seq) {
                    continue;
                }
                half_clean(&mut seq, true);
                let (low, high) = seq.split_at(4);
                assert!(is_circular_bitonic(low), "{low:?}");
                assert!(is_circular_bitonic(high), "{high:?}");
                found_non_linear |= !is_bitonic(low) || !is_bitonic(high);
            }
        }
        assert!(
            found_non_linear,
            "sweep too tame: never exercised the circular-only case"
        );
    }

    #[test]
    fn monotone_checks() {
        assert!(is_monotone(&[1, 2, 2, 5], true));
        assert!(!is_monotone(&[1, 2, 1], true));
        assert!(is_monotone(&[5, 3, 3, 1], false));
        assert!(is_monotone(&[], true));
    }

    #[test]
    fn half_clean_splits_bitonic() {
        // Lemma 1: every element of the low half bounds every element of
        // the high half, and both halves stay bitonic.
        let mut seq = vec![1, 3, 5, 7, 8, 6, 4, 2];
        half_clean(&mut seq, true);
        let (low, high) = seq.split_at(4);
        let max_low = low.iter().max().unwrap();
        let min_high = high.iter().min().unwrap();
        assert!(max_low <= min_high);
        assert!(is_bitonic(low));
        assert!(is_bitonic(high));
    }

    #[test]
    fn merge_sorts_bitonic_input() {
        let mut seq = vec![2, 5, 9, 11, 10, 7, 4, 0];
        bitonic_merge(&mut seq, true);
        assert_eq!(seq, vec![0, 2, 4, 5, 7, 9, 10, 11]);

        let mut seq = vec![2, 5, 9, 11, 10, 7, 4, 0];
        bitonic_merge(&mut seq, false);
        assert_eq!(seq, vec![11, 10, 9, 7, 5, 4, 2, 0]);
    }

    #[test]
    fn sort_paper_example() {
        // The Figure 5 worked example.
        let mut seq = vec![10, 8, 3, 9, 4, 2, 7, 5];
        bitonic_sort(&mut seq, true);
        assert_eq!(seq, vec![2, 3, 4, 5, 7, 8, 9, 10]);
    }

    #[test]
    fn sort_all_sizes_and_directions() {
        for pow in 0..=7 {
            let len = 1usize << pow;
            let mut seq: Vec<Key> = (0..len as Key).map(|x| (x * 37 + 11) % 64).collect();
            let mut expected = seq.clone();
            expected.sort_unstable();
            bitonic_sort(&mut seq, true);
            assert_eq!(seq, expected, "ascending len {len}");
            expected.reverse();
            bitonic_sort(&mut seq, false);
            assert_eq!(seq, expected, "descending len {len}");
        }
    }

    #[test]
    fn sort_handles_duplicates() {
        let mut seq = vec![3, 3, 1, 1, 2, 2, 3, 1];
        bitonic_sort(&mut seq, true);
        assert_eq!(seq, vec![1, 1, 1, 2, 2, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sort_rejects_non_power_of_two() {
        bitonic_sort(&mut [1, 2, 3], true);
    }
}
