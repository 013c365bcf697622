//! The output check: an answer is right only if it is exactly
//! `sort_unstable` of the job's input.

/// What became of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The answer equals the sorted input.
    Correct,
    /// An answer came back and it is wrong — the one outcome Theorem 3
    /// forbids. Any of these fails the run.
    SilentlyWrong,
    /// The job failed loudly or was refused at the door.
    Failed,
}

/// The reference answer for `keys`.
pub fn expected(keys: &[i32]) -> Vec<i32> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted
}

/// Judges `output` against the reference answer.
pub fn check(expected: &[i32], output: &[i32]) -> Verdict {
    if output == expected {
        Verdict::Correct
    } else {
        Verdict::SilentlyWrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn accepts_the_sorted_input() {
        let keys = Rng::new(5).keys(64);
        let want = expected(&keys);
        assert!(want.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(check(&want, &want.clone()), Verdict::Correct);
    }

    #[test]
    fn rejects_one_swapped_pair() {
        let keys = Rng::new(5).keys(64);
        let want = expected(&keys);
        let mut swapped = want.clone();
        let i = (0..63).find(|&i| want[i] != want[i + 1]).unwrap();
        swapped.swap(i, i + 1);
        assert_eq!(check(&want, &swapped), Verdict::SilentlyWrong);
    }

    #[test]
    fn rejects_one_substituted_key() {
        let keys = Rng::new(5).keys(64);
        let want = expected(&keys);
        // Still sorted, still 64 keys — only the multiset differs.
        let mut substituted = want.clone();
        substituted[10] = substituted[11];
        assert!(substituted.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(substituted, want);
        assert_eq!(check(&want, &substituted), Verdict::SilentlyWrong);
        // A dropped key is wrong too.
        assert_eq!(check(&want, &want[1..]), Verdict::SilentlyWrong);
    }
}
