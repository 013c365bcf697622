use rand::Rng;
use serde::{Deserialize, Serialize};

/// When a fault manifests, expressed over a node's send sequence numbers.
///
/// Intermittent hardware faults are modelled by the `probability` field;
/// permanent and transient faults by the `[from, until)` window. A fault
/// fires on a given send when the sequence number is inside the window *and*
/// the probability coin lands.
///
/// The paper's environmental assumption 5 — all nodes are non-faulty through
/// the first message exchange — is honoured by plans that use
/// [`Trigger::from_seq`] with a positive origin; the coverage campaign also
/// explores violations of that assumption deliberately.
///
/// # Examples
///
/// ```
/// use aoft_faults::Trigger;
///
/// // Armed on sends 2, 3 and 4, every time.
/// let t = Trigger::window(2, 5);
/// assert_eq!((t.from, t.until, t.probability), (2, 5, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Trigger {
    /// First send sequence number (inclusive) at which the fault is armed.
    pub from: u64,
    /// Send sequence number (exclusive) at which the fault disarms.
    pub until: u64,
    /// Probability that an armed send actually faults.
    pub probability: f64,
}

impl Trigger {
    /// Fault on every send.
    pub const fn always() -> Self {
        Self {
            from: 0,
            until: u64::MAX,
            probability: 1.0,
        }
    }

    /// Fault on exactly one send.
    pub const fn at_seq(seq: u64) -> Self {
        Self {
            from: seq,
            until: seq + 1,
            probability: 1.0,
        }
    }

    /// Fault on every send from `seq` onward (permanent fault).
    pub const fn from_seq(seq: u64) -> Self {
        Self {
            from: seq,
            until: u64::MAX,
            probability: 1.0,
        }
    }

    /// Fault on sends in `[from, until)` (transient fault).
    pub const fn window(from: u64, until: u64) -> Self {
        Self {
            from,
            until,
            probability: 1.0,
        }
    }

    /// Restricts an existing trigger to probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        self.probability = p;
        self
    }

    /// Decides whether the fault fires on send number `seq`.
    ///
    /// Probabilistic triggers draw from `rng`, so trials are reproducible
    /// under a fixed seed.
    pub(crate) fn fires<R: Rng + ?Sized>(&self, seq: u64, rng: &mut R) -> bool {
        if seq < self.from || seq >= self.until {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        if self.probability <= 0.0 {
            return false;
        }
        rng.gen_bool(self.probability)
    }
}

impl Default for Trigger {
    /// Defaults to [`Trigger::always`].
    fn default() -> Self {
        Self::always()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn always_fires_everywhere() {
        let mut r = rng();
        let t = Trigger::always();
        for seq in [0u64, 1, 100, u64::MAX - 1] {
            assert!(t.fires(seq, &mut r));
        }
    }

    #[test]
    fn at_seq_fires_once() {
        let mut r = rng();
        let t = Trigger::at_seq(3);
        assert!(!t.fires(2, &mut r));
        assert!(t.fires(3, &mut r));
        assert!(!t.fires(4, &mut r));
    }

    #[test]
    fn from_seq_is_permanent() {
        let mut r = rng();
        let t = Trigger::from_seq(5);
        assert!(!t.fires(4, &mut r));
        assert!(t.fires(5, &mut r));
        assert!(t.fires(5_000, &mut r));
    }

    #[test]
    fn window_is_half_open() {
        let mut r = rng();
        let t = Trigger::window(1, 3);
        assert!(!t.fires(0, &mut r));
        assert!(t.fires(1, &mut r));
        assert!(t.fires(2, &mut r));
        assert!(!t.fires(3, &mut r));
    }

    #[test]
    fn probability_zero_never_fires() {
        let mut r = rng();
        let t = Trigger::from_seq(0).probability(0.0);
        assert!((0..100).all(|seq| !t.fires(seq, &mut r)));
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let t = Trigger::from_seq(0).probability(0.5);
        let run = |seed: u64| -> Vec<bool> {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            (0..64).map(|seq| t.fires(seq, &mut r)).collect()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds diverge");
        let fired = run(1).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&fired), "roughly half fire: {fired}");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_probability_panics() {
        Trigger::from_seq(0).probability(1.5);
    }
}
