use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A duration or instant on the simulator's virtual clock.
///
/// Internally stored in *milliticks* (1/1000 of a tick) so that fractional
/// per-word costs like the paper's fitted `0.05·N·log₂N` communication term
/// can be charged exactly with integer arithmetic, keeping runs bit-for-bit
/// deterministic.
///
/// # Examples
///
/// ```
/// use aoft_sim::Ticks;
///
/// let t = Ticks::from_ticks(3) + Ticks::from_millis(500);
/// assert_eq!(t.as_ticks_f64(), 3.5);
/// assert_eq!(t.as_millis(), 3_500);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Ticks(u64);

impl Ticks {
    /// The zero duration.
    pub const ZERO: Ticks = Ticks(0);

    /// A duration of whole ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        Ticks(ticks * 1_000)
    }

    /// A duration of milliticks (1/1000 tick).
    pub const fn from_millis(millis: u64) -> Self {
        Ticks(millis)
    }

    /// The duration in milliticks.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in ticks, truncating sub-tick precision.
    pub const fn as_ticks(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in ticks as a float, for reporting and fitting.
    pub fn as_ticks_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction.
    pub(crate) const fn saturating_sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    pub fn max(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.max(rhs.0))
    }
}

impl aoft_net::Wire for Ticks {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, aoft_net::CodecError> {
        Ok(Ticks(u64::decode(input)?))
    }
}

impl Add for Ticks {
    type Output = Ticks;

    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;

    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative.
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl Sum for Ticks {
    fn sum<I: Iterator<Item = Ticks>>(iter: I) -> Ticks {
        iter.fold(Ticks::ZERO, Add::add)
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1_000 == 0 {
            write!(f, "{}t", self.0 / 1_000)
        } else {
            write!(f, "{:.3}t", self.as_ticks_f64())
        }
    }
}

/// Virtual-time cost parameters of the simulated multicomputer.
///
/// Communication follows the classical `α + β·len` model (startup plus
/// per-word transfer, one 32-bit word per sorted key); computation is charged
/// per abstract operation. The [`CostModel::ncube_1989`] preset is calibrated
/// so that the *fitted* constants of the reproduction land near the paper's
/// Section 5 table — see `aoft-models::fitting`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CostModel {
    /// α: per-message startup on a node-to-node link, in milliticks.
    pub(crate) send_startup_millis: u64,
    /// β: per-word transfer cost on a node-to-node link, in milliticks.
    pub(crate) per_word_millis: u64,
    /// α for host links (program/data download and result upload).
    pub(crate) host_send_startup_millis: u64,
    /// β for host links.
    pub(crate) host_per_word_millis: u64,
    /// Cost of one key comparison, in milliticks.
    pub(crate) compare_millis: u64,
    /// Cost of moving/copying one word, in milliticks.
    pub(crate) move_millis: u64,
}

impl CostModel {
    /// All unit costs (1 tick per message, word and operation).
    ///
    /// Useful for tests that count operations rather than model hardware.
    pub const fn unit() -> Self {
        Self {
            send_startup_millis: 1_000,
            per_word_millis: 1_000,
            host_send_startup_millis: 1_000,
            host_per_word_millis: 1_000,
            compare_millis: 1_000,
            move_millis: 1_000,
        }
    }

    /// Costs calibrated to the Ncube-era constants of the paper's Section 5
    /// table (clock ticks): message startup ≈ 16t so the `8·log₂²N`
    /// communication term emerges from the `n(n+1)/2` exchange steps;
    /// per-word ≈ 0.025t so the piggybacked sequences produce the
    /// `0.05·N·log₂N` term; host links with high per-word cost reproduce the
    /// `14·N` sequential transfer term; comparisons ≈ 0.45t reproduce the
    /// `0.45·N·log₂N` host sorting term.
    pub const fn ncube_1989() -> Self {
        Self {
            send_startup_millis: 16_000,
            per_word_millis: 25,
            host_send_startup_millis: 6_000,
            host_per_word_millis: 4_000,
            compare_millis: 450,
            move_millis: 150,
        }
    }

    /// Communication cost of one node-to-node message of `words` payload
    /// words.
    pub(crate) fn link_cost(&self, words: usize) -> Ticks {
        Ticks::from_millis(self.send_startup_millis + self.per_word_millis * words as u64)
    }

    /// Communication cost of one host-link message of `words` payload words.
    pub(crate) fn host_link_cost(&self, words: usize) -> Ticks {
        Ticks::from_millis(self.host_send_startup_millis + self.host_per_word_millis * words as u64)
    }

    /// Compute cost of `count` key comparisons.
    pub(crate) fn compare_cost(&self, count: usize) -> Ticks {
        Ticks::from_millis(self.compare_millis * count as u64)
    }

    /// Compute cost of moving `count` words.
    pub(crate) fn move_cost(&self, count: usize) -> Ticks {
        Ticks::from_millis(self.move_millis * count as u64)
    }
}

impl Default for CostModel {
    /// Defaults to the Ncube-calibrated model.
    fn default() -> Self {
        Self::ncube_1989()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_arithmetic() {
        let a = Ticks::from_ticks(2);
        let b = Ticks::from_millis(250);
        assert_eq!((a + b).as_millis(), 2_250);
        assert_eq!((a - b).as_millis(), 1_750);
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), Ticks::ZERO);
    }

    #[test]
    fn ticks_sum() {
        let total: Ticks = (1..=4).map(Ticks::from_ticks).sum();
        assert_eq!(total.as_ticks(), 10);
    }

    #[test]
    fn ticks_display() {
        assert_eq!(Ticks::from_ticks(5).to_string(), "5t");
        assert_eq!(Ticks::from_millis(1_500).to_string(), "1.500t");
    }

    #[test]
    fn unit_model_costs() {
        let m = CostModel::unit();
        assert_eq!(m.link_cost(3).as_ticks(), 4); // α + 3β
        assert_eq!(m.compare_cost(7).as_ticks(), 7);
        assert_eq!(m.move_cost(2).as_ticks(), 2);
    }

    #[test]
    fn ncube_model_shapes() {
        let m = CostModel::ncube_1989();
        // Startup dominates short messages; payload dominates long ones.
        assert!(m.link_cost(1).as_millis() < 2 * m.send_startup_millis);
        assert!(m.link_cost(10_000) > Ticks::from_ticks(100));
        // Host links are far more expensive per word than node links.
        assert!(m.host_per_word_millis > 10 * m.per_word_millis);
    }

    #[test]
    fn default_is_ncube() {
        assert_eq!(CostModel::default(), CostModel::ncube_1989());
    }
}
