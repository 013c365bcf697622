//! A fixed-bucket duration histogram: bounded memory at any sample count.
//!
//! The service previously kept every job latency in a `Vec<Duration>` —
//! unbounded growth over a resident service's lifetime. This histogram is
//! the replacement: power-of-two microsecond buckets (HDR-style, fixed at
//! `BUCKET_COUNT`), each holding an atomic count *and* an atomic sum, so
//! recording is lock-free and percentile queries return the **mean of the
//! samples inside the selected bucket** — exact whenever a bucket holds one
//! distinct value (the common case for a single sample), and never off by
//! more than the bucket width otherwise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: value 0, then powers of two from 1 µs to 2^38 µs
/// (~76 hours), with the last bucket absorbing everything larger.
pub(crate) const BUCKET_COUNT: usize = 40;

/// A lock-free fixed-memory histogram of durations (microsecond
/// resolution).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKET_COUNT],
    sums: [AtomicU64; BUCKET_COUNT],
    total_count: AtomicU64,
    total_sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value in microseconds: 0 for zero, else
/// `bit_length(v)` clamped to the saturating top bucket.
fn bucket_index(micros: u64) -> usize {
    if micros == 0 {
        0
    } else {
        ((u64::BITS - micros.leading_zeros()) as usize).min(BUCKET_COUNT - 1)
    }
}

/// Exclusive upper bound of bucket `i` in microseconds (`None` for the
/// saturating top bucket).
fn bucket_upper_us(i: usize) -> Option<u64> {
    if i + 1 >= BUCKET_COUNT {
        None
    } else {
        Some(1u64 << i)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
            total_count: AtomicU64::new(0),
            total_sum_us: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, value: Duration) {
        self.record_micros(value.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one dimensionless count (batch occupancy, frames per
    /// write). The buckets are the same power-of-two ladder; renderers for
    /// count-valued histograms expose the bounds as raw integers instead of
    /// seconds.
    pub fn record_count(&self, count: u64) {
        self.record_micros(count);
    }

    /// Records one value in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let i = bucket_index(micros);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.sums[i].fetch_add(micros, Ordering::Relaxed);
        self.total_count.fetch_add(1, Ordering::Relaxed);
        self.total_sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.total_count.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile (`pct` in 0..=100). Returns the mean of the
    /// samples in the bucket holding the ranked sample;
    /// [`Duration::ZERO`] when empty.
    pub fn percentile(&self, pct: u32) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = (total * u64::from(pct)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKET_COUNT {
            let c = self.counts[i].load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let s = self.sums[i].load(Ordering::Relaxed);
                return Duration::from_micros(s / c);
            }
        }
        // Racing writers can leave `seen < rank` transiently; fall back to
        // the highest non-empty bucket's mean.
        for i in (0..BUCKET_COUNT).rev() {
            let c = self.counts[i].load(Ordering::Relaxed);
            if let Some(mean) = self.sums[i].load(Ordering::Relaxed).checked_div(c) {
                return Duration::from_micros(mean);
            }
        }
        Duration::ZERO
    }

    /// A consistent-enough view for exposition: `(upper_bound_us, cumulative
    /// count)` per bucket (the Prometheus `le` series), plus count and sum.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::new();
        let mut acc = 0u64;
        for i in 0..BUCKET_COUNT {
            acc += self.counts[i].load(Ordering::Relaxed);
            cumulative.push((bucket_upper_us(i), acc));
        }
        HistogramSnapshot {
            cumulative,
            count: self.count(),
            sum_us: self.total_sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A frozen view of a [`Histogram`] for rendering.
#[derive(Debug, Clone)]
pub(crate) struct HistogramSnapshot {
    /// `(exclusive upper bound in µs, cumulative count)` per bucket; `None`
    /// bound is the saturating `+Inf` bucket.
    pub(crate) cumulative: Vec<(Option<u64>, u64)>,
    /// Total samples.
    pub(crate) count: u64,
    /// Sum of all samples in µs.
    pub(crate) sum_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().sum_us, 0);
        for pct in [0, 50, 90, 99, 100] {
            assert_eq!(h.percentile(pct), Duration::ZERO);
        }
    }

    #[test]
    fn single_sample_is_exact_at_every_percentile() {
        let h = Histogram::new();
        h.record(ms(5));
        for pct in [1, 50, 90, 99, 100] {
            assert_eq!(h.percentile(pct), ms(5), "p{pct}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.snapshot().sum_us, 5_000);
    }

    #[test]
    fn identical_samples_stay_exact() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(ms(7));
        }
        assert_eq!(h.percentile(50), ms(7));
        assert_eq!(h.percentile(99), ms(7));
    }

    #[test]
    fn zero_duration_samples_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::ZERO);
        assert_eq!(h.percentile(50), Duration::ZERO);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn saturating_bucket_absorbs_oversized_values() {
        let h = Histogram::new();
        // Far beyond the 2^38 µs top boundary — and beyond u64 µs entirely.
        h.record(Duration::from_secs(u64::MAX / 1_000));
        h.record_micros(u64::MAX);
        assert_eq!(h.count(), 2);
        let snap = h.snapshot();
        let (bound, cum) = snap.cumulative.last().copied().unwrap();
        assert_eq!(bound, None, "top bucket is +Inf");
        assert_eq!(cum, 2);
        // The percentile stays finite and within the recorded range.
        assert!(h.percentile(99) >= Duration::from_secs(1 << 20));
    }

    #[test]
    fn percentile_error_is_bounded_by_the_bucket() {
        // Uniform 1..=100 ms: the p50 nearest-rank sample (50 ms) lands in
        // the [32.768, 65.536) ms bucket, whose samples are 33..=65 ms; the
        // reported value is their mean, i.e. inside the bucket.
        let h = Histogram::new();
        for v in 1..=100 {
            h.record(ms(v));
        }
        let p50 = h.percentile(50);
        assert!(p50 >= ms(33) && p50 < ms(66), "p50 = {p50:?}");
        let p99 = h.percentile(99);
        assert!(p99 >= ms(66) && p99 <= ms(100), "p99 = {p99:?}");
        // Monotone in the percentile.
        assert!(h.percentile(99) >= h.percentile(50));
        assert!(h.percentile(50) >= h.percentile(1));
    }

    #[test]
    fn bucket_index_covers_the_space() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        // Every bucket's lower bound maps back to that bucket.
        for i in 1..BUCKET_COUNT - 1 {
            assert_eq!(bucket_index(1u64 << (i - 1)), i, "bucket {i}");
        }
    }

    #[test]
    fn snapshot_cumulative_counts_are_monotone() {
        let h = Histogram::new();
        for v in [0u64, 1, 10, 100, 1_000, 10_000, 1 << 40] {
            h.record_micros(v);
        }
        let snap = h.snapshot();
        let mut prev = 0;
        for (_, cum) in &snap.cumulative {
            assert!(*cum >= prev);
            prev = *cum;
        }
        assert_eq!(prev, snap.count);
    }
}
