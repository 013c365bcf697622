//! Composite `(job_seq, key)` encoding for multi-job batched sorts.
//!
//! A resident service can amortize `S_FT`'s per-round overhead by sorting
//! several independent jobs in **one** run: tag every key with its job's
//! sequence number inside the batch and sort the composites. Because the
//! encoding makes the native [`Key`] order equal the lexicographic
//! `(job_seq, key)` order, one sorted output holds each job's keys as its
//! own contiguous, internally ordered segment — [`demux`] just cuts the
//! output at the known per-job lengths and strips the tags. The
//! fault-tolerance story is untouched: the constraint predicates and
//! Definition-3 diagnosis operate on nodes and message structure, never on
//! what the key bits *mean*.
//!
//! The price is range: a 32-bit key cannot carry a job tag losslessly, so a
//! [`CompositeCodec`] for batches of up to `B` jobs reserves
//! `ceil(log2(B))` high bits for the tag and only admits keys that fit the
//! remaining signed range ([`CompositeCodec::fits`]). Jobs with wider keys
//! simply run unbatched — a compatibility rule, not a failure.

use crate::Key;

/// Encodes `(job_seq, key)` pairs into native [`Key`]s whose numeric order
/// is the lexicographic pair order.
///
/// Layout of a composite (always non-negative, so `i32` order is unsigned
/// order): `[0][seq: seq_bits][key + 2^(key_bits-1): key_bits]` with
/// `seq_bits + key_bits = 31`. The key is stored biased into
/// `[0, 2^key_bits)`, preserving its order within a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositeCodec {
    seq_bits: u32,
}

impl CompositeCodec {
    /// A codec for batches of up to `batch_max` jobs (at least one tag bit
    /// is always reserved, so even `batch_max <= 2` admits keys of
    /// magnitude `< 2^29`).
    pub fn for_batch_max(batch_max: usize) -> Self {
        let top = batch_max.max(2) - 1;
        let seq_bits = usize::BITS - top.leading_zeros();
        Self { seq_bits }
    }

    /// Bits left for the biased key.
    pub(crate) fn key_bits(&self) -> u32 {
        31 - self.seq_bits
    }

    /// Largest job sequence number this codec can tag.
    pub(crate) fn max_seq(&self) -> u32 {
        (1u32 << self.seq_bits) - 1
    }

    fn bias(&self) -> i64 {
        1i64 << (self.key_bits() - 1)
    }

    /// `true` when `key` survives the round trip: the admissible range is
    /// `[-2^(key_bits-1), 2^(key_bits-1))`.
    pub fn fits(&self, key: Key) -> bool {
        let bias = self.bias();
        (i64::from(key)) >= -bias && i64::from(key) < bias
    }

    /// Tags `key` with `seq`. The caller guarantees `seq <= max_seq()` and
    /// `fits(key)`; both are debug-asserted.
    pub(crate) fn encode(&self, seq: u32, key: Key) -> Key {
        debug_assert!(seq <= self.max_seq(), "seq {seq} exceeds the tag space");
        debug_assert!(self.fits(key), "key {key} outside the composite range");
        let biased = (i64::from(key) + self.bias()) as u32;
        ((seq << self.key_bits()) | biased) as Key
    }

    /// Splits a composite back into `(seq, key)`.
    pub(crate) fn decode(&self, composite: Key) -> (u32, Key) {
        let raw = composite as u32;
        let seq = raw >> self.key_bits();
        let key = i64::from(raw & ((1u32 << self.key_bits()) - 1)) - self.bias();
        (seq, key as Key)
    }
}

/// Interleaves `jobs` into one composite key vector: job `j`'s keys are
/// tagged with sequence `j`. Returns `None` when a job's keys fall outside
/// the codec's range or the batch outgrows the tag space — the caller
/// should run such jobs unbatched.
pub fn mux(codec: CompositeCodec, jobs: &[&[Key]]) -> Option<Vec<Key>> {
    if jobs.len() > codec.max_seq() as usize + 1 {
        return None;
    }
    let total = jobs.iter().map(|j| j.len()).sum();
    let mut out = Vec::with_capacity(total);
    for (seq, keys) in jobs.iter().enumerate() {
        for &key in *keys {
            if !codec.fits(key) {
                return None;
            }
            out.push(codec.encode(seq as u32, key));
        }
    }
    Some(out)
}

/// Why [`demux`] refused a sorted composite output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DemuxError {
    /// Output length disagrees with the per-job lengths.
    LengthMismatch {
        /// Keys in the sorted output.
        got: usize,
        /// Sum of the per-job lengths.
        expected: usize,
    },
    /// A key inside job `seq`'s segment carried a different tag — the
    /// output is not a permutation of the muxed input.
    TagMismatch {
        /// The segment (job sequence) being cut.
        seq: u32,
        /// The tag actually found there.
        found: u32,
    },
}

impl std::fmt::Display for DemuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DemuxError::LengthMismatch { got, expected } => {
                write!(f, "composite output holds {got} keys, expected {expected}")
            }
            DemuxError::TagMismatch { seq, found } => {
                write!(f, "job segment {seq} contains a key tagged {found}")
            }
        }
    }
}

impl std::error::Error for DemuxError {}

/// Cuts a *sorted* composite output back into per-job key vectors:
/// `lens[j]` keys for job `j`, tags stripped. Every key's tag is checked
/// against its segment — a mismatch means the output is not a permutation
/// of the input batch and must be treated as loudly as any Φ violation.
pub fn demux(
    codec: CompositeCodec,
    output: &[Key],
    lens: &[usize],
) -> Result<Vec<Vec<Key>>, DemuxError> {
    let expected: usize = lens.iter().sum();
    if output.len() != expected {
        return Err(DemuxError::LengthMismatch {
            got: output.len(),
            expected,
        });
    }
    let mut jobs = Vec::with_capacity(lens.len());
    let mut offset = 0usize;
    for (seq, &len) in lens.iter().enumerate() {
        let mut keys = Vec::with_capacity(len);
        for &composite in &output[offset..offset + len] {
            let (tag, key) = codec.decode(composite);
            if tag != seq as u32 {
                return Err(DemuxError::TagMismatch {
                    seq: seq as u32,
                    found: tag,
                });
            }
            keys.push(key);
        }
        jobs.push(keys);
        offset += len;
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_widths_track_batch_max() {
        assert_eq!(CompositeCodec::for_batch_max(1).max_seq(), 1);
        assert_eq!(CompositeCodec::for_batch_max(2).max_seq(), 1);
        assert_eq!(CompositeCodec::for_batch_max(3).max_seq(), 3);
        assert_eq!(CompositeCodec::for_batch_max(64).max_seq(), 63);
        assert_eq!(CompositeCodec::for_batch_max(64).key_bits(), 25);
        assert_eq!(CompositeCodec::for_batch_max(1024).key_bits(), 21);
    }

    #[test]
    fn round_trips_across_the_admissible_range() {
        let codec = CompositeCodec::for_batch_max(16);
        let bias = 1i32 << (codec.key_bits() - 1);
        for seq in [0u32, 1, 7, 15] {
            for key in [-bias, -1, 0, 1, bias - 1, 12345, -9876] {
                assert!(codec.fits(key), "{key} must fit");
                assert_eq!(codec.decode(codec.encode(seq, key)), (seq, key));
            }
        }
        assert!(!codec.fits(bias));
        assert!(!codec.fits(-bias - 1));
        assert!(!codec.fits(i32::MAX));
        assert!(!codec.fits(i32::MIN));
    }

    #[test]
    fn composite_order_is_lexicographic() {
        let codec = CompositeCodec::for_batch_max(8);
        // Any lower seq sorts wholly before any higher seq, and within a
        // seq the key order is preserved.
        let lo = codec.encode(2, 1_000_000);
        let hi = codec.encode(3, -1_000_000);
        assert!(lo < hi, "seq dominates the order");
        assert!(codec.encode(3, -5) < codec.encode(3, 5));
        assert!(codec.encode(0, i32::from(i16::MIN)) >= 0, "non-negative");
    }

    #[test]
    fn mux_sort_demux_equals_per_job_sorts() {
        let codec = CompositeCodec::for_batch_max(4);
        let a = vec![5, -3, 9, 0];
        let b = vec![7, 7, -1];
        let c = vec![100, -100];
        let mut composite = mux(codec, &[&a, &b, &c]).expect("all keys fit");
        composite.sort_unstable();
        let jobs = demux(codec, &composite, &[4, 3, 2]).expect("clean demux");
        for (got, input) in jobs.iter().zip([&a, &b, &c]) {
            let mut expected = input.clone();
            expected.sort_unstable();
            assert_eq!(got, &expected);
        }
    }

    #[test]
    fn mux_refuses_unfit_keys_and_oversized_batches() {
        let codec = CompositeCodec::for_batch_max(2);
        assert!(mux(codec, &[&[i32::MAX]]).is_none());
        let job: &[Key] = &[1];
        assert!(mux(codec, &[job, job, job]).is_none(), "3 jobs, 1 tag bit");
    }

    #[test]
    fn demux_is_loud_about_corruption() {
        let codec = CompositeCodec::for_batch_max(4);
        let mut composite = mux(codec, &[&[1, 2], &[3]]).expect("fits");
        composite.sort_unstable();
        assert_eq!(
            demux(codec, &composite, &[2, 2]),
            Err(DemuxError::LengthMismatch {
                got: 3,
                expected: 4
            })
        );
        // Swap a key across the segment boundary: the tag check fires.
        assert!(matches!(
            demux(codec, &composite, &[1, 2]),
            Err(DemuxError::TagMismatch { .. })
        ));
    }
}
