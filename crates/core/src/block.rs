//! Blocks: the `m` keys a node holds in the block bitonic sort/merge.
//!
//! Section 5's extension keeps `m` elements per node; the one-element case
//! is just `m = 1`. A block's keys are always maintained in ascending order
//! locally — inter-node order (ascending or descending region) is expressed
//! at block granularity, so a "descending" subcube means every key of node
//! `k` is ≥ every key of node `k+1`, with each node's block still internally
//! ascending.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::Key;

/// The sorted keys held by one node.
///
/// The keys are written once, by whoever builds the block, and never change
/// afterwards: the storage is immutable and shared, so `clone` is a
/// reference-count bump and every holder of a block — the node's own
/// variable, its `LBS` slot, a message in flight, a peer's `LBS` — reads the
/// same allocation. The last holder to let go frees it. Equality of two
/// handles to the same storage is decided without reading the keys
/// (`Arc<T: Eq>` compares pointers first); the verdict is the same as the
/// key-by-key comparison on every input.
///
/// # Examples
///
/// ```
/// use aoft_sort::Block;
///
/// let block = Block::from_unsorted(vec![5, 1, 3]);
/// assert!(block.is_sorted());
/// assert_eq!(block.keys(), &[1, 3, 5]);
/// assert_eq!(block.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Block {
    keys: Arc<Vec<Key>>,
}

impl Block {
    /// Wraps keys that are already sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is not sorted — use
    /// [`from_unsorted`](Block::from_unsorted) for raw data.
    pub fn new(keys: Vec<Key>) -> Self {
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "Block::new requires sorted keys"
        );
        Self {
            keys: Arc::new(keys),
        }
    }

    /// Sorts `keys` and wraps them.
    pub fn from_unsorted(mut keys: Vec<Key>) -> Self {
        keys.sort_unstable();
        Self {
            keys: Arc::new(keys),
        }
    }

    /// Wraps keys *without* checking sortedness.
    ///
    /// Only for representing possibly-corrupted wire data; every honest
    /// construction should go through [`new`](Block::new) or
    /// [`from_unsorted`](Block::from_unsorted).
    pub fn from_wire(keys: Vec<Key>) -> Self {
        Self {
            keys: Arc::new(keys),
        }
    }

    /// The keys, in stored order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Number of keys (`m`).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the block holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `true` if the stored keys are ascending (the local invariant every
    /// honest node maintains; predicates re-check it on received data).
    pub fn is_sorted(&self) -> bool {
        self.keys.windows(2).all(|w| w[0] <= w[1])
    }

    /// Smallest key.
    ///
    /// # Panics
    ///
    /// Panics on an empty block.
    pub fn min(&self) -> Key {
        *self.keys.first().expect("non-empty block")
    }

    /// Largest key.
    ///
    /// # Panics
    ///
    /// Panics on an empty block.
    pub fn max(&self) -> Key {
        *self.keys.last().expect("non-empty block")
    }

    /// Consumes the block, yielding its keys: the storage itself for the
    /// last holder, a copy while anyone else still reads it.
    pub fn into_keys(self) -> Vec<Key> {
        Arc::try_unwrap(self.keys).unwrap_or_else(|shared| Vec::clone(&shared))
    }

    /// The compare-exchange of the block bitonic sort (merge-split).
    ///
    /// Merges `self` with `other` and splits the result in half: returns
    /// `(low, high)` where `low` holds the `m` smallest and `high` the `m`
    /// largest keys. For `m = 1` this is exactly the paper's
    /// `(min(x,y), max(x,y))` compare-exchange.
    ///
    /// The cost is `2m` comparisons and `2m` moves; callers charge it via
    /// `merge_split_cost`.
    ///
    /// # Panics
    ///
    /// Panics if the blocks differ in size.
    pub fn merge_split(&self, other: &Block) -> (Block, Block) {
        let (mut low, mut high) = (self.clone(), other.clone());
        low.merge_split_reuse(&mut high, &mut MergeScratch::new());
        (low, high)
    }

    /// [`merge_split`](Block::merge_split) on the handles themselves: after
    /// the call `self` holds the `m` smallest and `other` the `m` largest
    /// keys. The halves are built in `scratch` and installed as *new*
    /// blocks; nobody else's view of the old ones changes. An operand that
    /// was the last holder of its storage trades it for the scratch buffer
    /// (no copy-back, and with a scratch sized once from `m` no allocation:
    /// the `S_NR` steady state, and every `S_FT` step after the first of a
    /// stage). An operand still referenced elsewhere — a stage-entry block
    /// sits in every `LBS` that collected it — keeps that storage untouched
    /// and the handle moves to the scratch buffer's, which the next call
    /// replaces with one allocation.
    ///
    /// The low half is written by a front cursor (ties take from `self`),
    /// the high half by a back cursor (ties take from `other`). Both trace
    /// the one stable merge of two ascending operands — its first `m`
    /// outputs from the front, its last `m` from the back — so neither
    /// needs the other's position, and a cursor that has taken `k < m` keys
    /// has left at least one key in each operand: the loop carries no
    /// exhaustion test and no data-dependent branch. Operands already in
    /// order (or exactly reversed) across the pair return without merging.
    ///
    /// Unsorted operands — only a faulty peer produces them — still yield
    /// `m` keys each and no panic, but which keys is unspecified; judging
    /// the result is the predicates' job.
    ///
    /// # Panics
    ///
    /// Panics if the blocks differ in size.
    pub fn merge_split_reuse(&mut self, other: &mut Block, scratch: &mut MergeScratch) {
        assert_eq!(
            self.len(),
            other.len(),
            "merge-split requires equal block sizes"
        );
        if self.keys.last() <= other.keys.first() {
            return;
        }
        if other.keys.last() <= self.keys.first() {
            std::mem::swap(&mut self.keys, &mut other.keys);
            return;
        }
        let m = self.len();
        let (a, b) = (self.keys.as_slice(), other.keys.as_slice());
        // Every slot is overwritten below, so stale contents need no clear;
        // a buffer handed back by the previous merge already holds `m` keys.
        scratch.low.resize(m, 0);
        scratch.high.resize(m, 0);
        let (mut i, mut j) = (0, 0);
        let (mut i_end, mut j_end) = (m, m);
        for (low, high) in scratch.low.iter_mut().zip(scratch.high.iter_mut().rev()) {
            *low = take_front(a, b, &mut i, &mut j);
            *high = take_back(a, b, &mut i_end, &mut j_end);
        }
        install(&mut self.keys, &mut scratch.low);
        install(&mut other.keys, &mut scratch.high);
    }

    /// Comparison and move counts charged for one merge-split of blocks of
    /// `m` keys: `(compares, moves)`.
    pub(crate) fn merge_split_cost(m: usize) -> (usize, usize) {
        (2 * m, 2 * m)
    }
}

/// Makes `half` the keys behind `keys`. The last holder of the old storage
/// swaps it out (it becomes the next merge's scratch); storage anyone else
/// still reads is never written — the handle is pointed at `half` instead.
fn install(keys: &mut Arc<Vec<Key>>, half: &mut Vec<Key>) {
    match Arc::get_mut(keys) {
        Some(owned) => std::mem::swap(owned, half),
        None => *keys = Arc::new(std::mem::take(half)),
    }
}

/// One step of the front cursor of the stable merge of `a` and `b`: yields
/// the smaller of the two heads `a[*i]`, `b[*j]` — `a`'s on a tie — and
/// advances past it. Compiles to compare, select, two adds: no branch on
/// key data. Both heads must exist.
#[inline(always)]
pub(crate) fn take_front(a: &[Key], b: &[Key], i: &mut usize, j: &mut usize) -> Key {
    let (x, y) = (a[*i], b[*j]);
    let take_a = x <= y;
    *i += usize::from(take_a);
    *j += usize::from(!take_a);
    if take_a {
        x
    } else {
        y
    }
}

/// One step of the back cursor of the same merge: yields the larger of the
/// two tails `a[*i_end - 1]`, `b[*j_end - 1]` — `b`'s on a tie, since `a`'s
/// equal keys come first — and retreats past it. Both tails must exist.
#[inline(always)]
pub(crate) fn take_back(a: &[Key], b: &[Key], i_end: &mut usize, j_end: &mut usize) -> Key {
    let (x, y) = (a[*i_end - 1], b[*j_end - 1]);
    let take_b = y >= x;
    *j_end -= usize::from(take_b);
    *i_end -= usize::from(!take_b);
    if take_b {
        y
    } else {
        x
    }
}

/// Reusable output buffers for [`Block::merge_split_reuse`].
///
/// The two halves are merged into these buffers, which then become the
/// result blocks' storage. A uniquely held operand hands its old vector back
/// as the next call's buffer, so merges of unshared blocks allocate nothing;
/// a shared operand hands nothing back and the buffer is reallocated on the
/// next call.
#[derive(Debug, Default)]
pub struct MergeScratch {
    low: Vec<Key>,
    high: Vec<Key>,
}

impl MergeScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for merging two blocks of `m` keys.
    pub fn for_block_len(m: usize) -> Self {
        Self {
            low: Vec::with_capacity(m),
            high: Vec::with_capacity(m),
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.keys)
    }
}

impl FromIterator<Key> for Block {
    /// Collects and sorts.
    fn from_iter<I: IntoIterator<Item = Key>>(iter: I) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
}

impl aoft_net::Wire for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        // Same layout as `Vec<Key>` — a u32 count followed by little-endian
        // keys — but the key region is sized once and filled in one bulk
        // pass, not grown one key at a time.
        aoft_net::Wire::encode(&(self.keys.len() as u32), out);
        let start = out.len();
        out.resize(start + self.keys.len() * KEY_WIRE_LEN, 0);
        for (slot, key) in out[start..]
            .chunks_exact_mut(KEY_WIRE_LEN)
            .zip(self.keys.iter())
        {
            slot.copy_from_slice(&key.to_le_bytes());
        }
    }

    // Decoding goes through `from_wire`: bytes off a socket may describe an
    // unsorted block, and judging that is the predicates' job, not the
    // codec's. The key region is validated as a whole (one bounds check),
    // then read in fixed-width chunks.
    fn decode(input: &mut &[u8]) -> Result<Self, aoft_net::CodecError> {
        let len = <u32 as aoft_net::Wire>::decode(input)? as usize;
        let bytes = aoft_net::wire::take(input, len.saturating_mul(KEY_WIRE_LEN))?;
        let keys = bytes
            .chunks_exact(KEY_WIRE_LEN)
            .map(|chunk| Key::from_le_bytes(chunk.try_into().expect("sized chunk")))
            .collect();
        Ok(Block::from_wire(keys))
    }
}

/// Encoded width of one [`Key`] on the wire.
pub(crate) const KEY_WIRE_LEN: usize = std::mem::size_of::<Key>();

/// Splits `keys` into `nodes` equal blocks (node 0 first), sorting each.
///
/// This is the initial data layout: keys are "already in the node
/// processors" (Section 1), `m = keys.len() / nodes` per node.
///
/// # Panics
///
/// Panics if `keys.len()` is not divisible by `nodes` or `nodes` is zero.
pub fn distribute(keys: &[Key], nodes: usize) -> Vec<Block> {
    assert!(nodes > 0, "at least one node");
    assert_eq!(
        keys.len() % nodes,
        0,
        "{} keys do not divide over {nodes} nodes",
        keys.len()
    );
    let m = keys.len() / nodes;
    keys.chunks(m)
        .map(|chunk| Block::from_unsorted(chunk.to_vec()))
        .collect()
}

/// Concatenates per-node blocks back into one key vector (node 0 first).
pub fn collect(blocks: &[Block]) -> Vec<Key> {
    blocks
        .iter()
        .flat_map(|b| b.keys().iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_sorted() {
        let b = Block::new(vec![1, 2, 2, 9]);
        assert_eq!(b.min(), 1);
        assert_eq!(b.max(), 9);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "requires sorted")]
    fn new_rejects_unsorted() {
        Block::new(vec![2, 1]);
    }

    #[test]
    fn from_unsorted_sorts() {
        let b = Block::from_unsorted(vec![9, -3, 7]);
        assert_eq!(b.keys(), &[-3, 7, 9]);
    }

    #[test]
    fn from_wire_preserves_garbage() {
        let b = Block::from_wire(vec![5, 1]);
        assert!(!b.is_sorted());
        assert_eq!(b.into_keys(), vec![5, 1]);
    }

    #[test]
    fn merge_split_scalar_is_min_max() {
        let x = Block::new(vec![7]);
        let y = Block::new(vec![3]);
        let (low, high) = x.merge_split(&y);
        assert_eq!(low.keys(), &[3]);
        assert_eq!(high.keys(), &[7]);
    }

    #[test]
    fn merge_split_blocks() {
        let x = Block::new(vec![1, 4, 8]);
        let y = Block::new(vec![2, 3, 9]);
        let (low, high) = x.merge_split(&y);
        assert_eq!(low.keys(), &[1, 2, 3]);
        assert_eq!(high.keys(), &[4, 8, 9]);
        assert!(low.is_sorted() && high.is_sorted());
    }

    #[test]
    fn merge_split_with_duplicates() {
        let x = Block::new(vec![2, 2]);
        let y = Block::new(vec![2, 2]);
        let (low, high) = x.merge_split(&y);
        assert_eq!(low.keys(), &[2, 2]);
        assert_eq!(high.keys(), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "equal block sizes")]
    fn merge_split_size_mismatch_panics() {
        Block::new(vec![1]).merge_split(&Block::new(vec![1, 2]));
    }

    #[test]
    fn merge_split_reuse_keeps_allocations() {
        // Uniquely held operands (the S_NR case): they and the scratch trade
        // vectors on every merge, so the steady state is the same four
        // allocations changing hands.
        let mut low = Block::new(vec![1, 4, 8]);
        let mut high = Block::new(vec![2, 3, 9]);
        let mut scratch = MergeScratch::for_block_len(3);
        let storage = |low: &Block, high: &Block, scratch: &MergeScratch| {
            let mut ptrs = [
                low.keys.as_ptr(),
                high.keys.as_ptr(),
                scratch.low.as_ptr(),
                scratch.high.as_ptr(),
            ];
            ptrs.sort_unstable();
            ptrs
        };
        let before = storage(&low, &high, &scratch);
        for _ in 0..4 {
            // The test is the sole holder, so it may refill the operands in
            // place; no other code path writes to a block's keys.
            Arc::get_mut(&mut low.keys)
                .expect("sole holder")
                .copy_from_slice(&[1, 4, 8]);
            Arc::get_mut(&mut high.keys)
                .expect("sole holder")
                .copy_from_slice(&[2, 3, 9]);
            low.merge_split_reuse(&mut high, &mut scratch);
            assert_eq!(low.keys(), &[1, 2, 3]);
            assert_eq!(high.keys(), &[4, 8, 9]);
            assert_eq!(storage(&low, &high, &scratch), before);
        }
    }

    #[test]
    fn merge_split_reuse_never_writes_a_shared_operand() {
        // `published` stands for an LBS entry some peer still holds.
        let mut low = Block::new(vec![1, 4, 8]);
        let mut high = Block::new(vec![2, 3, 9]);
        let published = low.clone();
        assert_eq!(published.keys().as_ptr(), low.keys().as_ptr());
        let high_storage = high.keys().as_ptr();
        let mut scratch = MergeScratch::for_block_len(3);
        low.merge_split_reuse(&mut high, &mut scratch);
        assert_eq!((low.keys(), high.keys()), (&[1, 2, 3][..], &[4, 8, 9][..]));
        // The other holder reads what it always read, from where it always
        // read it; the merged half lives in fresh storage.
        assert_eq!(published.keys(), &[1, 4, 8]);
        assert_ne!(published.keys().as_ptr(), low.keys().as_ptr());
        // The unshared operand alone handed its storage back as scratch.
        assert_eq!(scratch.high.as_ptr(), high_storage);
        assert!(scratch.low.is_empty());
    }

    #[test]
    fn clone_shares_storage_and_into_keys_copies_only_when_shared() {
        let block = Block::new(vec![1, 2, 3]);
        let storage = block.keys().as_ptr();
        let other = block.clone();
        assert_eq!(other.keys().as_ptr(), storage);
        assert_eq!(other, block);
        let copied = other.into_keys();
        assert_ne!(copied.as_ptr(), storage);
        let taken = block.into_keys();
        assert_eq!(taken.as_ptr(), storage);
    }

    #[test]
    fn merge_split_reuse_ordered_pairs_skip_the_merge() {
        let mut scratch = MergeScratch::new();
        // Already split (ties across the boundary included): untouched.
        let (mut low, mut high) = (Block::new(vec![1, 2, 2]), Block::new(vec![2, 5, 6]));
        low.merge_split_reuse(&mut high, &mut scratch);
        assert_eq!((low.keys(), high.keys()), (&[1, 2, 2][..], &[2, 5, 6][..]));
        // Exactly reversed: the blocks trade places.
        let (mut low, mut high) = (Block::new(vec![7, 8, 9]), Block::new(vec![1, 2, 3]));
        low.merge_split_reuse(&mut high, &mut scratch);
        assert_eq!((low.keys(), high.keys()), (&[1, 2, 3][..], &[7, 8, 9][..]));
        // Neither path touched the scratch.
        assert!(scratch.low.is_empty() && scratch.high.is_empty());
        // Empty blocks are trivially ordered.
        let (mut low, mut high) = (Block::default(), Block::default());
        low.merge_split_reuse(&mut high, &mut scratch);
        assert!(low.is_empty() && high.is_empty());
    }

    #[test]
    fn merge_split_reuse_unsorted_operands_keep_their_shape() {
        // What a faulty peer can put on the wire: no order to rely on. The
        // halves are garbage, but there are still `m` keys in each.
        let mut scratch = MergeScratch::new();
        for (a, b) in [
            (vec![5, 1, 9], vec![2, 8, 3]),
            (vec![9, 9, 0], vec![0, 9, 9]),
            (vec![3, 2, 1], vec![6, 5, 4]),
        ] {
            let (mut low, mut high) = (Block::from_wire(a), Block::from_wire(b));
            low.merge_split_reuse(&mut high, &mut scratch);
            assert_eq!((low.len(), high.len()), (3, 3));
        }
    }

    #[test]
    fn block_wire_layout_matches_vec() {
        use aoft_net::wire::{from_bytes, to_bytes};
        let keys = vec![i32::MIN, -7, 0, 42, i32::MAX];
        let block = Block::new({
            let mut k = keys.clone();
            k.sort_unstable();
            k
        });
        // The bulk codec must stay byte-compatible with the generic
        // element-wise `Vec<Key>` encoding.
        assert_eq!(to_bytes(&block), to_bytes(&keys));
        let decoded: Block = from_bytes(&to_bytes(&block)).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn block_wire_hostile_length_rejected() {
        use aoft_net::wire::from_bytes;
        // A 4-billion-key claim backed by no bytes must fail fast.
        assert!(from_bytes::<Block>(&u32::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn merge_split_cost_counts() {
        assert_eq!(Block::merge_split_cost(4), (8, 8));
    }

    #[test]
    fn distribute_and_collect_round_trip() {
        let keys = vec![9, 1, 5, 3, 8, 2, 7, 4];
        let blocks = distribute(&keys, 4);
        assert_eq!(blocks.len(), 4);
        assert!(blocks.iter().all(|b| b.len() == 2 && b.is_sorted()));
        // Collect returns each node's sorted chunk in node order.
        assert_eq!(collect(&blocks), vec![1, 9, 3, 5, 2, 8, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn distribute_requires_divisibility() {
        distribute(&[1, 2, 3], 2);
    }

    #[test]
    fn from_iterator_sorts() {
        let b: Block = [3, 1, 2].into_iter().collect();
        assert_eq!(b.keys(), &[1, 2, 3]);
    }

    #[test]
    fn display() {
        assert_eq!(Block::new(vec![1, 2]).to_string(), "[1, 2]");
    }
}
