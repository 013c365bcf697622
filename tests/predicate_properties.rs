//! Property-based tests of the constraint-predicate building blocks: the
//! invariants the correctness argument (Lemmas 1–6) rests on.

use aoft::adv::FrameInjector;
use aoft::faults::{Corruptible, FaultKind, FaultPlan, Trigger};
use aoft::hypercube::{NodeId, Subcube};
use aoft::net::wire::{from_bytes, to_bytes};
use aoft::net::LinkId;
use aoft::sim::Ticks;
use aoft::sort::predicates::{
    is_merge_of, phi_c, vect_mask, vect_mask_before, vect_mask_recursive,
};
use aoft::sort::{bitonic, Block, LbsBuffer, LbsWire, MergeScratch, Msg};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `is_merge_of` is exactly multiset equality for sorted inputs.
    #[test]
    fn merge_of_iff_multiset_equal(
        mut a in prop::collection::vec(-50i32..50, 0..20),
        mut b in prop::collection::vec(-50i32..50, 0..20),
        shuffle_seed in any::<u64>(),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        // True merge: must pass.
        let mut target: Vec<i32> = a.iter().chain(b.iter()).copied().collect();
        target.sort_unstable();
        prop_assert!(is_merge_of(&target, &a, &b));

        // Perturb one element: must fail (multiset changed).
        if !target.is_empty() {
            let idx = (shuffle_seed as usize) % target.len();
            let mut bad = target.clone();
            bad[idx] = bad[idx].wrapping_add(1);
            bad.sort_unstable();
            prop_assert!(!is_merge_of(&bad, &a, &b));
        }
    }

    /// Lemma 1: one compare-exchange sweep splits a bitonic sequence into
    /// two bitonic halves with every low element ≤ every high element.
    #[test]
    fn half_clean_lemma1(
        rise in prop::collection::vec(-100i32..100, 1..17),
        fall in prop::collection::vec(-100i32..100, 1..16),
    ) {
        // Build a bitonic sequence of power-of-two length.
        let mut seq: Vec<i32> = Vec::new();
        let mut rise = rise;
        rise.sort_unstable();
        let mut fall = fall;
        fall.sort_unstable();
        fall.reverse();
        seq.extend(&rise);
        seq.extend(&fall);
        let len = seq.len().next_power_of_two();
        let pad = seq.last().copied().unwrap_or(0);
        while seq.len() < len {
            seq.push(pad.saturating_sub(1).max(i32::MIN + 1) - 1);
        }
        prop_assume!(bitonic::is_bitonic(&seq));

        bitonic::half_clean(&mut seq, true);
        let half = seq.len() / 2;
        {
            // The halves are bitonic in the circular sense (the invariant
            // the recursion actually needs) and bound each other.
            let (low, high) = seq.split_at(half);
            prop_assert!(bitonic::is_circular_bitonic(low), "{low:?}");
            prop_assert!(bitonic::is_circular_bitonic(high), "{high:?}");
            let max_low = low.iter().max().unwrap();
            let min_high = high.iter().min().unwrap();
            prop_assert!(max_low <= min_high);
        }
        // And recursive merging finishes the sort.
        let mut expected = seq.clone();
        expected.sort_unstable();
        bitonic::bitonic_merge(&mut seq[..half], true);
        bitonic::bitonic_merge(&mut seq[half..], true);
        prop_assert_eq!(seq, expected);
    }

    /// The bitonic network sorts any input (oblivious correctness).
    #[test]
    fn bitonic_sort_oracle(
        mut keys in prop::collection::vec(any::<i32>(), 0..7)
            .prop_map(|mut v| { v.resize(v.len().next_power_of_two().max(1), 0); v }),
        ascending in any::<bool>(),
    ) {
        let mut expected = keys.clone();
        expected.sort_unstable();
        if !ascending {
            expected.reverse();
        }
        bitonic::bitonic_sort(&mut keys, ascending);
        prop_assert_eq!(keys, expected);
    }

    /// Lemma 3: the closed-form `vect_mask` equals the paper's recursion.
    #[test]
    fn vect_mask_closed_equals_recursive(
        stage in 0u32..6,
        step_off in 0u32..6,
        node_raw in 0u32..64,
    ) {
        let step = step_off.min(stage);
        let node = NodeId::new(node_raw);
        prop_assert_eq!(
            vect_mask(64, stage, step, node),
            vect_mask_recursive(64, stage, step, node)
        );
    }

    /// The holdings mask is always confined to the stage's home subcube and
    /// grows monotonically as the exchange descends the dimensions.
    #[test]
    fn vect_mask_confined_and_monotone(
        stage in 0u32..6,
        node_raw in 0u32..64,
    ) {
        let node = NodeId::new(node_raw);
        let home = Subcube::home(stage + 1, node);
        let mut previous = vect_mask_before(64, stage, stage, node);
        for step in (0..=stage).rev() {
            let after = vect_mask(64, stage, step, node);
            prop_assert!(previous.is_subset_of(&after));
            for member in after.iter() {
                prop_assert!(home.contains(member));
            }
            if step > 0 {
                prop_assert_eq!(vect_mask_before(64, stage, step - 1, node), after.clone());
            }
            previous = after;
        }
        prop_assert_eq!(previous.len(), home.len(), "full coverage at step 0");
    }

    /// Merge-split conserves the multiset and orders the halves.
    #[test]
    fn merge_split_conserves_and_orders(
        a in prop::collection::vec(any::<i32>(), 1..32),
        b_seed in any::<u64>(),
    ) {
        let m = a.len();
        let b: Vec<i32> = a
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_add(((b_seed >> (i % 48)) & 0xFF) as i32 - 128))
            .collect();
        let block_a = Block::from_unsorted(a.clone());
        let block_b = Block::from_unsorted(b.clone());
        let (low, high) = block_a.merge_split(&block_b);

        prop_assert_eq!(low.len(), m);
        prop_assert_eq!(high.len(), m);
        prop_assert!(low.is_sorted());
        prop_assert!(high.is_sorted());
        prop_assert!(low.max() <= high.min());

        let mut merged: Vec<i32> = low.keys().iter().chain(high.keys()).copied().collect();
        merged.sort_unstable();
        let mut all: Vec<i32> = a.into_iter().chain(b).collect();
        all.sort_unstable();
        prop_assert_eq!(merged, all);
    }
}

/// Maps raw draws into one of the key domains the kernels must be exact
/// on, ascending: heavy ties (0..8), two disjoint ranges (`high` picks the
/// upper), the extremes of `Key`, or a wide range.
fn sorted_run(shape: u8, high: bool, raw: &[u32]) -> Vec<i32> {
    const EXTREMES: [i32; 7] = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
    let mut run: Vec<i32> = raw
        .iter()
        .map(|&r| match shape {
            0 => (r % 8) as i32,
            1 => (r % 100) as i32 + if high { 1000 } else { 0 },
            2 => EXTREMES[r as usize % EXTREMES.len()],
            _ => (r % 2001) as i32 - 1000,
        })
        .collect();
    run.sort_unstable();
    run
}

/// The definition `is_merge_of` must agree with on ascending runs.
fn sorted_concat(a: &[i32], b: &[i32]) -> Vec<i32> {
    let mut all = [a, b].concat();
    all.sort_unstable();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `is_merge_of(t, a, b)` ≡ `sorted(a ++ b) == t` — ties, empty and
    /// one-sided runs, disjoint ranges, odd and even lengths, `Key::MIN` /
    /// `Key::MAX`, long enough for several two-cursor rounds.
    #[test]
    fn merge_of_equals_sort_reference(
        shape in 0u8..4,
        sides in 0u8..6,
        raw_a in prop::collection::vec(any::<u32>(), 0..90),
        raw_b in prop::collection::vec(any::<u32>(), 0..90),
        raw_t in prop::collection::vec(any::<u32>(), 0..180),
    ) {
        let a = sorted_run(shape, false, if sides == 0 { &[] } else { &raw_a });
        let b = sorted_run(shape, true, if sides == 1 { &[] } else { &raw_b });
        let merged = sorted_concat(&a, &b);
        prop_assert!(is_merge_of(&merged, &a, &b));
        prop_assert!(is_merge_of(&merged, &b, &a));

        // An unrelated ascending candidate of the right length, from the
        // same key domain: accepted exactly when it happens to be the merge.
        let mut other = raw_t;
        other.resize(merged.len(), 3);
        let other = sorted_run(shape, sides % 2 == 0, &other);
        prop_assert_eq!(is_merge_of(&other, &a, &b), other == merged);
    }

    /// Every single mutation of an accepted target is judged as the
    /// reference judges it — and each one that changes the multiset or a
    /// length is rejected, wherever in the walk it lands.
    #[test]
    fn merge_of_rejects_every_single_mutation(
        shape in 0u8..4,
        raw_a in prop::collection::vec(any::<u32>(), 1..40),
        raw_b in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let a = sorted_run(shape, false, &raw_a);
        let b = sorted_run(shape, true, &raw_b);
        let merged = sorted_concat(&a, &b);
        let n = merged.len();

        for i in 0..n {
            // One key bumped up or down, the target still ascending.
            let next = merged.get(i + 1).copied().unwrap_or(i32::MAX);
            if merged[i] < next {
                let mut bad = merged.clone();
                bad[i] += 1;
                prop_assert!(!is_merge_of(&bad, &a, &b), "bump up at {i}");
            }
            let prev = if i == 0 { i32::MIN } else { merged[i - 1] };
            if merged[i] > prev {
                let mut bad = merged.clone();
                bad[i] -= 1;
                prop_assert!(!is_merge_of(&bad, &a, &b), "bump down at {i}");
            }
            // One key duplicated over its neighbour.
            if i + 1 < n && merged[i] != merged[i + 1] {
                let mut bad = merged.clone();
                bad[i] = merged[i + 1];
                prop_assert!(!is_merge_of(&bad, &a, &b), "right neighbour over {i}");
                bad[i] = merged[i];
                bad[i + 1] = merged[i];
                prop_assert!(!is_merge_of(&bad, &a, &b), "{i} over right neighbour");
            }
        }

        // One element moved between the runs. Re-inserted in order the
        // union is intact, so the target is still their merge; left at the
        // far end it (usually) breaks the run's order, which an ascending
        // target cannot be a merge of.
        for i in 0..a.len() {
            let mut fewer = a.clone();
            let moved = fewer.remove(i);
            let mut more = b.clone();
            more.insert(more.partition_point(|&k| k < moved), moved);
            prop_assert!(is_merge_of(&merged, &fewer, &more), "a[{i}] into b");
            prop_assert!(is_merge_of(&merged, &more, &fewer), "a[{i}] into b, swapped");

            let mut appended = b.clone();
            appended.push(moved);
            let still_sorted = appended.windows(2).all(|w| w[0] <= w[1]);
            prop_assert_eq!(is_merge_of(&merged, &fewer, &appended), still_sorted);
            prop_assert_eq!(is_merge_of(&merged, &appended, &fewer), still_sorted);
        }

        // A length off by one, on any of the three sequences.
        let mut longer = merged.clone();
        longer.push(*merged.last().unwrap());
        prop_assert!(!is_merge_of(&longer, &a, &b));
        prop_assert!(!is_merge_of(&merged[1..], &a, &b));
        prop_assert!(!is_merge_of(&merged[..n - 1], &a, &b));
        prop_assert!(!is_merge_of(&merged, &a[1..], &b));
        prop_assert!(!is_merge_of(&merged, &a, &b[..b.len() - 1]));
    }

    /// `merge_split_reuse` ≡ sort the concatenation and cut it in half,
    /// through a scratch that has seen other block sizes — including
    /// all-equal blocks (shape 0 at small `m`) and `m = 1`.
    #[test]
    fn merge_split_reuse_equals_sort_concat_split(
        shape in 0u8..4,
        high_first in any::<bool>(),
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 1..48),
        all_equal in 0u8..8,
        published in any::<bool>(),
    ) {
        let (raw_a, raw_b): (Vec<u32>, Vec<u32>) = if all_equal == 0 {
            raw.iter().map(|_| (raw[0].0, raw[0].0)).unzip()
        } else {
            raw.iter().copied().unzip()
        };
        let m = raw_a.len();
        let a = sorted_run(shape, high_first, &raw_a);
        let b = sorted_run(shape, !high_first, &raw_b);
        let expected = sorted_concat(&a, &b);

        let mut scratch = MergeScratch::new();
        // Leave differently-sized buffers behind first.
        let (mut warm_lo, mut warm_hi) = (
            Block::new(vec![1, 3, 5, 7, 9][..(m % 5) + 1].to_vec()),
            Block::new(vec![0, 2, 4, 6, 8][..(m % 5) + 1].to_vec()),
        );
        warm_lo.merge_split_reuse(&mut warm_hi, &mut scratch);

        let (mut low, mut high) = (Block::new(a.clone()), Block::new(b.clone()));
        // Operands some LBS still holds (the first step of a stage) merge
        // to the same halves as operands nobody else holds, and the other
        // holder goes on reading the keys it was given.
        let held = published.then(|| (low.clone(), high.clone()));
        low.merge_split_reuse(&mut high, &mut scratch);
        prop_assert_eq!(low.keys(), &expected[..m]);
        prop_assert_eq!(high.keys(), &expected[m..]);
        if let Some((held_low, held_high)) = held {
            prop_assert_eq!(held_low.keys(), &a[..]);
            prop_assert_eq!(held_high.keys(), &b[..]);
        }

        // Idempotent on its own output, and the allocating form agrees.
        low.merge_split_reuse(&mut high, &mut scratch);
        prop_assert_eq!(low.keys(), &expected[..m]);
        prop_assert_eq!(high.keys(), &expected[m..]);
        let (low, high) = Block::new(b).merge_split(&Block::new(a));
        prop_assert_eq!(low.keys(), &expected[..m]);
        prop_assert_eq!(high.keys(), &expected[m..]);
    }
}

/// The LBS of node 5 late in stage 2 of a d = 3 run — every entry of its
/// span 4..=7 held — and a stage message built from it the way `S_FT`
/// builds one: the operand and every slot are handles to the buffer's own
/// entries.
fn buffer_and_message(entries: &[Vec<i32>]) -> (LbsBuffer, Msg) {
    let m = entries[0].len();
    let mut lbs = LbsBuffer::new(8, m as u32);
    for (offset, keys) in entries.iter().enumerate() {
        lbs.set(
            NodeId::new(4 + offset as u32),
            Block::from_unsorted(keys.clone()),
        );
    }
    let msg = Msg::Tagged {
        data: lbs.get(NodeId::new(5)).expect("own entry").clone(),
        lbs: lbs.to_wire(Subcube::home(2, NodeId::new(5))),
    };
    (lbs, msg)
}

/// The storage address of every block `msg` carries.
fn storage_of(msg: &Msg) -> Vec<*const i32> {
    let (data, lbs) = match msg {
        Msg::Data(data) => (Some(data), None),
        Msg::Tagged { data, lbs } => (Some(data), Some(lbs)),
        Msg::Lbs(lbs) => (None, Some(lbs)),
    };
    data.into_iter()
        .chain(lbs.into_iter().flat_map(|lbs| lbs.slots.iter().flatten()))
        .map(|block| block.keys().as_ptr())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A faulty sender cannot write through a shared block. Whatever a
    /// `Corruptible` method or a frame-level adversary makes of a message,
    /// the message it was handed and the LBS whose storage that message
    /// shares read bit for bit what they read before, from the same
    /// addresses; the lie lives in storage of its own.
    #[test]
    fn faults_never_write_through_shared_storage(
        m in 1usize..6,
        raw in prop::collection::vec(-1000i32..1000, 20..21),
        seed in 0u64..1024,
    ) {
        let entries: Vec<Vec<i32>> = raw.chunks(5).map(|chunk| chunk[..m].to_vec()).collect();
        let (lbs, msg) = buffer_and_message(&entries);
        // What both must still read afterwards: an unaliased copy of the
        // message (through the codec) and the buffer's keys by value.
        let pristine: Msg = from_bytes(&to_bytes(&msg)).expect("honest message decodes");
        let span = Subcube::home(2, NodeId::new(5));
        let keys_before: Vec<Vec<i32>> =
            span.iter().map(|n| lbs.get(n).expect("held").keys().to_vec()).collect();
        let storage_before = storage_of(&msg);
        let buffer_storage: Vec<*const i32> =
            span.iter().map(|n| lbs.get(n).expect("held").keys().as_ptr()).collect();
        prop_assert!(storage_before.iter().all(|ptr| buffer_storage.contains(ptr)));

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut lies = vec![
            msg.corrupt(&mut rng),
            msg.skew(&mut rng),
            msg.skew_own(5, &mut rng),
            msg.corrupt_meta(&mut rng),
        ];
        for lie in &lies {
            prop_assert_ne!(lie, &msg);
        }
        for kind in FaultKind::ALL {
            let plan = FaultPlan::new().with_fault(NodeId::new(5), kind, Trigger::always(), seed);
            let spec = plan.specs().last().expect("plan holds the spec just added");
            let mut injector = FrameInjector::new(spec, LinkId { from: 5, to: 4, tag: 0 });
            for _ in 0..2 {
                let outcome = injector.intercept(&msg, Ticks::ZERO).expect("codec-clean");
                // Off the wire, nothing aliases the sender's memory.
                for delivered in &outcome.deliver {
                    prop_assert!(storage_of(delivered)
                        .iter()
                        .all(|ptr| !buffer_storage.contains(ptr)));
                }
                lies.extend(outcome.deliver);
            }
        }

        prop_assert_eq!(&msg, &pristine);
        prop_assert_eq!(storage_of(&msg), storage_before);
        for (offset, node) in span.iter().enumerate() {
            let entry = lbs.get(node).expect("still held");
            prop_assert_eq!(entry.keys(), &keys_before[offset][..]);
            prop_assert_eq!(entry.keys().as_ptr(), buffer_storage[offset]);
        }
        drop(lies);
    }
}

/// One allocation per entry, from the owner to every holder: the array
/// `to_wire` builds, a clone of the message carrying it, and the LBS that
/// adopts from it all read the keys the owner wrote.
#[test]
fn entries_travel_by_reference() {
    let (lbs, msg) = buffer_and_message(&[vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]]);
    let Msg::Tagged { lbs: wire, .. } = &msg else {
        unreachable!("built as Tagged");
    };
    let span = Subcube::home(2, NodeId::new(5));
    for node in span.iter() {
        assert_eq!(
            wire.get(node).unwrap().keys().as_ptr(),
            lbs.get(node).unwrap().keys().as_ptr(),
            "to_wire slot {node} is the entry itself"
        );
    }
    assert_eq!(storage_of(&msg.clone()), storage_of(&msg));

    // The receiver already holds entry 4 (as an unrelated, equal copy) and
    // adopts 5..=7: the adopted entries are the wire's, the held one stays.
    let mut receiver = LbsBuffer::new(8, 2);
    receiver.set(NodeId::new(4), Block::new(vec![1, 2]));
    let mut incoming: LbsWire = wire.clone();
    let expected = span.to_node_set(8);
    let outcome = phi_c(&mut receiver, &mut incoming, &expected, 2, 0).expect("consistent");
    assert_eq!((outcome.adopted, outcome.compared), (3, 1));
    for node in span.iter().skip(1) {
        assert_eq!(
            receiver.get(node).unwrap().keys().as_ptr(),
            lbs.get(node).unwrap().keys().as_ptr(),
            "adopted entry {node} is the sender's"
        );
        assert!(incoming.get(node).is_none(), "adoption moves the slot out");
    }
    assert_ne!(
        receiver.get(NodeId::new(4)).unwrap().keys().as_ptr(),
        lbs.get(NodeId::new(4)).unwrap().keys().as_ptr()
    );
}

#[test]
fn vect_mask_sizes_match_lemma3() {
    // |vect_mask(i, j)| = 2^{i-j+1}.
    for stage in 0..5u32 {
        for step in 0..=stage {
            let mask = vect_mask(64, stage, step, NodeId::new(37));
            assert_eq!(mask.len(), 1 << (stage - step + 1));
        }
    }
}
