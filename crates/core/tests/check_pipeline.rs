//! A sequential, thread-free reference execution of the S_FT checking
//! pipeline: simulate the stage schedule in memory for arbitrary inputs and
//! machine sizes and assert that every `bit_compare` an honest run performs
//! passes — the lag-one verification discipline, isolated from the
//! simulator.

use aoft_hypercube::{NodeId, Subcube};
use aoft_sort::predicates::{bit_compare_final_with, bit_compare_stage, PredicateScratch};
use aoft_sort::{block, subcube_ascending, Block, LbsBuffer, Violation};
use proptest::prelude::*;

/// Runs the bitonic schedule in memory, maintaining per-stage value
/// snapshots, and exercises every node's stage-end and final checks.
fn run_pipeline(keys: Vec<i32>, nodes: usize) -> Result<(), String> {
    let m = keys.len() / nodes;
    let n = nodes.trailing_zeros();
    let mut blocks = block::distribute(&keys, nodes);

    // V_s snapshots: values at the start of each stage.
    let mut snapshots: Vec<Vec<Block>> = vec![blocks.clone()];
    for stage in 0..n {
        // One stage = a full sort of each SC_{stage+1} in its direction.
        let span = 1usize << (stage + 1);
        for start in (0..nodes).step_by(span) {
            let sub = Subcube::home(stage + 1, NodeId::new(start as u32));
            let mut flat: Vec<i32> = blocks[start..start + span]
                .iter()
                .flat_map(|b| b.keys().iter().copied())
                .collect();
            flat.sort_unstable();
            if !subcube_ascending(sub) {
                flat.reverse();
            }
            for (off, chunk) in flat.chunks(m).enumerate() {
                // Blocks stay internally ascending even in descending
                // regions.
                blocks[start + off] = Block::from_unsorted(chunk.to_vec());
            }
        }
        snapshots.push(blocks.clone());
    }

    // Stage-end checks: at the end of stage s ≥ 1, every node holds
    // LBS = V_s over SC_{s+1} and LLBS = V_{s-1} over SC_s.
    let to_buffer = |values: &[Block]| {
        let mut buf = LbsBuffer::new(nodes, m as u32);
        for (i, b) in values.iter().enumerate() {
            buf.set(NodeId::new(i as u32), b.clone());
        }
        buf
    };
    for stage in 1..n {
        let lbs = to_buffer(&snapshots[stage as usize]);
        let llbs = to_buffer(&snapshots[stage as usize - 1]);
        for node in 0..nodes as u32 {
            bit_compare_stage(&lbs, &llbs, NodeId::new(node), stage)
                .map_err(|v| format!("stage {stage}, node {node}: {v}"))?;
        }
    }
    // Final check: V_n (the output) vs V_{n-1} over the whole cube.
    if n > 0 {
        let lbs = to_buffer(&snapshots[n as usize]);
        let llbs = to_buffer(&snapshots[n as usize - 1]);
        for node in 0..nodes as u32 {
            bit_compare_final_with(
                &lbs,
                &llbs,
                NodeId::new(node),
                n,
                &mut PredicateScratch::new(),
            )
            .map_err(|v| format!("final, node {node}: {v}"))?;
        }
    }

    // And the output really is the sort.
    let mut expected = keys;
    expected.sort_unstable();
    let got = block::collect(&snapshots[n as usize]);
    if got != expected {
        return Err(format!("output {got:?} != {expected:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn honest_pipeline_never_trips_a_check(
        dim in 1u32..6,
        m in prop::sample::select(vec![1usize, 2, 3, 8]),
        seed in any::<u64>(),
    ) {
        let nodes = 1usize << dim;
        let mut state = seed | 1;
        let keys: Vec<i32> = (0..nodes * m)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as i32) % 1000
            })
            .collect();
        prop_assert_eq!(run_pipeline(keys, nodes), Ok(()));
    }

    #[test]
    fn honest_pipeline_with_heavy_duplicates(
        dim in 1u32..5,
        seed in any::<u64>(),
    ) {
        let nodes = 1usize << dim;
        let keys: Vec<i32> = (0..nodes * 4)
            .map(|i| ((seed as usize + i) % 3) as i32)
            .collect();
        prop_assert_eq!(run_pipeline(keys, nodes), Ok(()));
    }
}

#[test]
fn pipeline_catches_a_planted_corruption() {
    // Sanity check that the reference pipeline is not vacuous: corrupting
    // a snapshot must trip a check.
    let nodes = 8;
    let keys: Vec<i32> = (0..8).rev().collect();
    let m = 1;
    let n = 3u32;
    let mut blocks = block::distribute(&keys, nodes);
    let mut snapshots = vec![blocks.clone()];
    for stage in 0..n {
        let span = 1usize << (stage + 1);
        for start in (0..nodes).step_by(span) {
            let sub = Subcube::home(stage + 1, NodeId::new(start as u32));
            let mut flat: Vec<i32> = blocks[start..start + span]
                .iter()
                .flat_map(|b| b.keys().iter().copied())
                .collect();
            flat.sort_unstable();
            if !subcube_ascending(sub) {
                flat.reverse();
            }
            for (off, chunk) in flat.chunks(m).enumerate() {
                blocks[start + off] = Block::from_unsorted(chunk.to_vec());
            }
        }
        snapshots.push(blocks.clone());
    }
    // Corrupt V_2's entry for node 3.
    snapshots[2][3] = Block::new(vec![999]);
    let to_buffer = |values: &[Block]| {
        let mut buf = LbsBuffer::new(nodes, 1);
        for (i, b) in values.iter().enumerate() {
            buf.set(NodeId::new(i as u32), b.clone());
        }
        buf
    };
    let lbs = to_buffer(&snapshots[2]);
    let llbs = to_buffer(&snapshots[1]);
    let tripped =
        (0..nodes as u32).any(|node| bit_compare_stage(&lbs, &llbs, NodeId::new(node), 2).is_err());
    assert!(tripped, "somebody must notice the planted 999");
}

#[test]
fn block_scale_final_check_rejects_one_corrupted_key() {
    // d = 3, m = 4096: the final check of a `large_*` job. The output is
    // the even numbers 0, 2, 4, …; entering the last stage the low half of
    // the cube held the keys at positions ≡ 0, 3 (mod 4) and the high half
    // the rest, so the two runs Φ_F walks interleave at key granularity.
    // Adding 1 to any one key keeps the output sorted (Φ_P passes) and
    // changes the multiset by one key, which only Φ_F can see.
    const NODES: usize = 8;
    const M: usize = 4096;
    const N: usize = NODES * M;
    let output: Vec<i32> = (0..N as i32).map(|k| 2 * k).collect();
    let (low, high): (Vec<i32>, Vec<i32>) =
        output.iter().partition(|&&k| matches!(k / 2 % 4, 0 | 3));
    assert_eq!(low.len(), N / 2);

    let mut llbs = LbsBuffer::new(NODES, M as u32);
    for (node, chunk) in low.chunks(M).enumerate() {
        llbs.set(NodeId::new(node as u32), Block::new(chunk.to_vec()));
    }
    for (from_top, chunk) in high.chunks(M).enumerate() {
        // The high half is descending at block granularity.
        let node = NODES - 1 - from_top;
        llbs.set(NodeId::new(node as u32), Block::new(chunk.to_vec()));
    }
    let to_lbs = |keys: &[i32]| {
        let mut lbs = LbsBuffer::new(NODES, M as u32);
        for (node, chunk) in keys.chunks(M).enumerate() {
            lbs.set(NodeId::new(node as u32), Block::new(chunk.to_vec()));
        }
        lbs
    };

    let me = NodeId::new(5);
    let mut scratch = PredicateScratch::for_machine(NODES, M as u32);
    assert_eq!(
        bit_compare_final_with(&to_lbs(&output), &llbs, me, 3, &mut scratch),
        Ok(())
    );

    // The ends, the two cursors' meeting point, and a sweep that lands on
    // both sides of every round boundary of the walk.
    let mut positions = vec![0, N - 1, N / 2 - 1, N / 2, N / 2 + 1];
    positions.extend((0..N).step_by(509));
    for pos in positions {
        let mut corrupted = output.clone();
        corrupted[pos] += 1;
        assert_eq!(
            bit_compare_final_with(&to_lbs(&corrupted), &llbs, me, 3, &mut scratch),
            Err(Violation::NotPermutation { stage: 3 }),
            "key {pos} of {N}"
        );
    }
}
