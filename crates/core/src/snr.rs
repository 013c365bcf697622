//! `S_NR`: the non-redundant distributed bitonic sort of Figure 2.
//!
//! The baseline the fault-tolerant algorithm is measured against: the same
//! exchange schedule, bare data messages, no checking of any kind. Under
//! fault injection it can hang (omission faults) or silently return a wrong
//! result (data faults) — exactly the behaviours the paper's Section 4
//! coverage analysis contrasts `S_FT` with.

use aoft_sim::{NodeCtx, Program, SimError};

use crate::block::MergeScratch;
use crate::{subcube_ascending, Block, Msg};
use aoft_hypercube::Subcube;

/// Returns the number of comparisons charged for locally sorting `m` keys
/// (`m · ⌈log₂ m⌉`, the block variant's per-node presort).
pub(crate) fn local_sort_compares(m: usize) -> usize {
    if m <= 1 {
        0
    } else {
        m * (usize::BITS - (m - 1).leading_zeros()) as usize
    }
}

pub(crate) fn take_data(msg: Msg) -> Block {
    match msg {
        Msg::Data(block) => block,
        Msg::Tagged { data, .. } => data,
        // Garbage in, garbage out: S_NR performs no validation.
        Msg::Lbs(_) => Block::from_wire(Vec::new()),
    }
}

/// The `S_NR` node program: one compare-exchange (merge-split for blocks)
/// per `(i, j)` step, `n(n+1)/2` steps in total, `O(log₂² N)` parallel time.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::Hypercube;
/// use aoft_sim::{Engine, SimConfig};
/// use aoft_sort::{block, SnrProgram};
///
/// let engine = Engine::new(Hypercube::new(2)?, SimConfig::default());
/// let program = SnrProgram::new(block::distribute(&[7, 1, 9, 4], 4));
/// let outputs = engine.run(&program).into_outputs().expect("honest run");
/// assert_eq!(block::collect(&outputs), vec![1, 4, 7, 9]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnrProgram {
    blocks: Vec<Block>,
}

impl SnrProgram {
    /// Creates the program from one initial block per node (node 0 first).
    ///
    /// Blocks must all have the same (nonzero) size; they are the "data
    /// already in the node processors" of Section 1.
    ///
    /// # Panics
    ///
    /// Panics if blocks are empty or unequally sized.
    pub fn new(blocks: Vec<Block>) -> Self {
        assert!(!blocks.is_empty(), "at least one node's data required");
        let m = blocks[0].len();
        assert!(m > 0, "blocks must be non-empty");
        assert!(
            blocks.iter().all(|b| b.len() == m),
            "all blocks must hold the same number of keys"
        );
        Self { blocks }
    }

    /// Initial block of `node`.
    pub(crate) fn input(&self, node: aoft_hypercube::NodeId) -> &Block {
        &self.blocks[node.index()]
    }

    /// Keys per node.
    pub fn block_len(&self) -> usize {
        self.blocks[0].len()
    }
}

impl Program<Msg> for SnrProgram {
    type Output = Block;

    fn run(&self, ctx: &mut NodeCtx<'_, Msg>) -> Result<Block, SimError> {
        let me = ctx.id();
        let n = ctx.dim();
        let mut a = self.blocks[me.index()].clone();
        let m = a.len();
        let mut merge = MergeScratch::for_block_len(m);
        ctx.charge_compares(local_sort_compares(m));

        for i in 0..n {
            let ascending = subcube_ascending(Subcube::home(i + 1, me));
            for j in (0..=i).rev() {
                let partner = me.neighbor(j);
                if me.is_low_end(j) {
                    // Active node: receive, compare-exchange, return the
                    // other half (Figure 2's lower branch).
                    let mut data = take_data(ctx.recv_from(partner)?);
                    let (compares, moves) = Block::merge_split_cost(m);
                    ctx.charge_compares(compares);
                    ctx.charge_moves(moves);
                    a.merge_split_reuse(&mut data, &mut merge);
                    if !ascending {
                        std::mem::swap(&mut a, &mut data);
                    }
                    ctx.send(partner, Msg::Data(data))?;
                } else {
                    // Inactive this iteration: ship our value, take what
                    // comes back (Figure 2's else branch). The block is
                    // moved, so the partner is its only holder and merges
                    // through its scratch without allocating.
                    ctx.send(partner, Msg::Data(std::mem::take(&mut a)))?;
                    a = take_data(ctx.recv_from(partner)?);
                }
            }
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use aoft_hypercube::Hypercube;
    use aoft_sim::{CostModel, Engine, SimConfig};

    use super::*;
    use crate::block;

    fn engine(dim: u32) -> Engine {
        Engine::new(
            Hypercube::new(dim).unwrap(),
            SimConfig::new()
                .cost_model(CostModel::unit())
                .recv_timeout(std::time::Duration::from_millis(500)),
        )
    }

    fn run_sort(keys: &[i32], dim: u32) -> Vec<i32> {
        let nodes = 1usize << dim;
        let program = SnrProgram::new(block::distribute(keys, nodes));
        let outputs = engine(dim)
            .run(&program)
            .into_outputs()
            .expect("honest run completes");
        block::collect(&outputs)
    }

    #[test]
    fn sorts_paper_example() {
        assert_eq!(
            run_sort(&[10, 8, 3, 9, 4, 2, 7, 5], 3),
            vec![2, 3, 4, 5, 7, 8, 9, 10]
        );
    }

    #[test]
    fn sorts_various_cube_sizes() {
        for dim in 0..=5u32 {
            let nodes = 1usize << dim;
            let keys: Vec<i32> = (0..nodes as i32).map(|x| (x * 31 + 17) % 50 - 25).collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            assert_eq!(run_sort(&keys, dim), expected, "dim {dim}");
        }
    }

    #[test]
    fn sorts_blocks() {
        let keys: Vec<i32> = (0..32).map(|x| (x * 13 + 5) % 40).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(run_sort(&keys, 3), expected, "m = 4 per node");
    }

    #[test]
    fn sorts_duplicates_and_negatives() {
        assert_eq!(
            run_sort(&[-3, 7, -3, 0, 7, 7, -9, 0], 3),
            vec![-9, -3, -3, 0, 0, 7, 7, 7]
        );
    }

    #[test]
    fn already_sorted_and_reversed() {
        let sorted: Vec<i32> = (0..16).collect();
        assert_eq!(run_sort(&sorted, 4), sorted);
        let reversed: Vec<i32> = (0..16).rev().collect();
        assert_eq!(run_sort(&reversed, 4), sorted);
    }

    #[test]
    fn message_count_matches_schedule() {
        // Every node sends exactly one message per (i, j) step:
        // sum_{i=0}^{n-1} (i+1) = n(n+1)/2.
        let dim = 3;
        let program = SnrProgram::new(block::distribute(&(0..8).collect::<Vec<i32>>(), 8));
        let report = engine(dim).run(&program);
        for metrics in &report.metrics().nodes {
            assert_eq!(metrics.msgs_sent, 3 * 4 / 2);
        }
    }

    #[test]
    #[should_panic(expected = "same number of keys")]
    fn unequal_blocks_rejected() {
        SnrProgram::new(vec![Block::new(vec![1]), Block::new(vec![1, 2])]);
    }

    #[test]
    fn local_sort_charge_formula() {
        assert_eq!(local_sort_compares(1), 0);
        assert_eq!(local_sort_compares(2), 2);
        assert_eq!(local_sort_compares(8), 24);
    }
}
