//! The sequential host baselines of Section 5.
//!
//! The paper weighs `S_FT` against two host-centred alternatives:
//!
//! * `sequential` — "send all the data to the host, let the host sort the
//!   data, and return the final result to the node processors": `O(N)`
//!   communication over the (expensive) host links plus the theoretical
//!   minimum `N·log₂N` host comparisons;
//! * `verified` — "send all the data to the host, sort the data in the
//!   node processors, and send the results to the host for verification":
//!   the nodes run `S_NR` while the host applies Theorem 1 afterwards.
//!
//! Both make the host a bottleneck and pay `O(N)` transfer, which is what
//! the projections of Figures 6–8 show `S_FT` escaping.

use aoft_sim::{AdversarySet, HostCtx, NodeCtx, Program, RunReport, SimError, Simulator};

use crate::snr::take_data;
use crate::theorem1;
use crate::{Block, Key, Msg, SnrProgram, Violation};

fn check_blocks<E: Simulator<Msg>>(blocks: &[Block], engine: &E) {
    assert_eq!(
        blocks.len(),
        engine.cube().len(),
        "one block per node required"
    );
    let m = blocks[0].len();
    assert!(m > 0, "blocks must be non-empty");
    assert!(
        blocks.iter().all(|b| b.len() == m),
        "all blocks must hold the same number of keys"
    );
}

/// Node half of the gather–sort–scatter baseline.
struct UploadDownload {
    blocks: Vec<Block>,
}

impl Program<Msg> for UploadDownload {
    type Output = Block;

    fn run(&self, ctx: &mut NodeCtx<'_, Msg>) -> Result<Block, SimError> {
        ctx.send_host(Msg::Data(self.blocks[ctx.id().index()].clone()))?;
        Ok(take_data(ctx.recv_host()?))
    }
}

/// The host-sequential sorting baseline: upload everything, sort on the
/// host, download the result.
///
/// The host sort is charged the theoretical minimum `N·log₂N` comparisons
/// (the paper implements it "as a single if statement executed N·log₂N
/// times"); transfers pay the host-link α/β of the engine's cost model.
///
/// # Panics
///
/// Panics if `blocks` does not supply exactly one equally-sized, non-empty
/// block per node.
pub(crate) fn sequential<E: Simulator<Msg>>(engine: &E, blocks: Vec<Block>) -> RunReport<Block> {
    check_blocks(&blocks, engine);
    let nodes = engine.cube().len();
    let m = blocks[0].len();
    let program = UploadDownload { blocks };
    let (report, ()) = engine.run_with_host(
        &program,
        AdversarySet::honest(nodes),
        |host: &mut HostCtx<'_, Msg>| {
            let Ok(uploads) = host.gather() else {
                host.signal_error(0, "host gather failed");
                return;
            };
            let mut keys: Vec<Key> = uploads
                .into_iter()
                .flat_map(|msg| match msg {
                    Msg::Data(b) => b.into_keys(),
                    other => panic!("nodes upload bare data, got {other:?}"),
                })
                .collect();
            host.charge_compares(theorem1::verification_compares(keys.len()) - keys.len());
            keys.sort_unstable();
            let sorted: Vec<Msg> = keys
                .chunks(m)
                .map(|chunk| Msg::Data(Block::new(chunk.to_vec())))
                .collect();
            if host.scatter(sorted).is_err() {
                host.signal_error(0, "host scatter failed");
            }
        },
    );
    report
}

/// Node half of the host-verified baseline: upload the input, sort with
/// `S_NR`, upload the result.
struct SortAndUpload {
    snr: SnrProgram,
}

impl Program<Msg> for SortAndUpload {
    type Output = Block;

    fn run(&self, ctx: &mut NodeCtx<'_, Msg>) -> Result<Block, SimError> {
        ctx.send_host(Msg::Data(self.snr.input(ctx.id()).clone()))?;
        let sorted = self.snr.run(ctx)?;
        ctx.send_host(Msg::Data(sorted.clone()))?;
        Ok(sorted)
    }
}

/// The host-verified baseline: nodes sort with (unreliable) `S_NR` while
/// the host collects both the input and the output and applies Theorem 1.
///
/// Detection is centralized and strictly post-hoc — the comparison point
/// for `S_FT`'s distributed, incremental checking. The run fail-stops with
/// [`Violation::OutputRejected`] if verification fails.
///
/// `adversaries` lets the coverage campaign inject faults into the `S_NR`
/// phase; host links stay reliable per environmental assumption 2.
///
/// # Panics
///
/// Panics if `blocks` does not supply exactly one equally-sized, non-empty
/// block per node.
pub(crate) fn verified<E: Simulator<Msg>>(
    engine: &E,
    blocks: Vec<Block>,
    adversaries: AdversarySet<Msg>,
) -> RunReport<Block> {
    check_blocks(&blocks, engine);
    let program = SortAndUpload {
        snr: SnrProgram::new(blocks),
    };
    let (report, ()) = engine.run_with_host(&program, adversaries, |host| {
        let mut input: Vec<Key> = Vec::new();
        let mut output: Vec<Key> = Vec::new();
        for node in engine.cube().nodes() {
            match host.recv_from(node) {
                Ok(msg) => input.extend(take_data(msg).into_keys()),
                Err(_) => {
                    let v = Violation::MessageLost { from: node };
                    host.signal_error(v.code(), v.to_string());
                    return;
                }
            }
        }
        for node in engine.cube().nodes() {
            match host.recv_from(node) {
                Ok(msg) => output.extend(take_data(msg).into_keys()),
                Err(_) => {
                    let v = Violation::MessageLost { from: node };
                    host.signal_error(v.code(), v.to_string());
                    return;
                }
            }
        }
        host.charge_compares(theorem1::verification_compares(input.len()));
        if let Err(failure) = theorem1::verify(&input, &output) {
            let v = Violation::OutputRejected;
            host.signal_error(v.code(), format!("{v}: {failure}"));
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use aoft_hypercube::{Hypercube, NodeId};
    use aoft_sim::{CostModel, Engine, SimConfig};

    use super::*;
    use crate::block;

    /// Fully sorted keys from a completed baseline run.
    fn sorted_keys(report: RunReport<Block>) -> Vec<Key> {
        let outputs = report
            .into_outputs()
            .expect("run completed; check reports() before collecting");
        block::collect(&outputs)
    }

    fn engine(dim: u32) -> Engine {
        Engine::new(
            Hypercube::new(dim).unwrap(),
            SimConfig::new()
                .cost_model(CostModel::unit())
                .recv_timeout(std::time::Duration::from_millis(500)),
        )
    }

    #[test]
    fn sequential_sorts() {
        let keys = vec![9, -2, 7, 0, 5, 5, -8, 3];
        let report = sequential(&engine(3), block::distribute(&keys, 8));
        let mut expected = keys;
        expected.sort_unstable();
        assert_eq!(sorted_keys(report), expected);
    }

    #[test]
    fn sequential_blocks() {
        let keys: Vec<i32> = (0..32).map(|x| (x * 19 + 7) % 23).collect();
        let report = sequential(&engine(2), block::distribute(&keys, 4));
        let mut expected = keys;
        expected.sort_unstable();
        assert_eq!(sorted_keys(report), expected);
    }

    #[test]
    fn sequential_charges_host_time() {
        let keys: Vec<i32> = (0..16).collect();
        let report = sequential(&engine(4), block::distribute(&keys, 16));
        let host = report.metrics().host;
        assert_eq!(host.msgs_received, 16);
        assert_eq!(host.msgs_sent, 16);
        assert!(
            host.compute_time > aoft_sim::Ticks::ZERO,
            "host sort charged"
        );
    }

    #[test]
    fn verified_passes_honest_run() {
        let keys = vec![4, 8, 1, 6, 3, 7, 2, 5];
        let nodes = keys.len();
        let report = verified(
            &engine(3),
            block::distribute(&keys, nodes),
            AdversarySet::honest(nodes),
        );
        let mut expected = keys;
        expected.sort_unstable();
        assert_eq!(sorted_keys(report), expected);
    }

    #[test]
    fn verified_catches_corruption() {
        use aoft_faults::{FaultKind, FaultPlan, Trigger};
        let keys = vec![4, 8, 1, 6, 3, 7, 2, 5];
        let plan = FaultPlan::new().with_fault(
            NodeId::new(2),
            FaultKind::CorruptValue,
            // seq 0 is the initial host upload (reliable, bypasses the
            // adversary); later sends are S_NR exchanges.
            Trigger::from_seq(1),
            3,
        );
        let report = verified(&engine(3), block::distribute(&keys, 8), plan.build(8));
        assert!(report.is_fail_stop(), "host verification must reject");
        let primary = &report.reports()[0];
        assert_eq!(primary.code, Violation::OutputRejected.code());
        assert_eq!(primary.detector, aoft_sim::HOST_ID);
    }

    #[test]
    #[should_panic(expected = "one block per node")]
    fn wrong_block_count_panics() {
        sequential(&engine(2), block::distribute(&[1, 2], 2));
    }
}
