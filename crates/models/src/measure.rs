//! Single-run measurement: execute one sort on the simulator and record the
//! quantities the paper's evaluation reports.

use std::time::Duration;

use aoft_faults::FaultPlan;
use aoft_sim::CostModel;
use aoft_sort::{Algorithm, SortBuilder, SortError};
use serde::{Deserialize, Serialize};

use crate::workload::Workload;

/// Everything one measured run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Algorithm under test.
    pub algorithm: String,
    /// Hypercube nodes `N`.
    pub nodes: usize,
    /// Keys per node `m`.
    pub block: usize,
    /// Input distribution.
    pub workload: String,
    /// Total virtual makespan, ticks.
    pub elapsed_ticks: f64,
    /// Critical-path node transmit time (`α + β·len` charges, no waiting),
    /// ticks — what the Section 5 communication forms model.
    pub comm_ticks: f64,
    /// Critical-path node idle (waiting) time, ticks.
    pub idle_ticks: f64,
    /// Critical-path node computation time, ticks.
    pub comp_ticks: f64,
    /// Host computation time, ticks (sequential baselines).
    pub host_comp_ticks: f64,
    /// Host communication time, ticks.
    pub host_comm_ticks: f64,
    /// Total messages sent machine-wide.
    pub msgs: u64,
    /// Total payload words sent machine-wide.
    pub words: u64,
    /// Whether the output was verified correct against `sort_unstable`.
    pub output_correct: bool,
}

/// Measurement configuration.
#[derive(Debug, Clone)]
pub(crate) struct Measurement {
    /// Algorithm under test.
    pub(crate) algorithm: Algorithm,
    /// Hypercube nodes.
    pub(crate) nodes: usize,
    /// Keys per node.
    pub(crate) block: usize,
    /// Workload seed.
    pub(crate) seed: u64,
    /// Cost model.
    pub(crate) cost: CostModel,
}

impl Measurement {
    /// A default-configured measurement of `algorithm` at `nodes` nodes,
    /// one key per node, the Ncube cost model. Every measurement sorts
    /// uniform random input.
    pub(crate) fn new(algorithm: Algorithm, nodes: usize) -> Self {
        Self {
            algorithm,
            nodes,
            block: 1,
            seed: 0x5EED,
            cost: CostModel::ncube_1989(),
        }
    }

    /// Sets the block size.
    pub(crate) fn block(mut self, m: usize) -> Self {
        self.block = m;
        self
    }

    /// Sets the seed.
    pub(crate) fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Executes the run (fault-free) and records it.
    ///
    /// # Errors
    ///
    /// Propagates [`SortError`] — an honest run of any algorithm should
    /// never fail-stop, so an error here is a measurement-infrastructure
    /// bug.
    pub(crate) fn run(&self) -> Result<RunRecord, SortError> {
        let workload = Workload::UniformRandom;
        let keys = workload.generate(self.nodes * self.block, self.seed);
        let mut expected = keys.clone();
        expected.sort_unstable();

        let report = SortBuilder::new(self.algorithm)
            .keys(keys)
            .nodes(self.nodes)
            .cost_model(self.cost)
            .recv_timeout(Duration::from_secs(5))
            .fault_plan(FaultPlan::new())
            .run()?;

        let metrics = report.metrics();
        Ok(RunRecord {
            algorithm: self.algorithm.name().to_string(),
            nodes: self.nodes,
            block: self.block,
            workload: workload.name().to_string(),
            elapsed_ticks: metrics.elapsed().as_ticks_f64(),
            comm_ticks: metrics.max_node_send_time().as_ticks_f64(),
            idle_ticks: metrics
                .nodes
                .iter()
                .map(|m| m.idle_time)
                .max()
                .unwrap_or_default()
                .as_ticks_f64(),
            comp_ticks: metrics.max_node_compute_time().as_ticks_f64(),
            host_comp_ticks: metrics.host.compute_time.as_ticks_f64(),
            host_comm_ticks: metrics.host.comm_time().as_ticks_f64(),
            msgs: metrics.total_msgs(),
            words: metrics.total_words(),
            output_correct: report.output() == expected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_sft() {
        let record = Measurement::new(Algorithm::FaultTolerant, 8)
            .run()
            .expect("honest run");
        assert!(record.output_correct);
        assert_eq!(record.nodes, 8);
        assert_eq!(record.block, 1);
        assert!(record.elapsed_ticks > 0.0);
        assert!(record.comm_ticks > 0.0);
        assert!(record.comp_ticks > 0.0);
        assert!(record.msgs > 0);
    }

    #[test]
    fn measures_host_sequential() {
        let record = Measurement::new(Algorithm::HostSequential, 4)
            .run()
            .expect("honest run");
        assert!(record.output_correct);
        assert!(record.host_comp_ticks > 0.0, "host does the sorting");
        assert!(record.host_comm_ticks > 0.0, "gather/scatter costs");
    }

    #[test]
    fn block_measurement() {
        let record = Measurement::new(Algorithm::NonRedundant, 4)
            .block(8)
            .run()
            .expect("honest run");
        assert!(record.output_correct);
        assert_eq!(record.block, 8);
        assert_eq!(record.workload, Workload::UniformRandom.name());
    }

    #[test]
    fn sft_ships_more_words_than_snr() {
        let sft = Measurement::new(Algorithm::FaultTolerant, 16)
            .run()
            .unwrap();
        let snr = Measurement::new(Algorithm::NonRedundant, 16).run().unwrap();
        assert!(sft.words > snr.words);
        assert!(sft.elapsed_ticks > snr.elapsed_ticks);
    }
}
