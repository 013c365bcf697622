use std::time::Duration;

use crate::CostModel;

/// Configuration of one simulated machine.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use aoft_sim::{CostModel, SimConfig};
///
/// let config = SimConfig::new()
///     .cost_model(CostModel::unit())
///     .recv_timeout(Duration::from_millis(100))
///     .trace(true);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    cost: CostModel,
    recv_timeout: Duration,
    trace: bool,
    job: u64,
}

impl SimConfig {
    /// Default configuration: Ncube-calibrated cost model, 2 s receive
    /// timeout, tracing off, job id 0.
    pub fn new() -> Self {
        Self {
            cost: CostModel::default(),
            recv_timeout: Duration::from_secs(2),
            trace: false,
            job: 0,
        }
    }

    /// Sets the virtual-time cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the real-time receive timeout after which a missing message is
    /// reported (environmental assumption 4).
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Enables or disables event tracing.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Tags every packet of this run with a job id.
    ///
    /// When the engine owns its transport (one machine per run) the tag is
    /// inert. A resident service reusing links across a stream of jobs must
    /// give each run a *distinct* id: receivers silently discard packets
    /// whose tag differs from their own (counted in
    /// [`NodeMetrics::stale_dropped`](crate::NodeMetrics)), so a frame left
    /// in flight by a fail-stopped run cannot be consumed as data by the
    /// next one.
    pub fn job(mut self, id: u64) -> Self {
        self.job = id;
        self
    }

    /// The configured cost model.
    pub(crate) fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The configured receive timeout.
    pub(crate) fn timeout(&self) -> Duration {
        self.recv_timeout
    }

    /// `true` if event tracing is enabled.
    pub(crate) fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// The configured job id.
    pub(crate) fn job_id(&self) -> u64 {
        self.job
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips() {
        let config = SimConfig::new()
            .cost_model(CostModel::unit())
            .recv_timeout(Duration::from_millis(50))
            .trace(true);
        assert_eq!(*config.cost(), CostModel::unit());
        assert_eq!(config.timeout(), Duration::from_millis(50));
        assert!(config.trace_enabled());
    }

    #[test]
    fn default_disables_trace() {
        let config = SimConfig::default();
        assert!(!config.trace_enabled());
        assert_eq!(*config.cost(), CostModel::ncube_1989());
    }
}
