use std::iter::Sum;

use serde::{Deserialize, Serialize};

use crate::Ticks;

/// Virtual-time and traffic counters for one endpoint (node or host).
///
/// The paper's Section 5 reports *communication time* and *computation time*
/// separately (the fitted-constants table); the simulator keeps the same
/// split, plus idle time spent waiting for messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// Messages sent (including host-link messages).
    pub msgs_sent: u64,
    /// Payload words sent.
    pub words_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Payload words received.
    pub words_received: u64,
    /// Virtual time spent transmitting (`α + β·len` charges).
    pub send_time: Ticks,
    /// Virtual time spent blocked waiting for messages.
    pub idle_time: Ticks,
    /// Virtual time spent computing (explicit charges).
    pub compute_time: Ticks,
    /// Final value of the local virtual clock.
    pub finished_at: Ticks,
    /// Number of `signal_error` calls made by this endpoint.
    pub errors_signalled: u64,
    /// Frames from another job discarded on a reused link (see
    /// [`SimConfig::job`](crate::SimConfig::job)).
    pub stale_dropped: u64,
}

impl NodeMetrics {
    /// Communication time: transmission plus waiting.
    pub fn comm_time(&self) -> Ticks {
        self.send_time + self.idle_time
    }

    /// Effort: total virtual node-time consumed (send + idle + compute), in
    /// ticks. In the Dwork–Halpern–Waarts sense this is *work*, not
    /// latency — over merged attempts it accumulates the cost of retried
    /// work rather than taking the makespan.
    pub fn effort(&self) -> u64 {
        (self.send_time + self.idle_time + self.compute_time).as_ticks()
    }

    /// Merges counters (summing times and counts, taking the max clock).
    pub fn merge(&mut self, other: &NodeMetrics) {
        self.msgs_sent += other.msgs_sent;
        self.words_sent += other.words_sent;
        self.msgs_received += other.msgs_received;
        self.words_received += other.words_received;
        self.send_time += other.send_time;
        self.idle_time += other.idle_time;
        self.compute_time += other.compute_time;
        self.finished_at = self.finished_at.max(other.finished_at);
        self.errors_signalled += other.errors_signalled;
        self.stale_dropped += other.stale_dropped;
    }
}

impl Sum for NodeMetrics {
    fn sum<I: Iterator<Item = NodeMetrics>>(iter: I) -> NodeMetrics {
        let mut total = NodeMetrics::default();
        for m in iter {
            total.merge(&m);
        }
        total
    }
}

/// Aggregated metrics for a whole run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-node counters, indexed by node label.
    pub nodes: Vec<NodeMetrics>,
    /// Host endpoint counters.
    pub host: NodeMetrics,
}

impl RunMetrics {
    /// The run's makespan: the latest clock over all endpoints.
    ///
    /// This is the quantity plotted in the paper's Figures 6–8.
    pub fn elapsed(&self) -> Ticks {
        self.nodes
            .iter()
            .map(|m| m.finished_at)
            .chain(std::iter::once(self.host.finished_at))
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Maximum per-node transmit time (the `α + β·len` charges alone,
    /// excluding waiting) over the nodes — the quantity the Section 5
    /// communication models describe.
    pub fn max_node_send_time(&self) -> Ticks {
        self.nodes
            .iter()
            .map(|m| m.send_time)
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Maximum per-node computation time over the nodes.
    pub fn max_node_compute_time(&self) -> Ticks {
        self.nodes
            .iter()
            .map(|m| m.compute_time)
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Total messages sent by all endpoints.
    pub fn total_msgs(&self) -> u64 {
        self.nodes.iter().map(|m| m.msgs_sent).sum::<u64>() + self.host.msgs_sent
    }

    /// Total payload words sent by all endpoints.
    pub fn total_words(&self) -> u64 {
        self.nodes.iter().map(|m| m.words_sent).sum::<u64>() + self.host.words_sent
    }

    /// Sums all node counters into one (excluding the host).
    pub fn node_total(&self) -> NodeMetrics {
        self.nodes.iter().copied().sum()
    }

    /// Total effort across all nodes (excluding the host), in ticks: the
    /// sum of every node's send, idle, and compute time. Summed over retry
    /// attempts this is the run's total node-step bill, including work that
    /// a fail-stop discarded.
    pub fn effort(&self) -> u64 {
        self.nodes.iter().map(NodeMetrics::effort).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(clock: u64) -> NodeMetrics {
        NodeMetrics {
            msgs_sent: 2,
            words_sent: 10,
            msgs_received: 2,
            words_received: 10,
            send_time: Ticks::from_ticks(4),
            idle_time: Ticks::from_ticks(1),
            compute_time: Ticks::from_ticks(3),
            finished_at: Ticks::from_ticks(clock),
            errors_signalled: 0,
            stale_dropped: 0,
        }
    }

    #[test]
    fn comm_time_is_send_plus_idle() {
        assert_eq!(metric(8).comm_time(), Ticks::from_ticks(5));
    }

    #[test]
    fn effort_sums_all_node_time_and_skips_host() {
        assert_eq!(metric(8).effort(), 8);
        let run = RunMetrics {
            nodes: vec![metric(5), metric(9)],
            host: metric(20),
        };
        assert_eq!(run.effort(), 16);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = metric(8);
        a.merge(&metric(12));
        assert_eq!(a.msgs_sent, 4);
        assert_eq!(a.finished_at, Ticks::from_ticks(12));
        assert_eq!(a.compute_time, Ticks::from_ticks(6));
    }

    #[test]
    fn sum_over_iterator() {
        let total: NodeMetrics = vec![metric(1), metric(2), metric(3)].into_iter().sum();
        assert_eq!(total.msgs_sent, 6);
        assert_eq!(total.finished_at, Ticks::from_ticks(3));
    }

    #[test]
    fn run_metrics_elapsed_includes_host() {
        let run = RunMetrics {
            nodes: vec![metric(5), metric(9)],
            host: metric(20),
        };
        assert_eq!(run.elapsed(), Ticks::from_ticks(20));
        assert_eq!(run.total_msgs(), 6);
        assert_eq!(run.total_words(), 30);
        assert_eq!(run.max_node_compute_time(), Ticks::from_ticks(3));
        assert_eq!(run.node_total().msgs_sent, 4);
    }

    #[test]
    fn empty_run_metrics() {
        let run = RunMetrics {
            nodes: Vec::new(),
            host: NodeMetrics::default(),
        };
        assert_eq!(run.elapsed(), Ticks::ZERO);
    }
}
