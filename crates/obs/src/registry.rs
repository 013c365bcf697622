//! The process-wide metric registry and its Prometheus text exposition.
//!
//! The global [`Registry`] holds the families that no service or fleet
//! owns; every scrape endpoint renders it after its owner's own families.
//! Counters and gauges are single atomics; labeled families are a small map
//! of label → counter, with the `Arc` handed back so hot paths (a TCP
//! link's writer thread, say) pay the map lock once and the atomic forever
//! after.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::hist::Histogram;
use crate::prom::Exposition;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A labeled counter family (one label dimension, e.g. `link` or
/// `predicate`).
#[derive(Debug)]
pub struct Family {
    label: &'static str,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl Family {
    fn new(label: &'static str) -> Self {
        Self {
            label,
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter for `value` of this family's label, creating it at zero
    /// on first use. Hot paths should cache the returned handle.
    pub fn with_label(&self, value: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(value) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(value.to_string(), Arc::clone(&c));
        c
    }

    /// Convenience: increment `value`'s counter by `n`.
    pub fn add(&self, value: &str, n: u64) {
        self.with_label(value).add(n);
    }

    /// `(label value, count)` pairs, sorted by label.
    pub fn collect(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

/// The metrics no service or fleet owns — sort core, simulator, transport,
/// buffer pool and adversary harness — one field per family.
///
/// The fixed field set (rather than a name-keyed map) keeps the hot path a
/// single atomic op and makes the exported surface greppable: each field
/// appears exactly once in [`Registry::render_prometheus`] with its HELP
/// text, and DESIGN.md §11 maps each to the paper concept it measures. A
/// service's and a fleet's own numbers live with their owner and render on
/// its endpoint.
#[derive(Debug)]
pub struct Registry {
    // --- adversary harness (aoft-adv) ---
    /// Frames mutated by a live-wire adversary, by fault kind.
    pub adv_mutations: Family,
    /// Frames suppressed by a live-wire adversary, by fault kind.
    pub adv_drops: Family,

    // --- sort core (aoft-sort) ---
    /// Constraint-predicate evaluations, by predicate family.
    pub predicate_checks: Family,
    /// Wall-clock cost of predicate evaluations.
    pub predicate_check_time: Histogram,
    /// Executable-assertion violations signalled, by predicate family.
    pub(crate) violations: Family,
    /// Wall-clock cost of completed sort stages (per node).
    pub stage_time: Histogram,
    /// Sorts started through the runner.
    pub sort_runs: Counter,
    /// Sorts that fail-stopped.
    pub sort_failstops: Counter,
    /// Wall-clock cost of whole sort runs.
    pub run_time: Histogram,

    // --- simulator (aoft-sim) ---
    /// ERROR reports delivered to the host over the reliable host link.
    pub error_reports: Counter,

    // --- transport (aoft-net) ---
    /// Wire-buffer leases served by the shared pool.
    pub buf_pool_leases: Counter,
    /// Wire buffers currently leased out of the pool.
    pub buf_pool_outstanding: Gauge,
    /// Most wire buffers ever leased out simultaneously.
    pub buf_pool_high_water: Gauge,
    /// Bytes of idle capacity the pool retains for reuse.
    pub buf_pool_retained_bytes: Gauge,
    /// Failed mux session writes, each of which kills its session (the
    /// `link` label carries the session's `lo~hi` peer pair).
    pub net_send_retries: Family,
    /// Expected heartbeats that failed to arrive on time, per session.
    pub net_heartbeat_misses: Family,
    /// Sessions declared dead by the failure detector.
    pub net_peer_dead: Family,

    // --- multiplexed transport (aoft-net::mux) ---
    /// Live multiplexed peer sessions (one per peer-pair session end).
    pub mux_sessions: Gauge,
    /// Frames per mux session write (count-valued; a send writes one
    /// frame, so every sample is 1).
    pub mux_frames_per_write: Histogram,
    /// A mux sender's wait in µs for its session end's write lock.
    pub mux_wake_latency: Histogram,
    /// Frame bytes written per mux session (all links combined).
    pub mux_bytes_sent: Family,
    /// Bytes read from the socket per mux session.
    pub mux_bytes_received: Family,
}

impl Registry {
    fn new() -> Self {
        Self {
            adv_mutations: Family::new("fault"),
            adv_drops: Family::new("fault"),
            predicate_checks: Family::new("predicate"),
            predicate_check_time: Histogram::new(),
            violations: Family::new("predicate"),
            stage_time: Histogram::new(),
            sort_runs: Counter::default(),
            sort_failstops: Counter::default(),
            run_time: Histogram::new(),
            error_reports: Counter::default(),
            buf_pool_leases: Counter::default(),
            buf_pool_outstanding: Gauge::default(),
            buf_pool_high_water: Gauge::default(),
            buf_pool_retained_bytes: Gauge::default(),
            net_send_retries: Family::new("link"),
            net_heartbeat_misses: Family::new("link"),
            net_peer_dead: Family::new("link"),
            mux_sessions: Gauge::default(),
            mux_frames_per_write: Histogram::new(),
            mux_wake_latency: Histogram::new(),
            mux_bytes_sent: Family::new("session"),
            mux_bytes_received: Family::new("session"),
        }
    }

    /// Renders the whole registry in the Prometheus text exposition format
    /// (version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let mut out = Exposition::default();
        let families: [(&str, &str, &Family); 9] = [
            (
                "aoft_adv_mutations_total",
                "Frames mutated by a live-wire adversary, by fault kind.",
                &self.adv_mutations,
            ),
            (
                "aoft_adv_drops_total",
                "Frames suppressed by a live-wire adversary, by fault kind.",
                &self.adv_drops,
            ),
            (
                "aoft_predicate_checks_total",
                "Constraint-predicate evaluations by predicate family.",
                &self.predicate_checks,
            ),
            (
                "aoft_violations_total",
                "Executable-assertion violations signalled, by predicate family.",
                &self.violations,
            ),
            (
                "aoft_net_send_retries_total",
                "Failed session writes per link; each kills its session.",
                &self.net_send_retries,
            ),
            (
                "aoft_net_heartbeat_misses_total",
                "Expected heartbeats that failed to arrive on time, per link.",
                &self.net_heartbeat_misses,
            ),
            (
                "aoft_net_peer_dead_total",
                "Peers declared dead by the failure detector, per link.",
                &self.net_peer_dead,
            ),
            (
                "aoft_mux_bytes_sent_total",
                "Frame bytes written per mux session.",
                &self.mux_bytes_sent,
            ),
            (
                "aoft_mux_bytes_received_total",
                "Bytes read from the socket per mux session.",
                &self.mux_bytes_received,
            ),
        ];
        for (name, help, family) in families {
            out.family(name, "counter", help);
            let entries = family.collect();
            if entries.is_empty() {
                // An empty family still exposes the name so dashboards can
                // rely on it existing.
                out.sample(name, &[], 0);
            }
            for (label, value) in entries {
                out.sample(name, &[(family.label, &label)], value);
            }
        }
        let counters: [(&str, &str, &Counter); 4] = [
            (
                "aoft_sort_runs_total",
                "Sorts started through the runner.",
                &self.sort_runs,
            ),
            (
                "aoft_sort_failstops_total",
                "Sorts that fail-stopped instead of producing output.",
                &self.sort_failstops,
            ),
            (
                "aoft_error_reports_total",
                "ERROR reports delivered to the host.",
                &self.error_reports,
            ),
            (
                "aoft_buf_pool_leases_total",
                "Wire-buffer leases served by the shared pool.",
                &self.buf_pool_leases,
            ),
        ];
        for (name, help, counter) in counters {
            out.family(name, "counter", help);
            out.sample(name, &[], counter.get());
        }
        let gauges: [(&str, &str, &Gauge); 4] = [
            (
                "aoft_buf_pool_outstanding",
                "Wire buffers currently leased out of the pool.",
                &self.buf_pool_outstanding,
            ),
            (
                "aoft_buf_pool_high_water",
                "Most wire buffers ever leased out simultaneously.",
                &self.buf_pool_high_water,
            ),
            (
                "aoft_buf_pool_retained_bytes",
                "Bytes of idle capacity the pool retains for reuse.",
                &self.buf_pool_retained_bytes,
            ),
            (
                "aoft_mux_sessions",
                "Live multiplexed peer sessions.",
                &self.mux_sessions,
            ),
        ];
        for (name, help, gauge) in gauges {
            out.family(name, "gauge", help);
            out.sample(name, &[], gauge.get());
        }
        let histograms: [(&str, &str, &Histogram, bool); 5] = [
            (
                "aoft_predicate_check_seconds",
                "Wall-clock cost of constraint-predicate evaluations.",
                &self.predicate_check_time,
                true,
            ),
            (
                "aoft_stage_seconds",
                "Wall-clock cost of completed sort stages, per node.",
                &self.stage_time,
                true,
            ),
            (
                "aoft_sort_run_seconds",
                "Wall-clock cost of whole sort runs.",
                &self.run_time,
                true,
            ),
            (
                "aoft_mux_frames_per_write",
                "Frames per mux session write.",
                &self.mux_frames_per_write,
                false,
            ),
            (
                "aoft_mux_wake_latency_us",
                "Microseconds a mux sender waited for its session end's write lock.",
                &self.mux_wake_latency,
                false,
            ),
        ];
        for (name, help, h, seconds) in histograms {
            out.family(name, "histogram", help);
            out.histogram(name, &[], h, seconds);
        }
        out.finish()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry of the families no service or fleet owns.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn family_caches_handles() {
        let f = Family::new("link");
        let a = f.with_label("0→1#0");
        a.add(10);
        f.add("0→1#0", 5);
        f.add("1→0#0", 1);
        assert_eq!(f.collect(), [("0→1#0".into(), 15), ("1→0#0".into(), 1)]);
    }

    #[test]
    fn render_includes_every_family_and_parses() {
        let reg = Registry::new();
        reg.stage_time.record(Duration::from_millis(12));
        reg.violations.add("phi_p", 1);
        reg.mux_bytes_sent.add("0~1", 640);
        reg.mux_frames_per_write.record_count(8);
        let text = reg.render_prometheus();
        for name in [
            "aoft_stage_seconds_bucket",
            "aoft_stage_seconds_count 1",
            "aoft_violations_total{predicate=\"phi_p\"} 1",
            "aoft_mux_bytes_sent_total{session=\"0~1\"} 640",
            "aoft_net_peer_dead_total 0",
            "aoft_adv_mutations_total 0",
            "aoft_adv_drops_total 0",
            "aoft_mux_sessions 0",
            "aoft_buf_pool_leases_total 0",
            "aoft_mux_frames_per_write_bucket{le=\"8\"}",
            "aoft_mux_frames_per_write_count 1",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        let families = crate::prom::parse_families(&text).expect("valid exposition");
        assert!(families.contains("aoft_stage_seconds"));
        assert!(
            !text.contains("aoft_jobs_"),
            "service families have an owner"
        );
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
