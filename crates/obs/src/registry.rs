//! The process-wide metric registry and its Prometheus text exposition.
//!
//! All metrics live in one global [`Registry`] (Prometheus-style: the
//! registry is process state, scrape endpoints render it). Counters and
//! gauges are single atomics; labeled families are a small map of label →
//! counter, with the `Arc` handed back so hot paths (a TCP link's writer
//! thread, say) pay the map lock once and the atomic forever after.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::hist::Histogram;

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

    /// Sum over all labels.
    pub fn total(&self) -> u64 {
        self.counters.lock().values().map(|c| c.get()).sum()
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

/// A labeled gauge family (one label dimension, e.g. `cube`) — the
/// gauge-valued counterpart of [`Family`], for per-entity state that moves
/// both ways (a cube's health, say).
#[derive(Debug)]
pub struct GaugeFamily {
    label: &'static str,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl GaugeFamily {
    fn new(label: &'static str) -> Self {
        Self {
            label,
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// The gauge for `value` of this family's label, created at zero on
    /// first use. Hot paths should cache the returned handle.
    pub fn with_label(&self, value: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        if let Some(g) = map.get(value) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(value.to_string(), Arc::clone(&g));
        g
    }

    /// Convenience: set `value`'s gauge.
    pub fn set(&self, value: &str, v: i64) {
        self.with_label(value).set(v);
    }

    /// `(label value, gauge value)` pairs, sorted by label.
    pub fn collect(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

/// Every metric the AOFT stack exports, one field per family.
///
/// The fixed field set (rather than a name-keyed map) keeps the hot path a
/// single atomic op and makes the exported surface greppable: each field
/// appears exactly once in [`Registry::render_prometheus`] with its HELP
/// text, and DESIGN.md §11 maps each to the paper concept it measures.
#[derive(Debug)]
pub struct Registry {
    // --- service layer (aoft-svc) ---
    /// Jobs admitted past admission control.
    pub jobs_submitted: Counter,
    /// Jobs refused (backpressure or unservable shape).
    pub jobs_rejected: Counter,
    /// Jobs answered with a verified sorted result.
    pub jobs_completed: Counter,
    /// Jobs that failed loudly.
    pub jobs_failed: Counter,
    /// Extra attempts beyond each job's first (recovery work).
    pub job_retries: Counter,
    /// Completed jobs that needed at least one retry.
    pub jobs_recovered: Counter,
    /// Attempts started (first runs and retries).
    pub attempts: Counter,
    /// Nodes newly quarantined service-wide.
    pub quarantine_events: Counter,
    /// Jobs waiting in the bounded queue right now.
    pub queue_depth: Gauge,
    /// Jobs claimed by workers and not yet answered.
    pub inflight_jobs: Gauge,
    /// Nodes currently quarantined.
    pub quarantined_nodes: Gauge,
    /// Submit→completion latency of completed jobs.
    pub job_latency: Histogram,
    /// Effort billed to finished jobs: node-ticks over every attempt,
    /// fail-stopped ones included.
    pub job_effort: Counter,
    /// Jobs per flushed batch (count-valued histogram; occupancy 1 is a
    /// solo run).
    pub batch_occupancy: Histogram,
    /// Batch flushes by trigger (`solo`, `size`, `deadline`, `boundary`).
    pub batch_flushes: Family,
    /// Jobs that shared a cube attempt with at least one other job.
    pub batch_jobs_coalesced: Counter,

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

    // --- fleet router (aoft-svc::fleet) ---
    /// Cubes owned by the fleet router (actives + spares).
    pub fleet_cubes: Gauge,
    /// Jobs routed to each cube, by cube index.
    pub fleet_jobs_routed: Family,
    /// Per-cube health: 1 = healthy, 0 = degraded (quarantine non-empty).
    pub fleet_cube_health: GaugeFamily,
    /// Jobs resubmitted to another cube after their first cube failed them.
    pub fleet_failovers: Counter,
    /// Spare cubes promoted to active after an active cube degraded.
    pub fleet_spares_promoted: Counter,
}

impl Registry {
    fn new() -> Self {
        Self {
            jobs_submitted: Counter::default(),
            jobs_rejected: Counter::default(),
            jobs_completed: Counter::default(),
            jobs_failed: Counter::default(),
            job_retries: Counter::default(),
            jobs_recovered: Counter::default(),
            attempts: Counter::default(),
            quarantine_events: Counter::default(),
            queue_depth: Gauge::default(),
            inflight_jobs: Gauge::default(),
            quarantined_nodes: Gauge::default(),
            job_latency: Histogram::new(),
            job_effort: Counter::default(),
            batch_occupancy: Histogram::new(),
            batch_flushes: Family::new("trigger"),
            batch_jobs_coalesced: Counter::default(),
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
            fleet_cubes: Gauge::default(),
            fleet_jobs_routed: Family::new("cube"),
            fleet_cube_health: GaugeFamily::new("cube"),
            fleet_failovers: Counter::default(),
            fleet_spares_promoted: Counter::default(),
        }
    }

    /// Renders the whole registry in the Prometheus text exposition format
    /// (version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        counter(
            &mut out,
            "aoft_jobs_submitted_total",
            "Jobs admitted past admission control.",
            &self.jobs_submitted,
        );
        counter(
            &mut out,
            "aoft_jobs_rejected_total",
            "Jobs refused with backpressure or as unservable.",
            &self.jobs_rejected,
        );
        counter(
            &mut out,
            "aoft_jobs_completed_total",
            "Jobs answered with a verified sorted result.",
            &self.jobs_completed,
        );
        counter(
            &mut out,
            "aoft_jobs_failed_total",
            "Jobs that failed loudly (attempt budget or cube exhausted).",
            &self.jobs_failed,
        );
        counter(
            &mut out,
            "aoft_job_retries_total",
            "Extra attempts consumed beyond each job's first.",
            &self.job_retries,
        );
        counter(
            &mut out,
            "aoft_jobs_recovered_total",
            "Completed jobs that needed at least one retry.",
            &self.jobs_recovered,
        );
        counter(
            &mut out,
            "aoft_attempts_total",
            "Sort attempts started (first runs and retries).",
            &self.attempts,
        );
        counter(
            &mut out,
            "aoft_quarantine_total",
            "Nodes newly quarantined service-wide.",
            &self.quarantine_events,
        );
        gauge(
            &mut out,
            "aoft_queue_depth",
            "Jobs waiting in the bounded queue.",
            &self.queue_depth,
        );
        gauge(
            &mut out,
            "aoft_inflight_jobs",
            "Jobs claimed by workers and not yet answered.",
            &self.inflight_jobs,
        );
        gauge(
            &mut out,
            "aoft_quarantined_nodes",
            "Nodes currently quarantined.",
            &self.quarantined_nodes,
        );
        histogram(
            &mut out,
            "aoft_job_latency_seconds",
            "Submit-to-completion latency of completed jobs.",
            &self.job_latency,
        );
        counter(
            &mut out,
            "aoft_job_effort_ticks_total",
            "Effort billed to finished jobs: node-ticks over every attempt.",
            &self.job_effort,
        );
        count_histogram(
            &mut out,
            "aoft_batch_occupancy",
            "Jobs per flushed batch (1 = solo run).",
            &self.batch_occupancy,
        );
        family(
            &mut out,
            "aoft_batch_flushes_total",
            "Batch flushes by trigger (solo, size, deadline, boundary).",
            &self.batch_flushes,
        );
        counter(
            &mut out,
            "aoft_batch_jobs_coalesced_total",
            "Jobs that shared a cube attempt with at least one other job.",
            &self.batch_jobs_coalesced,
        );
        family(
            &mut out,
            "aoft_adv_mutations_total",
            "Frames mutated by a live-wire adversary, by fault kind.",
            &self.adv_mutations,
        );
        family(
            &mut out,
            "aoft_adv_drops_total",
            "Frames suppressed by a live-wire adversary, by fault kind.",
            &self.adv_drops,
        );
        family(
            &mut out,
            "aoft_predicate_checks_total",
            "Constraint-predicate evaluations by predicate family.",
            &self.predicate_checks,
        );
        histogram(
            &mut out,
            "aoft_predicate_check_seconds",
            "Wall-clock cost of constraint-predicate evaluations.",
            &self.predicate_check_time,
        );
        family(
            &mut out,
            "aoft_violations_total",
            "Executable-assertion violations signalled, by predicate family.",
            &self.violations,
        );
        histogram(
            &mut out,
            "aoft_stage_seconds",
            "Wall-clock cost of completed sort stages, per node.",
            &self.stage_time,
        );
        counter(
            &mut out,
            "aoft_sort_runs_total",
            "Sorts started through the runner.",
            &self.sort_runs,
        );
        counter(
            &mut out,
            "aoft_sort_failstops_total",
            "Sorts that fail-stopped instead of producing output.",
            &self.sort_failstops,
        );
        histogram(
            &mut out,
            "aoft_sort_run_seconds",
            "Wall-clock cost of whole sort runs.",
            &self.run_time,
        );
        counter(
            &mut out,
            "aoft_error_reports_total",
            "ERROR reports delivered to the host.",
            &self.error_reports,
        );
        counter(
            &mut out,
            "aoft_buf_pool_leases_total",
            "Wire-buffer leases served by the shared pool.",
            &self.buf_pool_leases,
        );
        gauge(
            &mut out,
            "aoft_buf_pool_outstanding",
            "Wire buffers currently leased out of the pool.",
            &self.buf_pool_outstanding,
        );
        gauge(
            &mut out,
            "aoft_buf_pool_high_water",
            "Most wire buffers ever leased out simultaneously.",
            &self.buf_pool_high_water,
        );
        gauge(
            &mut out,
            "aoft_buf_pool_retained_bytes",
            "Bytes of idle capacity the pool retains for reuse.",
            &self.buf_pool_retained_bytes,
        );
        family(
            &mut out,
            "aoft_net_send_retries_total",
            "Failed session writes per link; each kills its session.",
            &self.net_send_retries,
        );
        family(
            &mut out,
            "aoft_net_heartbeat_misses_total",
            "Expected heartbeats that failed to arrive on time, per link.",
            &self.net_heartbeat_misses,
        );
        family(
            &mut out,
            "aoft_net_peer_dead_total",
            "Peers declared dead by the failure detector, per link.",
            &self.net_peer_dead,
        );
        gauge(
            &mut out,
            "aoft_mux_sessions",
            "Live multiplexed peer sessions.",
            &self.mux_sessions,
        );
        count_histogram(
            &mut out,
            "aoft_mux_frames_per_write",
            "Frames per mux session write.",
            &self.mux_frames_per_write,
        );
        count_histogram(
            &mut out,
            "aoft_mux_wake_latency_us",
            "Microseconds a mux sender waited for its session end's write lock.",
            &self.mux_wake_latency,
        );
        family(
            &mut out,
            "aoft_mux_bytes_sent_total",
            "Frame bytes written per mux session.",
            &self.mux_bytes_sent,
        );
        family(
            &mut out,
            "aoft_mux_bytes_received_total",
            "Bytes read from the socket per mux session.",
            &self.mux_bytes_received,
        );
        gauge(
            &mut out,
            "aoft_fleet_cubes",
            "Cubes owned by the fleet router (actives and spares).",
            &self.fleet_cubes,
        );
        family(
            &mut out,
            "aoft_fleet_jobs_routed_total",
            "Jobs routed to each cube, by cube index.",
            &self.fleet_jobs_routed,
        );
        gauge_family(
            &mut out,
            "aoft_fleet_cube_health",
            "Per-cube health: 1 healthy, 0 degraded.",
            &self.fleet_cube_health,
        );
        counter(
            &mut out,
            "aoft_fleet_failovers_total",
            "Jobs resubmitted to another cube after their first cube failed them.",
            &self.fleet_failovers,
        );
        counter(
            &mut out,
            "aoft_fleet_spares_promoted_total",
            "Spare cubes promoted to active after an active cube degraded.",
            &self.fleet_spares_promoted,
        );
        out
    }
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn counter(out: &mut String, name: &str, help: &str, c: &Counter) {
    header(out, name, help, "counter");
    out.push_str(&format!("{name} {}\n", c.get()));
}

fn gauge(out: &mut String, name: &str, help: &str, g: &Gauge) {
    header(out, name, help, "gauge");
    out.push_str(&format!("{name} {}\n", g.get()));
}

/// Escapes a label value per the exposition format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn family(out: &mut String, name: &str, help: &str, f: &Family) {
    header(out, name, help, "counter");
    let entries = f.collect();
    if entries.is_empty() {
        // An empty family still exposes the name so dashboards can rely on
        // it existing.
        out.push_str(&format!("{name} 0\n"));
        return;
    }
    for (label, value) in entries {
        out.push_str(&format!(
            "{name}{{{}=\"{}\"}} {value}\n",
            f.label,
            escape_label(&label)
        ));
    }
}

fn gauge_family(out: &mut String, name: &str, help: &str, f: &GaugeFamily) {
    header(out, name, help, "gauge");
    let entries = f.collect();
    if entries.is_empty() {
        out.push_str(&format!("{name} 0\n"));
        return;
    }
    for (label, value) in entries {
        out.push_str(&format!(
            "{name}{{{}=\"{}\"}} {value}\n",
            f.label,
            escape_label(&label)
        ));
    }
}

fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    header(out, name, help, "histogram");
    let snap = h.snapshot();
    for (bound, cum) in &snap.cumulative {
        match bound {
            Some(us) => out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cum}\n",
                *us as f64 / 1e6
            )),
            None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n")),
        }
    }
    out.push_str(&format!("{name}_sum {}\n", snap.sum_us as f64 / 1e6));
    out.push_str(&format!("{name}_count {}\n", snap.count));
}

/// Like [`histogram`] but for count-valued histograms (batch occupancy,
/// frames per write): bucket bounds render as raw integers, not seconds.
fn count_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    header(out, name, help, "histogram");
    let snap = h.snapshot();
    for (bound, cum) in &snap.cumulative {
        match bound {
            Some(n) => out.push_str(&format!("{name}_bucket{{le=\"{n}\"}} {cum}\n")),
            None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n")),
        }
    }
    out.push_str(&format!("{name}_sum {}\n", snap.sum_us));
    out.push_str(&format!("{name}_count {}\n", snap.count));
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented crate reports into.
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
    fn family_caches_handles_and_totals() {
        let f = Family::new("link");
        let a = f.with_label("0→1#0");
        a.add(10);
        f.add("0→1#0", 5);
        f.add("1→0#0", 1);
        assert_eq!(f.total(), 16);
        let collected = f.collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].1 + collected[1].1, 16);
    }

    #[test]
    fn render_includes_every_family_and_parses() {
        let reg = Registry::new();
        reg.jobs_submitted.add(3);
        reg.queue_depth.set(2);
        reg.job_latency.record(Duration::from_millis(12));
        reg.violations.add("phi_p", 1);
        reg.mux_bytes_sent.add("0~1", 640);
        reg.fleet_cube_health.set("0", 1);
        reg.batch_occupancy.record_count(4);
        reg.batch_flushes.add("size", 1);
        reg.batch_jobs_coalesced.add(4);
        reg.mux_frames_per_write.record_count(8);
        let text = reg.render_prometheus();
        for name in [
            "aoft_jobs_submitted_total",
            "aoft_queue_depth",
            "aoft_job_latency_seconds_bucket",
            "aoft_job_latency_seconds_count",
            "aoft_violations_total{predicate=\"phi_p\"}",
            "aoft_mux_bytes_sent_total{session=\"0~1\"}",
            "aoft_net_peer_dead_total 0",
            "aoft_job_effort_ticks_total",
            "aoft_adv_mutations_total 0",
            "aoft_adv_drops_total 0",
            "aoft_mux_sessions",
            "aoft_fleet_cubes",
            "aoft_fleet_jobs_routed_total 0",
            "aoft_fleet_cube_health{cube=\"0\"} 1",
            "aoft_fleet_failovers_total",
            "aoft_batch_occupancy_bucket{le=\"4\"}",
            "aoft_batch_occupancy_count 1",
            "aoft_batch_flushes_total{trigger=\"size\"} 1",
            "aoft_batch_jobs_coalesced_total 4",
            "aoft_mux_frames_per_write_bucket{le=\"8\"}",
            "aoft_mux_frames_per_write_count 1",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        let families = crate::prom::parse_families(&text).expect("valid exposition");
        assert!(families.contains("aoft_jobs_submitted_total"));
        assert!(families.contains("aoft_job_latency_seconds"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
