//! The names the benchmark defines — workloads and metrics — and the check
//! that `BENCHMARK.json` declares exactly the same ones.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const WORKLOADS: [&str; 6] = [
    "small_inproc",
    "small_mux",
    "large_inproc",
    "large_mux",
    "burst_batched",
    "faulted_inproc",
];

/// What a user of the service sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 9] = [
    lower("setup_s", "s"),
    lower("job_p50_ms", "ms"),
    lower("job_p95_ms", "ms"),
    higher("jobs_per_s", "jobs/s"),
    lower("sft_over_snr", "ratio"),
    lower("lone_job_p50_ms", "ms"),
    lower("recovered_p50_ms", "ms"),
    lower("effort_ticks_per_job", "ticks"),
    lower("attempts_per_job", "ratio"),
];

/// One layer each; layer = crate name. Printed by a traced run.
pub const PER_LAYER: [MetricDef; 79] = [
    // svc
    lower("svc.submit_us", "us"),
    lower("svc.overhead_us", "us"),
    lower("svc.wake_gap_us", "us"),
    lower("svc.start_ms", "ms"),
    lower("svc.shutdown_ms", "ms"),
    lower("svc.fleet_route_us", "us"),
    higher("svc.batch_occupancy", "ratio"),
    lower("svc.batches_flushed", "count"),
    higher("svc.jobs_coalesced", "count"),
    lower("svc.jobs_rejected", "count"),
    lower("svc.retries", "count"),
    lower("svc.recovered_jobs", "count"),
    lower("svc.recovery_extra_ms", "ms"),
    lower("svc.omission_recovery_ms", "ms"),
    lower("svc.job_p99_ms", "ms"),
    // sim
    lower("sim.engine_noop_us", "us"),
    lower("sim.threads_per_attempt", "count"),
    lower("sim.msgs_per_job", "count"),
    lower("sim.words_per_job", "count"),
    lower("sim.stale_dropped", "count"),
    lower("sim.det_run_d6_ms", "ms"),
    // sort
    lower("sort.run_us", "us"),
    lower("sort.snr_run_us", "us"),
    lower("sort.kernels_us", "us"),
    lower("sort.exchange_residual_us", "us"),
    lower("sort.sft_ticks", "ticks"),
    lower("sort.snr_ticks", "ticks"),
    lower("sort.sft_over_snr_ticks_d3", "ratio"),
    lower("sort.sft_over_snr_ticks_d4", "ratio"),
    lower("sort.sft_over_snr_ticks_d5", "ratio"),
    lower("sort.sft_over_snr_ticks_d6", "ratio"),
    lower("sort.ticks_over_model", "ratio"),
    lower("sort.host_sort_us", "us"),
    lower("sort.sft_over_host", "ratio"),
    lower("sort.distribute_us", "us"),
    lower("sort.merge_split_us", "us"),
    lower("sort.phi_p_us", "us"),
    lower("sort.phi_f_us", "us"),
    lower("sort.phi_f_sorted_us", "us"),
    lower("sort.bit_compare_us", "us"),
    lower("sort.phi_c_us", "us"),
    lower("sort.vect_mask_us", "us"),
    lower("sort.msg_encode_us", "us"),
    lower("sort.msg_decode_us", "us"),
    lower("sort.composite_mux_us", "us"),
    lower("sort.composite_demux_us", "us"),
    // net
    lower("net.inproc_rtt_us", "us"),
    lower("net.mux_rtt_us", "us"),
    lower("net.mux_rtt_16k_us", "us"),
    higher("net.mux_stream_msgs_per_s", "1/s"),
    higher("net.mux_stream_mb_per_s", "MB/s"),
    lower("net.mux_connect_ms", "ms"),
    lower("net.mux_link_attach_us", "us"),
    lower("net.frame_encode_us", "us"),
    lower("net.frame_decode_us", "us"),
    lower("net.pool_lease_us", "us"),
    lower("net.mux_sessions", "count"),
    lower("net.mux_fds", "count"),
    lower("net.threads", "count"),
    lower("net.bytes_per_job", "bytes"),
    higher("net.frames_per_write", "ratio"),
    lower("net.wake_latency_us", "us"),
    lower("net.retries", "count"),
    // obs
    lower("obs.emit_us", "us"),
    lower("obs.emit_journal_us", "us"),
    lower("obs.hist_record_us", "us"),
    lower("obs.render_ms", "ms"),
    lower("obs.journal_overhead_share", "ratio"),
    // replay
    lower("replay.record_d4_ms", "ms"),
    lower("replay.verify_d4_ms", "ms"),
    // faults
    higher("faults.detected_share", "ratio"),
    // harness
    lower("harness.calib_ms", "ms"),
    higher("harness.windows", "count"),
    higher("harness.windows_kept_share", "ratio"),
    lower("harness.trace_overhead_share", "ratio"),
    higher("harness.job_samples", "count"),
    higher("harness.kernel_samples", "count"),
    lower("harness.failed_share", "ratio"),
    lower("harness.silent_wrong", "count"),
];

/// Where `BENCHMARK.json` is: the working directory when run from the root
/// of a checkout, else beside this package.
pub fn locate(explicit: Option<&str>) -> PathBuf {
    if let Some(path) = explicit {
        return PathBuf::from(path);
    }
    let here = Path::new("BENCHMARK.json");
    if here.exists() {
        here.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
    }
}

/// Reads and parses `BENCHMARK.json`.
///
/// # Errors
///
/// A message naming the file when it cannot be read or parsed.
pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// The bound `BENCHMARK.json` gives an end-to-end metric.
pub fn bound_of(spec: &Value, metric: &str) -> Option<f64> {
    spec.get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

fn check_metrics(spec: &Value, key: &str, defs: &[MetricDef], problems: &mut Vec<String>) {
    let Some(listed) = spec.get(key).and_then(Value::as_arr) else {
        problems.push(format!("BENCHMARK.json has no `{key}` list"));
        return;
    };
    let field = |m: &Value, f: &str| {
        m.get(f)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    for def in defs {
        match listed.iter().find(|m| field(m, "name") == def.name) {
            None => problems.push(format!(
                "{key}: `{}` is missing from BENCHMARK.json",
                def.name
            )),
            Some(m) => {
                if field(m, "unit") != def.unit {
                    problems.push(format!(
                        "{key}: `{}` has unit `{}` in BENCHMARK.json, `{}` in the binary",
                        def.name,
                        field(m, "unit"),
                        def.unit
                    ));
                }
                if field(m, "better") != def.better.as_str() {
                    problems.push(format!(
                        "{key}: `{}` is better-`{}` in BENCHMARK.json, better-`{}` in the binary",
                        def.name,
                        field(m, "better"),
                        def.better.as_str()
                    ));
                }
            }
        }
    }
    for m in listed {
        let name = field(m, "name");
        if !defs.iter().any(|d| d.name == name) {
            problems.push(format!("{key}: `{name}` is unknown to the binary"));
        }
    }
}

/// Every way the binary's names and `BENCHMARK.json` disagree.
pub fn disagreements(spec: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let names: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    for w in WORKLOADS {
        if !names.iter().any(|n| n == w) {
            problems.push(format!("workload `{w}` is missing from BENCHMARK.json"));
        }
    }
    for n in &names {
        if !WORKLOADS.contains(&n.as_str()) {
            problems.push(format!("workload `{n}` is unknown to the binary"));
        }
    }
    check_metrics(spec, "end_to_end", &END_TO_END, &mut problems);
    check_metrics(spec, "per_layer", &PER_LAYER, &mut problems);
    problems
}

/// `aoft-benchmark list`: prints the names, exit code 1 on disagreement.
pub fn list(spec_path: Option<&str>) -> i32 {
    let path = locate(spec_path);
    let spec = match load(&path) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {w}");
    }
    for (title, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        println!("{title}:");
        for def in defs {
            let bound = bound_of(&spec, def.name)
                .map(|b| format!("  bound {b}"))
                .unwrap_or_default();
            println!(
                "  {:<32} {:<7} better {}{bound}",
                def.name,
                def.unit,
                def.better.as_str()
            );
        }
    }
    let problems = disagreements(&spec);
    for p in &problems {
        eprintln!("mismatch: {p}");
    }
    i32::from(!problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn disagreement_is_reported_both_ways() {
        let spec = json::parse(
            r#"{"workloads": [{"name": "small_inproc", "why": "x"}, {"name": "bogus", "why": "y"}],
                "end_to_end": [{"name": "setup_s", "unit": "ms", "better": "lower", "bound": 0.2}],
                "per_layer": []}"#,
        )
        .unwrap();
        let problems = disagreements(&spec);
        assert!(problems
            .iter()
            .any(|p| p.contains("`small_mux` is missing")));
        assert!(problems.iter().any(|p| p.contains("`bogus` is unknown")));
        assert!(problems
            .iter()
            .any(|p| p.contains("`setup_s` has unit `ms`")));
        assert!(problems
            .iter()
            .any(|p| p.contains("`job_p50_ms` is missing")));
        assert_eq!(bound_of(&spec, "setup_s"), Some(0.2));
    }
}
