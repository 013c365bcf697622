//! The traced run: the workload again, with the harness's span recorder on,
//! and every per-layer metric computed from what it recorded.
//!
//! Untraced windows of the workload's own load alternate with traced
//! windows, a probe between each as in the untraced run. The untraced
//! windows supply the counts the layers keep themselves and the latency
//! the traced jobs are compared with; a traced window interleaves, job by
//! job, a direct `SortBuilder` run on the same keys and transport, a no-op
//! engine run and one call of each kernel. Spans inside the program are a
//! later change: everything here is timed from outside, around public
//! calls.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use aoft::obs;
use aoft::sort::Algorithm;

use crate::harness;
use crate::kernels::{engine_noop, Direct, Kernels};
use crate::micro;
use crate::run::{Arm, Counters, Fixture, Kind, Outcome, Pools, Slice, Workload, NODES};
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::verify::Verdict;

/// The share of `--seconds` spent in windows; the rest is for the
/// fixture-based measurements of [`micro`].
const WINDOWS_SHARE: f64 = 0.4;

/// Where traces and the event journal go, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

/// Kernel calls of one d = 3 `S_FT` job, machine-wide, from the exchange
/// schedule: 6 compare-exchange steps on 4 node pairs; Φ_C arrays adding up
/// to 216 entries, i.e. 27 of the 8-entry replies that are timed; one
/// `vect_mask` per Φ_C call; and per node the stage-1, stage-2 and final
/// `bit_compare`, which scan ¼, ½ and 1 of the final check's span.
const MERGE_SPLITS_PER_JOB: f64 = 24.0;
const PHI_C_REPLIES_PER_JOB: f64 = 27.0;
const VECT_MASKS_PER_JOB: f64 = 72.0;
const FINAL_BIT_COMPARES_PER_JOB: f64 = 14.0;

/// The `aoft_mux_*` and retry families of the Prometheus exposition.
#[derive(Debug, Clone, Copy, Default)]
struct NetFamilies {
    bytes_sent: f64,
    frames: f64,
    writes: f64,
    wake_us: f64,
    wakes: f64,
    retries: f64,
}

/// Sum of the samples named exactly `name`, whatever their labels.
fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            rest.rsplit_once(' ')?.1.parse::<f64>().ok()
        })
        .sum()
}

impl NetFamilies {
    fn read() -> NetFamilies {
        let text = obs::global().render_prometheus();
        NetFamilies {
            bytes_sent: prom_sum(&text, "aoft_mux_bytes_sent_total"),
            frames: prom_sum(&text, "aoft_mux_frames_per_write_sum"),
            writes: prom_sum(&text, "aoft_mux_frames_per_write_count"),
            wake_us: prom_sum(&text, "aoft_mux_wake_latency_us_sum"),
            wakes: prom_sum(&text, "aoft_mux_wake_latency_us_count"),
            retries: prom_sum(&text, "aoft_net_send_retries_total"),
        }
    }

    fn add_delta(&mut self, before: &NetFamilies, after: &NetFamilies) {
        self.bytes_sent += after.bytes_sent - before.bytes_sent;
        self.frames += after.frames - before.frames;
        self.writes += after.writes - before.writes;
        self.wake_us += after.wake_us - before.wake_us;
        self.wakes += after.wakes - before.wakes;
        self.retries += after.retries - before.retries;
    }
}

/// One traced window.
#[derive(Default)]
struct Traced {
    /// Spans `[from, to)` of the recorder belong to this window.
    spans: (usize, usize),
    /// Client-timed latency minus `JobReport::latency`, µs, per clean job.
    wake_gaps_us: Vec<f64>,
    jobs: Slice,
    cycles: u64,
}

/// One window of a traced run.
enum Window {
    /// The workload's own load, untraced.
    Plain(Kind, Slice),
    Traced(Traced),
}

struct Tracer<'a> {
    fixture: &'a mut Fixture,
    direct: &'a Direct,
    kernels: &'a mut Kernels,
    rec: &'a mut Recorder,
    next_job: u64,
    next_run: u64,
}

impl Tracer<'_> {
    fn direct_run(
        &mut self,
        name: &'static str,
        algorithm: Algorithm,
        index: u64,
        job: u64,
    ) -> bool {
        let keys = self.fixture.keys(index).to_vec();
        self.next_run += 1;
        let run_id = self.next_run;
        let direct = self.direct;
        let result = self
            .rec
            .span(name, job, None, || direct.run(algorithm, keys, run_id));
        matches!(result, Ok(report)
            if self.fixture.check(index, report.output()) == Verdict::Correct)
    }

    /// A traced window: lone jobs through the workload's S_FT door, each
    /// followed by the direct and kernel measurements on the same keys.
    fn window(&mut self, base: u64, length: Duration) -> Result<Traced, String> {
        let mut traced = Traced {
            spans: (self.rec.len(), 0),
            ..Traced::default()
        };
        let started = Instant::now();
        let mut index = base;
        while started.elapsed() < length {
            let job = self.next_job;
            self.next_job += 1;
            let fault = self.fixture.stream_fault(job);
            let faulted = fault.is_some();
            let mut spec = aoft::svc::JobSpec::new(self.fixture.keys(index).to_vec());
            if let Some(plan) = fault {
                spec = spec.fault_plan(plan);
            }

            let begin = Instant::now();
            let root = self.rec.begin("job", job, None);
            let submit = self.rec.begin("svc.submit", job, Some(root));
            let ticket = self.fixture.target(Arm::Sft).submit(spec);
            self.rec.end(submit);
            let wait = self.rec.begin("svc.wait", job, Some(root));
            let report = ticket.ok().and_then(|t| t.wait().ok());
            self.rec.end(wait);
            self.rec.end(root);
            let latency = begin.elapsed();

            if let Some(report) = &report {
                if report.recovered() {
                    self.rec.rename(root, "job.recovered");
                } else {
                    let gap = latency.as_secs_f64() - report.latency.as_secs_f64();
                    traced.wake_gaps_us.push(gap * 1e6);
                }
            }
            let answer = self.fixture.answer(index, latency, report);
            if let Some(ms) = traced.jobs.book(&answer, faulted) {
                traced.jobs.latencies_ms.push(ms);
            }

            if !self.direct_run("sort.run", Algorithm::FaultTolerant, index, job)
                || !self.direct_run("sort.snr_run", Algorithm::NonRedundant, index, job)
            {
                return Err("a direct SortBuilder run failed or answered wrong".into());
            }
            self.rec.span("sim.engine_noop", job, None, engine_noop);
            self.kernels.run(self.rec, job);
            traced.cycles += 1;
            index += 1;
        }
        traced.spans.1 = self.rec.len();
        Ok(traced)
    }
}

fn median_of(medians: &BTreeMap<&'static str, (f64, usize)>, name: &str) -> f64 {
    medians.get(name).map_or(0.0, |(median, _)| *median)
}

/// The traced run: per-layer metrics, and the spans written to
/// `benchmark/out/trace-<workload>.jsonl`.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<Outcome, String> {
    let mut fixture = Fixture::start(workload, seed)?;
    let direct = Direct::new(workload)?;
    let mut kernels = Kernels::new(fixture.keys(0))?;
    for run_id in 1..=6 {
        // Dial the direct links and warm both algorithms before timing.
        let algorithm = if run_id % 2 == 0 {
            Algorithm::FaultTolerant
        } else {
            Algorithm::NonRedundant
        };
        direct
            .run(algorithm, fixture.keys(run_id).to_vec(), run_id)
            .map_err(|e| format!("direct warm-up run: {e}"))?;
    }

    let mut rec = Recorder::new();
    let mut tracer = Tracer {
        fixture: &mut fixture,
        direct: &direct,
        kernels: &mut kernels,
        rec: &mut rec,
        next_job: 0,
        next_run: 1000,
    };
    const SFT: Kind = Kind::Load(Arm::Sft);
    let cycle: &[Option<Kind>] = if workload.is_fleet() {
        &[Some(SFT), Some(Kind::Trickle), None, Some(Kind::Probe)]
    } else {
        &[Some(SFT), None, None, Some(Kind::Probe)]
    };
    let seconds = if quick { seconds.min(4.0) } else { seconds };
    let budget = Duration::from_secs_f64(seconds * WINDOWS_SHARE);
    // What the layers counted during the S_FT load windows. Neighbours do
    // not move a count, so every such window is used, kept or not.
    let mut counters = Counters::default();
    let mut net = NetFamilies::default();
    let mut problem = None;
    let mut calibrator = harness::Calibrator::new();
    let (windows, calibs) = harness::drive(
        budget,
        || calibrator.probe(),
        |i| {
            let base = (i / cycle.len()) as u64 * 16;
            match cycle[i % cycle.len()] {
                Some(SFT) => {
                    let counted = tracer.fixture.sft.counters();
                    let carried = NetFamilies::read();
                    let slice = tracer.fixture.window(SFT, base);
                    counters.add_delta(&counted, &tracer.fixture.sft.counters());
                    net.add_delta(&carried, &NetFamilies::read());
                    Window::Plain(SFT, slice)
                }
                Some(kind) => Window::Plain(kind, tracer.fixture.window(kind, base)),
                None => match tracer.window(base, workload.window()) {
                    Ok(traced) => Window::Traced(traced),
                    Err(e) => {
                        problem.get_or_insert(e);
                        Window::Traced(Traced::default())
                    }
                },
            }
        },
    );
    if let Some(problem) = problem {
        return Err(problem);
    }
    let mux_sessions_direct = direct.mux_sessions();
    let job_keys = fixture.keys(0).to_vec();
    fixture.shutdown();

    let mut m = micro::measure(workload, seed, &job_keys, Path::new(OUT_DIR), quick)?;
    if workload.is_mux() && mux_sessions_direct == 0 {
        return Err("the direct mux fixture carried no session".into());
    }

    // Pools over kept windows.
    let mut pools = Pools::default();
    let mut traced = Slice::default();
    let mut gaps = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut cycles = 0;
    for (window, kept) in &windows {
        match window {
            Window::Plain(kind, slice) => pools.add(*kind, slice, *kept),
            Window::Traced(window) => {
                pools.all.merge(&window.jobs);
                pools.windows += 1;
                if *kept {
                    pools.kept += 1;
                    traced.merge(&window.jobs);
                    gaps.extend_from_slice(&window.wake_gaps_us);
                    spans.extend_from_slice(&rec.spans()[window.spans.0..window.spans.1]);
                    cycles += window.cycles;
                }
            }
        }
    }
    rec.write_jsonl(&Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name())))
        .map_err(|e| format!("writing the trace: {e}"))?;

    let medians = trace::medians_us(&spans);
    let job_us = median_of(&medians, "job");
    let submit_us = median_of(&medians, "svc.submit");
    let run_us = median_of(&medians, "sort.run");
    let noop_us = median_of(&medians, "sim.engine_noop");
    let parallel = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(NODES as usize) as f64;
    let kernels_us = median_of(&medians, "sort.distribute")
        + (MERGE_SPLITS_PER_JOB * median_of(&medians, "sort.merge_split")
            + PHI_C_REPLIES_PER_JOB * median_of(&medians, "sort.phi_c")
            + VECT_MASKS_PER_JOB * median_of(&medians, "sort.vect_mask")
            + FINAL_BIT_COMPARES_PER_JOB * median_of(&medians, "sort.bit_compare"))
            / parallel;

    m.insert("svc.submit_us", submit_us);
    m.insert("svc.overhead_us", (job_us - run_us - submit_us).max(0.0));
    m.insert("svc.wake_gap_us", stats::median(&gaps));
    m.insert("sim.engine_noop_us", noop_us);
    m.insert("sort.run_us", run_us);
    m.insert("sort.snr_run_us", median_of(&medians, "sort.snr_run"));
    m.insert("sort.kernels_us", kernels_us);
    m.insert(
        "sort.exchange_residual_us",
        (run_us - noop_us - kernels_us).max(0.0),
    );
    for (metric, span) in [
        ("sort.distribute_us", "sort.distribute"),
        ("sort.merge_split_us", "sort.merge_split"),
        ("sort.phi_p_us", "sort.phi_p"),
        ("sort.phi_f_us", "sort.phi_f"),
        ("sort.phi_f_sorted_us", "sort.phi_f_sorted"),
        ("sort.bit_compare_us", "sort.bit_compare"),
        ("sort.phi_c_us", "sort.phi_c"),
        ("sort.vect_mask_us", "sort.vect_mask"),
        ("sort.msg_encode_us", "sort.msg_encode"),
        ("sort.msg_decode_us", "sort.msg_decode"),
        ("net.frame_encode_us", "net.frame_encode"),
        ("net.frame_decode_us", "net.frame_decode"),
        ("net.pool_lease_us", "net.pool_lease"),
    ] {
        m.insert(metric, median_of(&medians, span));
    }

    let completed = counters.completed.max(1) as f64;
    // Jobs answered per batch flushed. (`jobs_coalesced` counts only jobs
    // that shared an attempt, so it reads 0, not 1, on solo flushes.)
    let flushed = counters.batches_flushed.max(1) as f64;
    m.insert("svc.batch_occupancy", counters.completed as f64 / flushed);
    m.insert("svc.batches_flushed", counters.batches_flushed as f64);
    m.insert("svc.jobs_coalesced", counters.jobs_coalesced as f64);
    m.insert("svc.jobs_rejected", counters.rejected as f64);
    m.insert("svc.retries", counters.retries as f64);
    m.insert("svc.recovered_jobs", counters.recovered as f64);
    m.insert("sim.msgs_per_job", counters.msgs_sent as f64 / completed);
    m.insert("sim.words_per_job", counters.words_sent as f64 / completed);
    m.insert("sim.stale_dropped", counters.stale_dropped as f64);
    m.insert("net.bytes_per_job", net.bytes_sent / completed);
    m.insert("net.frames_per_write", net.frames / net.writes.max(1.0));
    m.insert("net.wake_latency_us", net.wake_us / net.wakes.max(1.0));
    m.insert("net.retries", net.retries);

    let job_p50_ms = pools.sft.p50_ms();
    let lone_p50_ms = stats::median(pools.lone_ms());
    m.insert(
        "svc.recovery_extra_ms",
        (stats::median(&pools.recovered_ms()) - lone_p50_ms).max(0.0),
    );
    let tail = stats::highest_supported(pools.sft.latencies_ms.len(), &[50.0, 90.0, 95.0, 99.0])
        .unwrap_or(100.0);
    m.insert(
        "svc.job_p99_ms",
        stats::percentile_of(&pools.sft.latencies_ms, tail),
    );
    let host_us = m.get("sort.host_sort_us").copied().unwrap_or(0.0);
    m.insert(
        "sort.sft_over_host",
        if host_us > 0.0 {
            job_p50_ms * 1e3 / host_us
        } else {
            0.0
        },
    );
    let all = &pools.all;
    m.insert(
        "faults.detected_share",
        all.faulted_detected as f64 / all.faulted.max(1) as f64,
    );
    m.insert("harness.calib_ms", harness::quiet_calib(&calibs));
    m.insert("harness.windows", pools.windows as f64);
    m.insert(
        "harness.windows_kept_share",
        pools.kept as f64 / pools.windows.max(1) as f64,
    );
    m.insert(
        "harness.trace_overhead_share",
        if lone_p50_ms > 0.0 && !traced.latencies_ms.is_empty() {
            traced.p50_ms() / lone_p50_ms - 1.0
        } else {
            0.0
        },
    );
    m.insert("harness.job_samples", traced.latencies_ms.len() as f64);
    m.insert("harness.kernel_samples", cycles as f64);
    m.insert(
        "harness.failed_share",
        all.failed as f64 / all.attempted.max(1) as f64,
    );
    m.insert("harness.silent_wrong", all.silent_wrong as f64);

    Ok(Outcome {
        correct: all.silent_wrong == 0,
        attempted: all.attempted,
        failed: all.failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_sum_matches_exact_names_only() {
        let text = "\
# TYPE aoft_mux_bytes_sent_total counter\n\
aoft_mux_bytes_sent_total{session=\"0-1\"} 100\n\
aoft_mux_bytes_sent_total{session=\"2-3\"} 50\n\
aoft_mux_bytes_sent_total_extra 7\n\
aoft_mux_frames_per_write_sum 12\n\
aoft_mux_frames_per_write_count 4\n";
        assert_eq!(prom_sum(text, "aoft_mux_bytes_sent_total"), 150.0);
        assert_eq!(prom_sum(text, "aoft_mux_frames_per_write_sum"), 12.0);
        assert_eq!(prom_sum(text, "aoft_mux_frames_per_write"), 0.0);
        assert_eq!(prom_sum(text, "absent"), 0.0);
    }

    #[test]
    fn kernel_counts_follow_the_d3_schedule() {
        // Stage i runs steps i..0; a step moves 2^(i-j) entries one way and
        // 2^(i-j+1) back. Three sort stages plus the verification stage,
        // which repeats stage 2's schedule, on 4 node pairs.
        let per_pair: u32 = [0u32, 1, 2, 2]
            .iter()
            .map(|&stage| (0..=stage).map(|d| 3 * (1 << d)).sum::<u32>())
            .sum();
        assert_eq!(per_pair * 4, 216);
        assert_eq!(f64::from(per_pair * 4) / 8.0, PHI_C_REPLIES_PER_JOB);
        let steps: u32 = [0u32, 1, 2, 2].iter().map(|s| s + 1).sum();
        assert_eq!(f64::from(steps * NODES), VECT_MASKS_PER_JOB);
        assert_eq!(f64::from(6 * NODES / 2), MERGE_SPLITS_PER_JOB);
        assert_eq!(
            (0.25 + 0.5 + 1.0) * f64::from(NODES),
            FINAL_BIT_COMPARES_PER_JOB
        );
    }
}
