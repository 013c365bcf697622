//! The live-fire Byzantine campaign gate.
//!
//! ```text
//! aoft-adv campaign [--quick]
//! ```
//!
//! Runs every Definition-3 fault class over every medium — the cooperative
//! deterministic engine, in-process channels, and a real loopback TCP
//! cluster — across cube dimensions, classifies each trial with
//! [`aoft_faults::campaign`], and exits nonzero if **any** trial is
//! silently wrong (Theorem 3's never-silently-wrong claim, exercised over
//! the production wire) or if the equivocator live-fire phase fails to
//! quarantine the liar itself.
//!
//! `--quick` is the PR-pipeline subset: TCP and the deterministic engine at
//! d = 3..4. The full matrix (nightly) adds in-process channels and runs
//! d = 3..6.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use aoft_adv::ByzantineTransport;
use aoft_faults::{run_campaign, FaultKind, FaultPlan, TrialOutcome, Trigger};
use aoft_hypercube::NodeId;
use aoft_net::{InProc, MuxTransport};
use aoft_sort::{Algorithm, Key, SortBuilder, SortError};
use aoft_svc::{JobSpec, SortService, SvcConfig};

const USAGE: &str = "\
usage:
  aoft-adv campaign [--quick]   run the Byzantine fault-coverage matrix;
                                exit 0 iff no trial is silently wrong and
                                the equivocator live-fire quarantines the
                                equivocator itself
                                  --quick  TCP + deterministic engine at
                                           d=3..4 (the PR-pipeline subset)
";

/// Receive deadline for threaded media; generous for loaded CI machines.
const RECV_TIMEOUT: Duration = Duration::from_millis(800);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => {
            let quick = match args.get(1).map(String::as_str) {
                None => false,
                Some("--quick") => true,
                Some(other) => {
                    eprintln!("aoft-adv: unexpected argument `{other}`\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            campaign(quick)
        }
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("aoft-adv: unknown or missing subcommand\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The transport medium one trial runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Medium {
    /// Cooperative deterministic engine, adversaries installed in-engine.
    Det,
    /// Thread-per-node over in-process channels, adversaries on the wire.
    InProc,
    /// Thread-per-node over mux sessions on loopback TCP, adversaries on the
    /// wire.
    Tcp,
}

impl Medium {
    fn name(self) -> &'static str {
        match self {
            Medium::Det => "det",
            Medium::InProc => "inproc",
            Medium::Tcp => "tcp",
        }
    }
}

fn campaign(quick: bool) -> ExitCode {
    let (media, dims): (&[Medium], std::ops::RangeInclusive<u32>) = if quick {
        (&[Medium::Tcp, Medium::Det], 3..=4)
    } else {
        (&[Medium::InProc, Medium::Tcp, Medium::Det], 3..=6)
    };

    // The plan sequence and the (medium, dim) schedule are built in the
    // same order; the runner pops the schedule as run_campaign walks the
    // plans.
    let mut plans = Vec::new();
    let mut schedule = std::collections::VecDeque::new();
    for &medium in media {
        for d in dims.clone() {
            for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
                let seed = 0xA0F7 ^ (u64::from(d) << 32) ^ ((i as u64) << 8) ^ quick as u64;
                // Mid-range node: it has both lower and higher neighbors, so
                // equivocation-style faults (which lie to higher labels)
                // actually fire.
                let faulty = (1u32 << d) / 2 - 1;
                let plan = FaultPlan::new().with_fault(
                    NodeId::new(faulty),
                    kind,
                    Trigger::from_seq(1),
                    seed,
                );
                plans.push((format!("{}/{}", kind.name(), medium.name()), plan));
                schedule.push_back((medium, d, seed));
            }
        }
    }

    let mut efforts: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut schedule_iter = schedule;
    let labels: Vec<String> = plans.iter().map(|(label, _)| label.clone()).collect();
    let mut trial_idx = 0usize;
    let result = run_campaign(plans.clone(), |plan| {
        let (medium, d, seed) = schedule_iter
            .pop_front()
            .expect("schedule covers every plan");
        let (outcome, effort) = run_trial(medium, d, plan, seed);
        let slot = efforts.entry(labels[trial_idx].clone()).or_insert((0, 0));
        slot.0 += effort;
        slot.1 += 1;
        trial_idx += 1;
        outcome
    });

    println!("{result}");
    println!("mean effort per trial (ticks: node send+idle+compute over all attempts)");
    for (label, (total, trials)) in &efforts {
        println!("  {label:<32} {:>10}", total / trials.max(&1));
    }
    println!();

    let quarantine_ok = match equivocator_live_fire() {
        Ok(summary) => {
            println!("equivocator live-fire (TCP, d=3): {summary}");
            true
        }
        Err(err) => {
            eprintln!("equivocator live-fire FAILED: {err}");
            false
        }
    };

    let total = result.total();
    println!(
        "\n{} trials: {} correct, {} detected, {} silently wrong, {} inconclusive",
        total.trials, total.correct, total.detected, total.silently_wrong, total.inconclusive
    );
    if !result.never_silently_wrong() {
        eprintln!("GATE FAILED: at least one trial was silently wrong");
        return ExitCode::FAILURE;
    }
    if !quarantine_ok {
        return ExitCode::FAILURE;
    }
    println!("GATE PASSED: zero silent corruption across the matrix");
    ExitCode::SUCCESS
}

fn run_trial(medium: Medium, d: u32, plan: &FaultPlan, seed: u64) -> (TrialOutcome, u64) {
    let n = 1usize << d;
    let keys = scrambled_keys(n * 2, seed);
    let mut expected = keys.clone();
    expected.sort_unstable();
    let builder = SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys)
        .nodes(n)
        .recv_timeout(RECV_TIMEOUT)
        .job(seed);
    let result = match medium {
        Medium::Det => builder.fault_plan(plan.clone()).run_deterministic(),
        Medium::InProc => builder.run_on(ByzantineTransport::new(InProc::new(), plan.clone())),
        Medium::Tcp => match MuxTransport::loopback(n as u32) {
            Ok(tcp) => builder.run_on(ByzantineTransport::new(tcp, plan.clone())),
            Err(err) => return (TrialOutcome::Inconclusive(format!("tcp bind: {err}")), 0),
        },
    };
    match result {
        Ok(report) => {
            let effort = report.metrics().effort();
            if report.output() == expected.as_slice() {
                (TrialOutcome::Correct, effort)
            } else {
                (TrialOutcome::SilentlyWrong, effort)
            }
        }
        Err(SortError::Detected { effort, .. }) => (TrialOutcome::Detected, effort),
        Err(err) => (TrialOutcome::Inconclusive(err.to_string()), 0),
    }
}

/// The acceptance phase: a d=3 cube over loopback TCP with one two-faced
/// node. The service must quarantine the equivocator *itself* (not a
/// bystander) off the Φ_C intersection evidence and answer the job
/// correctly on the surviving subcube.
fn equivocator_live_fire() -> Result<String, String> {
    // P0's neighbors are all higher-labeled, so the two-faced node lies on
    // every link — and each link's stream is seeded independently, so it
    // tells each neighbor a *different* story. The exchange schedule makes
    // P0 the replier on every link, and a reply echoes back the entries
    // the partner transmitted one step earlier: when a skew lands on an
    // echoed slot, the receiver holds first-hand evidence that travelled
    // only `receiver → P0 → receiver` — Φ_C names P0 directly (Lemma 6)
    // and recovery quarantines it without collateral.
    const EQUIVOCATOR: u32 = 0;
    let plan = FaultPlan::new().with_fault(
        NodeId::new(EQUIVOCATOR),
        FaultKind::TwoFaced,
        Trigger::always(),
        0xE0_0D,
    );
    let tcp = MuxTransport::loopback(8).map_err(|err| format!("tcp bind: {err}"))?;
    let transport = ByzantineTransport::new(tcp, plan);
    let config = SvcConfig::new(3)
        .workers(1)
        .max_attempts(4)
        .quarantine_after(2)
        .min_dim(2)
        .recv_timeout(RECV_TIMEOUT);
    let service =
        SortService::start(config, transport).map_err(|err| format!("service start: {err}"))?;
    let keys = scrambled_keys(16, 0xE0);
    let mut expected = keys.clone();
    expected.sort_unstable();
    let report = service
        .submit(JobSpec::new(keys))
        .map_err(|err| format!("submit: {err}"))?
        .wait()
        .map_err(|err| match err {
            aoft_svc::JobError::Exhausted {
                attempts,
                detections,
            } => {
                let mut msg = format!("all {attempts} attempt(s) fail-stopped:");
                for (i, reports) in detections.iter().enumerate() {
                    for report in reports {
                        msg.push_str(&format!("\n  attempt {}: {report}", i + 1));
                    }
                }
                msg
            }
            other => format!("job failed: {other}"),
        })?;
    if report.output != expected {
        return Err("retry answered with wrong output".into());
    }
    let quarantined = service.quarantined();
    if quarantined != vec![EQUIVOCATOR] {
        return Err(format!(
            "expected the equivocator P{EQUIVOCATOR} alone in quarantine, got {quarantined:?}"
        ));
    }
    Ok(format!(
        "P{EQUIVOCATOR} quarantined by Φ_C evidence, correct answer after {} attempt(s), \
         effort {} ticks",
        report.attempts, report.effort
    ))
}

/// The stress suite's key scrambler: full coverage of the value range,
/// deterministic in the seed, no RNG dependency.
fn scrambled_keys(count: usize, seed: u64) -> Vec<Key> {
    (0..count as i64)
        .map(|x| {
            let mixed = x.wrapping_add(seed as i64).wrapping_mul(2654435761);
            (mixed % 65_536 - 32_768) as Key
        })
        .collect()
}
