//! `sweep`: deterministic scaling curves over cube dimension.
//!
//! Runs each requested algorithm on the cooperative scheduler
//! ([`run_deterministic`](aoft_sort::SortBuilder::run_deterministic)) for
//! every dimension in `[--from, --to]` and prints one line per run: cube
//! size, virtual makespan (the paper's Figures 6–8 quantity), message
//! count, and wall-clock. Exactly one thread runs at a time, so d = 12
//! (4096 nodes) fits in CI where the threaded engine could not.
//!
//! `--budget-secs N` makes the sweep itself the CI gate: exit 1 when the
//! whole sweep exceeds the wall-clock budget. Determinism makes the
//! virtual columns bit-stable run over run; only the wall column moves.
//!
//! Out-of-range input exits 2 before anything runs: a dimension above
//! [`MAX_DIMENSION`], `--from` above `--to`, or `--block 0`.
//!
//! ```text
//! sweep [--from D] [--to D] [--algorithms sft,snr] [--block M] [--budget-secs N]
//! ```

use std::time::{Duration, Instant};

use aoft_hypercube::MAX_DIMENSION;
use aoft_sort::{Algorithm, SortBuilder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let from: u32 = flag(&args, "--from").unwrap_or(3);
    let to: u32 = flag(&args, "--to").unwrap_or(10);
    let block: usize = flag(&args, "--block").unwrap_or(1);
    let budget = flag::<u64>(&args, "--budget-secs").map(Duration::from_secs);
    let algorithms: Vec<Algorithm> = match find_value(&args, "--algorithms") {
        Some(list) => list
            .split(',')
            .map(|name| match name {
                "sft" => Algorithm::FaultTolerant,
                "snr" => Algorithm::NonRedundant,
                "host-seq" => Algorithm::HostSequential,
                "host-verify" => Algorithm::HostVerified,
                other => reject(&format!("unknown algorithm `{other}`")),
            })
            .collect(),
        None => vec![Algorithm::FaultTolerant, Algorithm::NonRedundant],
    };
    if from > to {
        reject(&format!("--from {from} exceeds --to {to}"));
    }
    if to > MAX_DIMENSION {
        reject(&format!(
            "dimension {to} exceeds MAX_DIMENSION ({MAX_DIMENSION})"
        ));
    }
    if block == 0 {
        reject("--block must be at least 1");
    }

    println!(
        "{:<12} {:>4} {:>7} {:>9} {:>14} {:>12} {:>10}",
        "algorithm", "dim", "nodes", "keys", "makespan(mt)", "msgs", "wall(ms)"
    );
    let started = Instant::now();
    for dim in from..=to {
        let nodes = 1usize << dim;
        let keys: Vec<i32> = (0..(nodes * block) as i64)
            .map(|x| ((x.wrapping_mul(2654435761)) % 65_536 - 32_768) as i32)
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        for &algorithm in &algorithms {
            let wall = Instant::now();
            let report = SortBuilder::new(algorithm)
                .keys(keys.clone())
                .nodes(nodes)
                .run_deterministic()
                .expect("honest deterministic run");
            assert_eq!(
                report.output(),
                expected,
                "silent corruption at {algorithm} d={dim}"
            );
            let msgs: u64 = report.metrics().nodes.iter().map(|n| n.msgs_sent).sum();
            println!(
                "{:<12} {:>4} {:>7} {:>9} {:>14} {:>12} {:>10}",
                algorithm.name(),
                dim,
                nodes,
                keys.len(),
                report.elapsed().as_millis(),
                msgs,
                wall.elapsed().as_millis()
            );
        }
    }
    let total = started.elapsed();
    eprintln!("sweep total: {:.1}s", total.as_secs_f64());
    if let Some(budget) = budget {
        if total > budget {
            eprintln!(
                "sweep: BUDGET EXCEEDED — {:.1}s > {:.1}s",
                total.as_secs_f64(),
                budget.as_secs_f64()
            );
            std::process::exit(1);
        }
        eprintln!(
            "sweep: within budget ({:.1}s of {:.1}s)",
            total.as_secs_f64(),
            budget.as_secs_f64()
        );
    }
}

fn find_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    find_value(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| reject(&format!("cannot parse {name} value `{v}`")))
    })
}

/// Rejects the command line with a message and exit code 2.
fn reject(message: &str) -> ! {
    eprintln!("sweep: {message}");
    std::process::exit(2);
}
