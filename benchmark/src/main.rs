//! `aoft-benchmark`: the repo benchmark declared by `../BENCHMARK.json`.
//!
//! ```text
//! aoft-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! aoft-benchmark suite [--quick] [--runs R] [--seed N] [--seconds S] [--out FILE]
//! aoft-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! aoft-benchmark list [--spec BENCHMARK.json]
//! ```
//!
//! A workload run prints every metric by name with its unit, then — as the
//! last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero if any answer
//! was silently wrong. See `README.md` for what each number means.

mod compare;
mod gen;
mod harness;
mod json;
mod kernels;
mod layers;
mod micro;
mod run;
mod spec;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::time::Instant;

use json::Value;
use run::{Outcome, Workload};
use spec::MetricDef;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(problem: &str) -> ! {
    eprintln!("aoft-benchmark: {problem}");
    eprintln!(
        "usage: aoft-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]\n       \
         aoft-benchmark suite [--quick] [--runs R] [--seed N] [--seconds S] [--out FILE]\n       \
         aoft-benchmark compare A.json B.json [--spec FILE]\n       \
         aoft-benchmark list [--spec FILE]\n\
         workloads: {}",
        spec::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(text) => text
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad value `{text}` for {name}"))),
    }
}

/// One run of one workload, traced or not.
fn run_one(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    if traced {
        layers::per_layer(workload, seed, seconds, quick)
    } else {
        run::end_to_end(workload, seed, seconds, quick, process_start)
    }
}

fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

/// The metrics of `outcome` as the contract's `{"name": {"value", "unit"}}`.
fn metrics_json(outcome: &Outcome, traced: bool) -> Value {
    Value::Obj(
        defs(traced)
            .iter()
            .map(|def| {
                let value = outcome.metrics.get(def.name).copied().unwrap_or(f64::NAN);
                let entry = json::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(def.unit.to_string())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect(),
    )
}

fn print_table(workload: Workload, outcome: &Outcome, traced: bool) {
    println!(
        "# {} ({}): {} jobs attempted, {} failed, every answer {}",
        workload.name(),
        if traced { "per layer" } else { "end to end" },
        outcome.attempted,
        outcome.failed,
        if outcome.correct {
            "verified"
        } else {
            "NOT verified — silently wrong output"
        }
    );
    for def in defs(traced) {
        match outcome.metrics.get(def.name) {
            Some(value) => println!("{:<34} {value:>16.4} {}", def.name, def.unit),
            None => println!("{:<34} {:>16} {}", def.name, "missing", def.unit),
        }
    }
}

fn result_line(outcome: &Outcome, traced: bool) -> String {
    json::obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome, traced)),
    ])
    .render()
}

fn workload_command(args: &[String], process_start: Instant) -> i32 {
    let name = flag(args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload =
        Workload::from_name(name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`")));
    let seed: u64 = parsed(args, "--seed", 1);
    let seconds: f64 = parsed(args, "--seconds", 15.0);
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace takes 0 or 1, not `{other}`")),
    };
    let quick = args.iter().any(|a| a == "--quick");
    if !(1.0..=600.0).contains(&seconds) {
        usage("--seconds must be between 1 and 600");
    }
    match run_one(workload, seed, seconds, traced, quick, process_start) {
        Ok(outcome) => {
            print_table(workload, &outcome, traced);
            println!("{}", result_line(&outcome, traced));
            i32::from(!outcome.correct)
        }
        Err(problem) => {
            eprintln!("aoft-benchmark: {problem}");
            1
        }
    }
}

/// Every workload, untraced then traced, `runs` times; the values of each
/// (workload, metric) are collected into one file `compare` reads.
fn suite_command(args: &[String]) -> i32 {
    let quick = args.iter().any(|a| a == "--quick");
    let runs: usize = parsed(args, "--runs", 1);
    let seed: u64 = parsed(args, "--seed", 1);
    let seconds: f64 = parsed(args, "--seconds", if quick { 5.0 } else { 15.0 });
    // workload → metric → the value of every run.
    let mut collected: BTreeMap<&str, BTreeMap<&str, Vec<Value>>> = BTreeMap::new();
    let mut push = |workload: Workload, metric: &'static str, value: f64| {
        collected
            .entry(workload.name())
            .or_default()
            .entry(metric)
            .or_default()
            .push(Value::Num(value));
    };
    let mut all_correct = true;
    for run in 0..runs {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let start = Instant::now();
                match run_one(workload, seed, seconds, traced, quick, start) {
                    Ok(outcome) => {
                        print_table(workload, &outcome, traced);
                        all_correct &= outcome.correct;
                        for (name, value) in &outcome.metrics {
                            push(workload, name, *value);
                        }
                        if !traced {
                            let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
                            push(workload, "failed_share", share);
                        }
                    }
                    Err(problem) => {
                        eprintln!("aoft-benchmark: run {run}: {problem}");
                        return 1;
                    }
                }
            }
        }
    }
    let doc = json::obj([
        ("seed", Value::Num(seed as f64)),
        ("runs", Value::Num(runs as f64)),
        ("quick", Value::Bool(quick)),
        (
            "workloads",
            Value::Obj(
                collected
                    .into_iter()
                    .map(|(workload, metrics)| {
                        let metrics = metrics
                            .into_iter()
                            .map(|(name, values)| (name.to_string(), Value::Arr(values)))
                            .collect();
                        (workload.to_string(), Value::Obj(metrics))
                    })
                    .collect(),
            ),
        ),
    ])
    .render();
    match flag(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                eprintln!("aoft-benchmark: cannot write {path}: {e}");
                return 1;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{doc}"),
    }
    i32::from(!all_correct)
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => spec::list(flag(&args, "--spec")),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::run(a, b, flag(&args, "--spec")),
            _ => usage("compare takes two result files"),
        },
        Some("suite") => suite_command(&args),
        Some(_) => workload_command(&args, process_start),
        None => usage("nothing to do"),
    };
    std::process::exit(code);
}
