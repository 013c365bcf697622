//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p aoft-models --bin experiments -- all
//! cargo run --release -p aoft-models --bin experiments -- fig6 table1 fig7 fig8 coverage
//! cargo run --release -p aoft-models --bin experiments -- lemmas
//! cargo run --release -p aoft-models --bin experiments -- all --json results/
//! ```
//!
//! With `--json DIR`, each experiment's full record set is also written as
//! JSON for archival/diffing. `lemmas` is the one wall-clock experiment:
//! the growth of Lemmas 7 and 8, in nanoseconds per call.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use aoft_models::complexity::ModelConstants;
use aoft_models::experiments::{coverage, fig6, fig7, fig8, latency, overhead, table1};

mod lemmas;

const SEED: u64 = 0x1989;

fn write_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(dir).expect("create json output dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    std::fs::write(&path, json).expect("write experiment json");
    eprintln!("wrote {}", path.display());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<PathBuf> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(dir) => json_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--json requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    let all = selected.iter().any(|s| s == "all");
    let wants = |name: &str| all || selected.iter().any(|s| s == name);
    let mut ran = false;

    let mut fitted: Option<ModelConstants> = None;

    if wants("fig6") {
        ran = true;
        let fig = fig6::run(5, SEED);
        println!("{fig}\n");
        if let Some(dir) = &json_dir {
            write_json(dir, "fig6", &fig);
        }
    }
    if wants("table1") || wants("fig7") {
        // fig7 projects the fitted constants, so table1 runs for both.
        let table = table1::run(8, SEED);
        if wants("table1") {
            ran = true;
            println!("{table}\n");
            if let Some(dir) = &json_dir {
                write_json(dir, "table1", &table);
            }
        }
        fitted = Some(table.fitted);
    }
    if wants("fig7") {
        ran = true;
        let paper = fig7::run(ModelConstants::PAPER, "paper", 2, 20);
        println!("{paper}");
        if let Some(constants) = fitted {
            let ours = fig7::run(constants, "fitted (this reproduction)", 2, 20);
            println!("{ours}");
            if let Some(dir) = &json_dir {
                write_json(dir, "fig7_fitted", &ours);
            }
        }
        if let Some(dir) = &json_dir {
            write_json(dir, "fig7_paper", &paper);
        }
        println!();
    }
    if wants("fig8") {
        ran = true;
        let fig = fig8::run(5, &[16, 64, 256], SEED);
        println!("{fig}");
        println!(
            "right-shift (blocks favour S_FT): {}\n",
            if fig.right_shift_holds() {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        );
        if let Some(dir) = &json_dir {
            write_json(dir, "fig8", &fig);
        }
    }
    if wants("overhead") {
        ran = true;
        let table = overhead::run(6, SEED);
        println!("{table}");
        if let Some(dir) = &json_dir {
            write_json(dir, "overhead", &table);
        }
        if !table.identities_hold() {
            eprintln!("FATAL: message-count identities violated");
            return ExitCode::FAILURE;
        }
        println!();
    }
    if wants("latency") {
        ran = true;
        let table = latency::run(3, SEED);
        println!("{table}");
        if let Some(dir) = &json_dir {
            write_json(dir, "latency", &table);
        }
        println!();
    }
    if wants("coverage") {
        ran = true;
        let cov = coverage::run(3, SEED);
        println!("{cov}");
        if let Some(dir) = &json_dir {
            write_json(dir, "coverage", &cov);
        }
        if !cov.theorem3_holds() {
            eprintln!("FATAL: a silent wrong result escaped S_FT");
            return ExitCode::FAILURE;
        }
    }
    if wants("lemmas") {
        ran = true;
        let lemmas = lemmas::run();
        println!("{lemmas}");
        if let Some(dir) = &json_dir {
            write_json(dir, "lemmas", &lemmas);
        }
    }

    if !ran {
        eprintln!(
            "unknown experiment(s) {selected:?}; expected: all fig6 table1 fig7 fig8 overhead latency coverage lemmas"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
