//! The `sweep` and `experiments` binaries, run as a user runs them: exit
//! codes, and one printed row per point of each sweep.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

/// The leading number of every row of `text` that starts with one.
fn leading_numbers(text: &str) -> Vec<u32> {
    text.lines()
        .filter_map(|line| line.split_whitespace().next()?.parse().ok())
        .collect()
}

#[test]
fn sweep_prints_one_verified_row_per_algorithm_and_dimension() {
    let output = run(env!("CARGO_BIN_EXE_sweep"), &["--from", "3", "--to", "4"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    // A row is printed only after the output matched the oracle.
    let rows: Vec<(String, u32, usize, usize)> = stdout(&output)
        .lines()
        .skip(1)
        .map(|line| {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells.len(), 7, "row `{line}`");
            (
                cells[0].to_string(),
                cells[1].parse().unwrap(),
                cells[2].parse().unwrap(),
                cells[3].parse().unwrap(),
            )
        })
        .collect();
    let expected: Vec<(String, u32, usize, usize)> = [3u32, 4]
        .iter()
        .flat_map(|&dim| ["S_FT", "S_NR"].map(|name| (name.to_string(), dim, 1 << dim, 1 << dim)))
        .collect();
    assert_eq!(rows, expected);
}

#[test]
fn sweep_rejects_out_of_range_input_with_exit_2() {
    for args in [
        &["--from", "64", "--to", "64"][..],
        &["--from", "25", "--to", "25"],
        &["--block", "0"],
        &["--from", "4", "--to", "3"],
    ] {
        let output = run(env!("CARGO_BIN_EXE_sweep"), args);
        assert_eq!(output.status.code(), Some(2), "sweep {args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "sweep {args:?} ran: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.starts_with("sweep: "), "sweep {args:?}: {stderr}");
    }
}

#[test]
fn experiments_lemmas_prints_every_distance_and_every_stage() {
    let output = run(env!("CARGO_BIN_EXE_experiments"), &["lemmas"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let text = stdout(&output);
    let (lemma7, lemma8) = text.split_once("Lemma 8").expect("a Lemma 8 table");
    assert!(lemma7.starts_with("Lemma 7"), "{text}");
    assert_eq!(leading_numbers(lemma7), (0..=11).collect::<Vec<_>>());
    assert_eq!(leading_numbers(lemma8), (1..=9).collect::<Vec<_>>());
}
