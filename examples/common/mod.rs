//! Shared bring-up helpers for the examples.
//!
//! Each example is its own crate rooted at `examples/<name>.rs`; they all
//! `mod common;` this file instead of repeating the cube bring-up
//! boilerplate (deterministic demo keys, the standard `S_FT` builder).

// Every example uses a subset of these helpers; the rest would otherwise
// trip dead-code warnings per example crate.
#![allow(dead_code)]

use std::time::Duration;

use aoft::sort::{Algorithm, Key, SortBuilder};

/// Deterministic, scattered demo keys: a multiplicative hash over `0..n`,
/// folded into `-500..500`. `salt` varies the sequence between runs that
/// should not share data.
pub fn demo_keys(n: usize, salt: i64) -> Vec<Key> {
    (0..n as i64)
        .map(|x| (((x + salt).wrapping_mul(2_654_435_761) % 1000) - 500) as Key)
        .collect()
}

/// The expected output: `keys`, ascending.
pub fn sorted(keys: &[Key]) -> Vec<Key> {
    let mut expected = keys.to_vec();
    expected.sort_unstable();
    expected
}

/// The standard fail-stop sorter: `S_FT` over `nodes` nodes with a receive
/// timeout tight enough for a demo but tolerant of loaded CI machines.
pub fn sft_builder(keys: Vec<Key>, nodes: usize) -> SortBuilder {
    SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys)
        .nodes(nodes)
        .recv_timeout(Duration::from_millis(800))
}
