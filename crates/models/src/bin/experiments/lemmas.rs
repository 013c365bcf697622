//! Lemmas 7 and 8 in wall-clock time: `vect_mask(i, j)` costs
//! `O(2^{i−j})`, and the stage-`i` predicates (Φ_P, Φ_F and their
//! composition `bit_compare`) cost `O(2^i)`.
//!
//! Each row should therefore cost about twice the row above it; the `×prev`
//! columns print that ratio. A cell is the median over [`SAMPLES`] timed
//! batches of calls, each batch long enough to last [`BATCH`], so a cell is
//! nanoseconds per call on whatever machine runs it. The tick-denominated
//! figures come from the other experiments; these are the only wall-clock
//! numbers `experiments` prints.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

use aoft_hypercube::{NodeId, Subcube};
use aoft_models::tables::TextTable;
use aoft_sort::predicates::{
    bit_compare_stage, phi_f, phi_p_stage, vect_mask, vect_mask_recursive,
};
use aoft_sort::{Block, LbsBuffer};
use serde::Serialize;

/// Timed batches per cell; the cell is their median.
const SAMPLES: usize = 11;
/// Shortest batch: calls are repeated until one batch lasts this long.
const BATCH: Duration = Duration::from_millis(1);

/// Lemma 7 machine: `N = 2^12`, stage `i = 11`, so `i − j` runs 0..=11.
const LEMMA7_NODES: usize = 1 << 12;
const LEMMA7_STAGE: u32 = 11;
/// Lemma 8 machine: `N = 2^10`, stages 1..=9.
const LEMMA8_NODES: usize = 1 << 10;
const LEMMA8_STAGES: std::ops::RangeInclusive<u32> = 1..=9;

#[derive(Debug, Serialize)]
struct Lemma7Row {
    distance: u32,
    recursive_ns: f64,
    closed_form_ns: f64,
}

#[derive(Debug, Serialize)]
struct Lemma8Row {
    stage: u32,
    phi_p_ns: f64,
    phi_f_ns: f64,
    bit_compare_ns: f64,
}

/// Both growth sweeps, in nanoseconds per call.
#[derive(Debug, Serialize)]
pub struct Lemmas {
    lemma7: Vec<Lemma7Row>,
    lemma8: Vec<Lemma8Row>,
}

/// Median nanoseconds per call of `f`.
fn median_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut batch = |iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    };
    let mut iters = 1u32;
    while batch(iters) < BATCH {
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| batch(iters).as_nanos() as f64 / f64::from(iters))
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

/// The honest (LBS, LLBS) pair a node holds at the end of `stage` on a
/// machine of `nodes` nodes, one key per node: per span of `2^{stage+1}`
/// nodes, LBS is ascending-then-descending and each LLBS half holds the
/// same keys bitonically within its half-subcube.
fn honest_buffers(nodes: usize, stage: u32) -> (LbsBuffer, LbsBuffer) {
    let mut llbs = LbsBuffer::new(nodes, 1);
    let mut lbs = LbsBuffer::new(nodes, 1);
    let span = 1usize << (stage + 1);
    let half = span / 2;
    for start in (0..nodes).step_by(span) {
        let mut values: Vec<i32> = (0..span as i32).collect();
        values[half..].reverse();
        for (off, &v) in values.iter().enumerate() {
            lbs.set(NodeId::new((start + off) as u32), Block::new(vec![v]));
        }
        for half_start in [0, half] {
            let mut half_vals = values[half_start..half_start + half].to_vec();
            half_vals.sort_unstable();
            half_vals[half / 2..].reverse();
            for (off, &v) in half_vals.iter().enumerate() {
                let node = NodeId::new((start + half_start + off) as u32);
                llbs.set(node, Block::new(vec![v]));
            }
        }
    }
    (lbs, llbs)
}

/// Runs both sweeps.
pub fn run() -> Lemmas {
    let node = NodeId::new(0b1010_0110_1001);
    let lemma7 = (0..=LEMMA7_STAGE)
        .map(|distance| {
            let step = LEMMA7_STAGE - distance;
            Lemma7Row {
                distance,
                recursive_ns: median_ns(|| {
                    vect_mask_recursive(LEMMA7_NODES, LEMMA7_STAGE, step, node).len()
                }),
                closed_form_ns: median_ns(|| {
                    vect_mask(LEMMA7_NODES, LEMMA7_STAGE, step, node).len()
                }),
            }
        })
        .collect();
    let me = NodeId::new(0);
    let lemma8 = LEMMA8_STAGES
        .map(|stage| {
            let (lbs, llbs) = honest_buffers(LEMMA8_NODES, stage);
            let span = Subcube::home(stage + 1, me);
            let my_half = Subcube::home(stage, me);
            Lemma8Row {
                stage,
                phi_p_ns: median_ns(|| phi_p_stage(&lbs, span, stage).is_ok()),
                phi_f_ns: median_ns(|| phi_f(&lbs, &llbs, my_half, stage).is_ok()),
                bit_compare_ns: median_ns(|| bit_compare_stage(&lbs, &llbs, me, stage).is_ok()),
            }
        })
        .collect();
    Lemmas { lemma7, lemma8 }
}

/// A label column, then for each series its value and its ratio to the
/// row above (`-` on the first row).
fn growth_table(
    label: &str,
    series: &[&str],
    rows: impl Iterator<Item = (u32, Vec<f64>)>,
) -> TextTable {
    let mut header = vec![label];
    for name in series {
        header.extend([name, "×prev"]);
    }
    let mut table = TextTable::new(header);
    let mut previous: Option<Vec<f64>> = None;
    for (key, values) in rows {
        let mut cells = vec![key.to_string()];
        for (i, value) in values.iter().enumerate() {
            cells.push(format!("{value:.1}"));
            cells.push(
                previous
                    .as_ref()
                    .map_or_else(|| "-".to_string(), |p| format!("{:.2}", value / p[i])),
            );
        }
        table.row(cells);
        previous = Some(values);
    }
    table
}

impl fmt::Display for Lemmas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Lemma 7 — vect_mask(i, j) costs O(2^(i−j)); N = {LEMMA7_NODES}, i = {LEMMA7_STAGE}, ns per call"
        )?;
        let rows = self
            .lemma7
            .iter()
            .map(|r| (r.distance, vec![r.recursive_ns, r.closed_form_ns]));
        let table = growth_table("i−j", &["recursive", "closed form"], rows);
        writeln!(f, "{table}")?;
        writeln!(
            f,
            "Lemma 8 — stage-i predicates cost O(2^i); N = {LEMMA8_NODES}, node 0, ns per call"
        )?;
        let rows = self
            .lemma8
            .iter()
            .map(|r| (r.stage, vec![r.phi_p_ns, r.phi_f_ns, r.bit_compare_ns]));
        let table = growth_table("stage", &["Φ_P", "Φ_F", "bit_compare"], rows);
        write!(f, "{table}")
    }
}
