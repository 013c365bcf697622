//! The measuring loop shared by every workload: short windows of load with
//! a machine-speed probe between them, and the gate that keeps only the
//! windows measured on a quiet machine.
//!
//! This box has noisy neighbours: the same binary reads 10–25 % slower for
//! anything from a tenth of a second to a whole minute, and a probe taken
//! 0.1 s before or after a 1.5 s slice says little about the slice (measured:
//! the slowest slice of a run sat between two quiet probes). So the loop is
//! cut fine — a probe, a window of some tens of milliseconds, a probe — and
//! a window counts only if both probes around it read quiet. The probe is
//! independent of the program under test, so choosing windows by it cannot
//! favour one version of the program over another.

use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::stats;

/// A window is kept only if both probes around it are within this factor
/// of the run's quiet probe.
pub const CALIB_TOLERANCE: f64 = 1.10;
/// The run's quiet probe is this percentile of all its probes.
pub const QUIET_PERCENTILE: f64 = 10.0;
/// At least this share of the windows is kept, quietest first, and never
/// fewer than [`MIN_KEPT_WINDOWS`], so a run on a busy box still reports;
/// `harness.windows_kept_share` says how it went. A larger floor was tried
/// (a quarter): it mixes windows of the box's slow state into runs that saw
/// little of the fast one, and six interleaved `burst_batched` runs spread
/// over 30 % instead of 11 %.
pub const MIN_KEPT_SHARE: f64 = 0.10;
/// The fewest windows kept: enough for a hundred jobs on the slowest
/// workload, whose 150 ms windows hold eight.
pub const MIN_KEPT_WINDOWS: usize = 24;

const CALIB_KEYS: usize = 65_536;
const SORTS_PER_PROBE: usize = 3;

/// The machine-speed probe: how long this box takes, right now, to
/// `sort_unstable` a fixed 65 536-key vector on one thread.
#[derive(Debug)]
pub struct Calibrator {
    keys: Vec<i32>,
    scratch: Vec<i32>,
}

impl Calibrator {
    pub fn new() -> Self {
        // A fixed seed: the probe must not vary with the workload seed.
        let keys = Rng::new(0xCA11_B8A7E).keys(CALIB_KEYS);
        Calibrator {
            scratch: keys.clone(),
            keys,
        }
    }

    /// Median time of one sort, in milliseconds, over three sorts.
    pub fn probe(&mut self) -> f64 {
        let mut samples = [0.0; SORTS_PER_PROBE];
        for sample in &mut samples {
            self.scratch.copy_from_slice(&self.keys);
            let start = Instant::now();
            self.scratch.sort_unstable();
            *sample = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(&self.scratch);
        }
        stats::median(&samples)
    }
}

/// The run's quiet probe reading.
pub fn quiet_calib(calibs: &[f64]) -> f64 {
    let mut sorted = calibs.to_vec();
    stats::sort(&mut sorted);
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(&sorted, QUIET_PERCENTILE)
    }
}

/// Which windows to keep, given the probes around them: `calibs[i]`
/// precedes window `i` and `calibs[i + 1]` follows it.
pub fn gate(calibs: &[f64]) -> Vec<bool> {
    let windows = calibs.len().saturating_sub(1);
    if windows == 0 {
        return Vec::new();
    }
    let limit = CALIB_TOLERANCE * quiet_calib(calibs);
    let worse = |i: usize| calibs[i].max(calibs[i + 1]);
    let mut keep: Vec<bool> = (0..windows).map(|i| worse(i) <= limit).collect();
    let want = ((windows as f64 * MIN_KEPT_SHARE).ceil() as usize)
        .max(MIN_KEPT_WINDOWS)
        .min(windows);
    if keep.iter().filter(|k| **k).count() < want {
        let mut order: Vec<usize> = (0..windows).collect();
        order.sort_by(|&a, &b| worse(a).partial_cmp(&worse(b)).expect("finite probes"));
        keep = vec![false; windows];
        for &i in &order[..want] {
            keep[i] = true;
        }
    }
    keep
}

/// Runs `probe, window, probe, window, …` until `budget` is spent, then
/// gates. Returns each window with its keep flag, and every probe reading.
pub fn drive<W>(
    budget: Duration,
    mut probe: impl FnMut() -> f64,
    mut run_window: impl FnMut(usize) -> W,
) -> (Vec<(W, bool)>, Vec<f64>) {
    let started = Instant::now();
    let mut calibs = vec![probe()];
    let mut windows = Vec::new();
    while started.elapsed() < budget || windows.is_empty() {
        windows.push(run_window(windows.len()));
        calibs.push(probe());
    }
    let keep = gate(&calibs);
    (windows.into_iter().zip(keep).collect(), calibs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `quiet` quiet probes (1.0) followed by slow ones (1.5).
    fn probes(quiet: usize, slow: usize) -> Vec<f64> {
        let mut calibs = vec![1.0; quiet];
        calibs.extend(vec![1.5; slow]);
        calibs
    }

    #[test]
    fn gating_drops_windows_beside_a_slow_probe() {
        // 41 quiet probes make 40 quiet windows; the window between the
        // last quiet probe and the first slow one, and the 59 after it, go.
        let calibs = probes(41, 60);
        let keep = gate(&calibs);
        assert_eq!(keep.len(), 100);
        assert!(keep[..40].iter().all(|k| *k));
        assert!(keep[40..].iter().all(|k| !*k));
        assert_eq!(quiet_calib(&calibs), 1.0);
        // One slow probe in a quiet stretch takes out both its neighbours.
        let mut calibs = probes(60, 0);
        calibs[30] = 1.4;
        let keep = gate(&calibs);
        assert_eq!(keep.iter().filter(|k| !**k).count(), 2);
        assert!(!keep[29] && !keep[30]);
    }

    #[test]
    fn gating_keeps_everything_on_a_quiet_box() {
        let calibs: Vec<f64> = (0..50).map(|i| 1.0 + f64::from(i % 10) / 100.0).collect();
        assert_eq!(gate(&calibs), vec![true; 49]);
    }

    #[test]
    fn gating_falls_back_to_the_quietest_windows() {
        // Every probe 20 % slower than the one before. Of 300 windows the
        // tolerance keeps the 30 whose probes are at or under the 10th
        // percentile …
        let calibs: Vec<f64> = (0..=300).map(|i| 1.2f64.powi(i)).collect();
        let keep = gate(&calibs);
        assert_eq!(keep.iter().filter(|k| **k).count(), 30);
        assert!(
            keep[..30].iter().all(|k| *k),
            "the quietest come first here"
        );
        // … of 100 it would keep 10, so the floor of MIN_KEPT_WINDOWS
        // decides, quietest first …
        let keep = gate(&calibs[..=100]);
        assert_eq!(keep.iter().filter(|k| **k).count(), MIN_KEPT_WINDOWS);
        assert!(keep[..MIN_KEPT_WINDOWS].iter().all(|k| *k));
        // … and a short run keeps what it has.
        assert_eq!(gate(&calibs[..=8]), vec![true; 8]);
        assert_eq!(gate(&[1.0]), Vec::<bool>::new());
        assert_eq!(gate(&[1.0, 9.0]), vec![true]);
    }

    #[test]
    fn the_probe_reads_a_plausible_time() {
        let reading = Calibrator::new().probe();
        assert!(reading > 0.0 && reading < 10_000.0, "{reading} ms");
    }

    #[test]
    fn drive_alternates_probes_and_windows() {
        let mut calls = Vec::new();
        let mut probes = 0;
        let (windows, calibs) = drive(
            Duration::from_millis(30),
            || {
                probes += 1;
                1.0 + f64::from(probes % 3) / 10.0
            },
            |i| {
                calls.push(i);
                std::thread::sleep(Duration::from_millis(2));
                i
            },
        );
        assert_eq!(calibs.len(), windows.len() + 1);
        assert!(windows.len() >= 2);
        assert_eq!(calls, (0..windows.len()).collect::<Vec<_>>());
        let kept = windows.iter().filter(|(_, kept)| *kept).count();
        assert!(kept >= windows.len().min(MIN_KEPT_WINDOWS));
    }
}
