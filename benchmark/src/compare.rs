//! `aoft-benchmark compare A.json B.json`: is B worse than A?
//!
//! Both files come from `aoft-benchmark suite --out`; each holds, per
//! workload and metric, the values of every run made. One row per
//! (metric, workload): both medians, their ratio with A as the base, and a
//! verdict against the bound `BENCHMARK.json` fixes for the metric.

use crate::json::Value;
use crate::spec::{self, Better, MetricDef};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// settle it either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges the runs of B against the runs of A.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let change = worse_by(stats::median(a), stats::median(b), better);
    let spread = stats::spread(a).max(stats::spread(b));
    let every_b_vs_every_a = |worse: bool| {
        b.iter().all(|&y| {
            a.iter().all(|&x| {
                let d = worse_by(x, y, better);
                if worse {
                    d > 0.0
                } else {
                    d <= 0.0
                }
            })
        })
    };
    if change > bound {
        if spread <= bound || every_b_vs_every_a(true) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound && !every_b_vs_every_a(false) {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn values(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let list = doc.get("workloads")?.get(workload)?.get(metric)?.as_arr()?;
    let values: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

fn row(name: &str, workload: &str, unit: &str, a: &[f64], b: &[f64], verdict: &str) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let ratio = if ma != 0.0 {
        format!("{:.4}", mb / ma)
    } else if mb == 0.0 {
        "1.0000".to_string()
    } else {
        "inf".to_string()
    };
    println!(
        "{name:<32} {workload:<15} {ma:>14.4} {mb:>14.4} {unit:<7} {ratio:>8} of A  {verdict}"
    );
}

/// Exit code: 0 when nothing is worse, 1 on any `worse` or any rise in
/// `failed_share`, 2 when a file cannot be read.
pub fn run(a_path: &str, b_path: &str, spec_path: Option<&str>) -> i32 {
    let spec_file = spec::locate(spec_path);
    let loaded = spec::load(&spec_file).and_then(|s| {
        let a = spec::load(std::path::Path::new(a_path))?;
        let b = spec::load(std::path::Path::new(b_path))?;
        Ok((s, a, b))
    });
    let (spec_doc, a, b) = match loaded {
        Ok(docs) => docs,
        Err(problem) => {
            eprintln!("aoft-benchmark: {problem}");
            return 2;
        }
    };
    println!(
        "{:<32} {:<15} {:>14} {:>14} {:<7} {:>8}",
        "metric", "workload", "A median", "B median", "unit", "B/A"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    let failed = MetricDef {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
    };
    for workload in spec::WORKLOADS {
        for def in spec::END_TO_END.iter().chain([&failed]) {
            let (Some(va), Some(vb)) = (
                values(&a, workload, def.name),
                values(&b, workload, def.name),
            ) else {
                continue;
            };
            // `failed_share` has no bound: any rise is worse.
            let bound = spec::bound_of(&spec_doc, def.name).unwrap_or(0.0);
            let verdict = judge(&va, &vb, def.better, bound);
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            row(def.name, workload, def.unit, &va, &vb, verdict.as_str());
        }
    }
    for workload in spec::WORKLOADS {
        for def in &spec::PER_LAYER {
            if let (Some(va), Some(vb)) = (
                values(&a, workload, def.name),
                values(&b, workload, def.name),
            ) {
                // Per-layer metrics have no bound: they explain, not gate.
                let note = if stats::median(&va) == stats::median(&vb) {
                    "equal"
                } else {
                    "-"
                };
                row(def.name, workload, def.unit, &va, &vb, note);
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_same() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.03, 1.04, 1.02, 1.05, 1.03];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Same);
    }

    #[test]
    fn beyond_the_bound_is_worse_in_the_right_direction() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.20, 1.22, 1.19, 1.21, 1.20];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Worse);
        // Higher is better: 20 % more is an improvement, not a regression.
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Same);
        assert_eq!(judge(&b, &a, Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_separate() {
        let noisy_a = [1.0, 1.4, 0.8, 1.2, 1.0];
        let noisy_b = [1.1, 1.5, 0.9, 1.0, 1.2];
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: noise cannot hide a loss.
        let better_b = [0.5, 0.6, 0.7, 0.55, 0.65];
        assert_eq!(
            judge(&noisy_a, &better_b, Better::Lower, 0.10),
            Verdict::Same
        );
        // Every run of B loses to every run of A, by more than the bound.
        let worse_b = [2.0, 2.6, 1.8, 2.2, 2.4];
        assert_eq!(
            judge(&noisy_a, &worse_b, Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn any_rise_from_zero_is_worse() {
        assert_eq!(judge(&[0.0], &[0.0], Better::Lower, 0.0), Verdict::Same);
        assert_eq!(judge(&[0.0], &[0.001], Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(
            judge(&[1.0, 1.0], &[1.0, 1.0], Better::Lower, 0.0),
            Verdict::Same
        );
    }
}
