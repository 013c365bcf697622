//! The Prometheus text exposition format (version 0.0.4): the one writer
//! every endpoint renders with ([`Exposition`]), and a minimal parser.
//!
//! The parser is just enough to let tests and the CI gate assert that a
//! scrape is well-formed and that required metric families are present —
//! not a full client library.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write};

use crate::hist::Histogram;

/// Builds exposition text: each family's `# HELP`/`# TYPE` header once
/// ([`family`](Self::family)), then every sample of it, whoever owns them.
#[derive(Debug, Default)]
pub struct Exposition(String);

impl Exposition {
    /// Starts family `name` of `kind` (`counter`, `gauge` or `histogram`).
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = write!(self.0, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
    }

    /// One sample, `name{labels} value`; label values are escaped.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        self.0.push_str(name);
        for (i, (label, v)) in labels.iter().enumerate() {
            let v = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.0, "{open}{label}=\"{v}\"");
        }
        if !labels.is_empty() {
            self.0.push('}');
        }
        let _ = writeln!(self.0, " {value}");
    }

    /// Histogram `h`'s `_bucket`, `_sum` and `_count` samples. `seconds`:
    /// its samples are microseconds, rendered as seconds; otherwise they are
    /// counts (batch occupancy, frames per write), rendered as they are.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram, seconds: bool) {
        let scale = |v: u64| if seconds { v as f64 / 1e6 } else { v as f64 };
        let snap = h.snapshot();
        let bucket = format!("{name}_bucket");
        for (bound, cumulative) in &snap.cumulative {
            let le = bound.map_or("+Inf".to_string(), |b| scale(b).to_string());
            let labels: Vec<_> = labels.iter().copied().chain([("le", &le[..])]).collect();
            self.sample(&bucket, &labels, cumulative);
        }
        self.sample(&format!("{name}_sum"), labels, scale(snap.sum_us));
        self.sample(&format!("{name}_count"), labels, snap.count);
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.0
    }
}

/// Parses exposition text, validating line shape, and returns the set of
/// metric *family* names seen (sample names with `_bucket`/`_sum`/`_count`
/// suffixes are folded into their histogram family when a `# TYPE <name>
/// histogram` header announced one).
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse_families(text: &str) -> Result<BTreeSet<String>, String> {
    let samples = parse_samples(text)?;
    Ok(samples.into_keys().collect())
}

/// Parses exposition text into `family name → sum of sample values` (for
/// labeled families the samples are summed; histogram families report their
/// `_count`).
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse_samples(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut histograms: BTreeSet<String> = BTreeSet::new();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without a name", lineno + 1))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without a kind", lineno + 1))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {}: unknown TYPE kind {kind}", lineno + 1));
            }
            if kind == "histogram" {
                histograms.insert(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value on sample line: {line}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: unparseable value {value:?}", lineno + 1))?;
        let name = match name_and_labels.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {}: unterminated label set", lineno + 1));
                }
                name
            }
            None => name_and_labels,
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: invalid metric name {name:?}", lineno + 1));
        }
        // Fold histogram series into their family.
        let mut family = name.to_string();
        let mut is_count = false;
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(suffix) {
                if histograms.contains(stripped) {
                    family = stripped.to_string();
                    is_count = suffix == "_count";
                    break;
                }
            }
        }
        if histograms.contains(&family) {
            if is_count {
                out.insert(family, value);
            } else {
                out.entry(family).or_insert(0.0);
            }
        } else {
            *out.entry(family).or_insert(0.0) += value;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_gauges_and_histograms() {
        let text = "\
# HELP x_total things\n\
# TYPE x_total counter\n\
x_total{link=\"0→1#2\"} 3\n\
x_total{link=\"1→0#2\"} 4\n\
# TYPE q gauge\n\
q 7\n\
# TYPE lat histogram\n\
lat_bucket{le=\"0.001\"} 1\n\
lat_bucket{le=\"+Inf\"} 2\n\
lat_sum 0.5\n\
lat_count 2\n";
        let samples = parse_samples(text).unwrap();
        assert_eq!(samples["x_total"], 7.0);
        assert_eq!(samples["q"], 7.0);
        assert_eq!(samples["lat"], 2.0);
        let families = parse_families(text).unwrap();
        assert_eq!(families.len(), 3);
        assert!(families.contains("lat"));
    }

    #[test]
    fn writer_groups_samples_under_one_header() {
        let mut out = Exposition::default();
        out.family("x_total", "counter", "things");
        out.sample("x_total", &[("cube", "0")], 3);
        out.sample("x_total", &[("cube", "1"), ("why", "a\"b\\c\nd")], 4);
        let h = Histogram::new();
        h.record_count(4);
        out.family("occ", "histogram", "jobs per batch");
        out.histogram("occ", &[("cube", "0")], &h, false);
        let text = out.finish();
        assert_eq!(text.matches("# TYPE").count(), 2);
        assert!(text.contains("x_total{cube=\"1\",why=\"a\\\"b\\\\c\\nd\"} 4\n"));
        assert!(text.contains("occ_bucket{cube=\"0\",le=\"8\"} 1\n"));
        assert!(text.contains("occ_count{cube=\"0\"} 1\n"));
        let samples = parse_samples(&text).unwrap();
        assert_eq!(samples["x_total"], 7.0);
        assert_eq!(samples["occ"], 1.0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_samples("x_total notanumber").is_err());
        assert!(parse_samples("bad name{ 3").is_err());
        assert!(parse_samples("x{le=\"1\" 3").is_err());
        assert!(parse_samples("# TYPE x flavor\nx 1").is_err());
    }
}
