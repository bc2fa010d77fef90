//! Order statistics, process memory, and the JSON the benchmark prints.

use std::fmt::Write as _;

/// The `p`-th percentile (0–100) by the nearest-rank rule: the smallest
/// sample with at least `p`% of the samples at or below it. Sorts a copy.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, averaging the two middle samples of an even count; 0 for no
/// samples (the run then reports the metric with a sample count of 0).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest of `samples`; 0 for none.
pub fn fastest(samples: &[f64]) -> f64 {
    let least = samples.iter().copied().min_by(f64::total_cmp);
    least.unwrap_or(0.0)
}

/// The fastest repetition of each operation of a list that is run many
/// times: position `i` holds the least time operation `i` ever took.
///
/// The machine's interference is additive and one-sided — a stolen time
/// slice makes an operation slower, never faster — and it comes at
/// millisecond grain, so while whole passes are slowed for seconds on end,
/// any single operation still runs undisturbed in some of its
/// repetitions. The engines are deterministic: the same request on the
/// same state does the same work, so the least time is that work, and
/// everything above it was the neighbours. (See README, "Steadiness".)
#[derive(Debug, Default, Clone)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// Folds one repetition in. Repetitions of another length than the
    /// first are a failed repetition and are left out.
    pub fn fold(&mut self, repetition: &[f64]) {
        if self.0.is_empty() {
            self.0 = repetition.to_vec();
        } else if self.0.len() == repetition.len() {
            for (best, &sample) in self.0.iter_mut().zip(repetition) {
                *best = best.min(sample);
            }
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// `(max − min) / median`: how far apart the repetitions of one run landed.
pub fn spread(samples: &[f64]) -> f64 {
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One measured value on its way to the output.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (passes, requests, ingests…).
    pub samples: usize,
    /// `(max − min) / median` over the run's repetitions (passes,
    /// windows), when there are several: how disturbed the run was.
    pub spread: Option<f64>,
}

/// Metrics of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            spread: None,
        });
    }

    /// Records a value taken over repetitions: `samples` timed operations
    /// behind it, and the repetitions' own series (one figure per pass or
    /// window) for the spread.
    pub fn put_repeated(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        series: &[f64],
    ) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            spread: Some(spread(series)),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A finite number as JSON, with every digit `f64` carries.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}` — the shape the driver reads.
pub fn metrics_object(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Reads back a result line this program printed (`--aa` and
/// `--workload all` run each workload in a child): `correct`, `attempted`
/// and every metric's value and unit. Not a JSON parser — it knows the
/// one shape [`metrics_object`] writes.
pub fn parse_result_line(line: &str) -> Option<(bool, u64, Metrics)> {
    let rest = line.strip_prefix("{\"correct\": ")?;
    let correct = rest.starts_with("true");
    let attempted = rest
        .split_once("\"attempted\": ")?
        .1
        .split(',')
        .next()?
        .parse()
        .ok()?;
    let mut metrics = Metrics::default();
    let body = rest.split_once("\"metrics\": {")?.1;
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let (name, fields) = entry.split_once("\": {\"value\": ")?;
        let name = name.rsplit('"').next()?;
        let (value, unit) = fields.split_once(", \"unit\": \"")?;
        let unit = UNITS.iter().find(|u| **u == unit)?;
        metrics.put(name, value.parse().ok()?, unit, 1);
    }
    Some((correct, attempted, metrics))
}

/// Every unit a metric is reported in.
const UNITS: [&str; 9] = ["s", "ms", "us", "ns", "1/s", "MiB", "B", "ratio", "count"];

/// The same metrics with sample counts and pass spreads, for the detail
/// line a human reads.
pub fn metrics_detail(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let spread = m.spread.map_or(String::new(), |s| {
                format!(", \"pass_spread\": {}", json_num(s))
            });
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}{spread}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Order of the input does not matter; small sets round up.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 67.0), 9.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fastest_keeps_the_least_per_position() {
        let mut best = Fastest::default();
        best.fold(&[3.0, 9.0, 5.0]);
        best.fold(&[4.0, 2.0, 5.5]);
        best.fold(&[1.0, 1.0]); // a short repetition failed part-way
        assert_eq!(best.values(), [3.0, 2.0, 5.0]);
        assert_eq!(best.sum(), 10.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn json_escapes_and_keeps_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "null");
        let mut m = Metrics::default();
        m.put("x_ms", 0.1 + 0.2, "ms", 3);
        assert_eq!(
            metrics_object(&m),
            "{\"x_ms\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}}"
        );
        assert!(metrics_detail(&m).contains("\"samples\": 3"));
    }
}
