//! Order statistics, per-layer tallies, and the result line.

use std::time::Duration;

use serde_json::Value;

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of `values`, with the number of
/// samples strictly beyond that rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    if values.is_empty() {
        return (f64::NAN, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Calls into one layer: how many, and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub count: u64,
    pub ns: u64,
}

impl Tally {
    pub fn add(&mut self, elapsed: Duration) {
        self.count += 1;
        self.ns += elapsed.as_nanos() as u64;
    }

    pub fn merge(&mut self, other: Tally) {
        self.count += other.count;
        self.ns += other.ns;
    }

    /// Mean nanoseconds per call; 0 when the layer was never called.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// Named metrics with units, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Whether every value is a finite number (JSON has no NaN).
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    let value = if value.is_finite() { *value } else { 0.0 };
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(value)),
                            ("unit".to_string(), Value::String(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The one-line verdict the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics.to_value()),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), (990.0, 10));
        assert_eq!(percentile(&values, 0.50), (500.0, 500));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        let line = result_line(true, 4, 0, &m);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }
}
