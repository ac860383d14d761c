//! Output side of the benchmark: ordered metric lists, robust summaries, and
//! the one-line JSON result the last line of standard output carries.

use std::time::Duration;

/// One reported metric: a name, a value and its unit. `None` marks a metric
/// the workload cannot observe from outside the program; it is printed as
/// absent, never as 0.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.put_opt(name, Some(value), unit);
    }

    pub fn put_opt(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Take over every metric of `other` whose name is not reported yet.
    pub fn fill_from(&mut self, other: Metrics) {
        for m in other.0 {
            if self.get(m.name).is_none() {
                self.0.push(m);
            }
        }
    }

    /// Print one human-readable line per metric (`metric <name> <value> <unit>`).
    pub fn print_lines(&self) {
        for m in &self.0 {
            match m.value {
                Some(v) => println!("metric {:<34} {:>16.6} {}", m.name, v, m.unit),
                None => println!("metric {:<34} {:>16} {}", m.name, "absent", m.unit),
            }
        }
    }
}

/// Median of a sample (mean of the middle pair for even sizes). Panics on an
/// empty sample: every caller measures at least one trial.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples in nanoseconds, kept exactly so quantiles carry no
/// bucketing error.
#[derive(Clone, Debug, Default)]
pub struct Lat(Vec<u32>);

impl Lat {
    pub fn record(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn merge(&mut self, other: &Lat) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    pub fn max_ns(&self) -> Option<f64> {
        self.0.iter().max().map(|&v| f64::from(v))
    }

    /// The nearest-rank quantile `q` in nanoseconds, or `None` when there are
    /// too few samples for it: a tail quantile is reported only with at least
    /// ten samples beyond it.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        let beyond = (n as f64 * (1.0 - q)).floor();
        if n == 0 || (q > 0.5 && beyond < 10.0) {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut v = self.0.clone();
        let (_, x, _) = v.select_nth_unstable(rank - 1);
        Some(f64::from(*x))
    }
}

/// `num / den`, or `None` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A flat JSON object of string pairs (the recorded configuration line).
pub fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and the named metrics
/// (each with its unit). Absent metrics are left out of the object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .filter_map(|m| {
            m.value.map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(v),
                    json_string(m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_keeps_every_digit_and_drops_absent_metrics() {
        let mut m = Metrics::default();
        m.put("a", 1.2345678901, "ms");
        m.put_opt("b", None, "s");
        m.put("c", 2.0, "s");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.2345678901, \"unit\": \"ms\"}, \"c\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn tail_quantiles_need_ten_samples_beyond_them() {
        let mut h = Lat::default();
        for i in 1..=500u64 {
            h.record(Duration::from_nanos(i));
        }
        assert_eq!(h.quantile_ns(0.5), Some(250.0));
        assert_eq!(h.quantile_ns(0.9), Some(450.0));
        assert!(
            h.quantile_ns(0.99).is_none(),
            "500 samples leave 5 beyond p99"
        );
        for i in 501..=1000u64 {
            h.record(Duration::from_nanos(i));
        }
        assert_eq!(h.quantile_ns(0.99), Some(990.0));
    }
}
