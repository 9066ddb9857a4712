//! Percentiles and the ordered metric list the benchmark prints.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. Sorts `values` in place. Zero for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, when it is a statistic of samples.
    pub samples: Option<usize>,
}

/// Metrics in the order they are added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_n(name, value, unit, None);
    }

    pub fn push_n(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// One line per metric: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(out, "{:<34} {:>16.4} {}{n}", m.name, m.value, m.unit);
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number as JSON; non-finite values become `null`, which the
/// result check rejects.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
