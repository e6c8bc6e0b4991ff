//! Percentiles with their sample counts, and the report every run prints.

use serde_json::{json, Map, Value};

/// Nearest-rank percentile `q` (0..=1) of `samples`; `None` when there are
/// fewer than ten samples beyond it, the least that makes a tail
/// percentile more than a few outliers. Failed operations enter as
/// `f64::INFINITY`, so they count as missing any latency limit.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    (v.len() >= rank + 10 || q <= 0.5 && !v.is_empty()).then(|| v[rank - 1])
}

/// The highest nearest-rank percentile of `samples` that has at least ten
/// samples beyond it, capped at p99, as (quantile, value); `None` with
/// fewer than 11 samples. A run's sample count fixes the quantile, so it
/// is the same on every run of a workload.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let rank = n.saturating_sub(10).min((n * 99).div_ceil(100));
    if rank == 0 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some((rank as f64 / n as f64, v[rank - 1]))
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measured total).
    pub samples: usize,
}

/// A run's metrics, in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds percentile `q` of `samples` (milliseconds), or returns the
    /// reason it is not reportable.
    pub fn add_percentile(
        &mut self,
        name: &'static str,
        samples_ms: &[f64],
        q: f64,
    ) -> Result<(), String> {
        let v = percentile(samples_ms, q).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than 10 beyond the {q} quantile",
                samples_ms.len()
            )
        })?;
        if !v.is_finite() {
            return Err(format!(
                "{name}: failed operations push the {q} quantile to infinity"
            ));
        }
        self.add(name, v, "ms", samples_ms.len());
        Ok(())
    }

    /// The human-readable table: name, value, unit and sample count.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "  {:<34} {:>14.4} {:<6} n={}\n",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }

    /// `{"name": {"value", "unit"}}` for the names in `keep`, in that
    /// order; a name this run did not measure is an error.
    pub fn json_metrics(&self, keep: &[&str]) -> Result<Value, String> {
        let mut out = Map::new();
        for &name in keep {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            out.insert(name.to_string(), json!({"value": m.value, "unit": m.unit}));
        }
        Ok(Value::Object(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
    }

    #[test]
    fn tail_is_p99_when_samples_allow_and_lower_otherwise() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.99, 1980.0)));
        let v: Vec<f64> = (1..=450).map(f64::from).collect();
        assert_eq!(tail(&v), Some((440.0 / 450.0, 440.0)));
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.extend([f64::INFINITY; 20]);
        let mut r = Report::default();
        assert!(r.add_percentile("p99", &v, 0.99).is_err());
    }
}
