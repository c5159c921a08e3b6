//! Metric aggregation and the result line.

/// One reported metric. `base` names the counts a ratio was taken
/// over, for the human-readable listing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: Option<String>,
}

#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Build and wire operations attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that failed an oracle; each is also described in
    /// `errors`.
    pub wrong_outputs: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (metrics that apply only to some
    /// workloads, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.wrong_outputs == 0 && self.failed == 0 && self.attempted > 0
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base: None,
        });
    }

    /// Record a wrong output (keeps the first few descriptions).
    pub fn wrong(&mut self, what: String) {
        self.wrong_outputs += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Record a failed operation (keeps the first few descriptions).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Human-readable lines: every metric by name, value and unit.
    pub fn human(&self, workload: &str) -> Vec<String> {
        let mut lines = Vec::new();
        for m in &self.metrics {
            let base = m
                .base
                .as_ref()
                .map_or(String::new(), |b| format!("  ({b})"));
            lines.push(format!(
                "{workload} {:<32} {:>14.4} {}{base}",
                m.name, m.value, m.unit
            ));
        }
        let share = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            0.0
        };
        lines.push(format!(
            "{workload} {:<32} {:>14.4} ratio  ({} failed / {} attempted)",
            "failed_share", share, self.failed, self.attempted
        ));
        lines.push(format!(
            "{workload} {:<32} {:>14} count",
            "wrong_outputs", self.wrong_outputs
        ));
        lines.extend(self.notes.iter().map(|n| format!("{workload} {n}")));
        lines.extend(self.errors.iter().map(|e| format!("{workload} error: {e}")));
        lines
    }

    /// The machine-readable result, printed as the last line of stdout.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
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
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// only a broken measurement produces, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Linear-interpolated quantile `q` in `0..=1` of `samples` (sorted
/// here); 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("setup_s", 0.5, "s");
        let line = r.json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
