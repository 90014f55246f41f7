//! Named metrics, the correctness tally, and the result line.

use crate::json::quote;
use std::collections::BTreeMap;

/// Metrics by name, each with its unit.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// Correctness tally: every check is one attempted operation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (solves, jobs, replays, setup checks).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts one operation from a `Result`.
    pub fn check_result(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.check(true, String::new),
            Err(e) => self.check(false, || e),
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A non-finite metric is a failed operation and is written as `0`.
pub fn result_line(metrics: &Metrics, outcome: &Outcome) -> String {
    let mut outcome = outcome.clone();
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, &(value, unit))| {
            outcome.check(value.is_finite(), || format!("metric {name} is {value}"));
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_counts_non_finite_metrics_as_failures() {
        let mut m = Metrics::default();
        m.set("a_s", 1.5, "s");
        let mut o = Outcome::default();
        o.check(true, String::new);
        let line = result_line(&m, &o);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(true)));
        m.set("b", f64::NAN, "s");
        let v = crate::json::parse(&result_line(&m, &o)).unwrap();
        assert_eq!(v.get("failed"), Some(&crate::json::Json::Num(1.0)));
    }
}
