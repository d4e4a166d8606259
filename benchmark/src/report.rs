//! What a run produces: named metric values, the correctness tally, and
//! the final result line.

use crate::catalog::{self, MetricDef};
use pam_obs::json::escape;
use std::collections::BTreeMap;

/// Oracle checks made and failed. A wrong answer fails the run; it is
/// never a metric.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that found a wrong answer.
    pub failed: u64,
    /// The first few failures, for the error report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; `what` describes it if it failed.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// The values and findings of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// The run's correctness tally.
    pub checks: Checks,
    notes: Vec<String>,
}

impl Report {
    /// Record the value of a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalog does not list, or one set twice:
    /// both are bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::find(name).is_some(),
            "metric {name} is not in the catalog"
        );
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// A value recorded earlier in this run.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// A finding for the human-readable part of the output (sample
    /// counts, tail percentiles, the terms of a derived metric).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the readable report and return the result line: one JSON
    /// object with `correct`, `attempted`, `failed` and every metric of
    /// `defs`. Timings and rates are expressed at nominal machine speed:
    /// times multiplied, rates divided by `factor` (see `calib.rs`; pass
    /// 1.0 for none); sizes and counts are left as measured. A `partial`
    /// run (`--only`) prints just what it measured.
    ///
    /// # Errors
    ///
    /// A description of what is missing or wrong: a metric of `defs`
    /// that was not measured, is not finite, or — for a gated metric —
    /// is not positive; or a failed correctness check.
    pub fn finish(&self, defs: &[MetricDef], factor: f64, partial: bool) -> Result<String, String> {
        for line in &self.notes {
            println!("{line}");
        }
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let raw = match self.get(d.name) {
                Some(v) => v,
                None if partial => continue,
                None => return Err(format!("metric {} was not measured", d.name)),
            };
            let v = d.at_nominal_speed(raw, factor);
            if !v.is_finite() || (d.bound.is_some() && v <= 0.0) {
                return Err(format!("metric {} has the unusable value {v}", d.name));
            }
            if v == raw {
                println!("{:<40} {:>16.4} {}", d.name, v, d.unit);
            } else {
                println!(
                    "{:<40} {:>16.4} {:<8} (as measured: {:.4})",
                    d.name, v, d.unit, raw
                );
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                escape(d.name),
                escape(d.unit)
            ));
        }
        if self.checks.failed > 0 {
            return Err(format!(
                "{} of {} correctness checks failed:\n  {}",
                self.checks.failed,
                self.checks.attempted,
                self.checks.failures.join("\n  ")
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.checks.attempted.max(1),
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;
    use pam_obs::json::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, 1.5 + i as f64);
        }
        r.checks.check(true, || unreachable!());
        let line = r.finish(END_TO_END, 1.0, false).unwrap();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("value").and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn timings_and_rates_scale_and_sizes_do_not() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 100.0);
        }
        let doc = Json::parse(&r.finish(END_TO_END, 0.5, false).unwrap()).unwrap();
        let value = |name: &str| {
            doc.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
        };
        assert_eq!(value("recover_s"), Some(50.0)); // a time, on a slow machine
        assert_eq!(value("build_mkeys_s"), Some(200.0)); // a rate
        assert_eq!(value("mem_bytes_per_entry"), Some(100.0)); // a size
    }

    #[test]
    fn a_missing_metric_or_a_failed_check_is_an_error() {
        let mut r = Report::default();
        assert!(r
            .finish(END_TO_END, 1.0, false)
            .unwrap_err()
            .contains("not measured"));
        assert!(
            r.finish(END_TO_END, 1.0, true).is_ok(),
            "--only prints what it has"
        );
        for d in END_TO_END {
            r.set(d.name, 1.0);
        }
        r.checks.check(false, || "get(7) returned None".into());
        let err = r.finish(END_TO_END, 1.0, false).unwrap_err();
        assert!(err.contains("1 of 1") && err.contains("get(7)"));
    }
}
