//! `suite` records a set of runs (every workload, several seeds) in one
//! file; `compare` judges two such sets against the bounds fixed in
//! `BENCHMARK.json`: per (workload, metric) `ok`, `regressed`, or
//! `unresolved` when the run-to-run spread is wider than the bound.

use crate::catalog::Better;
use crate::env::{fingerprint_json, repo_root};
use crate::profile::{PROFILES, RUN_SECONDS};
use crate::stats::{median, spread};
use pam_obs::json::{escape, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// `metric -> values over the runs`, per workload.
type Workloads = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `suite --runs N [--seed BASE] [--trace 0|1] --out FILE`: run every
/// workload `N` times, each run a fresh process with its own seed (as
/// the acceptance driver does), and write the values with the machine
/// fingerprint.
///
/// # Errors
///
/// Bad arguments, a run that fails or prints no result line, or an
/// unwritable output file.
pub fn suite(args: &[String]) -> Result<(), String> {
    let runs: usize = flag(args, "--runs")
        .ok_or("suite: --runs N is required")?
        .parse()
        .map_err(|e| format!("--runs: {e}"))?;
    let base: u64 = flag(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let trace = flag(args, "--trace").unwrap_or("0");
    let out = flag(args, "--out").ok_or("suite: --out FILE is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut sections = Vec::new();
    for profile in PROFILES {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut seeds = Vec::new();
        for i in 0..runs as u64 {
            let seed = base + i;
            eprintln!("suite: {} seed {seed} ({}/{runs})", profile.name, i + 1);
            let output = Command::new(&exe)
                .args(["--workload", profile.name, "--seed", &seed.to_string()])
                .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", trace])
                .output()
                .map_err(|e| format!("spawn a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "run {} seed {seed} failed: {}",
                    profile.name,
                    String::from_utf8_lossy(&output.stderr).trim()
                ));
            }
            let line = stdout.lines().last().unwrap_or("");
            let doc = Json::parse(line).map_err(|e| format!("result line of seed {seed}: {e}"))?;
            let metrics = doc
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("result line has no metrics")?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without value")?;
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                values
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(value);
            }
            seeds.push(seed.to_string());
        }
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, (unit, vs))| {
                let vs: Vec<String> = vs.iter().map(f64::to_string).collect();
                format!(
                    "      \"{}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                    escape(name),
                    escape(unit),
                    vs.join(", ")
                )
            })
            .collect();
        sections.push(format!(
            "    \"{}\": {{\"seeds\": [{}], \"metrics\": {{\n{}\n    }}}}",
            profile.name,
            seeds.join(", "),
            metrics.join(",\n")
        ));
    }
    let doc = format!(
        "{{\n  \"claim\": null,\n  \"trace\": {trace},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"fingerprint\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        fingerprint_json(),
        sections.join(",\n")
    );
    std::fs::write(out, doc).map_err(|e| format!("write {out}: {e}"))
}

fn load_set(path: &str) -> Result<Workloads, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path} has no workloads"))?;
    let mut out = Workloads::new();
    for (w, section) in workloads {
        let metrics = section
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: workload {w} has no metrics"))?;
        let slot = out.entry(w.clone()).or_default();
        for (name, m) in metrics {
            let values: Vec<f64> = m
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{path}: {w}/{name} has no values"))?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            slot.insert(name.clone(), values);
        }
    }
    Ok(out)
}

/// The gate's verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The spread of either side exceeds the bound: the runs cannot
    /// resolve a change of that size, so it is not reported as unchanged.
    Unresolved,
}

/// Judge set `b` against set `a`. Returns the share by which `b`'s
/// median is worse (negative: better) and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    let verdict = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// `compare A.json B.json [--bench BENCHMARK.json]`.
///
/// # Errors
///
/// Unreadable inputs, or at least one regressed pair (so a script can
/// gate on the exit code).
pub fn main(args: &[String]) -> Result<(), String> {
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = files[..] else {
        return Err("usage: compare A.json B.json [--bench BENCHMARK.json]".into());
    };
    let default_bench = repo_root().join("BENCHMARK.json");
    let bench_path = flag(args, "--bench").map_or(default_bench, Into::into);
    let bench = std::fs::read_to_string(&bench_path)
        .map_err(|e| format!("read {}: {e}", bench_path.display()))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", bench_path.display())))?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);

    let mut regressed = 0;
    println!(
        "{:<9} {:<24} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "IQR A", "IQR B", "bound"
    );
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload:<9} missing from {b_path}");
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            for def in bench.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
                let name = def.get("name").and_then(Json::as_str).unwrap_or("");
                let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                    continue;
                };
                let better = match def.get("better").and_then(Json::as_str) {
                    Some("higher") => Better::Higher,
                    _ => Better::Lower,
                };
                let bound = def.get("bound").and_then(Json::as_f64);
                let (worse, verdict) = judge(va, vb, better, bound.unwrap_or(f64::INFINITY));
                let iqr = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
                let verdict = match (bound, verdict) {
                    (None, _) => "-".to_string(),
                    (Some(_), v) => format!("{v:?}").to_lowercase(),
                };
                regressed += usize::from(verdict == "regressed");
                println!(
                    "{workload:<9} {name:<24} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>6}  {verdict}",
                    median(va),
                    median(vb),
                    worse * 100.0,
                    iqr(va) * 100.0,
                    iqr(vb) * 100.0,
                    bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                );
            }
        }
    }
    if regressed > 0 {
        return Err(format!(
            "{regressed} (workload, metric) pairs regressed past their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        // a latency 20 % up against a 10 % bound
        let (worse, v) = judge(&steady, &slower, Better::Lower, 0.10);
        assert!((worse - 0.2).abs() < 0.01);
        assert_eq!(v, Verdict::Regressed);
        // the same numbers as a throughput are an improvement
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10).1, Verdict::Ok);
        // a throughput 17 % down
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10).1,
            Verdict::Regressed
        );
        // within the bound
        assert_eq!(
            judge(&steady, &[105.0, 106.0, 104.0], Better::Lower, 0.10).1,
            Verdict::Ok
        );
        // a spread wider than the bound resolves nothing
        let noisy = [80.0, 100.0, 125.0, 90.0, 115.0];
        assert_eq!(
            judge(&noisy, &slower, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
    }
}
