//! `compare <a.jsonl> <b.jsonl>`: are two sets of runs the same within the
//! bounds `BENCHMARK.json` fixes? One row per workload × end-to-end metric.

use std::collections::BTreeMap;
use std::path::Path;

use crate::estim::{quartiles, spread};
use crate::json::Json;

/// workload → metric → values, from the lines `run --out` appended.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?;
        let metrics = run.get("metrics").map_or(&[][..], Json::fields);
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// Returns `Ok(true)` when no metric of `b` is worse than `a` beyond its bound.
///
/// # Errors
/// Unreadable or malformed input files.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let bench = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let (a, b) = (load_runs(a)?, load_runs(b)?);
    println!(
        "{:<14} {:<26} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "change",
        "bound"
    );
    let mut all_ok = true;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for m in bench.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(av), Some(bv)) = (a_metrics.get(name), b_metrics.get(name)) else {
                continue;
            };
            let (a1, a2, a3) = quartiles(av);
            let (b1, b2, b3) = quartiles(bv);
            // Positive = B is worse, as a share of A's median.
            let change = if lower { b2 - a2 } else { a2 - b2 } / a2.abs().max(f64::MIN_POSITIVE);
            let verdict = if change > bound {
                all_ok = false;
                "worse"
            } else if spread(av).max(spread(bv)) > bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<14} {name:<26} {a2:>12.4} {:>22} {b2:>12.4} {:>22} {:>+7.2}% {:>5.1}%  {verdict}",
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                change * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bounds() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(
            &bench,
            r#"{"end_to_end":[{"name":"search_qps","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let runs = |name: &str, values: &[f64]| {
            let path = dir.join(name);
            let lines: Vec<String> = values
                .iter()
                .map(|v| {
                    format!(r#"{{"workload":"w","metrics":{{"search_qps":{{"value":{v},"unit":"1/s"}}}}}}"#)
                })
                .collect();
            std::fs::write(&path, lines.join("\n")).unwrap();
            path
        };
        let a = runs("a.jsonl", &[100.0, 101.0, 99.0]);
        let same = runs("same.jsonl", &[98.0, 100.0, 102.0]);
        let slow = runs("slow.jsonl", &[80.0, 81.0, 79.0]);
        assert!(compare(&bench, &a, &same).unwrap());
        assert!(!compare(&bench, &a, &slow).unwrap());
        assert!(compare(&bench, &slow, &a).unwrap(), "faster is not worse");
        assert!(compare(&bench, &a, &dir.join("missing.jsonl")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
