//! What a run leaves behind: the printed metric lines, the result line
//! the driver reads, `BENCH_<workload>.json` rows, and the `--repeat` /
//! `--compare` tables built from rows.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use serde::Content;

use crate::json;
use crate::run::{Outcome, RunConfig};
use crate::spec::{Catalogue, Metric};
use crate::stats::{iqr_share, median, quartiles};

/// Where a row was measured.
pub struct Stamp {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
}

impl Stamp {
    pub fn take() -> Stamp {
        let line = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or("unknown".to_string(), |s| s.trim().to_string())
        };
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            // "unknown" in a checkout that is not a git repository.
            commit: line("git", &["rev-parse", "HEAD"]),
            rustc: line("rustc", &["--version"]),
        }
    }
}

/// One run, as stored in `BENCH_<workload>.json`.
pub struct Row {
    pub workload: String,
    /// Metric name to value, in catalogue order.
    pub metrics: Vec<(String, f64)>,
    json: String,
}

fn number(v: f64) -> String {
    // JSON has no NaN or infinity; a metric that came out as one is a bug
    // the zero makes visible.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[(String, f64)], catalogue: &Catalogue) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalogue.find(name).map_or("", |m| m.unit.as_str());
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                number(*value)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The metrics of one half in catalogue order. A declared metric the run
/// did not produce, or a produced one that is not declared, is an error:
/// the declaration and the program must not drift apart.
pub fn ordered_metrics(
    outcome: &Outcome,
    trace: bool,
    catalogue: &Catalogue,
) -> Result<Vec<(String, f64)>, String> {
    let declared = catalogue.metrics(trace);
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !declared.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "metric `{name}` was measured but is not declared in BENCHMARK.json"
        ));
    }
    declared
        .iter()
        .map(|m| {
            outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(n, v)| (n.clone(), *v))
                .ok_or_else(|| format!("metric `{}` is declared but was not measured", m.name))
        })
        .collect()
}

/// The last line of a run: exactly the keys the driver reads.
pub fn result_line(outcome: &Outcome, metrics: &[(String, f64)], catalogue: &Catalogue) -> String {
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics, catalogue)
    )
}

pub fn row(
    workload: &str,
    cfg: &RunConfig,
    outcome: &Outcome,
    metrics: Vec<(String, f64)>,
    stamp: &Stamp,
    catalogue: &Catalogue,
) -> Row {
    let json = format!(
        r#"{{"workload": "{workload}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {}, "commit": "{}", "rustc": "{}", "dataset_hash": "{:016x}", "pool_hash": "{:016x}", "correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        cfg.seed,
        number(cfg.seconds),
        u8::from(cfg.trace),
        stamp.nproc,
        stamp.commit,
        stamp.rustc,
        outcome.dataset_hash,
        outcome.pool_hash,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics, catalogue)
    );
    Row {
        workload: workload.to_string(),
        metrics,
        json,
    }
}

/// Writes one `BENCH_<workload>.json` per workload under `dir`: a JSON
/// array with one row per run.
pub fn write_rows(dir: &Path, rows: &[Row]) -> Result<(), String> {
    let mut by_workload: BTreeMap<&str, Vec<&Row>> = BTreeMap::new();
    for r in rows {
        by_workload.entry(&r.workload).or_default().push(r);
    }
    for (workload, rows) in by_workload {
        let body: Vec<&str> = rows.iter().map(|r| r.json.as_str()).collect();
        let path = dir.join(format!("BENCH_{workload}.json"));
        std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Reads every `BENCH_*.json` under `dir` back into rows.
pub fn read_rows(dir: &Path) -> Result<Vec<Row>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let mut rows = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let parsed: Content =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for r in parsed.as_seq().unwrap_or_default() {
            let field = |key: &str| {
                r.get(key)
                    .ok_or(format!("{}: row without `{key}`", path.display()))
            };
            let metrics = field("metrics")?
                .as_map()
                .unwrap_or_default()
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), json::as_f64(m.get("value")?)?)))
                .collect();
            rows.push(Row {
                workload: match field("workload")? {
                    Content::Str(s) => s.clone(),
                    _ => return Err(format!("{}: `workload` is not a string", path.display())),
                },
                metrics,
                json: String::new(),
            });
        }
    }
    Ok(rows)
}

/// Values of every metric per workload, over all rows:
/// `(workload, metric) -> values`, in first-seen order.
fn collect(rows: &[Row]) -> Vec<((String, String), Vec<f64>)> {
    let mut out: Vec<((String, String), Vec<f64>)> = Vec::new();
    for r in rows {
        for (name, value) in &r.metrics {
            let key = (r.workload.clone(), name.clone());
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(*value),
                None => out.push((key, vec![*value])),
            }
        }
    }
    out
}

/// The `--repeat` table: per metric the median, the quartiles, their
/// distance as a share of the median (the driver's steadiness measure)
/// and the largest relative deviation from the median, against the bound.
/// Returns the table and whether every gated metric stayed within its
/// bound.
pub fn repeat_table(rows: &[Row], catalogue: &Catalogue) -> (String, bool) {
    let mut table = String::new();
    let mut steady = true;
    let _ = writeln!(
        table,
        "{:<16} {:<40} {:>5} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "median", "q1", "q3", "iqr/med", "maxdev", "bound"
    );
    for ((workload, name), values) in collect(rows) {
        if values.len() < 2 {
            continue;
        }
        let m = median(&values);
        let (q1, q3) = quartiles(&values);
        let spread = iqr_share(&values);
        let max_dev = values
            .iter()
            .map(|v| if m == 0.0 { 0.0 } else { ((v - m) / m).abs() })
            .fold(0.0, f64::max);
        let bound = catalogue.find(&name).and_then(|m| m.bound);
        let verdict = match bound {
            // setup_s is compared between medians only, never by spread.
            Some(b) if name != "setup_s" && spread > b => {
                steady = false;
                "UNSTEADY"
            }
            Some(b) if name != "setup_s" && spread > b / 3.0 => "wide",
            Some(_) => "ok",
            None => "",
        };
        let _ = writeln!(
            table,
            "{workload:<16} {name:<40} {:>5} {m:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {max_dev:>8.4} {:>6}  {verdict}",
            values.len(),
            bound.map_or(String::new(), |b| format!("{b}")),
        );
    }
    (table, steady)
}

fn worsening(metric: &Metric, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (new - base) / base.abs();
    if metric.lower_is_better {
        change
    } else {
        -change
    }
}

/// The `--compare` table: medians of B against medians of A, by the
/// bound each gated metric declares. Returns the table and whether no
/// gated metric got worse by more than its bound.
pub fn compare_table(a: &[Row], b: &[Row], catalogue: &Catalogue) -> (String, bool) {
    let mut table = String::new();
    let mut held = true;
    let _ = writeln!(
        table,
        "{:<16} {:<40} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    let b_values = collect(b);
    for (key, values_a) in collect(a) {
        let Some(metric) = catalogue.find(&key.1) else {
            continue;
        };
        let Some((_, values_b)) = b_values.iter().find(|(k, _)| *k == key) else {
            // B may hold one half only; a gated metric must be there.
            if metric.bound.is_some() {
                let _ = writeln!(table, "{:<16} {:<40} missing from B", key.0, key.1);
                held = false;
            }
            continue;
        };
        let (ma, mb) = (median(&values_a), median(values_b));
        let worse = worsening(metric, ma, mb);
        let verdict = match metric.bound {
            Some(bound) if worse > bound => {
                held = false;
                "REGRESSED"
            }
            Some(_) => "ok",
            None => "",
        };
        let _ = writeln!(
            table,
            "{:<16} {:<40} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>6}  {verdict}",
            key.0,
            key.1,
            worse * 100.0,
            metric.bound.map_or(String::new(), |b| format!("{b}")),
        );
    }
    (table, held)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(workload: &str, metric: &str, values: &[f64]) -> Vec<Row> {
        values
            .iter()
            .map(|v| Row {
                workload: workload.into(),
                metrics: vec![(metric.into(), *v)],
                json: String::new(),
            })
            .collect()
    }

    #[test]
    fn compare_flags_only_worsening_beyond_the_bound() {
        let c = Catalogue::load();
        let p50 = c.find("topk_p50_ms").expect("declared");
        let bound = p50.bound.expect("gated");
        let a = rows("engine_mixed", "topk_p50_ms", &[10.0, 10.0, 10.0]);
        let slower = rows(
            "engine_mixed",
            "topk_p50_ms",
            &[10.0 * (1.0 + 2.0 * bound); 3],
        );
        let faster = rows("engine_mixed", "topk_p50_ms", &[5.0; 3]);
        assert!(!compare_table(&a, &slower, &c).1);
        assert!(compare_table(&a, &faster, &c).1);
        // higher-is-better metrics regress downwards
        let rps = rows("engine_mixed", "topk_rps", &[100.0; 3]);
        let fewer = rows("engine_mixed", "topk_rps", &[50.0; 3]);
        assert!(!compare_table(&rps, &fewer, &c).1);
        assert!(compare_table(&fewer, &rps, &c).1);
    }

    #[test]
    fn repeat_flags_a_spread_beyond_the_bound() {
        let c = Catalogue::load();
        let tight = rows(
            "engine_mixed",
            "topk_p50_ms",
            &[10.0, 10.01, 10.02, 9.99, 10.0],
        );
        let loose = rows(
            "engine_mixed",
            "topk_p50_ms",
            &[10.0, 20.0, 30.0, 5.0, 15.0],
        );
        assert!(repeat_table(&tight, &c).1);
        assert!(!repeat_table(&loose, &c).1);
    }
}
