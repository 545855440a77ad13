//! Pins what the `experiments` binary prints and writes at `--scale tiny
//! --queries 4`: every row's columns except the timing ones (`runtime_ms`
//! and the percentile columns), the rows' order, the table titles, T1's
//! statistics and the deterministic summary lines.
//!
//! `experiments_pin.json` holds one release run's `BENCH_<id>.json` rows,
//! in run order, with the timing columns dropped. J1 alone takes most of
//! a tiny run, so its pin is `#[ignore]`d; CI runs both with
//! `--include-ignored`.

use serde_json::Value;
use std::process::Command;

/// Every experiment id but `j1`, in the order the binary runs them.
const IDS: &str = "t1,t2,f1,f2,f3,f4,f5,f6,f7,f8,f9,f10,d1,d3,d4,d5";

const TIMING: [&str; 5] = ["runtime_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"];

fn golden() -> Value {
    serde_json::from_str(include_str!("experiments_pin.json")).expect("golden parses")
}

/// A row without its timing columns; integers become `f64` so a column
/// compares by value whichever way its number was written.
fn pinned(row: &Value) -> Value {
    let fields = row.as_map().expect("a row is an object");
    Value::Map(
        fields
            .iter()
            .filter(|(k, _)| !TIMING.contains(&k.as_str()))
            .map(|(k, v)| {
                let v = match *v {
                    Value::I64(x) => Value::F64(x as f64),
                    Value::U64(x) => Value::F64(x as f64),
                    ref v => v.clone(),
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

struct Run {
    stdout: String,
    rows: Vec<Value>,
}

impl Run {
    /// Runs the binary on `only`, reading back the row files it lists on
    /// its `bench rows:` line, in that order.
    fn new(only: &str) -> Run {
        let dir = std::env::temp_dir().join(format!(
            "uots_experiments_pin_{}_{}",
            only.replace(',', "_"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("row dir");
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--scale", "tiny", "--queries", "4", "--only", only])
            .arg("--bench-dir")
            .arg(&dir)
            .output()
            .expect("experiments runs");
        assert!(
            out.status.success(),
            "experiments failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let files = stdout
            .lines()
            .find_map(|l| l.strip_prefix("bench rows: "))
            .expect("a `bench rows:` line");
        let mut rows = Vec::new();
        for file in files.split(", ") {
            let text = std::fs::read_to_string(file).expect("row file reads");
            let arr: Value = serde_json::from_str(&text).expect("row file parses");
            rows.extend(
                arr.as_seq()
                    .expect("row file is an array")
                    .iter()
                    .map(pinned),
            );
        }
        std::fs::remove_dir_all(&dir).expect("row dir removed");
        Run { stdout, rows }
    }

    fn titles(&self) -> Vec<&str> {
        self.stdout
            .lines()
            .filter_map(|l| l.strip_prefix("## "))
            .collect()
    }

    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{}", self.stdout))
    }

    fn assert_rows(&self, want: &[Value]) {
        for (i, (got, want)) in self.rows.iter().zip(want).enumerate() {
            assert_eq!(got, want, "row {i}");
        }
        assert_eq!(self.rows.len(), want.len(), "row count");
    }
}

fn strs(v: &Value) -> Vec<&str> {
    v.as_seq()
        .expect("an array")
        .iter()
        .map(|s| match s {
            Value::Str(s) => s.as_str(),
            other => panic!("not a string: {other:?}"),
        })
        .collect()
}

/// The pinned titles of J1 (`j1`) or of every other table (`!j1`).
fn want_titles(golden: &Value, j1: bool) -> Vec<&str> {
    strs(golden.get("titles").expect("titles"))
        .into_iter()
        .filter(|t| t.starts_with("J1 ") == j1)
        .collect()
}

/// The pinned rows of J1 (`j1`) or of every other experiment (`!j1`).
fn want_rows(golden: &Value, j1: bool) -> Vec<Value> {
    let j1_id = Value::Str("j1".into());
    golden
        .get("rows")
        .and_then(Value::as_seq)
        .expect("rows")
        .iter()
        .filter(|r| (r.get("experiment") == Some(&j1_id)) == j1)
        .map(pinned)
        .collect()
}

#[test]
fn every_experiment_but_j1_matches_the_pinned_run() {
    let golden = golden();
    let run = Run::new(IDS);

    assert_eq!(run.titles(), want_titles(&golden, false));

    let t1: Vec<&str> = run
        .stdout
        .lines()
        .skip_while(|l| !l.starts_with("## T1 "))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(t1, strs(golden.get("t1").expect("t1")));

    run.assert_rows(&want_rows(&golden, false));

    for prefix in ["d3 summary: ", "d4 summary: ", "d5 summary: "] {
        run.line(prefix);
    }
    assert_eq!(
        Some(&Value::Str(run.line("d5 settled: ").to_string())),
        golden.get("d5_settled")
    );
}

#[test]
#[ignore = "J1 takes most of a tiny run; CI runs it with --include-ignored"]
fn j1_matches_the_pinned_run() {
    let golden = golden();
    let run = Run::new("j1");

    assert_eq!(run.titles(), want_titles(&golden, true));

    run.assert_rows(&want_rows(&golden, true));

    let pairs = match golden.get("j1_pairs") {
        Some(Value::I64(n)) => *n,
        other => panic!("j1_pairs: {other:?}"),
    };
    let line = run.line("j1 view join θ=0.8, ");
    assert!(
        line.ends_with(&format!("({pairs} pairs at every count)")),
        "{line}"
    );
}
