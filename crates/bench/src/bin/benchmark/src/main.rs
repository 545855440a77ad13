//! `benchmark` — the repository's benchmark.
//!
//! The end-to-end half drives the release `uots` / `uots-serve` binaries
//! from outside: a generated dataset file, HTTP bodies, `/proc/<pid>` and
//! `GET /metrics`. The per-layer half is a separate traced run that
//! replays part of the same pool through each layer's public functions
//! (`layers.rs`). `README.md` in this directory has the catalogue.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1     what BENCHMARK.json's command runs
//! benchmark --all [--seed N] [--seconds S] [--repeat N] [--out DIR]
//! benchmark --smoke                                              all four, tiny scale, seconds
//! benchmark --compare DIR_A DIR_B
//! ```
//!
//! Every run prints its metrics as `workload name value unit` lines and
//! ends with one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Without `--trace` both halves run. `--repeat N` runs `N` consecutive
//! seeds, as the driver does, and prints each metric's median, quartiles
//! and spread against its bound. The exit code is 0 only if every answer
//! check passed and no op failed.

mod http;
mod json;
mod layers;
mod report;
mod run;
mod server;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;

use report::Row;
use run::RunConfig;
use spec::{Catalogue, Workload, DEFAULT_SEED, WORKLOADS};

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: both halves.
    trace: Option<bool>,
    repeat: u64,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        repeat: 1,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--all" => args.workloads = WORKLOADS.iter().collect(),
            "--smoke" => args.smoke = true,
            "--workload" => {
                let name = value("a workload name")?;
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workloads = vec![Workload::by_name(&name)
                    .ok_or_else(|| format!("unknown workload `{name}`; one of {known:?}"))?];
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.smoke && args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    if args.workloads.is_empty() && args.compare.is_none() {
        return Err("nothing to do: pass --workload NAME, --all, --smoke or --compare A B".into());
    }
    Ok(args)
}

/// Runs what the arguments ask for; `Ok(false)` when a run was incorrect,
/// had failed ops, or a comparison found a regression.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let catalogue = Catalogue::load();
    if let Some((a, b)) = &args.compare {
        let (table, held) =
            report::compare_table(&report::read_rows(a)?, &report::read_rows(b)?, &catalogue);
        print!("{table}");
        return Ok(held);
    }

    let bins = server::Binaries::locate()?;
    let stamp = report::Stamp::take();
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        catalogue.run_seconds
    });
    let halves: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut rows: Vec<Row> = Vec::new();
    let mut clean = true;
    for workload in &args.workloads {
        let scaled = if args.smoke {
            workload.smoke()
        } else {
            **workload
        };
        for repeat in 0..args.repeat {
            for &trace in &halves {
                let cfg = RunConfig {
                    seed: args.seed + repeat,
                    seconds,
                    trace,
                    out: args.out.clone(),
                };
                let outcome = run::run(&scaled, &cfg, &bins)?;
                let metrics = report::ordered_metrics(&outcome, trace, &catalogue)?;
                for (name, value) in &metrics {
                    let unit = catalogue.find(name).map_or("", |m| m.unit.as_str());
                    println!("{} {name} {value} {unit}", workload.name);
                }
                for note in &outcome.notes {
                    eprintln!("{}: {note}", workload.name);
                }
                println!("{}", report::result_line(&outcome, &metrics, &catalogue));
                clean &= outcome.correct && outcome.failed == 0;
                rows.push(report::row(
                    workload.name,
                    &cfg,
                    &outcome,
                    metrics,
                    &stamp,
                    &catalogue,
                ));
            }
        }
    }
    if let Some(dir) = &args.out {
        report::write_rows(dir, &rows)?;
    }
    if args.repeat > 1 {
        let (table, steady) = report::repeat_table(&rows, &catalogue);
        eprint!("{table}");
        if !steady {
            eprintln!("a gated metric's spread exceeds its bound");
        }
    }
    Ok(clean)
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four workloads, both halves, at tiny scale, through the real
    /// binaries. Every metric BENCHMARK.json declares comes out and
    /// nothing else does (`ordered_metrics` rejects both), every answer
    /// check passes, and the inputs of seed 11 are the pinned ones.
    #[test]
    fn smoke_run_prints_every_declared_metric() {
        let bins = match server::Binaries::locate() {
            Ok(bins) => bins,
            Err(e) => {
                // The uots binaries are a separate build (see run.sh).
                eprintln!("skipping the smoke run: {e}");
                return;
            }
        };
        let catalogue = Catalogue::load();
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: DEFAULT_SEED,
                    seconds: 1.0,
                    trace,
                    out: None,
                };
                let outcome = run::run(&workload.smoke(), &cfg, &bins).expect("the run completes");
                assert!(outcome.correct, "{}: {:?}", workload.name, outcome.notes);
                assert_eq!(outcome.failed, 0, "{}: {:?}", workload.name, outcome.notes);
                let metrics = report::ordered_metrics(&outcome, trace, &catalogue)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
                assert_eq!(metrics.len(), catalogue.metrics(trace).len());
                let line = report::result_line(&outcome, &metrics, &catalogue);
                let parsed: serde::Content =
                    serde_json::from_str(&line).expect("the result line is JSON");
                let keys: Vec<&str> = parsed
                    .as_map()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                // The 300-trip dataset and the 60-body light pool of seed
                // 11: a change to the generators shows here first.
                if workload.name == "frontend_light" && !trace {
                    assert_eq!(outcome.dataset_hash, 0x9139_562b_d49d_5263);
                    assert_eq!(outcome.pool_hash, 0x4bf1_f242_31f9_7da6);
                }
            }
        }
    }
}
