//! # uots-bench
//!
//! Shared harness for the paper-style `experiments` binary: dataset
//! construction at experiment scales, workload materialization,
//! measurement rows and table rendering.
//!
//! The experiment inventory (T1–T2, F1–F10) is defined in `DESIGN.md`;
//! `EXPERIMENTS.md` records measured outcomes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::Serialize;
use std::time::{Duration, Instant};
use uots_core::algorithms::{Algorithm, BruteForce, Expansion, IknnBaseline, TextFirst};
use uots_core::{Database, QueryOptions, Scheduler, SearchMetrics, UotsQuery, Weights};
use uots_datagen::workload::{self, WorkloadConfig};
use uots_datagen::{Dataset, DatasetConfig};
use uots_network::generators::GridCityConfig;
use uots_obs::LogHistogram;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 30×30 city — CI smoke runs.
    Tiny,
    /// 60×60 city — the default, laptop-sized.
    Bench,
    /// ≈28k-vertex BRN-like city — the headline experiments.
    Brn,
    /// ≈95k-vertex NRN-like city.
    Nrn,
}

impl Scale {
    /// Parses `tiny|bench|brn|nrn`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "bench" => Some(Scale::Bench),
            "brn" => Some(Scale::Brn),
            "nrn" => Some(Scale::Nrn),
            _ => None,
        }
    }

    /// Default trajectory cardinality at this scale.
    pub fn default_trips(self) -> usize {
        match self {
            Scale::Tiny => 300,
            Scale::Bench => 3_000,
            Scale::Brn => 20_000,
            Scale::Nrn => 40_000,
        }
    }

    /// Dataset configuration with `trips` trajectories.
    pub fn config(self, trips: usize) -> DatasetConfig {
        match self {
            Scale::Tiny => DatasetConfig::small(trips, 0xbeac),
            Scale::Bench => {
                let mut grid = GridCityConfig::new(60, 60);
                grid.seed = 0xbe6c;
                let mut cfg = DatasetConfig::small(trips, 0xbe6c);
                cfg.name = format!("bench 60×60 ({trips} trips)");
                cfg.network = grid;
                cfg.trips.min_trip_km = 2.0;
                cfg
            }
            Scale::Brn => DatasetConfig::brn_like(trips),
            Scale::Nrn => DatasetConfig::nrn_like(trips),
        }
    }

    /// Builds (and times) the dataset at this scale.
    pub fn build(self, trips: usize) -> Dataset {
        let start = Instant::now();
        let ds = Dataset::build(&self.config(trips)).expect("experiment dataset builds");
        eprintln!(
            "[bench] built {} in {:?} ({} vertices, {} edges)",
            ds.name,
            start.elapsed(),
            ds.network.num_nodes(),
            ds.network.num_edges()
        );
        ds
    }
}

/// An algorithm line-up: each algorithm under its row name.
pub type Lineup = Vec<(&'static str, Box<dyn Algorithm + Sync>)>;

fn expansion(scheduler: Scheduler) -> Box<dyn Algorithm + Sync> {
    Box::new(Expansion::new(scheduler))
}

/// The algorithm line-up of the evaluation. `with_oracle` additionally
/// includes the brute force (expensive at large scales).
pub fn algorithms(with_oracle: bool) -> Lineup {
    let mut v: Lineup = vec![
        ("expansion", expansion(Scheduler::heuristic())),
        ("expansion-w/o-h", expansion(Scheduler::RoundRobin)),
        ("iknn-baseline", Box::new(IknnBaseline::default())),
        ("text-first", Box::new(TextFirst)),
    ];
    if with_oracle {
        v.push(("brute-force", Box::new(BruteForce)));
    }
    v
}

/// The scheduler ablation's line-up: the expansion under each scheduler.
pub fn schedulers() -> Lineup {
    vec![
        ("heuristic", expansion(Scheduler::heuristic())),
        ("round-robin", expansion(Scheduler::RoundRobin)),
        ("min-radius", expansion(Scheduler::MinRadius)),
    ]
}

/// Materializes a query workload with the given shape.
///
/// # Panics
///
/// Panics on invalid parameters (zero locations, bad λ).
pub fn make_queries(
    ds: &Dataset,
    num_queries: usize,
    locations: usize,
    keywords: usize,
    lambda: f64,
    k: usize,
    seed: u64,
) -> Vec<UotsQuery> {
    let specs = workload::generate(
        ds,
        &WorkloadConfig {
            num_queries,
            locations_per_query: locations,
            keywords_per_query: keywords,
            seed,
            ..Default::default()
        },
    );
    specs
        .into_iter()
        .map(|s| {
            UotsQuery::with_options(
                s.locations,
                s.keywords,
                vec![],
                QueryOptions {
                    weights: Weights::lambda(lambda).expect("valid lambda"),
                    k,
                    ..Default::default()
                },
            )
            .expect("valid query")
        })
        .collect()
}

/// One measured data point: algorithm × parameter value.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Row {
    /// Experiment id (`f1`, `t2`, …).
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Name of the swept parameter.
    pub parameter: String,
    /// Value of the swept parameter.
    pub value: f64,
    /// Queries in the batch.
    pub queries: usize,
    /// Mean per-query runtime, milliseconds.
    pub runtime_ms: f64,
    /// Median per-query runtime, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-query runtime, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile per-query runtime, milliseconds.
    pub p99_ms: f64,
    /// Worst per-query runtime, milliseconds.
    pub max_ms: f64,
    /// Mean per-query visited trajectories.
    pub visited: f64,
    /// Mean per-query candidates.
    pub candidates: f64,
    /// Candidate ratio (candidates / |P|).
    pub candidate_ratio: f64,
    /// Pruning ratio (1 − candidate ratio).
    pub pruning_ratio: f64,
    /// Mean certified bound gap (0 for exact runs).
    pub bound_gap: f64,
    /// Mean recall against the unbudgeted oracle (1 for exact runs).
    pub recall: f64,
}

impl Row {
    /// The row of `algorithm` at `parameter = value` over `queries`
    /// queries. Every measured column starts at 0 and `recall` at 1, an
    /// exact run's.
    pub fn new(
        experiment: &str,
        dataset: &str,
        algorithm: impl Into<String>,
        parameter: &str,
        value: f64,
        queries: usize,
    ) -> Row {
        Row {
            experiment: experiment.to_string(),
            dataset: dataset.to_string(),
            algorithm: algorithm.into(),
            parameter: parameter.to_string(),
            value,
            queries,
            recall: 1.0,
            ..Row::default()
        }
    }

    /// Sets the mean runtime from the batch's `wall` time and the
    /// percentile columns from its per-query `latencies`.
    pub fn timed(self, wall: Duration, latencies: &LatencyStats) -> Row {
        Row {
            runtime_ms: wall.as_secs_f64() * 1_000.0 / self.queries.max(1) as f64,
            p50_ms: latencies.quantile_ms(0.5),
            p95_ms: latencies.quantile_ms(0.95),
            p99_ms: latencies.quantile_ms(0.99),
            max_ms: latencies.max_ms(),
            ..self
        }
    }

    /// Sets the effort columns from `visited` and `candidates` summed over
    /// the row's queries, each of which ranks `population` trajectories.
    pub fn with_counts(self, visited: usize, candidates: usize, population: usize) -> Row {
        let queries = self.queries.max(1) as f64;
        let candidate_ratio = candidates as f64 / (population as f64 * queries);
        Row {
            visited: visited as f64 / queries,
            candidates: candidates as f64 / queries,
            candidate_ratio,
            pruning_ratio: 1.0 - candidate_ratio,
            ..self
        }
    }
}

/// Per-query latency distribution, microsecond-bucketed. Wraps
/// [`LogHistogram`] so experiment code reports percentiles, not just means.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    hist: LogHistogram,
}

impl LatencyStats {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query's wall time.
    pub fn record(&mut self, elapsed: Duration) {
        self.hist
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Quantile in milliseconds (`q ∈ [0, 1]`).
    fn quantile_ms(&self, q: f64) -> f64 {
        self.hist.quantile(q) as f64 / 1_000.0
    }

    /// Largest recorded latency in milliseconds.
    fn max_ms(&self) -> f64 {
        self.hist.max() as f64 / 1_000.0
    }
}

/// Runs `algo` over every query in turn and fills `row`'s measured
/// columns, recording each query's wall time so the row carries
/// percentile latencies alongside the mean. `row.queries` is
/// `queries.len()`.
pub fn measure(db: &Database<'_>, algo: &dyn Algorithm, queries: &[UotsQuery], row: Row) -> Row {
    let start = Instant::now();
    let mut agg = SearchMetrics::default();
    let mut gap_sum = 0.0;
    let mut latencies = LatencyStats::new();
    for q in queries {
        let q_start = Instant::now();
        let r = algo.run(db, q).expect("experiment query runs");
        latencies.record(q_start.elapsed());
        gap_sum += r.completeness.bound_gap();
        agg.merge(&r.metrics);
    }
    let bound_gap = gap_sum / queries.len().max(1) as f64;
    Row { bound_gap, ..row }
        .timed(start.elapsed(), &latencies)
        .with_counts(agg.visited_trajectories, agg.candidates, db.store.len())
}

/// Renders rows as an aligned text table grouped by parameter value.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n## {title}");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:<18} {:>12} {:>9} {:>9} {:>9} {:>12} {:>12} {:>10} {:>9} {:>8}",
        "param",
        "value",
        "algorithm",
        "ms/query",
        "p50",
        "p95",
        "p99",
        "visited",
        "candidates",
        "pruning",
        "gap",
        "recall"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:<18} {:>12.3} {:>9.3} {:>9.3} {:>9.3} {:>12.1} {:>12.1} {:>9.1}% {:>9.4} {:>8.3}",
            r.parameter,
            format_value(r.value),
            r.algorithm,
            r.runtime_ms,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.visited,
            r.candidates,
            r.pruning_ratio * 100.0,
            r.bound_gap,
            r.recall
        );
    }
    out
}

/// Writes one experiment's rows as `BENCH_<experiment>.json` under `dir`:
/// a JSON array where every row object additionally carries the run's
/// dataset `preset` and generator `seed`, so downstream tooling can track
/// the perf trajectory without parsing the text tables. Returns the path
/// written.
pub fn write_bench_json(
    dir: &std::path::Path,
    experiment: &str,
    preset: &str,
    seed: u64,
    rows: &[Row],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Content;
    let arr = Content::Seq(
        rows.iter()
            .map(|r| {
                let mut fields = vec![
                    ("preset".to_string(), Content::Str(preset.to_string())),
                    ("seed".to_string(), Content::U64(seed)),
                ];
                if let Content::Map(m) = r.serialize() {
                    fields.extend(m);
                }
                Content::Map(fields)
            })
            .collect(),
    );
    let json =
        serde_json::to_string_pretty(&arr).map_err(|e| std::io::Error::other(e.to_string()))?;
    let path = dir.join(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

fn format_value(v: f64) -> String {
    if (v.fract()).abs() < 1e-9 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_defaults() {
        assert_eq!(Scale::parse("brn"), Some(Scale::Brn));
        assert_eq!(Scale::parse("bogus"), None);
        assert!(Scale::Tiny.default_trips() < Scale::Brn.default_trips());
    }

    #[test]
    fn tiny_pipeline_produces_rows() {
        let ds = Scale::Tiny.build(120);
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let queries = make_queries(&ds, 4, 3, 2, 0.5, 1, 9);
        assert_eq!(queries.len(), 4);
        for (name, algo) in algorithms(true) {
            let row = Row::new("t0", &ds.name, name, "m", 3.0, queries.len());
            let row = measure(&db, algo.as_ref(), &queries, row);
            assert_eq!(row.queries, 4);
            assert!(row.runtime_ms >= 0.0);
            assert!(row.visited > 0.0);
            assert!((0.0..=1.0).contains(&row.candidate_ratio));
            assert!((row.pruning_ratio + row.candidate_ratio - 1.0).abs() < 1e-12);
            // percentile columns must be populated and ordered
            assert!(row.p50_ms <= row.p95_ms);
            assert!(row.p95_ms <= row.p99_ms);
            assert!(row.p99_ms <= row.max_ms);
            assert!(row.max_ms > 0.0);
        }
    }

    #[test]
    fn latency_stats_quantiles_track_a_known_distribution() {
        // 100 queries: 90 at ~1ms, 9 at ~10ms, 1 at ~100ms. The log buckets
        // guarantee ≤12.5% relative error on each quantile.
        let mut stats = LatencyStats::new();
        for _ in 0..90 {
            stats.record(Duration::from_micros(1_000));
        }
        for _ in 0..9 {
            stats.record(Duration::from_micros(10_000));
        }
        stats.record(Duration::from_micros(100_000));
        assert_eq!(stats.hist.count(), 100);
        let close = |got: f64, want: f64| (got - want).abs() / want <= 0.125;
        assert!(
            close(stats.quantile_ms(0.5), 1.0),
            "{}",
            stats.quantile_ms(0.5)
        );
        assert!(
            close(stats.quantile_ms(0.95), 10.0),
            "{}",
            stats.quantile_ms(0.95)
        );
        assert!(
            close(stats.quantile_ms(0.99), 10.0),
            "{}",
            stats.quantile_ms(0.99)
        );
        assert!(close(stats.max_ms(), 100.0), "{}", stats.max_ms());
    }

    #[test]
    fn expansion_prunes_more_than_baselines_on_tiny() {
        let ds = Scale::Tiny.build(200);
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let queries = make_queries(&ds, 6, 4, 3, 0.5, 1, 11);
        let rows: Vec<Row> = algorithms(false)
            .iter()
            .map(|(n, a)| {
                let row = Row::new("t2", &ds.name, *n, "-", 0.0, queries.len());
                measure(&db, a.as_ref(), &queries, row)
            })
            .collect();
        let expansion = rows.iter().find(|r| r.algorithm == "expansion").unwrap();
        let iknn = rows
            .iter()
            .find(|r| r.algorithm == "iknn-baseline")
            .unwrap();
        assert!(
            expansion.visited <= iknn.visited,
            "expansion {} vs iknn {}",
            expansion.visited,
            iknn.visited
        );
    }

    #[test]
    fn table_rendering_is_stable() {
        let row = Row {
            runtime_ms: 1.25,
            p50_ms: 1.1,
            p95_ms: 2.4,
            p99_ms: 2.9,
            max_ms: 3.0,
            visited: 10.0,
            candidates: 3.0,
            candidate_ratio: 0.1,
            pruning_ratio: 0.9,
            ..Row::new("f1", "d", "expansion", "m", 4.0, 8)
        };
        let t = render_table("demo", &[row]);
        assert!(t.contains("## demo"));
        assert!(t.contains("expansion"));
        assert!(t.contains("90.0%"));
    }
}
