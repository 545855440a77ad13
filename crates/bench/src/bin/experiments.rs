//! Paper-style experiment harness.
//!
//! Regenerates every table and figure of the reconstructed UOTS evaluation
//! (see `DESIGN.md` §5 for the inventory and `EXPERIMENTS.md` for recorded
//! results):
//!
//! ```text
//! experiments [--scale tiny|bench|brn|nrn] [--trips N] [--queries N]
//!             [--only t1,t2,f1,...] [--json PATH]
//! ```
//!
//! * `t1` dataset statistics            * `f4` effect of k
//! * `t2` pruning effectiveness         * `f5` effect of #keywords
//! * `t2p` hot-path data layouts: legacy vs CSR/bitset, bit-identical top-k
//! * `f1` effect of #query locations    * `f6` effect of trajectory length
//! * `f2` effect of λ                   * `f7` effect of thread count
//! * `f3` effect of |P|                 * `f8` scheduler ablation
//! *                                    * `f9` effect of vocabulary size
//! *                                    * `f10` temporal channel cost
//! * `j1` trajectory similarity self-join (extension)
//! * `d1` anytime degradation curve: quality vs budget (extension)
//! * `d2` shared distance cache: speedup and hit rate vs uncached (extension)
//! * `d3` live ingest: epoch-swap throughput and query latency under churn
//!   vs the frozen baseline (extension)
//! * `d4` durability: ingest throughput vs WAL fsync policy, and recovery
//!   time vs WAL length, with and without checkpoints (extension)
//! * `d5` sharding: scatter-gather ms/query, shards cut by the global
//!   threshold, and parallel recovery time vs shard count (extension)

use std::collections::HashSet;
use std::sync::Arc;
use uots_bench::{algorithms, make_queries, measure, render_table, time, LatencyStats, Row, Scale};
use uots_core::algorithms::{Algorithm, Expansion};
use uots_core::{
    parallel, Database, DistanceCache, EpochManager, ExecutionBudget, QueryOptions, RunControl,
    Scheduler, SearchContext, UotsQuery, Weights, DEFAULT_CACHE_CAPACITY,
};
use uots_datagen::{Dataset, DatasetConfig};
use uots_obs::Recorder;

struct Args {
    scale: Scale,
    trips: usize,
    queries: usize,
    only: Option<HashSet<String>>,
    json: Option<String>,
    /// Directory for the per-experiment `BENCH_<id>.json` row files
    /// (`None` = suppressed via `--no-bench-json`).
    bench_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut scale = Scale::Bench;
    let mut trips = None;
    let mut queries = 16usize;
    let mut only = None;
    let mut json = None;
    let mut bench_dir = Some(".".to_string());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(&argv[i]).unwrap_or_else(|| {
                    eprintln!("unknown scale `{}`", argv[i]);
                    std::process::exit(2);
                });
            }
            "--trips" => {
                i += 1;
                trips = Some(argv[i].parse().expect("--trips N"));
            }
            "--queries" => {
                i += 1;
                queries = argv[i].parse().expect("--queries N");
            }
            "--only" => {
                i += 1;
                only = Some(argv[i].split(',').map(|s| s.trim().to_string()).collect());
            }
            "--json" => {
                i += 1;
                json = Some(argv[i].clone());
            }
            "--bench-dir" => {
                i += 1;
                bench_dir = Some(argv[i].clone());
            }
            "--no-bench-json" => {
                bench_dir = None;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--scale tiny|bench|brn|nrn] [--trips N] \
                     [--queries N] [--only t1,f2,...] [--json PATH] \
                     [--bench-dir DIR] [--no-bench-json]\n\
                     every experiment also writes its rows as BENCH_<id>.json \
                     (preset, seed, percentiles, visited counts) into \
                     --bench-dir (default .); --no-bench-json suppresses them"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let trips = trips.unwrap_or_else(|| scale.default_trips());
    Args {
        scale,
        trips,
        queries,
        only,
        json,
        bench_dir,
    }
}

fn wants(args: &Args, id: &str) -> bool {
    args.only.as_ref().is_none_or(|s| s.contains(id))
}

fn open<'a>(ds: &'a Dataset) -> Database<'a> {
    Database::new(&ds.network, &ds.store, &ds.vertex_index).with_keyword_index(&ds.keyword_index)
}

/// Rebuilds a dataset identical to `cfg` but with `n` trips. Because the
/// trip generator draws trips sequentially from one RNG stream, the smaller
/// dataset is a prefix of the larger one — cardinality sweeps compare
/// like-for-like data.
fn with_trips(cfg: &DatasetConfig, n: usize) -> Dataset {
    let mut cfg = cfg.clone();
    cfg.trips.num_trips = n;
    cfg.name = format!("{} @|P|={n}", cfg.name);
    Dataset::build(&cfg).expect("sweep dataset builds")
}

fn main() {
    let args = parse_args();
    let mut all_rows: Vec<Row> = Vec::new();
    println!(
        "# UOTS experiments — scale {:?}, |P| = {}, {} queries/point",
        args.scale, args.trips, args.queries
    );

    let base_cfg = args.scale.config(args.trips);
    let ds = args.scale.build(args.trips);
    let db = open(&ds);

    // ---------------- T1: dataset statistics ----------------
    if wants(&args, "t1") {
        println!("\n## T1 — dataset statistics ({})", ds.name);
        println!("{}", ds.stats());
        println!(
            "network             : {} vertices, {} edges, total {:.0} km",
            ds.network.num_nodes(),
            ds.network.num_edges(),
            ds.network.total_length()
        );
    }

    // ---------------- T2: pruning effectiveness ----------------
    if wants(&args, "t2") {
        let queries = make_queries(&ds, args.queries, 4, 3, 0.5, 1, 0x12);
        let with_oracle = matches!(args.scale, Scale::Tiny | Scale::Bench);
        let rows: Vec<Row> = algorithms(with_oracle)
            .iter()
            .map(|(n, a)| measure("t2", &ds, &db, n, a.as_ref(), &queries, "-", 0.0))
            .collect();
        print!(
            "{}",
            render_table("T2 — pruning effectiveness (defaults)", &rows)
        );
        all_rows.extend(rows);
    }

    // ------- T2′: hot-path data layouts — legacy vs CSR/bitset (extension) -------
    if wants(&args, "t2p") {
        use uots_core::LayoutTables;
        let queries = make_queries(&ds, args.queries, 4, 3, 0.5, 1, 0x12);
        let (layout, build_wall) =
            time(|| LayoutTables::build(&ds.network, &ds.store, ds.vocab.len()));
        let db_layout = db.with_layout(&layout);
        let algo = Expansion::default();

        // One uncached pass over the T2 defaults workload; returns the
        // exact (id, similarity-bits) answers for the in-run identity
        // assert plus the numbers the rows need.
        let run_pass = |db: &Database| {
            let mut latencies = LatencyStats::new();
            let mut results: Vec<Vec<(u64, u64)>> = Vec::new();
            let mut visited = 0usize;
            let mut candidates = 0usize;
            let start = std::time::Instant::now();
            for q in &queries {
                let q_start = std::time::Instant::now();
                let r = algo.run(db, q).expect("t2p run");
                latencies.record(q_start.elapsed());
                results.push(
                    r.matches
                        .iter()
                        .map(|m| (m.id.0 as u64, m.similarity.to_bits()))
                        .collect(),
                );
                visited += r.metrics.visited_trajectories;
                candidates += r.metrics.candidates;
            }
            (results, latencies, visited, candidates, start.elapsed())
        };

        let legacy = run_pass(&db);
        let layout_pass = run_pass(&db_layout);
        // The layouts must be invisible in the answers: same trajectories,
        // bit-identical similarities, top to bottom of the top-k.
        assert_eq!(
            legacy.0, layout_pass.0,
            "CSR/bitset pass diverged from the legacy layout"
        );

        let nq = queries.len().max(1) as f64;
        let mut rows = Vec::new();
        for (mode, pass) in [("legacy", &legacy), ("csr/bitset", &layout_pass)] {
            let (_, latencies, visited, candidates, wall) = pass;
            let mut row = Row {
                experiment: "t2p".into(),
                dataset: ds.name.clone(),
                algorithm: format!("expansion ({mode})"),
                parameter: "layout".into(),
                value: 0.0,
                queries: queries.len(),
                runtime_ms: wall.as_secs_f64() * 1_000.0 / nq,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited: *visited as f64 / nq,
                candidates: *candidates as f64 / nq,
                candidate_ratio: *candidates as f64 / (ds.store.len() as f64 * nq),
                pruning_ratio: 1.0 - *candidates as f64 / (ds.store.len() as f64 * nq),
                bound_gap: 0.0,
                recall: 1.0, // asserted bit-identical to the legacy pass
            };
            latencies.fill(&mut row);
            rows.push(row);
        }
        print!(
            "{}",
            render_table(
                "T2′ — hot-path data layouts: identical top-k, less time (extension)",
                &rows
            )
        );
        println!(
            "t2p summary: csr/bitset {:.2}× vs legacy (legacy {:.3} ms/query → \
             csr/bitset {:.3} ms/query); layout tables built in {:.1} ms",
            legacy.4.as_secs_f64() / layout_pass.4.as_secs_f64().max(1e-12),
            legacy.4.as_secs_f64() * 1_000.0 / nq,
            layout_pass.4.as_secs_f64() * 1_000.0 / nq,
            build_wall.as_secs_f64() * 1_000.0,
        );
        all_rows.extend(rows);
    }

    // ---------------- F1: number of query locations ----------------
    if wants(&args, "f1") {
        let mut rows = Vec::new();
        for m in [2usize, 4, 6, 8, 10] {
            let queries = make_queries(&ds, args.queries, m, 3, 0.5, 1, 0xf1);
            for (n, a) in algorithms(false) {
                rows.push(measure(
                    "f1",
                    &ds,
                    &db,
                    &n,
                    a.as_ref(),
                    &queries,
                    "m",
                    m as f64,
                ));
            }
        }
        print!(
            "{}",
            render_table("F1 — effect of #query locations m", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- F2: preference parameter λ ----------------
    if wants(&args, "f2") {
        let mut rows = Vec::new();
        for lambda in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let queries = make_queries(&ds, args.queries, 4, 3, lambda, 1, 0xf2);
            for (n, a) in algorithms(false) {
                rows.push(measure(
                    "f2",
                    &ds,
                    &db,
                    &n,
                    a.as_ref(),
                    &queries,
                    "lambda",
                    lambda,
                ));
            }
        }
        print!(
            "{}",
            render_table("F2 — effect of preference parameter λ", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- F3: trajectory cardinality |P| ----------------
    if wants(&args, "f3") {
        let mut rows = Vec::new();
        for frac in [0.25, 0.5, 0.75, 1.0] {
            let n = ((args.trips as f64 * frac) as usize).max(10);
            let sub = with_trips(&base_cfg, n);
            let sub_db = open(&sub);
            let queries = make_queries(&sub, args.queries, 4, 3, 0.5, 1, 0xf3);
            for (name, a) in algorithms(false) {
                rows.push(measure(
                    "f3",
                    &sub,
                    &sub_db,
                    &name,
                    a.as_ref(),
                    &queries,
                    "|P|",
                    n as f64,
                ));
            }
        }
        print!(
            "{}",
            render_table("F3 — effect of trajectory cardinality |P|", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- F4: answer size k ----------------
    if wants(&args, "f4") {
        let mut rows = Vec::new();
        for k in [1usize, 5, 10, 20, 50] {
            let queries = make_queries(&ds, args.queries, 4, 3, 0.5, k, 0xf4);
            for (n, a) in algorithms(false) {
                rows.push(measure(
                    "f4",
                    &ds,
                    &db,
                    &n,
                    a.as_ref(),
                    &queries,
                    "k",
                    k as f64,
                ));
            }
        }
        print!(
            "{}",
            render_table("F4 — effect of answer size k (extension)", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- F5: number of query keywords ----------------
    if wants(&args, "f5") {
        let mut rows = Vec::new();
        for kw in [1usize, 2, 4, 8] {
            let queries = make_queries(&ds, args.queries, 4, kw, 0.5, 1, 0xf5);
            for (n, a) in algorithms(false) {
                rows.push(measure(
                    "f5",
                    &ds,
                    &db,
                    &n,
                    a.as_ref(),
                    &queries,
                    "keywords",
                    kw as f64,
                ));
            }
        }
        print!("{}", render_table("F5 — effect of #query keywords", &rows));
        all_rows.extend(rows);
    }

    // ---------------- F6: average trajectory length ----------------
    if wants(&args, "f6") {
        let mut rows = Vec::new();
        for stride in [8usize, 4, 2, 1] {
            let mut cfg = base_cfg.clone();
            cfg.trips.sample_stride = stride;
            cfg.name = format!("{} @stride={stride}", cfg.name);
            let sub = Dataset::build(&cfg).expect("stride dataset builds");
            let avg_len = sub.stats().avg_len;
            let sub_db = open(&sub);
            let queries = make_queries(&sub, args.queries, 4, 3, 0.5, 1, 0xf6);
            for (name, a) in algorithms(false) {
                rows.push(measure(
                    "f6",
                    &sub,
                    &sub_db,
                    &name,
                    a.as_ref(),
                    &queries,
                    "avg_len",
                    avg_len,
                ));
            }
        }
        print!(
            "{}",
            render_table("F6 — effect of average trajectory length", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- F7: thread count ----------------
    if wants(&args, "f7") {
        let mut rows = Vec::new();
        let queries = make_queries(&ds, args.queries.max(32), 4, 3, 0.5, 1, 0xf7);
        for threads in [1usize, 2, 4, 8] {
            let algo = Expansion::default();
            let (results, wall) =
                time(|| parallel::run_batch(&db, &algo, &queries, threads).expect("batch runs"));
            let visited: usize = results.iter().map(|r| r.metrics.visited_trajectories).sum();
            let candidates: usize = results.iter().map(|r| r.metrics.candidates).sum();
            // per-query latencies come from each result's own clock, so
            // the percentiles reflect in-worker time, not queueing
            let mut latencies = LatencyStats::new();
            for r in &results {
                latencies.record(r.metrics.runtime);
            }
            let mut row = Row {
                experiment: "f7".into(),
                dataset: ds.name.clone(),
                algorithm: "expansion".into(),
                parameter: "threads".into(),
                value: threads as f64,
                queries: queries.len(),
                runtime_ms: wall.as_secs_f64() * 1_000.0 / queries.len() as f64,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited: visited as f64 / queries.len() as f64,
                candidates: candidates as f64 / queries.len() as f64,
                candidate_ratio: candidates as f64 / (ds.store.len() * queries.len()) as f64,
                pruning_ratio: 1.0 - candidates as f64 / (ds.store.len() * queries.len()) as f64,
                bound_gap: 0.0,
                recall: 1.0,
            };
            latencies.fill(&mut row);
            rows.push(row);
        }
        print!(
            "{}",
            render_table("F7 — effect of thread count (batch wall time)", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- F8: scheduler ablation ----------------
    if wants(&args, "f8") {
        let mut rows = Vec::new();
        let queries = make_queries(&ds, args.queries, 6, 3, 0.5, 1, 0xf8);
        for (label, sched) in [
            ("heuristic", Scheduler::heuristic()),
            ("round-robin", Scheduler::RoundRobin),
            ("min-radius", Scheduler::MinRadius),
        ] {
            let algo = Expansion::new(sched);
            rows.push(measure(
                "f8",
                &ds,
                &db,
                label,
                &algo,
                &queries,
                "scheduler",
                0.0,
            ));
        }
        print!(
            "{}",
            render_table("F8 — scheduling strategy ablation", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- F9: vocabulary size ----------------
    if wants(&args, "f9") {
        let mut rows = Vec::new();
        for vocab in [100usize, 200, 400, 800] {
            let mut cfg = base_cfg.clone();
            cfg.tags.vocab_size = vocab;
            cfg.name = format!("{} @vocab={vocab}", cfg.name);
            let sub = Dataset::build(&cfg).expect("vocab dataset builds");
            let sub_db = open(&sub);
            let queries = make_queries(&sub, args.queries, 4, 3, 0.5, 1, 0xf9);
            for (name, a) in algorithms(false) {
                rows.push(measure(
                    "f9",
                    &sub,
                    &sub_db,
                    &name,
                    a.as_ref(),
                    &queries,
                    "vocab",
                    vocab as f64,
                ));
            }
        }
        print!("{}", render_table("F9 — effect of vocabulary size", &rows));
        all_rows.extend(rows);
    }

    // ---------------- F10: temporal channel ----------------
    if wants(&args, "f10") {
        let mut rows = Vec::new();
        let tidx = ds.store.build_timestamp_index();
        let tdb = db.with_timestamp_index(&tidx);
        let base = make_queries(&ds, args.queries, 4, 3, 0.5, 1, 0xf10);
        let temporal: Vec<UotsQuery> = base
            .iter()
            .enumerate()
            .map(|(i, q)| {
                UotsQuery::with_options(
                    q.locations().to_vec(),
                    q.keywords().clone(),
                    vec![(6.0 + (i as f64 % 12.0)) * 3_600.0],
                    QueryOptions {
                        weights: Weights::new(0.4, 0.3, 0.3).expect("valid"),
                        ..Default::default()
                    },
                )
                .expect("valid temporal query")
            })
            .collect();
        let algo = Expansion::default();
        rows.push(measure(
            "f10",
            &ds,
            &tdb,
            "spatial+textual",
            &algo,
            &base,
            "channels",
            2.0,
        ));
        rows.push(measure(
            "f10",
            &ds,
            &tdb,
            "spatial+textual+temporal",
            &algo,
            &temporal,
            "channels",
            3.0,
        ));
        print!(
            "{}",
            render_table("F10 — temporal channel (extension)", &rows)
        );
        all_rows.extend(rows);
    }

    // ---------------- J1: trajectory similarity self-join (extension) ----
    if wants(&args, "j1") {
        let mut rows = Vec::new();
        // the join touches every trajectory as a probe; keep it to a
        // join-sized subset of the main dataset scale
        let join_trips = (args.trips / 10).clamp(200, 2_000);
        let jds = with_trips(&base_cfg, join_trips);
        let tidx = jds.store.build_timestamp_index();
        for theta in [0.7f64, 0.8, 0.9] {
            let cfg = uots_join::JoinConfig {
                theta,
                ..Default::default()
            };
            let (result, wall) = time(|| {
                uots_join::ts_join(&jds.network, &jds.store, &jds.vertex_index, &tidx, &cfg, 2)
                    .expect("join runs")
            });
            let n = jds.store.len();
            rows.push(Row {
                experiment: "j1".into(),
                dataset: jds.name.clone(),
                algorithm: format!("ts-join pairs={}", result.pairs.len()),
                parameter: "theta".into(),
                value: theta,
                queries: n,
                runtime_ms: wall.as_secs_f64() * 1_000.0,
                // one join = one measurement: the distribution is a point
                p50_ms: wall.as_secs_f64() * 1_000.0,
                p95_ms: wall.as_secs_f64() * 1_000.0,
                p99_ms: wall.as_secs_f64() * 1_000.0,
                max_ms: wall.as_secs_f64() * 1_000.0,
                visited: result.visited_trajectories as f64 / n as f64,
                candidates: result.candidates as f64 / n as f64,
                candidate_ratio: result.candidates as f64 / (n * n) as f64,
                pruning_ratio: 1.0 - result.candidates as f64 / (n * n) as f64,
                bound_gap: result.completeness.bound_gap(),
                recall: 1.0,
            });
        }
        print!(
            "{}",
            render_table(
                "J1 — trajectory similarity self-join (extension; runtime is the whole join)",
                &rows
            )
        );
        all_rows.extend(rows);
    }

    // ---------------- D1: anytime degradation curve (extension) ----------
    if wants(&args, "d1") {
        let mut rows = Vec::new();
        let k = 5usize;
        let queries = make_queries(&ds, args.queries, 4, 3, 0.5, k, 0xd1);
        let algo = Expansion::default();
        // unbudgeted reference runs: per-query settled work + the true top-k
        let reference: Vec<(usize, Vec<_>)> = queries
            .iter()
            .map(|q| {
                let r = algo.run(&db, q).expect("reference run");
                (r.metrics.settled_vertices.max(1), r.ids())
            })
            .collect();
        for frac in [0.05f64, 0.1, 0.25, 0.5, 1.0] {
            let mut gap_sum = 0.0;
            let mut recall_sum = 0.0;
            let mut visited = 0usize;
            let mut candidates = 0usize;
            let mut latencies = LatencyStats::new();
            let start = std::time::Instant::now();
            for (q, (settled_full, oracle_ids)) in queries.iter().zip(&reference) {
                let budget = ExecutionBudget::default()
                    .with_max_settled(((*settled_full as f64) * frac).ceil() as usize);
                let bq = q
                    .reoptioned(QueryOptions {
                        budget,
                        ..q.options().clone()
                    })
                    .expect("budgeted query");
                let q_start = std::time::Instant::now();
                let r = algo.run(&db, &bq).expect("budgeted run");
                latencies.record(q_start.elapsed());
                gap_sum += r.completeness.bound_gap();
                let hit = r.ids().iter().filter(|id| oracle_ids.contains(id)).count();
                recall_sum += hit as f64 / oracle_ids.len().max(1) as f64;
                visited += r.metrics.visited_trajectories;
                candidates += r.metrics.candidates;
            }
            let wall = start.elapsed();
            let nq = queries.len().max(1) as f64;
            let mut row = Row {
                experiment: "d1".into(),
                dataset: ds.name.clone(),
                algorithm: "expansion".into(),
                parameter: "budget".into(),
                value: frac,
                queries: queries.len(),
                runtime_ms: wall.as_secs_f64() * 1_000.0 / nq,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited: visited as f64 / nq,
                candidates: candidates as f64 / nq,
                candidate_ratio: candidates as f64 / (ds.store.len() as f64 * nq),
                pruning_ratio: 1.0 - candidates as f64 / (ds.store.len() as f64 * nq),
                bound_gap: gap_sum / nq,
                recall: recall_sum / nq,
            };
            latencies.fill(&mut row);
            rows.push(row);
        }
        print!(
            "{}",
            render_table(
                "D1 — anytime degradation: result quality vs settle budget (extension)",
                &rows
            )
        );
        all_rows.extend(rows);
    }

    // ------- D2: shared distance cache — speedup and hit rate (extension) -------
    if wants(&args, "d2") {
        let k = 5usize;
        let queries = make_queries(&ds, args.queries, 4, 3, 0.5, k, 0xd2);
        let algo = Expansion::default();
        let cache = Arc::new(DistanceCache::new(DEFAULT_CACHE_CAPACITY));
        let cached_ctx = SearchContext::with_cache(Arc::clone(&cache));

        // One pass over the whole workload under `ctx`; returns the exact
        // results (id + similarity bits) for the identity check, plus the
        // numbers the row needs.
        let run_pass = |ctx: &SearchContext| {
            let mut latencies = LatencyStats::new();
            let mut results: Vec<Vec<(u64, u64)>> = Vec::new();
            let mut visited = 0usize;
            let mut candidates = 0usize;
            let start = std::time::Instant::now();
            for q in &queries {
                let q_start = std::time::Instant::now();
                let r = algo
                    .run_ctx(
                        &db,
                        q,
                        &RunControl::unbounded(),
                        &mut Recorder::disabled(),
                        ctx,
                    )
                    .expect("d2 run");
                latencies.record(q_start.elapsed());
                results.push(
                    r.matches
                        .iter()
                        .map(|m| (m.id.0 as u64, m.similarity.to_bits()))
                        .collect(),
                );
                visited += r.metrics.visited_trajectories;
                candidates += r.metrics.candidates;
            }
            (results, latencies, visited, candidates, start.elapsed())
        };

        let uncached = run_pass(&SearchContext::default());
        let cold = run_pass(&cached_ctx);
        let cold_stats = cache.stats();
        let warm = run_pass(&cached_ctx);
        let warm_stats = cache.stats();

        // The cache must be invisible in the results — same trajectories,
        // bit-identical similarities, cold or warm.
        assert_eq!(uncached.0, cold.0, "cold cached pass diverged");
        assert_eq!(uncached.0, warm.0, "warm cached pass diverged");

        let rate = |hits: u64, misses: u64| {
            let total = hits + misses;
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        let cold_rate = rate(cold_stats.hits, cold_stats.misses);
        let warm_rate = rate(
            warm_stats.hits - cold_stats.hits,
            warm_stats.misses - cold_stats.misses,
        );

        let nq = queries.len().max(1) as f64;
        let mut rows = Vec::new();
        for (mode, hit_rate, pass) in [
            ("uncached", 0.0, &uncached),
            ("cold-cache", cold_rate, &cold),
            ("warm-cache", warm_rate, &warm),
        ] {
            let (_, latencies, visited, candidates, wall) = pass;
            let mut row = Row {
                experiment: "d2".into(),
                dataset: ds.name.clone(),
                algorithm: format!("expansion ({mode})"),
                parameter: "hit-rate".into(),
                value: hit_rate,
                queries: queries.len(),
                runtime_ms: wall.as_secs_f64() * 1_000.0 / nq,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited: *visited as f64 / nq,
                candidates: *candidates as f64 / nq,
                candidate_ratio: *candidates as f64 / (ds.store.len() as f64 * nq),
                pruning_ratio: 1.0 - *candidates as f64 / (ds.store.len() as f64 * nq),
                bound_gap: 0.0,
                recall: 1.0, // asserted bit-identical to the uncached run
            };
            latencies.fill(&mut row);
            rows.push(row);
        }
        print!(
            "{}",
            render_table(
                "D2 — shared distance cache: identical results, less work (extension)",
                &rows
            )
        );
        println!(
            "d2 summary: warm-pass speedup {:.2}× (uncached {:.3} ms/query → warm \
             {:.3} ms/query), warm hit rate {:.1}%, {} inserts, {} evictions",
            uncached.4.as_secs_f64() / warm.4.as_secs_f64().max(1e-12),
            uncached.4.as_secs_f64() * 1_000.0 / nq,
            warm.4.as_secs_f64() * 1_000.0 / nq,
            warm_rate * 100.0,
            warm_stats.inserts,
            warm_stats.evictions,
        );
        all_rows.extend(rows);
    }

    // ------- D3: live ingest — epoch swaps vs the frozen baseline -------
    if wants(&args, "d3") {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use uots_trajectory::TrajectoryId;

        let k = 5usize;
        let queries = make_queries(&ds, args.queries, 4, 3, 0.5, k, 0xd3);
        let algo = Expansion::default();
        let mgr = EpochManager::new(
            Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.len(),
        );
        let nq = queries.len().max(1) as f64;

        // one workload pass against a pinned snapshot; records latencies into
        // the caller's accumulator, returns per-query fingerprints for the
        // identity checks plus visited count and wall time
        let run_pass = |snapshot: &uots_core::EpochSnapshot, latencies: &mut LatencyStats| {
            let db = snapshot.database();
            let mut results: Vec<Vec<(u64, u64)>> = Vec::new();
            let mut visited = 0usize;
            let start = std::time::Instant::now();
            for q in &queries {
                let q_start = std::time::Instant::now();
                let r = algo.run(&db, q).expect("d3 run");
                latencies.record(q_start.elapsed());
                results.push(
                    r.matches
                        .iter()
                        .map(|m| (m.id.0 as u64, m.similarity.to_bits()))
                        .collect(),
                );
                visited += r.metrics.visited_trajectories;
            }
            (results, visited, start.elapsed())
        };

        // frozen baseline: the seed snapshot, no churn
        let mut frozen_latencies = LatencyStats::new();
        let (_, frozen_visited, frozen_wall) = run_pass(&mgr.snapshot(), &mut frozen_latencies);

        // churn: epochs of mixed ingest/retire, workload re-run per epoch
        let epochs = 4usize;
        let batch = (args.trips / 8).clamp(8, 256);
        let mut rng = StdRng::seed_from_u64(0xd3c4);
        let mut next_id = ds.store.len();
        let mut live = next_id;
        let mut mutations = 0u64;
        let mut mutate_time = std::time::Duration::ZERO;
        let mut churn_latencies = LatencyStats::new();
        let mut churn_visited = 0usize;
        let mut churn_wall = std::time::Duration::ZERO;
        for _ in 0..epochs {
            let m_start = std::time::Instant::now();
            for _ in 0..batch {
                if live <= 2 || rng.gen_bool(0.7) {
                    // re-ingest a clone of a stored trip: realistic shape,
                    // no dependency on the generator's RNG stream
                    let src = TrajectoryId(rng.gen_range(0..ds.store.len()) as u32);
                    mgr.ingest(ds.store.get(src).clone());
                    next_id += 1;
                    live += 1;
                } else if mgr.retire(TrajectoryId(rng.gen_range(0..next_id) as u32)) {
                    live -= 1;
                }
                mutations += 1;
            }
            let snapshot = mgr.publish();
            mutate_time += m_start.elapsed();
            assert_eq!(snapshot.live().num_live(), live);
            let (results, visited, wall) = run_pass(&snapshot, &mut churn_latencies);
            churn_visited += visited;
            churn_wall += wall;

            // in-run differential: the served epoch must answer exactly as
            // a from-scratch rebuild of the surviving trajectories
            let (compacted, id_map) = snapshot.rebuild_compacted();
            let vidx = compacted.build_vertex_index(ds.network.num_nodes());
            let kidx = compacted.build_keyword_index(ds.vocab.len());
            let oracle_db =
                Database::new(snapshot.network(), &compacted, &vidx).with_keyword_index(&kidx);
            for (q, served) in queries.iter().zip(&results).take(3) {
                let oracle = algo.run(&oracle_db, q).expect("d3 oracle");
                let mapped: Vec<(u64, u64)> = served
                    .iter()
                    .map(|&(id, bits)| {
                        let new = id_map[id as usize].expect("served id is live");
                        (new.0 as u64, bits)
                    })
                    .collect();
                let want: Vec<(u64, u64)> = oracle
                    .matches
                    .iter()
                    .map(|m| (m.id.0 as u64, m.similarity.to_bits()))
                    .collect();
                assert_eq!(
                    mapped,
                    want,
                    "epoch {} diverged from rebuild",
                    snapshot.epoch()
                );
            }
        }

        let throughput = mutations as f64 / mutate_time.as_secs_f64().max(1e-12);
        let churn_nq = (nq * epochs as f64).max(1.0);
        let mut rows = Vec::new();
        for (mode, latencies, visited, wall, per_q, value) in [
            (
                "frozen",
                &frozen_latencies,
                frozen_visited as f64 / nq,
                frozen_wall,
                nq,
                0.0,
            ),
            (
                "under-churn",
                &churn_latencies,
                churn_visited as f64 / churn_nq,
                churn_wall,
                churn_nq,
                epochs as f64,
            ),
        ] {
            let mut row = Row {
                experiment: "d3".into(),
                dataset: ds.name.clone(),
                algorithm: format!("expansion ({mode})"),
                parameter: "epochs".into(),
                value,
                queries: per_q as usize,
                runtime_ms: wall.as_secs_f64() * 1_000.0 / per_q,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited,
                candidates: 0.0,
                candidate_ratio: 0.0,
                pruning_ratio: 0.0,
                bound_gap: 0.0,
                recall: 1.0, // asserted bit-identical to the rebuild oracle
            };
            latencies.fill(&mut row);
            rows.push(row);
        }
        print!(
            "{}",
            render_table(
                "D3 — live ingest: query latency under epoch churn (extension)",
                &rows
            )
        );
        println!(
            "d3 summary: {mutations} mutations over {epochs} epochs at {throughput:.0} \
             mutations/s (batch {batch}, publish included); query latency frozen \
             {:.3} ms → under churn {:.3} ms; every epoch verified bit-identical \
             to a from-scratch rebuild",
            frozen_wall.as_secs_f64() * 1_000.0 / nq,
            churn_wall.as_secs_f64() * 1_000.0 / churn_nq,
        );
        all_rows.extend(rows);
    }

    // ------- D4: durability — fsync policy cost and recovery time -------
    if wants(&args, "d4") {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::time::{Duration, Instant};
        use uots::core::wal::{FsyncPolicy, WalConfig, WalWriter};
        use uots::durable::{recover, DurableIngest, RecoverySource};
        use uots_core::Mutation;
        use uots_trajectory::TrajectoryId;

        let root = std::env::temp_dir().join(format!("uots_d4_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        // one scripted mutation stream, identical across every policy run
        let batches_total = 256usize;
        let batch_size = 8usize;
        let batches: Vec<Vec<Mutation>> = {
            let mut rng = StdRng::seed_from_u64(0xd4);
            let mut next_id = ds.store.len();
            (0..batches_total)
                .map(|_| {
                    (0..batch_size)
                        .map(|_| {
                            if rng.gen_bool(0.7) {
                                let src = TrajectoryId(rng.gen_range(0..ds.store.len()) as u32);
                                next_id += 1;
                                Mutation::Insert(ds.store.get(src).clone())
                            } else {
                                Mutation::Retire(TrajectoryId(rng.gen_range(0..next_id) as u32))
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let mutations_total = (batches_total * batch_size) as f64;

        let mut rows = Vec::new();
        let mut summary_tp = Vec::new();
        for (name, policy) in [
            ("batch", FsyncPolicy::EveryBatch),
            (
                "interval:5",
                FsyncPolicy::Interval(Duration::from_millis(5)),
            ),
            ("off", FsyncPolicy::Never),
        ] {
            let dir = root.join(format!("fsync-{}", name.replace(':', "_")));
            std::fs::create_dir_all(&dir).expect("d4 dir");
            let mut ingest = DurableIngest::create(
                Arc::new(ds.network.clone()),
                ds.store.clone(),
                ds.vocab.clone(),
                &dir,
                WalConfig {
                    fsync: policy,
                    ..WalConfig::default()
                },
                None,
                None,
            )
            .expect("d4 wal opens");
            let start = Instant::now();
            for batch in &batches {
                ingest.apply(batch.clone()).expect("d4 apply");
            }
            let wall = start.elapsed();
            let throughput = mutations_total / wall.as_secs_f64().max(1e-12);
            summary_tp.push((name, throughput));
            rows.push(Row {
                experiment: "d4".into(),
                dataset: ds.name.clone(),
                algorithm: format!("wal ingest (fsync={name})"),
                parameter: "mutations/s".into(),
                value: throughput,
                queries: batches_total,
                runtime_ms: wall.as_secs_f64() * 1_000.0 / batches_total as f64,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited: mutations_total,
                candidates: 0.0,
                candidate_ratio: 0.0,
                pruning_ratio: 0.0,
                bound_gap: 0.0,
                recall: 1.0,
            });
        }

        // recovery time vs WAL length (no checkpoint: full replay + rebuild)
        let mut recovery_summary = Vec::new();
        for len in [batches_total / 4, batches_total / 2, batches_total] {
            let dir = root.join(format!("recover-{len}"));
            std::fs::create_dir_all(&dir).expect("d4 dir");
            let mut writer = WalWriter::open(
                &dir,
                WalConfig {
                    fsync: FsyncPolicy::Never,
                    ..WalConfig::default()
                },
            )
            .expect("d4 wal opens");
            for batch in &batches[..len] {
                writer.append(batch).expect("d4 append");
            }
            drop(writer);
            let start = Instant::now();
            let recovered = recover(&dir, Some(&ds), None).expect("d4 recovery");
            let wall = start.elapsed();
            assert_eq!(recovered.report.replayed_batches as usize, len);
            recovery_summary.push((len, wall));
            rows.push(Row {
                experiment: "d4".into(),
                dataset: ds.name.clone(),
                algorithm: "recover (wal only)".into(),
                parameter: "wal-batches".into(),
                value: len as f64,
                queries: 1,
                runtime_ms: wall.as_secs_f64() * 1_000.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited: recovered.report.replayed_mutations as f64,
                candidates: 0.0,
                candidate_ratio: 0.0,
                pruning_ratio: 0.0,
                bound_gap: 0.0,
                recall: 1.0,
            });
        }

        // checkpoints collapse replay: same full log, checkpoint cadence on
        let dir = root.join("recover-checkpointed");
        std::fs::create_dir_all(&dir).expect("d4 dir");
        let mut ingest = DurableIngest::create(
            Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.clone(),
            &dir,
            WalConfig {
                fsync: FsyncPolicy::Never,
                ..WalConfig::default()
            },
            Some(64),
            None,
        )
        .expect("d4 wal opens");
        for (i, batch) in batches.iter().enumerate() {
            ingest.apply(batch.clone()).expect("d4 apply");
            if (i + 1) % 64 == 0 {
                ingest.publish().expect("d4 publish");
            }
        }
        drop(ingest);
        let start = Instant::now();
        let recovered = recover(&dir, Some(&ds), None).expect("d4 recovery");
        let ckpt_wall = start.elapsed();
        assert!(matches!(
            recovered.report.source,
            RecoverySource::Checkpoint(_)
        ));
        let ckpt_replayed = recovered.report.replayed_batches;
        rows.push(Row {
            experiment: "d4".into(),
            dataset: ds.name.clone(),
            algorithm: "recover (checkpoint+tail)".into(),
            parameter: "wal-batches".into(),
            value: batches_total as f64,
            queries: 1,
            runtime_ms: ckpt_wall.as_secs_f64() * 1_000.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
            visited: recovered.report.replayed_mutations as f64,
            candidates: 0.0,
            candidate_ratio: 0.0,
            pruning_ratio: 0.0,
            bound_gap: 0.0,
            recall: 1.0,
        });

        print!(
            "{}",
            render_table(
                "D4 — durability: WAL fsync cost and recovery time (extension)",
                &rows
            )
        );
        let fmt_tp = |tps: &[(&str, f64)]| {
            tps.iter()
                .map(|(n, t)| format!("{n} {t:.0}/s"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let fmt_rec = |recs: &[(usize, Duration)]| {
            recs.iter()
                .map(|(l, w)| format!("{l} batches {:.0} ms", w.as_secs_f64() * 1_000.0))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "d4 summary: ingest throughput by fsync policy — {}; recovery (full \
             replay) — {}; with checkpoints every 64 batches the same {}-batch log \
             recovers in {:.0} ms replaying only {} batches",
            fmt_tp(&summary_tp),
            fmt_rec(&recovery_summary),
            batches_total,
            ckpt_wall.as_secs_f64() * 1_000.0,
            ckpt_replayed,
        );
        let _ = std::fs::remove_dir_all(&root);
        all_rows.extend(rows);
    }

    // ------- D5: sharding — scatter-gather latency and recovery vs N -------
    if wants(&args, "d5") {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::time::Instant;
        use uots::cluster::ShardedDurable;
        use uots::core::wal::{FsyncPolicy, WalConfig};
        use uots_core::planner::Planner;
        use uots_core::shard::{Partitioner, ShardedCluster};
        use uots_core::Mutation;
        use uots_trajectory::TrajectoryId;

        // The sharded tier targets million-trajectory stores, so this
        // experiment builds its dataset through the parallel generator
        // (`--trips 1000000` is the headline point; smaller trips give
        // the same curve shapes at smoke scale).
        // The vocabulary scales with |P| (min 1 keyword per 50 trips):
        // with the preset's fixed vocabulary, a million-trip store gives
        // every keyword hundreds of holders on every shard — every
        // per-shard textual bound is trivial and no query is selective.
        // Real tag vocabularies grow with the corpus; the Zipf tail of
        // the scaled vocabulary keeps genuinely rare keywords in play.
        let d5_cfg = {
            let mut c = base_cfg.clone();
            c.name = format!("{} [parallel-gen]", c.name);
            c.tags.vocab_size = c.tags.vocab_size.max(args.trips / 50);
            c
        };
        let build_start = Instant::now();
        let d5_ds = Dataset::build_parallel(&d5_cfg, 0).expect("d5 dataset builds");
        eprintln!(
            "[bench] d5 built {} trajectories in {:?} (parallel generator)",
            d5_ds.store.len(),
            build_start.elapsed()
        );

        // Selective "needle" queries, built so that the carried floor
        // *provably* cuts shards: each query pairs a rare keyword `a`
        // (2 ≤ df ≤ 8) with a common co-keyword `b` from a holder
        // trajectory carrying ≤ 3 tags, λ = 0.1, k = 1, locations on the
        // holder. The holder's score is ≥ λ + (1−λ)·2/3 ≈ 0.7 (both
        // keywords, jaccard ≥ 2/3, on-route locations), while a shard
        // holding only `b` bounds at λ + (1−λ)/2 = 0.55 — strictly below
        // the floor the holder's shard leaves, so it is never run.
        // Crucially those `b`-only shards are the EXPENSIVE ones: their
        // local text bound (0.45) exceeds any local best, so on their own
        // they would grind through all of `b`'s postings. Single-keyword
        // needles save nothing worth measuring — a shard missing the only
        // keyword has a zero local text bound and its expansion
        // self-terminates in microseconds anyway.
        let d5_queries: Vec<UotsQuery> = {
            let df = |k: uots_text::KeywordId| d5_ds.keyword_index.values_for(k).len();
            let rare: Vec<uots_text::KeywordId> = (0..d5_ds.vocab.len() as u32)
                .map(uots_text::KeywordId)
                .filter(|&k| (2..=8).contains(&df(k)))
                .collect();
            assert!(
                !rare.is_empty(),
                "d5 needs at least one rare keyword in the dataset"
            );
            // common enough that b-only shards have real work to skip
            let common_floor = (d5_ds.store.len() / 1000).max(16);
            let mut needles: Vec<(uots_text::KeywordId, uots_text::KeywordId, TrajectoryId)> =
                Vec::new();
            'outer: for &a in &rare {
                for &h in d5_ds.keyword_index.values_for(a) {
                    let tags = d5_ds.store.get(h).keywords().clone();
                    if tags.len() > 3 {
                        continue;
                    }
                    let b = tags.iter().filter(|&k| k != a).max_by_key(|&k| df(k));
                    if let Some(b) = b {
                        if df(b) >= common_floor {
                            needles.push((a, b, h));
                            if needles.len() >= args.queries.max(1) {
                                break 'outer;
                            }
                            break;
                        }
                    }
                }
            }
            eprintln!(
                "[bench] d5 needles: {} rare+common pairs ({} rare keywords scanned)",
                needles.len(),
                rare.len()
            );
            (0..args.queries.max(1))
                .map(|i| {
                    // fall back to single-keyword needles when the corpus
                    // offers too few rare+common pairs (smoke scales)
                    let (kws, holder) = if needles.is_empty() {
                        let a = rare[i % rare.len()];
                        (vec![a], d5_ds.keyword_index.values_for(a)[0])
                    } else {
                        let (a, b, h) = needles[i % needles.len()];
                        (vec![a, b], h)
                    };
                    let t = d5_ds.store.get(holder);
                    let mut locations: Vec<_> = t.nodes().take(2).collect();
                    locations.dedup();
                    UotsQuery::with_options(
                        locations,
                        uots_text::KeywordSet::from_ids(kws),
                        vec![],
                        QueryOptions {
                            weights: Weights::lambda(0.1).expect("valid lambda"),
                            k: 1,
                            ..Default::default()
                        },
                    )
                    .expect("valid d5 query")
                })
                .collect()
        };
        let shard_counts = [1usize, 2, 4, 8];
        let network = Arc::new(d5_ds.network.clone());

        let mut rows = Vec::new();
        let mut search_summary = Vec::new();
        for &n in &shard_counts {
            let cluster = ShardedCluster::new(
                Arc::clone(&network),
                &d5_ds.store,
                d5_ds.vocab.len(),
                n,
                Partitioner::Hash,
            );
            let cut = cluster.snapshot();
            let planner = Planner::new();
            let mut latencies = LatencyStats::new();
            let mut cuts = 0usize;
            let mut visited = 0.0f64;
            let start = Instant::now();
            for q in &d5_queries {
                let t0 = Instant::now();
                let ans = cut.search(&planner, q).expect("d5 search");
                latencies.record(t0.elapsed());
                if std::env::var_os("UOTS_D5_DEBUG").is_some() {
                    let best = ans.result.matches.first();
                    eprintln!(
                        "[d5-debug] n={n} best={:?} bounds={:?} cancelled={} cut={}",
                        best.map(|m| (m.id, m.similarity, m.spatial, m.textual)),
                        ans.shard_bounds,
                        ans.shards_cancelled,
                        ans.shards_cut
                    );
                }
                cuts += ans.shards_cut;
                visited += ans.result.metrics.visited_trajectories as f64;
            }
            let wall = start.elapsed();
            let nq = d5_queries.len().max(1) as f64;
            search_summary.push((n, wall.as_secs_f64() * 1_000.0 / nq, cuts));
            let mut row = Row {
                experiment: "d5".into(),
                dataset: d5_ds.name.clone(),
                algorithm: format!("scatter-gather ({n} shards)"),
                parameter: "shards".into(),
                value: n as f64,
                queries: d5_queries.len(),
                runtime_ms: wall.as_secs_f64() * 1_000.0 / nq,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                visited: visited / nq,
                // shards cut by the global threshold, mean per query
                candidates: cuts as f64 / nq,
                candidate_ratio: 0.0,
                pruning_ratio: cuts as f64 / (n.max(2) as f64 - 1.0) / nq,
                bound_gap: 0.0,
                recall: 1.0,
            };
            latencies.fill(&mut row);
            rows.push(row);
        }

        // Recovery: every shard recovers its own WAL + checkpoint lineage
        // in parallel, so wall-clock recovery is the per-shard maximum
        // and falls as the store spreads across more shards.
        let root = std::env::temp_dir().join(format!("uots_d5_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let batches: Vec<Vec<Mutation>> = {
            let mut rng = StdRng::seed_from_u64(0xd5);
            (0..64usize)
                .map(|_| {
                    (0..8usize)
                        .map(|_| {
                            let src = TrajectoryId(rng.gen_range(0..d5_ds.store.len()) as u32);
                            Mutation::Insert(d5_ds.store.get(src).clone())
                        })
                        .collect()
                })
                .collect()
        };
        let mut recovery_summary = Vec::new();
        for &n in &shard_counts {
            let dir = root.join(format!("shards-{n}"));
            let mut cluster = ShardedDurable::create(
                Arc::clone(&network),
                &d5_ds.store,
                &d5_ds.vocab,
                &dir,
                n,
                WalConfig {
                    fsync: FsyncPolicy::Never,
                    ..WalConfig::default()
                },
                None,
                None,
            )
            .expect("d5 cluster creates");
            for batch in &batches {
                cluster.apply(batch.clone()).expect("d5 apply");
            }
            drop(cluster);
            let start = Instant::now();
            let (_cluster, reports) = ShardedDurable::open(
                &dir,
                n,
                WalConfig {
                    fsync: FsyncPolicy::Never,
                    ..WalConfig::default()
                },
                None,
                None,
            )
            .expect("d5 recovery");
            let wall = start.elapsed();
            let replayed: u64 = reports.iter().map(|r| r.replayed_batches).sum();
            recovery_summary.push((n, wall));
            rows.push(Row {
                experiment: "d5".into(),
                dataset: d5_ds.name.clone(),
                algorithm: format!("recovery ({n} shards)"),
                parameter: "shards".into(),
                value: n as f64,
                queries: 1,
                runtime_ms: wall.as_secs_f64() * 1_000.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: reports
                    .iter()
                    .map(|r| r.micros as f64 / 1_000.0)
                    .fold(0.0, f64::max),
                visited: replayed as f64,
                candidates: 0.0,
                candidate_ratio: 0.0,
                pruning_ratio: 0.0,
                bound_gap: 0.0,
                recall: 1.0,
            });
        }
        let _ = std::fs::remove_dir_all(&root);

        print!(
            "{}",
            render_table(
                "D5 — sharding: scatter-gather latency, threshold cuts, parallel \
                 recovery (extension)",
                &rows
            )
        );
        let total_cuts: usize = search_summary.iter().map(|(_, _, c)| c).sum();
        println!(
            "d5 summary: {}; shards cut by the global threshold across the sweep: \
             {total_cuts}; recovery — {}",
            search_summary
                .iter()
                .map(|(n, ms, c)| format!("{n} shards {ms:.2} ms/query ({c} cuts)"))
                .collect::<Vec<_>>()
                .join(", "),
            recovery_summary
                .iter()
                .map(|(n, w)| format!("{n} shards {:.0} ms", w.as_secs_f64() * 1_000.0))
                .collect::<Vec<_>>()
                .join(", "),
        );
        all_rows.extend(rows);
    }

    // machine-readable perf trajectory: one BENCH_<id>.json per experiment,
    // every row tagged with the dataset preset and seed
    if let Some(dir) = &args.bench_dir {
        let dir = std::path::Path::new(dir);
        let preset = format!("{:?}", args.scale).to_lowercase();
        let seed = base_cfg.trips.seed;
        let mut ids: Vec<&str> = Vec::new();
        for r in &all_rows {
            if !ids.contains(&r.experiment.as_str()) {
                ids.push(&r.experiment);
            }
        }
        let mut written = Vec::new();
        for id in ids {
            let rows: Vec<Row> = all_rows
                .iter()
                .filter(|r| r.experiment == id)
                .cloned()
                .collect();
            match uots_bench::write_bench_json(dir, id, &preset, seed, &rows) {
                Ok(path) => written.push(path.display().to_string()),
                Err(e) => eprintln!("warning: writing BENCH_{id}.json: {e}"),
            }
        }
        if !written.is_empty() {
            println!("\nbench rows: {}", written.join(", "));
        }
    }

    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(&all_rows).expect("rows serialize");
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {} rows to {path}", all_rows.len());
    }
}
