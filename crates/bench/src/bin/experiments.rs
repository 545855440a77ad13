//! Paper-style experiment harness.
//!
//! Regenerates every table and figure of the reconstructed UOTS evaluation
//! (see `DESIGN.md` §5 for the inventory and `EXPERIMENTS.md` for recorded
//! results):
//!
//! ```text
//! experiments [--scale tiny|bench|brn|nrn] [--trips N] [--queries N]
//!             [--only t1,t2,f1,...] [--bench-dir DIR]
//! ```
//!
//! * `t1` dataset statistics, `t2` pruning effectiveness
//! * `f1`–`f6`: effect of #query locations, λ, |P|, k, #keywords and
//!   trajectory length; `f7` thread count; `f8` scheduler ablation;
//!   `f9` vocabulary size; `f10` temporal channel cost
//! * `j1` trajectory similarity self-join (extension)
//! * `d1` anytime degradation curve: quality vs budget (extension)
//! * `d3` live ingest: epoch-swap throughput and query latency under churn
//!   vs the frozen baseline (extension)
//! * `d4` durability: ingest throughput vs WAL fsync policy, and recovery
//!   time vs WAL length, with and without checkpoints (extension)
//! * `d5` sharding: lockstep ms/query and settles, shards cut by the global
//!   threshold, and parallel recovery time vs shard count (extension)
//!
//! Every experiment but T1 prints a table and writes its rows, tagged
//! with the dataset preset and seed, as `BENCH_<id>.json` into
//! `--bench-dir` (default `.`). Each is one entry of [`EXPERIMENTS`]:
//! T2, F1–F6, F8 and F9 are sweeps of the paper's template — vary one
//! parameter, hold the others at their defaults, run the line-up at every
//! point — and the rest are functions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uots::cluster::ShardedDurable;
use uots::core::wal::{FsyncPolicy, WalConfig, WalWriter};
use uots::durable::{recover, RecoverySource};
use uots::storage::StdFs;
use uots_bench::{
    algorithms, make_queries, measure, render_table, schedulers, time, LatencyStats, Row, Scale,
};
use uots_core::algorithms::{Algorithm, Expansion};
use uots_core::planner::AlgorithmKind;
use uots_core::shard::{ClusterSnapshot, Partitioner, ShardedCluster};
use uots_core::{
    parallel, Database, EpochManager, ExecutionBudget, Mutation, QueryOptions, QueryResult,
    RunControl, UotsQuery, Weights,
};
use uots_datagen::{Dataset, DatasetConfig};
use uots_network::RoadNetwork;
use uots_text::{KeywordId, KeywordSet};
use uots_trajectory::TrajectoryId;

struct Args {
    scale: Scale,
    trips: usize,
    queries: usize,
    only: Option<HashSet<String>>,
    /// Directory for the per-experiment `BENCH_<id>.json` row files.
    bench_dir: String,
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut scale = Scale::Bench;
    let mut trips = None;
    let mut queries = 16usize;
    let mut only = None;
    let mut bench_dir = ".".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| fail(format!("`{flag}` needs a value")))
        };
        match flag.as_str() {
            "--scale" => {
                let v = value();
                scale = Scale::parse(&v).unwrap_or_else(|| fail(format!("unknown scale `{v}`")));
            }
            "--trips" => trips = Some(value().parse().expect("--trips N")),
            "--queries" => queries = value().parse().expect("--queries N"),
            "--only" => only = Some(value().split(',').map(|s| s.trim().to_string()).collect()),
            "--bench-dir" => bench_dir = value(),
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--scale tiny|bench|brn|nrn] [--trips N] \
                     [--queries N] [--only t1,f2,...] [--bench-dir DIR]\n\
                     every experiment writes its rows as BENCH_<id>.json \
                     (preset, seed, percentiles, visited counts) into \
                     --bench-dir (default .)"
                );
                std::process::exit(0);
            }
            other => fail(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Args {
        scale,
        trips: trips.unwrap_or_else(|| scale.default_trips()),
        queries,
        only,
        bench_dir,
    }
}

fn open(ds: &Dataset) -> Database<'_> {
    Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_keyword_index(&ds.keyword_index)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// What every experiment reads: the flags and the main dataset.
struct Ctx<'a> {
    args: &'a Args,
    /// The main dataset's configuration; an experiment that builds its
    /// own data changes a field of it.
    cfg: &'a DatasetConfig,
    ds: &'a Dataset,
}

/// An experiment's rows, and the lines printed under its table.
type Output = (Vec<Row>, Vec<String>);

/// What one sweep varies. Every other parameter stays at its default:
/// m = 4 locations, 3 keywords, λ = 0.5, k = 1, the main dataset and the
/// paper's line-up ([`algorithms`]).
#[derive(Clone, Copy)]
enum Vary {
    /// Nothing: the defaults once, with the brute-force oracle in the
    /// line-up at the two small scales.
    Nothing,
    /// The number of query locations m.
    Locations,
    /// The preference parameter λ.
    Lambda,
    /// |P| as a fraction of `--trips`. The trip generator draws trips from
    /// one RNG stream, so each dataset is a prefix of the main one; the
    /// value is its trip count.
    Trips,
    /// The answer size k.
    K,
    /// The number of query keywords.
    Keywords,
    /// The trips' sample stride; the value is the dataset's average
    /// trajectory length.
    Stride,
    /// The tag vocabulary size.
    Vocab,
    /// The expansion's scheduler, at m = 6, on one point.
    Scheduler,
}

/// One sweep: the swept parameter's name, the query seed, what the sweep
/// varies and its points.
struct Sweep {
    parameter: &'static str,
    seed: u64,
    vary: Vary,
    points: &'static [f64],
}

/// How an experiment runs.
enum Run {
    Sweep(Sweep),
    /// A hand-written experiment.
    Custom(fn(&Ctx<'_>) -> Output),
}

const fn sweep(parameter: &'static str, seed: u64, vary: Vary, points: &'static [f64]) -> Run {
    Run::Sweep(Sweep {
        parameter,
        seed,
        vary,
        points,
    })
}

/// Every experiment with rows, in run order: id, table title and run.
const EXPERIMENTS: [(&str, &str, Run); 16] = [
    (
        "t2",
        "T2 — pruning effectiveness (defaults)",
        sweep("-", 0x12, Vary::Nothing, &[0.0]),
    ),
    (
        "f1",
        "F1 — effect of #query locations m",
        sweep("m", 0xf1, Vary::Locations, &[2.0, 4.0, 6.0, 8.0, 10.0]),
    ),
    (
        "f2",
        "F2 — effect of preference parameter λ",
        sweep("lambda", 0xf2, Vary::Lambda, &[0.1, 0.3, 0.5, 0.7, 0.9]),
    ),
    (
        "f3",
        "F3 — effect of trajectory cardinality |P|",
        sweep("|P|", 0xf3, Vary::Trips, &[0.25, 0.5, 0.75, 1.0]),
    ),
    (
        "f4",
        "F4 — effect of answer size k (extension)",
        sweep("k", 0xf4, Vary::K, &[1.0, 5.0, 10.0, 20.0, 50.0]),
    ),
    (
        "f5",
        "F5 — effect of #query keywords",
        sweep("keywords", 0xf5, Vary::Keywords, &[1.0, 2.0, 4.0, 8.0]),
    ),
    (
        "f6",
        "F6 — effect of average trajectory length",
        sweep("avg_len", 0xf6, Vary::Stride, &[8.0, 4.0, 2.0, 1.0]),
    ),
    (
        "f7",
        "F7 — effect of thread count (batch wall time)",
        Run::Custom(f7),
    ),
    (
        "f8",
        "F8 — scheduling strategy ablation",
        sweep("scheduler", 0xf8, Vary::Scheduler, &[0.0]),
    ),
    (
        "f9",
        "F9 — effect of vocabulary size",
        sweep("vocab", 0xf9, Vary::Vocab, &[100.0, 200.0, 400.0, 800.0]),
    ),
    (
        "f10",
        "F10 — temporal channel (extension)",
        Run::Custom(f10),
    ),
    (
        "j1",
        "J1 — trajectory similarity self-join (extension; runtime is the whole join)",
        Run::Custom(j1),
    ),
    (
        "d1",
        "D1 — anytime degradation: result quality vs settle budget (extension)",
        Run::Custom(d1),
    ),
    (
        "d3",
        "D3 — live ingest: query latency under epoch churn (extension)",
        Run::Custom(d3),
    ),
    (
        "d4",
        "D4 — durability: WAL fsync cost and recovery time (extension)",
        Run::Custom(d4),
    ),
    (
        "d5",
        "D5 — sharding: lockstep latency, threshold cuts, parallel recovery (extension)",
        Run::Custom(d5),
    ),
];

fn main() {
    let args = parse_args();
    println!(
        "# UOTS experiments — scale {:?}, |P| = {}, {} queries/point",
        args.scale, args.trips, args.queries
    );
    let cfg = args.scale.config(args.trips);
    let ds = args.scale.build(args.trips);
    let wants = |id: &str| args.only.as_ref().is_none_or(|s| s.contains(id));

    if wants("t1") {
        println!("\n## T1 — dataset statistics ({})", ds.name);
        println!("{}", ds.stats());
        println!(
            "network             : {} vertices, {} edges, total {:.0} km",
            ds.network.num_nodes(),
            ds.network.num_edges(),
            ds.network.total_length()
        );
    }

    let ctx = Ctx {
        args: &args,
        cfg: &cfg,
        ds: &ds,
    };
    let preset = format!("{:?}", args.scale).to_lowercase();
    let mut written = Vec::new();
    for (id, title, run) in &EXPERIMENTS {
        if !wants(id) {
            continue;
        }
        let (rows, notes) = match run {
            Run::Sweep(sweep) => (run_sweep(&ctx, id, sweep), vec![]),
            Run::Custom(f) => f(&ctx),
        };
        print!("{}", render_table(title, &rows));
        for note in notes {
            println!("{note}");
        }
        let dir = std::path::Path::new(&args.bench_dir);
        match uots_bench::write_bench_json(dir, id, &preset, cfg.trips.seed, &rows) {
            Ok(path) => written.push(path.display().to_string()),
            Err(e) => eprintln!("warning: writing BENCH_{id}.json: {e}"),
        }
    }
    if !written.is_empty() {
        println!("\nbench rows: {}", written.join(", "));
    }
}

/// Runs one sweep: per point, the dataset and queries it asks for, then
/// the line-up over them.
fn run_sweep(ctx: &Ctx<'_>, id: &str, sweep: &Sweep) -> Vec<Row> {
    let vary = sweep.vary;
    let mut rows = Vec::new();
    for &x in sweep.points {
        let n = x as usize;
        // (m, #keywords, λ, k): the defaults, but for what the sweep varies
        let (m, keywords, lambda, k) = match vary {
            Vary::Locations => (n, 3, 0.5, 1),
            Vary::Keywords => (4, n, 0.5, 1),
            Vary::Lambda => (4, 3, x, 1),
            Vary::K => (4, 3, 0.5, n),
            Vary::Scheduler => (6, 3, 0.5, 1),
            _ => (4, 3, 0.5, 1),
        };
        let mut cfg = ctx.cfg.clone();
        let rebuild = match vary {
            Vary::Trips => {
                let n = ((ctx.args.trips as f64 * x) as usize).max(10);
                cfg.trips.num_trips = n;
                Some(format!("@|P|={n}"))
            }
            Vary::Stride => {
                cfg.trips.sample_stride = n;
                Some(format!("@stride={n}"))
            }
            Vary::Vocab => {
                cfg.tags.vocab_size = n;
                Some(format!("@vocab={n}"))
            }
            _ => None,
        };
        let rebuilt = rebuild.map(|tag| {
            cfg.name = format!("{} {tag}", cfg.name);
            Dataset::build(&cfg).expect("sweep dataset builds")
        });
        let ds = rebuilt.as_ref().unwrap_or(ctx.ds);
        let value = match vary {
            Vary::Trips => ds.store.len() as f64,
            Vary::Stride => ds.stats().avg_len,
            _ => x,
        };
        let db = open(ds);
        let queries = make_queries(ds, ctx.args.queries, m, keywords, lambda, k, sweep.seed);
        let lineup = match vary {
            Vary::Nothing => algorithms(matches!(ctx.args.scale, Scale::Tiny | Scale::Bench)),
            Vary::Scheduler => schedulers(),
            _ => algorithms(false),
        };
        for (name, algo) in lineup {
            let row = Row::new(id, &ds.name, name, sweep.parameter, value, queries.len());
            rows.push(measure(&db, algo.as_ref(), &queries, row));
        }
    }
    rows
}

/// F7: one batch of expansion queries at 1, 2, 4 and 8 threads.
fn f7(ctx: &Ctx<'_>) -> Output {
    let (ds, db) = (ctx.ds, open(ctx.ds));
    let queries = make_queries(ds, ctx.args.queries.max(32), 4, 3, 0.5, 1, 0xf7);
    let nq = queries.len();
    let rows = [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let algo = Expansion::default();
            let (results, wall) =
                time(|| parallel::run_batch(&db, &algo, &queries, threads).expect("batch runs"));
            // per-query latencies come from each result's own clock, so
            // the percentiles reflect in-worker time, not queueing
            let mut latencies = LatencyStats::new();
            let (mut visited, mut candidates) = (0, 0);
            for r in &results {
                latencies.record(r.metrics.runtime);
                visited += r.metrics.visited_trajectories;
                candidates += r.metrics.candidates;
            }
            let row = Row::new("f7", &ds.name, "expansion", "threads", threads as f64, nq);
            row.timed(wall, &latencies)
                .with_counts(visited, candidates, ds.store.len())
        })
        .collect();
    (rows, vec![])
}

/// F10: the expansion with and without a preferred time per query.
fn f10(ctx: &Ctx<'_>) -> Output {
    let ds = ctx.ds;
    let tidx = ds.store.build_timestamp_index();
    let db = open(ds).with_timestamp_index(&tidx);
    let base = make_queries(ds, ctx.args.queries, 4, 3, 0.5, 1, 0xf10);
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
    let rows = [
        ("spatial+textual", &base, 2.0),
        ("spatial+textual+temporal", &temporal, 3.0),
    ]
    .into_iter()
    .map(|(name, queries, channels)| {
        let row = Row::new("f10", &ds.name, name, "channels", channels, queries.len());
        measure(&db, &algo, queries, row)
    })
    .collect();
    (rows, vec![])
}

/// J1: the trajectory similarity self-join at θ = 0.7, 0.8 and 0.9, then
/// the θ = 0.8 join over the view of a 1-, 2- and 4-shard cut.
fn j1(ctx: &Ctx<'_>) -> Output {
    // the join touches every trajectory as a probe; keep it to a
    // join-sized prefix of the main trip stream
    let join_trips = (ctx.args.trips / 10).clamp(200, 2_000);
    let mut cfg = ctx.cfg.clone();
    cfg.trips.num_trips = join_trips;
    cfg.name = format!("{} @|P|={join_trips}", cfg.name);
    let jds = Dataset::build(&cfg).expect("join dataset builds");
    let tidx = jds.store.build_timestamp_index();
    let n = jds.store.len();
    let mut rows = Vec::new();
    let mut pairs_at_08 = Vec::new();
    for theta in [0.7f64, 0.8, 0.9] {
        let cfg = uots_join::JoinConfig {
            theta,
            ..Default::default()
        };
        let (result, wall) = time(|| {
            uots_join::ts_join(&jds.network, &jds.store, &jds.vertex_index, &tidx, &cfg, 2)
                .expect("join runs")
        });
        if theta == 0.8 {
            pairs_at_08.clone_from(&result.pairs);
        }
        let algorithm = format!("ts-join pairs={}", result.pairs.len());
        // one join = one measurement: the distribution is a point
        let wall = ms(wall);
        rows.push(
            Row {
                runtime_ms: wall,
                p50_ms: wall,
                p95_ms: wall,
                p99_ms: wall,
                max_ms: wall,
                bound_gap: result.completeness.bound_gap(),
                ..Row::new("j1", &jds.name, algorithm, "theta", theta, n)
            }
            .with_counts(result.visited_trajectories, result.candidates, n),
        );
    }
    // The view join has one read path at every shard count, so its pairs
    // must be the unsharded join's. Runs alternate across shard counts so
    // drift hits each alike; the note gives each count's median and spread.
    let cfg = uots_join::JoinConfig {
        theta: 0.8,
        ..Default::default()
    };
    let network = Arc::new(jds.network.clone());
    let shard_counts = [1usize, 2, 4];
    let cuts = shard_counts.map(|shards| hash_cut(&jds, &network, shards));
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); cuts.len()];
    for _ in 0..5 {
        for (cut, cut_walls) in cuts.iter().zip(&mut walls) {
            let (result, wall) = time(|| {
                let (budget, ctl) = (&ExecutionBudget::UNLIMITED, &RunControl::unbounded());
                uots_join::ts_join_with(&cut.view(), &cfg, 2, budget, ctl).expect("view join runs")
            });
            assert_eq!(
                result.pairs,
                pairs_at_08,
                "{} shards: the view join must answer the unsharded pairs",
                cut.num_shards()
            );
            cut_walls.push(ms(wall));
        }
    }
    let spread: Vec<String> = shard_counts
        .iter()
        .zip(&mut walls)
        .map(|(shards, w)| {
            w.sort_by(f64::total_cmp);
            format!("{shards} shards={:.1} [{:.1}, {:.1}]", w[2], w[0], w[4])
        })
        .collect();
    let note = format!(
        "j1 view join θ=0.8, ms median [min, max] of 5: {} ({} pairs at every count)",
        spread.join(" "),
        pairs_at_08.len()
    );
    (rows, vec![note])
}

/// The published cut of `ds`'s trips hash-partitioned over `shards`
/// shards, on `network` (a clone of `ds.network`, shared by every cut).
fn hash_cut(ds: &Dataset, network: &Arc<RoadNetwork>, shards: usize) -> ClusterSnapshot {
    let cluster = ShardedCluster::new(
        Arc::clone(network),
        &ds.store,
        ds.vocab.len(),
        shards,
        Partitioner::Hash,
    );
    cluster.snapshot()
}

/// D1: result quality under a settle budget, as a fraction of each
/// query's unbudgeted settles.
fn d1(ctx: &Ctx<'_>) -> Output {
    let (ds, db) = (ctx.ds, open(ctx.ds));
    let queries = make_queries(ds, ctx.args.queries, 4, 3, 0.5, 5, 0xd1);
    let algo = Expansion::default();
    // unbudgeted reference runs: per-query settled work + the true top-k
    let reference: Vec<(usize, Vec<_>)> = queries
        .iter()
        .map(|q| {
            let r = algo.run(&db, q).expect("reference run");
            (r.metrics.settled_vertices.max(1), r.ids())
        })
        .collect();
    let rows = [0.05f64, 0.1, 0.25, 0.5, 1.0]
        .into_iter()
        .map(|frac| {
            let (mut gap_sum, mut recall_sum) = (0.0, 0.0);
            let (mut visited, mut candidates) = (0, 0);
            let mut latencies = LatencyStats::new();
            let start = Instant::now();
            for (q, (settled_full, oracle_ids)) in queries.iter().zip(&reference) {
                let budget = ExecutionBudget::default()
                    .with_max_settled(((*settled_full as f64) * frac).ceil() as usize);
                let bq = q
                    .reoptioned(QueryOptions {
                        budget,
                        ..q.options().clone()
                    })
                    .expect("budgeted query");
                let q_start = Instant::now();
                let r = algo.run(&db, &bq).expect("budgeted run");
                latencies.record(q_start.elapsed());
                gap_sum += r.completeness.bound_gap();
                let hit = r.ids().iter().filter(|id| oracle_ids.contains(id)).count();
                recall_sum += hit as f64 / oracle_ids.len().max(1) as f64;
                visited += r.metrics.visited_trajectories;
                candidates += r.metrics.candidates;
            }
            let nq = queries.len().max(1) as f64;
            Row {
                bound_gap: gap_sum / nq,
                recall: recall_sum / nq,
                ..Row::new("d1", &ds.name, "expansion", "budget", frac, queries.len())
            }
            .timed(start.elapsed(), &latencies)
            .with_counts(visited, candidates, ds.store.len())
        })
        .collect();
    (rows, vec![])
}

/// A result's ids and similarity bits, in rank order.
fn fingerprint(r: &QueryResult) -> Vec<(TrajectoryId, u64)> {
    r.matches
        .iter()
        .map(|m| (m.id, m.similarity.to_bits()))
        .collect()
}

/// D3's query passes over one kind of snapshot, summed.
#[derive(Default)]
struct Pass {
    latencies: LatencyStats,
    queries: usize,
    visited: usize,
    wall: Duration,
}

/// D3: live ingest — query latency under epoch churn against the frozen
/// seed snapshot, every epoch checked against a from-scratch rebuild.
fn d3(ctx: &Ctx<'_>) -> Output {
    let ds = ctx.ds;
    let queries = make_queries(ds, ctx.args.queries, 4, 3, 0.5, 5, 0xd3);
    let algo = Expansion::default();
    let mgr = EpochManager::new(
        Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.len(),
    );

    // one workload pass against a pinned snapshot, added to `pass`;
    // returns per-query fingerprints for the identity checks
    let run_pass = |snapshot: &uots_core::EpochSnapshot, pass: &mut Pass| {
        let db = snapshot.database();
        let start = Instant::now();
        let mut results = Vec::new();
        for q in &queries {
            let q_start = Instant::now();
            let r = algo.run(&db, q).expect("d3 run");
            pass.latencies.record(q_start.elapsed());
            results.push(fingerprint(&r));
            pass.visited += r.metrics.visited_trajectories;
        }
        pass.queries += queries.len();
        pass.wall += start.elapsed();
        results
    };

    // frozen baseline: the seed snapshot, no churn
    let mut frozen = Pass::default();
    run_pass(&mgr.snapshot(), &mut frozen);

    // churn: epochs of mixed ingest/retire, workload re-run per epoch
    let epochs = 4usize;
    let batch = (ctx.args.trips / 8).clamp(8, 256);
    let mut rng = StdRng::seed_from_u64(0xd3c4);
    let mut next_id = ds.store.len();
    let mut live = next_id;
    let mut mutations = 0u64;
    let mut mutate_time = Duration::ZERO;
    let mut churn = Pass::default();
    for _ in 0..epochs {
        let m_start = Instant::now();
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
        let results = run_pass(&snapshot, &mut churn);

        // in-run differential: the served epoch must answer exactly as
        // a from-scratch rebuild of the surviving trajectories
        let (compacted, id_map) = snapshot.rebuild_compacted();
        let vidx = compacted.build_vertex_index(ds.network.num_nodes());
        let kidx = compacted.build_keyword_index(ds.vocab.len());
        let blocks = compacted.build_keyword_blocks();
        let oracle_db =
            Database::new(snapshot.network(), &compacted, &vidx, &blocks).with_keyword_index(&kidx);
        for (q, served) in queries.iter().zip(&results).take(3) {
            let oracle = algo.run(&oracle_db, q).expect("d3 oracle");
            let mapped: Vec<_> = served
                .iter()
                .map(|&(id, bits)| (id_map[id.0 as usize].expect("served id is live"), bits))
                .collect();
            let epoch = snapshot.epoch();
            assert_eq!(
                mapped,
                fingerprint(&oracle),
                "epoch {epoch} diverged from rebuild"
            );
        }
    }

    let throughput = mutations as f64 / mutate_time.as_secs_f64().max(1e-12);
    let note = format!(
        "d3 summary: {mutations} mutations over {epochs} epochs at {throughput:.0} \
         mutations/s (batch {batch}, publish included); query latency frozen \
         {:.3} ms → under churn {:.3} ms; every epoch verified bit-identical \
         to a from-scratch rebuild",
        ms(frozen.wall) / frozen.queries as f64,
        ms(churn.wall) / churn.queries as f64,
    );
    // recall stays 1: every epoch is asserted bit-identical to the rebuild
    let rows = [
        ("frozen", frozen, 0.0),
        ("under-churn", churn, epochs as f64),
    ]
    .into_iter()
    .map(|(mode, pass, value)| {
        let algorithm = format!("expansion ({mode})");
        Row {
            visited: pass.visited as f64 / pass.queries.max(1) as f64,
            ..Row::new("d3", &ds.name, algorithm, "epochs", value, pass.queries)
        }
        .timed(pass.wall, &pass.latencies)
    })
    .collect();
    (rows, vec![note])
}

fn unsynced_wal() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::default()
    }
}

/// D4: durability — ingest cost per WAL fsync policy, and recovery time
/// against WAL length with and without checkpoints.
fn d4(ctx: &Ctx<'_>) -> Output {
    let ds = ctx.ds;
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
    // every D4 row is a point on the WAL's length in batches
    let row = |algorithm: &str, batches: usize, queries: usize| {
        Row::new(
            "d4",
            &ds.name,
            algorithm,
            "wal-batches",
            batches as f64,
            queries,
        )
    };

    let mut rows = Vec::new();
    let mut throughputs = Vec::new();
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
        let config = WalConfig {
            fsync: policy,
            ..WalConfig::default()
        };
        let (mut ingest, _) =
            ShardedDurable::open_or_create(ds.clone(), &dir, 1, config, None, None, None)
                .expect("d4 wal opens");
        let start = Instant::now();
        for batch in &batches {
            ingest.apply(batch.clone()).expect("d4 apply");
        }
        let wall = start.elapsed();
        let throughput = mutations_total / wall.as_secs_f64().max(1e-12);
        throughputs.push(format!("{name} {throughput:.0}/s"));
        let algorithm = format!("wal ingest (fsync={name})");
        rows.push(Row {
            runtime_ms: ms(wall) / batches_total as f64,
            visited: mutations_total,
            ..row(&algorithm, batches_total, batches_total)
        });
    }

    // recovery time vs WAL length (no checkpoint: full replay + rebuild)
    let mut recoveries = Vec::new();
    for len in [batches_total / 4, batches_total / 2, batches_total] {
        let dir = root.join(format!("recover-{len}"));
        std::fs::create_dir_all(&dir).expect("d4 dir");
        let mut writer = WalWriter::open(&dir, unsynced_wal(), Arc::new(StdFs), None, None)
            .expect("d4 wal opens");
        for batch in &batches[..len] {
            writer.append(batch).expect("d4 append");
        }
        drop(writer);
        let start = Instant::now();
        let recovered = recover(&StdFs, &dir, Some(ds), None, None).expect("d4 recovery");
        let wall = start.elapsed();
        assert_eq!(recovered.report.replayed_batches as usize, len);
        recoveries.push(format!("{len} batches {:.0} ms", ms(wall)));
        rows.push(Row {
            runtime_ms: ms(wall),
            visited: recovered.report.replayed_mutations as f64,
            ..row("recover (wal only)", len, 1)
        });
    }

    // checkpoints collapse replay: same full log, checkpoint cadence on
    let dir = root.join("recover-checkpointed");
    std::fs::create_dir_all(&dir).expect("d4 dir");
    let (mut ingest, _) =
        ShardedDurable::open_or_create(ds.clone(), &dir, 1, unsynced_wal(), Some(64), None, None)
            .expect("d4 wal opens");
    for (i, batch) in batches.iter().enumerate() {
        ingest.apply(batch.clone()).expect("d4 apply");
        if (i + 1) % 64 == 0 {
            ingest.publish_all().expect("d4 publish");
        }
    }
    drop(ingest);
    let start = Instant::now();
    let recovered = recover(&StdFs, &dir, Some(ds), None, None).expect("d4 recovery");
    let ckpt_wall = start.elapsed();
    assert!(matches!(
        recovered.report.source,
        RecoverySource::Checkpoint(_)
    ));
    rows.push(Row {
        runtime_ms: ms(ckpt_wall),
        visited: recovered.report.replayed_mutations as f64,
        ..row("recover (checkpoint+tail)", batches_total, 1)
    });
    let _ = std::fs::remove_dir_all(&root);

    let note = format!(
        "d4 summary: ingest throughput by fsync policy — {}; recovery (full \
         replay) — {}; with checkpoints every 64 batches the same {}-batch log \
         recovers in {:.0} ms replaying only {} batches",
        throughputs.join(", "),
        recoveries.join(", "),
        batches_total,
        ms(ckpt_wall),
        recovered.report.replayed_batches,
    );
    (rows, vec![note])
}

/// D5: sharding — lockstep latency, settles and threshold cuts, and
/// parallel recovery time, at 1, 2, 4 and 8 shards.
fn d5(ctx: &Ctx<'_>) -> Output {
    // The sharded tier targets million-trajectory stores
    // (`--trips 1000000` is the headline point; smaller trips give
    // the same curve shapes at smoke scale). `Dataset::build` routes
    // the trips on every core, so the dataset is the one trip stream
    // every other experiment uses at this seed.
    // The vocabulary scales with |P| (min 1 keyword per 50 trips):
    // with the preset's fixed vocabulary, a million-trip store gives
    // every keyword hundreds of holders on every shard — every
    // per-shard textual bound is trivial and no query is selective.
    // Real tag vocabularies grow with the corpus; the Zipf tail of
    // the scaled vocabulary keeps genuinely rare keywords in play.
    let mut cfg = ctx.cfg.clone();
    cfg.name = format!("{} [scaled-vocab]", cfg.name);
    cfg.tags.vocab_size = cfg.tags.vocab_size.max(ctx.args.trips / 50);
    let build_start = Instant::now();
    let ds = Dataset::build(&cfg).expect("d5 dataset builds");
    eprintln!(
        "[bench] d5 built {} trajectories in {:?}",
        ds.store.len(),
        build_start.elapsed()
    );
    let queries = needle_queries(&ds, ctx.args.queries.max(1));
    let nq = queries.len() as f64;
    let shard_counts = [1usize, 2, 4, 8];
    let network = Arc::new(ds.network.clone());

    let mut rows = Vec::new();
    let mut searches = Vec::new();
    let mut settled_by_count = Vec::new();
    let mut total_cuts = 0;
    for &n in &shard_counts {
        let cut = hash_cut(&ds, &network, n);
        let mut latencies = LatencyStats::new();
        let (mut cuts, mut settled, mut visited) = (0, 0, 0);
        let start = Instant::now();
        for q in &queries {
            let t0 = Instant::now();
            let ans = cut.search(&AlgorithmKind::Expansion, q).expect("d5 search");
            latencies.record(t0.elapsed());
            cuts += ans.shards_cut;
            settled += ans.result.metrics.settled_vertices;
            visited += ans.result.metrics.visited_trajectories;
        }
        let wall = start.elapsed();
        total_cuts += cuts;
        searches.push(format!(
            "{n} shards {:.2} ms/query, {:.0} settles/query ({cuts} cuts)",
            ms(wall) / nq,
            settled as f64 / nq
        ));
        settled_by_count.push(format!("{n} shards={settled}"));
        let algorithm = format!("lockstep ({n} shards)");
        rows.push(
            Row {
                visited: visited as f64 / nq,
                // shards cut by the global threshold, mean per query
                candidates: cuts as f64 / nq,
                pruning_ratio: cuts as f64 / (n.max(2) as f64 - 1.0) / nq,
                ..Row::new("d5", &ds.name, algorithm, "shards", n as f64, queries.len())
            }
            .timed(wall, &latencies),
        );
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
                        let src = TrajectoryId(rng.gen_range(0..ds.store.len()) as u32);
                        Mutation::Insert(ds.store.get(src).clone())
                    })
                    .collect()
            })
            .collect()
    };
    let mut recoveries = Vec::new();
    for &n in &shard_counts {
        let dir = root.join(format!("shards-{n}"));
        let mut cluster = ShardedDurable::create(
            Arc::clone(&network),
            &ds.store,
            &ds.vocab,
            &dir,
            n,
            unsynced_wal(),
            None,
            None,
        )
        .expect("d5 cluster creates");
        for batch in &batches {
            cluster.apply(batch.clone()).expect("d5 apply");
        }
        drop(cluster);
        let start = Instant::now();
        let (_cluster, reports) =
            ShardedDurable::open(&dir, n, unsynced_wal(), None, None).expect("d5 recovery");
        let wall = start.elapsed();
        let replayed: u64 = reports.iter().map(|r| r.replayed_batches).sum();
        recoveries.push(format!("{n} shards {:.0} ms", ms(wall)));
        let algorithm = format!("recovery ({n} shards)");
        rows.push(Row {
            runtime_ms: ms(wall),
            max_ms: reports
                .iter()
                .map(|r| r.micros as f64 / 1_000.0)
                .fold(0.0, f64::max),
            visited: replayed as f64,
            ..Row::new("d5", &ds.name, algorithm, "shards", n as f64, 1)
        });
    }
    let _ = std::fs::remove_dir_all(&root);

    let summary = format!(
        "d5 summary: {}; shards cut by the global threshold across the sweep: \
         {total_cuts}; recovery — {}",
        searches.join(", "),
        recoveries.join(", "),
    );
    // the sweep's exact settle counts: one expansion per query location,
    // whatever the shard count (CI compares them)
    let settled = format!("d5 settled: {}", settled_by_count.join(" "));
    (rows, vec![summary, settled])
}

/// D5's selective "needle" queries, built so that part retirement
/// *provably* cuts shards: each pairs a rare keyword `a` (2 ≤ df ≤ 8)
/// with a common co-keyword `b` from a holder trajectory carrying ≤ 3
/// tags, λ = 0.1, k = 1, locations on the holder. The holder's score is
/// ≥ λ + (1−λ)·2/3 ≈ 0.7 (both keywords, jaccard ≥ 2/3, on-route
/// locations), while a shard holding only `b` bounds at λ + (1−λ)/2 =
/// 0.55 — strictly below the k-th score once the holder is found, so the
/// query stops walking it. Those `b`-only shards are the ones whose
/// textual entries would otherwise hold the termination bound up.
fn needle_queries(ds: &Dataset, count: usize) -> Vec<UotsQuery> {
    let df = |k: KeywordId| ds.keyword_index.values_at(k).len();
    let rare: Vec<KeywordId> = (0..ds.vocab.len() as u32)
        .map(KeywordId)
        .filter(|&k| (2..=8).contains(&df(k)))
        .collect();
    assert!(
        !rare.is_empty(),
        "d5 needs at least one rare keyword in the dataset"
    );
    // common enough that b-only shards have real work to skip
    let common_floor = (ds.store.len() / 1000).max(16);
    let mut needles: Vec<(KeywordId, KeywordId, TrajectoryId)> = Vec::new();
    'outer: for &a in &rare {
        for &h in ds.keyword_index.values_at(a) {
            let tags = ds.store.get(h).keywords().clone();
            if tags.len() > 3 {
                continue;
            }
            let b = tags.iter().filter(|&k| k != a).max_by_key(|&k| df(k));
            if let Some(b) = b {
                if df(b) >= common_floor {
                    needles.push((a, b, h));
                    if needles.len() >= count {
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
    (0..count)
        .map(|i| {
            // fall back to single-keyword needles when the corpus
            // offers too few rare+common pairs (smoke scales)
            let (kws, holder) = if needles.is_empty() {
                let a = rare[i % rare.len()];
                (vec![a], ds.keyword_index.values_at(a)[0])
            } else {
                let (a, b, h) = needles[i % needles.len()];
                (vec![a, b], h)
            };
            let mut locations: Vec<_> = ds.store.get(holder).nodes().take(2).collect();
            locations.dedup();
            UotsQuery::with_options(
                locations,
                KeywordSet::from_ids(kws),
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
}
