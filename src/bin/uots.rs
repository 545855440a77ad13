//! `uots` — command-line interface to the trajectory search library.
//!
//! ```text
//! uots generate      --preset small|brn|nrn --trips N --seed S --out data.uotsds
//! uots stats         --data data.uotsds
//! uots query         --data data.uotsds --at x,y --at x,y [--tags a,b] [--lambda L] [--k K]
//!                    [--deadline-ms MS] [--max-visited N]
//!                    [--metrics-out FILE] [--trace FILE]
//!                    [--obs-listen ADDR] [--obs-linger-ms MS]
//! uots join          --data data.uotsds --theta T [--lambda L] [--threads N]
//!                    [--deadline-ms MS] [--max-visited N] [--metrics-out FILE]
//! uots ingest        --data data.uotsds --script mut.txt [--batch N] [--verify]
//!                    [--wal-dir DIR] [--fsync batch|off|interval:MS]
//!                    [--checkpoint-every N] [--metrics-out FILE]
//!                    [--obs-listen ADDR] [--obs-linger-ms MS]
//! uots recover       --wal-dir DIR|DIR/shard-<s> [--data data.uotsds] [--verify]
//!                    [--metrics-out FILE] [--obs-listen ADDR] [--obs-linger-ms MS]
//! uots status        --wal-dir DIR|DIR/shard-<s> [--json]
//! uots fsck          --wal-dir DIR|DIR/shard-<s> [--data data.uotsds] [--json]
//! uots check-metrics --file export.prom
//! ```
//!
//! Datasets are stored in the compact binary format of
//! [`uots::datagen::persist`]; `generate` builds one deterministically from
//! a preset + seed, the other commands load it. `--metrics-out` writes a
//! Prometheus text exposition of the run, `--trace` a per-query JSON span
//! timeline, and `check-metrics` validates an exposition file (used in CI).
//! A command refuses any flag it does not read (`error: unknown flag
//! --…`) before it does any work.
//!
//! `--obs-listen ADDR` (e.g. `127.0.0.1:0`) starts the live observability
//! endpoint for the duration of the command: `GET /metrics` serves the
//! Prometheus exposition, `/status` a JSON health summary, `/journal?n=K`
//! the structured event journal as JSON lines, and `/traces` the retained
//! slow-query exemplars. `--obs-linger-ms MS` keeps the endpoint up that
//! much longer after the command's work finishes, so scripts (and CI) can
//! scrape a completed run. `--json` on `status`/`fsck` switches the report
//! to machine-readable JSON with the same exit codes.
//!
//! `ingest` drives a one-shard [`Cluster`] — the coordinator `uots-serve`
//! drives — volatile, or with `--wal-dir` the
//! [`ShardedDurable`] lineage `uots-serve --wal-dir` opens the same way.
//! `status` and `fsck` report the [`RecoveryPlan`](uots::durable::RecoveryPlan)
//! that `recover` carries out, so all three agree on what recovery does.
//!
//! Each of the three takes one lineage directory as `--wal-dir`: `DIR` of
//! a one-shard lineage (what `ingest --wal-dir` writes), or `DIR/shard-<s>`
//! of a lineage of `N ≥ 2` shards (what `uots-serve --shards N --wal-dir
//! DIR` writes). They read it through the layout reader the constructors
//! use, [`shards_on_disk`], and refuse the root of a sharded lineage,
//! naming `DIR/shard-0 … DIR/shard-(N-1)`, and a path that does not exist
//! (exit 1, before any work).
//!
//! ## Exit codes
//!
//! The durability commands (`recover`, `status`, `fsck`) report what they
//! found through distinct exit codes so scripts and runbooks can branch
//! without parsing output:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | clean — no damage found, nothing skipped |
//! | 1 | operational error (I/O failure, bad arguments' values, …) |
//! | 2 | usage error (unknown command or malformed flags) |
//! | 3 | recovered, but with fallback: a corrupt checkpoint was skipped or a torn WAL tail was cut (`recover` only) |
//! | 4 | corruption found (`status` reports it; `fsck` also quarantined it) but the directory still recovers |
//! | 5 | unrecoverable: no usable checkpoint, and no base dataset or a WAL tail that does not continue it — whether or not any file is damaged |

mod flags;

use flags::Flags;
use std::path::Path;
use std::sync::{Arc, Mutex};
use uots::cluster::{shard_dir, shards_on_disk, ShardedDurable};
use uots::core::shard::{Cluster, Shard, ShardedCluster};
use uots::datagen::persist;
use uots::durable::{recover, DurableError, DurableIngest, RecoverySource};
use uots::join::{record_join_metrics, ts_join_with, JoinConfig};
use uots::obs::{
    validate_prometheus_text, AcceptLoop, EventJournal, HttpRequest, ObsState, Stopper,
    TailSampler, DEFAULT_EXEMPLAR_CAPACITY, DEFAULT_SLOW_QUANTILE,
};
use uots::prelude::*;
use uots::scrub::{self, ScrubReport};
use uots::storage::StdFs;
use uots::text::Vocabulary;
use uots::{
    FsyncPolicy, MetricsRegistry, PhaseNanos, Recorder, RunControl, Sample, Trajectory, WalConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(name) => match COMMANDS.iter().find(|(command, ..)| *command == name) {
            Some((_, accepted, run)) => Flags::parse(&args[1..], accepted)
                .and_then(|flags| run(&flags))
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    EXIT_ERROR
                }),
            None => {
                eprintln!("unknown command `{name}`\n");
                print_usage();
                2
            }
        },
    };
    std::process::exit(code);
}

fn print_usage() {
    println!(
        "uots — user-oriented trajectory search (EDBT 2012 reproduction)\n\n\
         commands:\n\
         \x20 generate --preset small|brn|nrn --trips N [--seed S] --out FILE\n\
         \x20 stats    --data FILE\n\
         \x20 query    --data FILE --at x,y --at x,y ... [--tags a,b,c]\n\
         \x20          [--lambda L=0.5] [--k K=3]\n\
         \x20          [--deadline-ms MS] [--max-visited N]\n\
         \x20          [--metrics-out FILE] [--trace FILE]\n\
         \x20          [--obs-listen ADDR] [--obs-linger-ms MS]\n\
         \x20 join     --data FILE --theta T=0.8 [--lambda L=0.5] [--threads N=2]\n\
         \x20          [--deadline-ms MS] [--max-visited N] [--metrics-out FILE]\n\
         \x20 ingest   --data FILE --script FILE [--batch N] [--verify]\n\
         \x20          [--wal-dir DIR] [--fsync batch|off|interval:MS]\n\
         \x20          [--checkpoint-every N] [--metrics-out FILE]\n\
         \x20          [--obs-listen ADDR] [--obs-linger-ms MS]\n\
         \x20 recover  --wal-dir DIR [--data FILE] [--verify]\n\
         \x20          [--metrics-out FILE] [--obs-listen ADDR] [--obs-linger-ms MS]\n\
         \x20 status   --wal-dir DIR [--json]\n\
         \x20 fsck     --wal-dir DIR [--data FILE] [--json]\n\
         \x20 check-metrics --file FILE\n\n\
         ingest replays a mutation script (`ingest v1 v2 ... [| tag,tag]`,\n\
         `retire ID`, `publish`; `#` comments) against an epoch-swapped\n\
         live store; --batch N auto-publishes every N mutations, --verify\n\
         differentially checks every published epoch against a from-scratch\n\
         rebuild of the surviving trajectories.\n\
         --wal-dir makes ingest durable: every mutation hits a checksummed\n\
         write-ahead log before it is applied (--fsync picks the sync\n\
         policy, default batch), and --checkpoint-every N cuts a checkpoint\n\
         after every N logged batches; a directory an earlier run wrote is\n\
         recovered first and continued. recover rebuilds the serving state\n\
         from the newest valid checkpoint plus the durable WAL tail\n\
         (--data supplies the base dataset when no checkpoint exists);\n\
         its --verify differentially checks the recovered snapshot.\n\
         --deadline-ms / --max-visited bound the work; when a bound trips,\n\
         the best results found so far are returned with a certified gap.\n\
         --metrics-out writes a Prometheus text exposition, --trace a JSON\n\
         span timeline; check-metrics validates an exposition file.\n\
         --obs-listen ADDR serves live observability over HTTP while the\n\
         command runs: /metrics (Prometheus), /status (JSON health),\n\
         /journal?n=K (structured event log, JSON lines), /traces (slow-\n\
         query exemplars); --obs-linger-ms keeps it up after the work ends\n\
         so scripts can scrape a finished run. --json on status/fsck emits\n\
         the report as JSON (same exit codes).\n\
         status is a read-only integrity walk of a durable ingest directory\n\
         (checkpoint CRCs + the plan recover carries out); fsck additionally moves\n\
         wholly-unusable files into DIR/quarantine/ with a manifest — it\n\
         never deletes anything. recover/status/fsck exit codes: 0 clean,\n\
         1 operational error, 2 usage, 3 recovered-with-fallback,\n\
         4 corruption found (still recoverable), 5 unrecoverable.\n\
         a flag the command does not read is an error."
    );
}

// Exit codes of the durability commands — see the module docs.
const EXIT_CLEAN: i32 = 0;
const EXIT_ERROR: i32 = 1;
const EXIT_RECOVERED_WITH_FALLBACK: i32 = 3;
const EXIT_CORRUPTION_FOUND: i32 = 4;
const EXIT_UNRECOVERABLE: i32 = 5;

/// What a command returns: its exit code, or the one-line error `main`
/// prints before it exits 1.
type CmdResult = Result<i32, String>;

/// A command: its name, the flags it reads (its shared helpers' included:
/// `load` reads --data, `parse_budget` the budget pair and
/// `start_obs_plane` the --obs-* pair) and what runs it.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Flags) -> CmdResult,
);

const COMMANDS: &[Command] = &[
    (
        "generate",
        &["preset", "trips", "seed", "out"],
        cmd_generate,
    ),
    ("stats", &["data"], cmd_stats),
    (
        "query",
        &[
            "data",
            "at",
            "tags",
            "lambda",
            "k",
            "deadline-ms",
            "max-visited",
            "metrics-out",
            "trace",
            "obs-listen",
            "obs-linger-ms",
        ],
        cmd_query,
    ),
    (
        "join",
        &[
            "data",
            "theta",
            "lambda",
            "threads",
            "deadline-ms",
            "max-visited",
            "metrics-out",
        ],
        cmd_join,
    ),
    (
        "ingest",
        &[
            "data",
            "script",
            "batch",
            "verify",
            "wal-dir",
            "fsync",
            "checkpoint-every",
            "metrics-out",
            "obs-listen",
            "obs-linger-ms",
        ],
        cmd_ingest,
    ),
    (
        "recover",
        &[
            "wal-dir",
            "data",
            "verify",
            "metrics-out",
            "obs-listen",
            "obs-linger-ms",
        ],
        cmd_recover,
    ),
    ("status", &["wal-dir", "json"], cmd_status),
    ("fsck", &["wal-dir", "data", "json"], cmd_fsck),
    ("check-metrics", &["file"], cmd_check_metrics),
];

/// Parses the shared `--deadline-ms` / `--max-visited` budget flags.
fn parse_budget(flags: &Flags) -> Result<ExecutionBudget, String> {
    let mut budget = ExecutionBudget::default();
    if let Some(ms) = flags.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "--deadline-ms must be an integer".to_string())?;
        budget = budget.with_deadline_ms(ms);
    }
    if let Some(n) = flags.get("max-visited") {
        let n: usize = n
            .parse()
            .map_err(|_| "--max-visited must be an integer".to_string())?;
        budget = budget.with_max_visited(n);
    }
    Ok(budget)
}

/// Human-readable per-phase time table (skips phases that never ran).
fn report_phases(phases: &PhaseNanos) {
    if phases.is_zero() {
        return;
    }
    println!("phase breakdown:");
    for (phase, ns) in phases.iter() {
        if ns > 0 {
            println!("  {:<18} {:>12.3} ms", phase.as_str(), ns as f64 / 1e6);
        }
    }
}

/// Validates and writes a registry's Prometheus exposition to `path`.
fn write_metrics(registry: &MetricsRegistry, path: &str) -> Result<(), String> {
    let text = registry.render_prometheus();
    validate_prometheus_text(&text).map_err(|e| format!("internal: bad exposition: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote metrics exposition to {path}");
    Ok(())
}

/// The live observability plane behind `--obs-listen`: an HTTP endpoint
/// serving the run's metrics registry, a structured [`EventJournal`] the
/// storage/ingest layers write into, a tail-sampling [`TailSampler`] for
/// slow-query exemplars, and a mutable status document for `/status`.
struct ObsPlane {
    journal: EventJournal,
    sampler: TailSampler,
    status: Arc<Mutex<String>>,
    server: AcceptLoop,
    linger_ms: u64,
}

impl ObsPlane {
    /// Replaces the `/status` document (a JSON object).
    fn set_status(&self, json: String) {
        *self.status.lock().unwrap_or_else(|e| e.into_inner()) = json;
    }

    /// Holds the endpoint open for `--obs-linger-ms`, then shuts it down.
    fn finish(mut self) {
        if self.linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.linger_ms));
        }
        self.server.shutdown();
    }
}

/// Starts the observability endpoint when `--obs-listen ADDR` is present.
/// Returns `None` when the flag is absent; the caller wires the returned
/// journal/sampler into whatever it runs.
fn start_obs_plane(flags: &Flags, registry: &MetricsRegistry) -> Result<Option<ObsPlane>, String> {
    let Some(addr) = flags.get("obs-listen") else {
        return Ok(None);
    };
    let linger_ms: u64 = match flags.get("obs-linger-ms") {
        Some(v) => v
            .parse()
            .map_err(|_| "--obs-linger-ms must be an integer".to_string())?,
        None => 0,
    };
    let journal = EventJournal::default();
    // zero warmup: a CLI run may issue a single query, and an operator who
    // asked for the endpoint expects /traces to hold it
    let sampler = TailSampler::with_policy(DEFAULT_EXEMPLAR_CAPACITY, DEFAULT_SLOW_QUANTILE, 0);
    let status = Arc::new(Mutex::new("{}".to_string()));
    let status_read = Arc::clone(&status);
    let state = ObsState::new(
        registry.clone(),
        journal.clone(),
        sampler.clone(),
        move || {
            status_read
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
        },
    );
    let no_routes = |_: &HttpRequest, _: &Stopper| None;
    let server = AcceptLoop::serve(addr, 1, "uots-obs-serve", &state, no_routes)
        .map_err(|e| format!("--obs-listen {addr}: {e}"))?;
    println!(
        "obs endpoint listening on http://{} (/metrics /status /journal /traces)",
        server.local_addr()
    );
    Ok(Some(ObsPlane {
        journal,
        sampler,
        status,
        server,
        linger_ms,
    }))
}

/// One-line completeness report for interrupted runs.
fn report_completeness(c: &Completeness) {
    if let Completeness::BestEffort { bound_gap } = c {
        println!(
            "note: budget exhausted — best-effort result, certified gap {bound_gap:.4} \
             (no missed answer beats the reported ones by more)"
        );
    }
}

fn cmd_generate(flags: &Flags) -> CmdResult {
    let preset = flags.get("preset").unwrap_or("small");
    let trips: usize = flags
        .parse_or("trips", 1000)
        .map_err(|_| "--trips must be an integer")?;
    let seed: u64 = flags
        .parse_or("seed", 42)
        .map_err(|_| "--seed must be an integer")?;
    let out = flags.require("out")?;
    let cfg = match preset {
        "small" => DatasetConfig::small(trips, seed),
        "brn" => DatasetConfig::brn_like(trips).with_seed(seed),
        "nrn" => DatasetConfig::nrn_like(trips).with_seed(seed),
        other => return Err(format!("unknown preset `{other}`")),
    };
    eprintln!("building {} ...", cfg.name);
    let ds = Dataset::build(&cfg).map_err(|e| e.to_string())?;
    persist::save_file(&StdFs, &ds, &cfg, out.as_ref()).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} vertices, {} trips",
        ds.network.num_nodes(),
        ds.store.len()
    );
    Ok(0)
}

fn load(flags: &Flags) -> Result<Dataset, String> {
    let path = flags.require("data")?;
    persist::load_file(path).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_stats(flags: &Flags) -> CmdResult {
    let ds = load(flags)?;
    println!("dataset: {}", ds.name);
    println!("{}", ds.stats());
    println!(
        "network             : {} vertices, {} edges, {:.0} km total",
        ds.network.num_nodes(),
        ds.network.num_edges(),
        ds.network.total_length()
    );
    // the same numbers as a registry snapshot, in the JSON exposition the
    // telemetry layer uses everywhere else
    let registry = MetricsRegistry::default();
    registry
        .gauge("uots_dataset_vertices", "Road-network vertex count")
        .set(i64::try_from(ds.network.num_nodes()).unwrap_or(i64::MAX));
    registry
        .gauge("uots_dataset_edges", "Road-network edge count")
        .set(i64::try_from(ds.network.num_edges()).unwrap_or(i64::MAX));
    registry
        .gauge("uots_dataset_trajectories", "Stored trajectory count")
        .set(i64::try_from(ds.store.len()).unwrap_or(i64::MAX));
    println!("registry snapshot: {}", registry.render_json());
    Ok(0)
}

fn cmd_query(flags: &Flags) -> CmdResult {
    let ds = load(flags)?;
    let ats = flags.get_all("at");
    if ats.is_empty() {
        return Err("need at least one --at x,y place".into());
    }
    let mut places = Vec::new();
    for at in ats {
        let Some((x, y)) = at.split_once(',') else {
            return Err(format!("--at expects `x,y`, got `{at}`"));
        };
        let (Ok(x), Ok(y)) = (x.trim().parse::<f64>(), y.trim().parse::<f64>()) else {
            return Err(format!("--at coordinates must be numbers, got `{at}`"));
        };
        places.push(ds.snap(&Point::new(x, y)));
    }
    let mut keywords = Vec::new();
    if let Some(tags) = flags.get("tags") {
        for tag in tags.split(',') {
            match ds.vocab.get(tag) {
                Some(id) => keywords.push(id),
                None => eprintln!("warning: tag `{tag}` not in the vocabulary; ignored"),
            }
        }
    }
    let lambda: f64 = flags
        .parse_or("lambda", 0.5)
        .map_err(|_| "--lambda must be a number")?;
    let k: usize = flags
        .parse_or("k", 3)
        .map_err(|_| "--k must be an integer")?;
    let weights = Weights::lambda(lambda).map_err(|e| e.to_string())?;
    let budget = parse_budget(flags)?;
    let query = UotsQuery::with_options(
        places,
        KeywordSet::from_ids(keywords),
        vec![],
        QueryOptions {
            weights,
            k,
            budget,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let db = uots::db(&ds);
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let trace_out = flags.get("trace").map(str::to_string);
    let registry = MetricsRegistry::default();
    let plane = start_obs_plane(flags, &registry)?;
    // tracing subsumes phases-only; both are skipped entirely (one branch
    // per recorder call) when neither output was requested. The obs plane
    // forces tracing so its sampler can retain a full exemplar.
    let mut rec = if trace_out.is_some() || plane.is_some() {
        Recorder::tracing("expansion", 4096)
    } else if metrics_out.is_some() {
        Recorder::phases_only("expansion")
    } else {
        Recorder::disabled()
    };
    let ctl = RunControl::unbounded();
    let result = Expansion::default()
        .run_ctx(&View::one(db), &query, &ctl, &mut rec)
        .map_err(|e| e.to_string())?;
    println!("top {} trips:", result.matches.len());
    for (rank, m) in result.matches.iter().enumerate() {
        let t = ds.store.get(m.id);
        let tags: Vec<&str> = t
            .keywords()
            .iter()
            .filter_map(|kw| ds.vocab.word(kw))
            .collect();
        let (t0, t1) = t.time_range();
        println!(
            "  #{} {}  sim {:.4} (spatial {:.4}, textual {:.4})  {} samples, \
             {:02}:{:02}–{:02}:{:02}, tags {:?}",
            rank + 1,
            m.id,
            m.similarity,
            m.spatial,
            m.textual,
            t.len(),
            (t0 / 3600.0) as u32,
            ((t0 % 3600.0) / 60.0) as u32,
            (t1 / 3600.0) as u32,
            ((t1 % 3600.0) / 60.0) as u32,
            tags
        );
    }
    println!(
        "visited {} / {} trajectories in {:?}",
        result.metrics.visited_trajectories,
        ds.store.len(),
        result.metrics.runtime
    );
    report_completeness(&result.completeness);
    let latency_us = u64::try_from(result.metrics.runtime.as_micros()).unwrap_or(u64::MAX);
    if let Some(report) = rec.finish() {
        report_phases(&report.phases);
        if let Some(p) = &plane {
            p.sampler.observe(
                &query.summary(),
                latency_us,
                !result.completeness.is_exact(),
                false,
                report.trace.clone(),
            );
            p.set_status(format!(
                "{{\"command\":\"query\",\"matches\":{},\"visited\":{},\
                 \"latency_us\":{},\"exact\":{}}}",
                result.matches.len(),
                result.metrics.visited_trajectories,
                latency_us,
                result.completeness.is_exact()
            ));
        }
        if metrics_out.is_some() || plane.is_some() {
            registry
                .histogram("uots_query_latency_us", "Query wall time, microseconds")
                .record(latency_us);
            registry.observe_phases(
                "uots_query_phase_duration_ns",
                "Per-phase query durations, nanoseconds",
                &report.phases,
            );
            registry
                .counter(
                    "uots_query_visited_trajectories_total",
                    "Trajectories visited by queries",
                )
                .add(result.metrics.visited_trajectories as u64);
            registry
                .counter(
                    "uots_query_candidates_total",
                    "Trajectories exactly evaluated by queries",
                )
                .add(result.metrics.candidates as u64);
            registry
                .counter(
                    "uots_query_retired_total",
                    "Visited trajectories retired on their bound, never evaluated",
                )
                .add(result.metrics.retired as u64);
            registry
                .counter(
                    "uots_query_heap_pushes_total",
                    "Candidate-heap pushes by queries",
                )
                .add(result.metrics.heap_pushes as u64);
        }
        if let Some(path) = metrics_out {
            write_metrics(&registry, &path)?;
        }
        if let Some(path) = trace_out {
            let trace = report
                .trace
                .expect("tracing recorder always yields a trace");
            trace
                .validate()
                .map_err(|e| format!("internal: invalid trace: {e}"))?;
            let json = serde_json::to_string_pretty(&trace)
                .map_err(|e| format!("serializing trace: {e}"))?;
            std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote query trace to {path}");
        }
    }
    if let Some(p) = plane {
        p.finish();
    }
    Ok(0)
}

fn cmd_join(flags: &Flags) -> CmdResult {
    let ds = load(flags)?;
    let theta: f64 = flags
        .parse_or("theta", 0.8)
        .map_err(|_| "--theta must be a number")?;
    let lambda: f64 = flags
        .parse_or("lambda", 0.5)
        .map_err(|_| "--lambda must be a number")?;
    let threads: usize = flags
        .parse_or("threads", 2)
        .map_err(|_| "--threads must be an integer")?;
    let cfg = JoinConfig {
        theta,
        lambda,
        ..Default::default()
    };
    let budget = parse_budget(flags)?;
    let tidx = ds.store.build_timestamp_index();
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let registry = MetricsRegistry::default();
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_timestamp_index(&tidx);
    let result = ts_join_with(
        &View::one(db),
        &cfg,
        threads,
        &budget,
        &RunControl::unbounded(),
    )
    .map_err(|e| e.to_string())?;
    if metrics_out.is_some() {
        record_join_metrics(&registry, &result);
    }
    println!(
        "{} pairs with similarity >= {theta} (in {:?}):",
        result.pairs.len(),
        result.runtime
    );
    for p in result.pairs.iter().take(20) {
        println!("  {} ↔ {}  sim {:.4}", p.a, p.b, p.similarity);
    }
    if result.pairs.len() > 20 {
        println!("  ... and {} more", result.pairs.len() - 20);
    }
    report_completeness(&result.completeness);
    report_phases(&result.phases);
    if let Some(path) = metrics_out {
        write_metrics(&registry, &path)?;
    }
    Ok(0)
}

/// The three `k = 5` probe queries `--verify` checks an epoch with: the
/// first specs of the default workload over `ds`.
fn probes(ds: &Dataset) -> Vec<UotsQuery> {
    workload::generate(ds, &workload::WorkloadConfig::default())
        .into_iter()
        .take(3)
        .map(|s| {
            UotsQuery::with_options(
                s.locations,
                s.keywords,
                vec![],
                QueryOptions {
                    k: 5,
                    ..Default::default()
                },
            )
            .expect("workload specs are valid queries")
        })
        .collect()
}

/// Differentially checks one published epoch: every probe query must answer
/// bit-identically on the live (masked) snapshot and on a from-scratch
/// rebuild of only the surviving trajectories, with ids mapped through the
/// order-preserving compaction.
fn verify_epoch(
    snapshot: &uots::EpochSnapshot,
    vocab_len: usize,
    probes: &[UotsQuery],
) -> Result<(), String> {
    let net = snapshot.network();
    let (compacted, id_map) = snapshot.rebuild_compacted();
    let vidx = compacted.build_vertex_index(net.num_nodes());
    let kidx = compacted.build_keyword_index(vocab_len);
    let kb = compacted.build_keyword_blocks();
    let oracle_db = Database::new(net, &compacted, &vidx, &kb).with_keyword_index(&kidx);
    let live_db = snapshot.database();
    for (qi, q) in probes.iter().enumerate() {
        let live = Expansion::default()
            .run(&live_db, q)
            .map_err(|e| format!("probe {qi} on epoch {}: {e}", snapshot.epoch()))?;
        let oracle = Expansion::default()
            .run(&oracle_db, q)
            .map_err(|e| format!("probe {qi} on rebuild of epoch {}: {e}", snapshot.epoch()))?;
        let mapped: Vec<TrajectoryId> = live
            .ids()
            .iter()
            .map(|id| id_map[id.index()].expect("live snapshot served a retired id"))
            .collect();
        if mapped != oracle.ids() {
            return Err(format!(
                "epoch {} probe {qi}: live answers {mapped:?} != rebuild {:?}",
                snapshot.epoch(),
                oracle.ids()
            ));
        }
        for (a, b) in live.matches.iter().zip(oracle.matches.iter()) {
            if a.similarity.to_bits() != b.similarity.to_bits() {
                return Err(format!(
                    "epoch {} probe {qi}: similarity drift {} vs {}",
                    snapshot.epoch(),
                    a.similarity,
                    b.similarity
                ));
            }
        }
    }
    Ok(())
}

/// What one `uots ingest` run replays and how: the script, the network
/// size its vertices are checked against, and the publish cadence.
struct IngestRun<'a> {
    num_nodes: usize,
    script_path: &'a str,
    script: &'a str,
    batch: usize,
    /// The probes every published epoch is verified with (`--verify`).
    probes: Option<Vec<UotsQuery>>,
    plane: Option<&'a ObsPlane>,
}

impl IngestRun<'_> {
    /// Replays the script against `cluster` — a one-shard volatile or
    /// durable [`Cluster`], the coordinator `uots-serve` drives — with its
    /// tags resolved in `vocab`, keeping the obs plane's `/status` at
    /// `status(cluster)` after every publish.
    fn run<S: Shard>(
        &self,
        cluster: &mut Cluster<S>,
        vocab: &Vocabulary,
        status: impl Fn(&Cluster<S>) -> String,
    ) -> Result<(), String> {
        let (num_nodes, script_path) = (self.num_nodes, self.script_path);
        let err = |e: S::Error| e.to_string();
        if let Some(p) = self.plane {
            p.set_status(status(cluster));
        }
        let started = std::time::Instant::now();
        let mut next_id = cluster.snapshot().shard(0).stats().total;
        let mut ingested = 0u64;
        let mut retired = 0u64;
        let mut published = 0u64;
        let mut since_publish = 0usize;
        let do_publish = |cluster: &mut Cluster<S>, published: &mut u64| -> Result<(), String> {
            let cut = cluster.publish_all().map_err(err)?;
            let snap = cut.shard(0);
            *published += 1;
            let st = snap.stats();
            println!(
                "epoch {}: {} live / {} total, {} postings, {} mutations folded in",
                st.epoch, st.live, st.total, st.postings, st.mutations
            );
            if let Some(probes) = &self.probes {
                verify_epoch(snap, vocab.len(), probes)?;
                println!(
                    "  verified against from-scratch rebuild ({} probes)",
                    probes.len()
                );
            }
            if let Some(p) = self.plane {
                p.set_status(status(cluster));
            }
            Ok(())
        };

        for (lineno, raw) in self.script.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("{script_path}:{}: {msg}", lineno + 1);
            let mutated = if let Some(rest) = line.strip_prefix("ingest") {
                let (nodes_part, tags_part) = match rest.split_once('|') {
                    Some((n, t)) => (n, Some(t)),
                    None => (rest, None),
                };
                let mut samples = Vec::new();
                for tok in nodes_part.split_whitespace() {
                    let v: u32 = match tok.parse() {
                        Ok(v) if (v as usize) < num_nodes => v,
                        _ => return Err(at(format!("bad vertex `{tok}`"))),
                    };
                    samples.push(Sample {
                        node: NodeId(v),
                        time: 60.0 * samples.len() as f64,
                    });
                }
                let mut tags = Vec::new();
                if let Some(t) = tags_part {
                    for tag in t.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                        match vocab.get(tag) {
                            Some(id) => tags.push(id),
                            None => {
                                eprintln!("warning: tag `{tag}` not in the vocabulary; ignored")
                            }
                        }
                    }
                }
                let t = Trajectory::new(samples, KeywordSet::from_ids(tags))
                    .map_err(|e| at(format!("{e}")))?;
                let id = cluster.ingest(t).map_err(|e| at(err(e)))?;
                debug_assert_eq!(id.index(), next_id);
                next_id += 1;
                ingested += 1;
                true
            } else if let Some(rest) = line.strip_prefix("retire") {
                let id: usize = match rest.trim().parse() {
                    Ok(v) if v < next_id => v,
                    _ => return Err(at(format!("bad trajectory id `{}`", rest.trim()))),
                };
                if cluster
                    .retire(TrajectoryId(id as u32))
                    .map_err(|e| at(err(e)))?
                {
                    retired += 1;
                }
                true
            } else if line == "publish" {
                since_publish = 0;
                do_publish(cluster, &mut published)?;
                false
            } else {
                return Err(at(format!("unknown directive `{line}`")));
            };
            if mutated && self.batch > 0 {
                since_publish += 1;
                if since_publish >= self.batch {
                    since_publish = 0;
                    do_publish(cluster, &mut published)?;
                }
            }
        }
        if cluster.shard(0).manager().pending() > 0 {
            do_publish(cluster, &mut published)?;
        }

        let elapsed = started.elapsed();
        let final_snap = cluster.snapshot();
        let final_snap = final_snap.shard(0);
        println!(
            "replayed {} mutations ({ingested} ingests, {retired} retires) over {published} \
             epochs in {elapsed:?} ({:.0} mutations/s); serving epoch {} with {} live trips",
            ingested + retired,
            (ingested + retired) as f64 / elapsed.as_secs_f64().max(1e-9),
            final_snap.epoch(),
            final_snap.stats().live
        );
        Ok(())
    }
}

fn cmd_ingest(flags: &Flags) -> CmdResult {
    let ds = load(flags)?;
    let script_path = flags.require("script")?;
    let script =
        std::fs::read_to_string(script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    let batch: usize = flags
        .parse_or("batch", 0)
        .map_err(|_| "--batch must be an integer")?;
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let registry = MetricsRegistry::default();
    let plane = start_obs_plane(flags, &registry)?;
    let journal = plane.as_ref().map(|p| &p.journal);
    let run = IngestRun {
        num_nodes: ds.network.num_nodes(),
        script_path,
        script: &script,
        batch,
        probes: flags.get("verify").is_some().then(|| probes(&ds)),
        plane: plane.as_ref(),
    };

    // the `/status` document a run ends with
    let last_status = match flags.get("wal-dir") {
        Some(dir) => {
            let fsync = FsyncPolicy::parse(flags.get("fsync").unwrap_or("batch"))
                .map_err(|e| format!("--fsync: {e}"))?;
            let checkpoint_every = match flags.get("checkpoint-every") {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err("--checkpoint-every must be a positive integer".into()),
                },
                None => None,
            };
            let config = WalConfig {
                fsync,
                ..WalConfig::default()
            };
            // resume or create, like the server: a second run on one
            // directory continues its lineage instead of logging over it.
            // The shard takes the dataset over; the run needs the tags only
            let vocab = ds.vocab.clone();
            let opened = ShardedDurable::open_or_create(
                ds,
                dir,
                1,
                config,
                checkpoint_every,
                Some(&registry),
                journal,
            );
            let (durable, recovery) = opened.map_err(|e| format!("opening wal in {dir}: {e}"))?;
            println!(
                "durable ingest: wal in {dir} (fsync {fsync}, checkpoint every {})",
                checkpoint_every.map_or("never".to_string(), |n| format!("{n} batches")),
            );
            if let Some(report) = recovery.first() {
                println!(
                    "resumed: replayed {} wal batches, continuing at lsn {}",
                    report.replayed_batches, report.next_lsn
                );
            }
            let mut cluster = Cluster::from(durable);
            // the shard's full health summary
            let status = |c: &Cluster<DurableIngest>| {
                serde_json::to_string(&c.shard(0).status()).unwrap_or_else(|_| "{}".to_string())
            };
            run.run(&mut cluster, &vocab, status)?;
            let log = cluster.shard(0);
            println!(
                "wal durable through lsn {} (last checkpoint at lsn {})",
                log.next_lsn().saturating_sub(1),
                log.last_checkpoint_lsn()
            );
            status(&cluster)
        }
        None => {
            // one copy, as in `uots-serve`: the cluster takes the network
            // and trajectories over
            let (network, store, vocab) = ds.into_parts();
            let mut cluster = ShardedCluster::with_metrics(
                Arc::new(network),
                store,
                vocab.len(),
                1,
                Some(&registry),
                journal,
            );
            // a minimal epoch summary
            let status = |c: &ShardedCluster| {
                let m = c.shard(0);
                let st = m.snapshot().stats();
                format!(
                    "{{\"state\":\"healthy\",\"mode\":\"plain\",\"epoch\":{},\
                     \"live\":{},\"pending\":{}}}",
                    st.epoch,
                    st.live,
                    m.pending()
                )
            };
            run.run(&mut cluster, &vocab, status)?;
            status(&cluster)
        }
    };
    if let Some(path) = metrics_out {
        write_metrics(&registry, &path)?;
    }
    if let Some(p) = plane {
        p.set_status(last_status);
        p.finish();
    }
    Ok(0)
}

/// The one lineage directory `recover`, `status` and `fsck` read: the
/// `--wal-dir` as given, read through the layout reader that opens a
/// lineage for `uots-serve` and `ingest`. A path that does not exist is
/// refused, and so is the root of a lineage of two shards or more, since
/// each of its `shard-<s>` directories is a lineage of its own.
fn lineage_dir(flags: &Flags) -> Result<&str, String> {
    let dir = flags.require("wal-dir")?;
    let root = Path::new(dir);
    std::fs::metadata(root).map_err(|e| format!("--wal-dir {dir}: {e}"))?;
    if let Some(n @ 2..) = shards_on_disk(root).map_err(|e| format!("reading {dir}: {e}"))? {
        let shards: Vec<String> = (0..n)
            .map(|s| shard_dir(root, s).display().to_string())
            .collect();
        return Err(format!(
            "{dir} holds a lineage of {n} shards; give --wal-dir one shard directory: {}",
            shards.join(", ")
        ));
    }
    Ok(dir)
}

fn cmd_recover(flags: &Flags) -> CmdResult {
    let dir = lineage_dir(flags)?;
    let base = flags.get("data").map(|_| load(flags)).transpose()?;
    let verify = flags.get("verify").is_some();
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let registry = MetricsRegistry::default();
    let plane = start_obs_plane(flags, &registry)?;

    let recovered = match recover(
        &StdFs,
        Path::new(dir),
        base.as_ref(),
        Some(&registry),
        plane.as_ref().map(|p| &p.journal),
    ) {
        Ok(r) => r,
        // Inconsistent means the durable state itself cannot produce a
        // valid serving state (no base to fall back to, or a log that
        // replays into nonsense) — that is the unrecoverable exit, not an
        // operational hiccup a retry might clear.
        Err(e @ DurableError::Inconsistent(_)) => {
            eprintln!("error: recovering from {dir}: {e}");
            return Ok(EXIT_UNRECOVERABLE);
        }
        Err(e) => return Err(format!("recovering from {dir}: {e}")),
    };
    let report = &recovered.report;
    match &report.source {
        RecoverySource::Checkpoint(path) => println!(
            "recovered from checkpoint {} (lsn {})",
            path.display(),
            report.checkpoint_lsn
        ),
        RecoverySource::BaseDataset => println!("recovered from the base dataset (no checkpoint)"),
    }
    for rejected in &report.rejected_checkpoints {
        println!("  skipped corrupt checkpoint {}", rejected.display());
    }
    println!(
        "replayed {} wal batches ({} mutations); durable through lsn {} ({} us)",
        report.replayed_batches,
        report.replayed_mutations,
        report.next_lsn.saturating_sub(1),
        report.micros
    );
    if let Some(c) = &report.wal_corruption {
        println!(
            "wal tail cut at {} offset {}: {} — later records discarded",
            c.segment.display(),
            c.offset,
            c.reason
        );
    }
    let snap = recovered.manager.snapshot();
    let st = snap.stats();
    println!(
        "serving epoch {}: {} live / {} total trajectories",
        st.epoch, st.live, st.total
    );
    if verify {
        let Some(ds) = &base else {
            return Err("--verify needs --data to derive probe queries".into());
        };
        let probes = probes(ds);
        verify_epoch(&snap, recovered.vocab.len(), &probes)?;
        println!(
            "verified against from-scratch rebuild ({} probes)",
            probes.len()
        );
    }
    if let Some(path) = metrics_out {
        write_metrics(&registry, &path)?;
    }
    let code = if !report.rejected_checkpoints.is_empty() || report.wal_corruption.is_some() {
        EXIT_RECOVERED_WITH_FALLBACK
    } else {
        EXIT_CLEAN
    };
    if let Some(p) = plane {
        let source = match &report.source {
            RecoverySource::Checkpoint(path) => format!("checkpoint:{}", path.display()),
            RecoverySource::BaseDataset => "base_dataset".to_string(),
        };
        p.set_status(format!(
            "{{\"command\":\"recover\",\"source\":{},\"replayed_batches\":{},\
             \"replayed_mutations\":{},\"next_lsn\":{},\"rejected_checkpoints\":{},\
             \"wal_tail_cut\":{},\"exit_code\":{}}}",
            serde_json::to_string(&source).unwrap_or_else(|_| "\"?\"".to_string()),
            report.replayed_batches,
            report.replayed_mutations,
            report.next_lsn,
            report.rejected_checkpoints.len(),
            report.wal_corruption.is_some(),
            code
        ));
        p.finish();
    }
    Ok(code)
}

/// Exit code a `status`/`fsck` report implies — shared by the human and
/// `--json` renderings so scripts can rely on it either way. A directory
/// `recover` refuses is unrecoverable however clean its files are.
fn scrub_exit_code(r: &ScrubReport, has_base: bool) -> i32 {
    if !r.recoverable(has_base) {
        EXIT_UNRECOVERABLE
    } else if r.is_clean() {
        EXIT_CLEAN
    } else {
        EXIT_CORRUPTION_FOUND
    }
}

/// Prints the shared portion of a `status`/`fsck` report and returns the
/// exit code it implies.
fn report_scrub(r: &ScrubReport, has_base: bool) -> i32 {
    println!(
        "{} wal segment(s), {} checkpoint(s) examined",
        r.segments, r.checkpoints
    );
    for (path, reason) in &r.invalid_checkpoints {
        println!("  corrupt checkpoint {}: {reason}", path.display());
    }
    for (path, reason) in &r.unusable_segments {
        println!("  unusable segment {}: {reason}", path.display());
    }
    if let Some(c) = &r.torn_tail {
        println!(
            "  torn tail in {} at offset {}: {} — records before it are durable; \
             reopen/recovery truncates the tear",
            c.segment.display(),
            c.offset,
            c.reason
        );
    }
    for q in &r.quarantined {
        println!(
            "  quarantined {} -> {}",
            q.original.display(),
            q.quarantined.display()
        );
    }
    let plan = &r.plan;
    let (batches, mutations, next) = (plan.tail.len(), plan.tail_mutations(), plan.next_lsn);
    match (&plan.checkpoint, plan.base_gap) {
        (Some((path, ck)), _) => println!(
            "recovery plan: checkpoint {} (lsn {}) + {batches} wal batch(es) \
             ({mutations} mutations); writer resumes at lsn {next}",
            path.display(),
            ck.lsn,
        ),
        (None, None) => println!(
            "recovery plan: no usable checkpoint — base dataset + {batches} wal batch(es) \
             ({mutations} mutations); writer resumes at lsn {next}"
        ),
        (None, Some(first)) => println!(
            "recovery plan: none — no usable checkpoint, and the wal tail starts at \
             lsn {first}, past the base dataset"
        ),
    }
    let code = scrub_exit_code(r, has_base);
    if code == EXIT_CLEAN {
        println!("clean");
    } else if code == EXIT_UNRECOVERABLE && plan.base_gap.is_none() {
        println!("unrecoverable: no usable checkpoint (supply --data for a base dataset)");
    } else if code == EXIT_UNRECOVERABLE {
        println!(
            "unrecoverable: no usable checkpoint, and the base dataset cannot continue the wal"
        );
    }
    code
}

/// Prints a `status`/`fsck` report as one pretty-printed JSON object and
/// returns the same exit code the human rendering would.
fn report_scrub_json(r: &ScrubReport, has_base: bool) -> CmdResult {
    let json = serde_json::to_string_pretty(r).map_err(|e| format!("serializing report: {e}"))?;
    println!("{json}");
    Ok(scrub_exit_code(r, has_base))
}

fn cmd_status(flags: &Flags) -> CmdResult {
    let dir = lineage_dir(flags)?;
    let report =
        scrub::inspect(&StdFs, Path::new(dir)).map_err(|e| format!("inspecting {dir}: {e}"))?;
    // status cannot know whether the operator holds the base dataset;
    // assume they might, so a checkpoint-less-but-intact dir reports 4
    // rather than 5
    if flags.get("json").is_some() {
        return report_scrub_json(&report, true);
    }
    println!("status of {dir} (read-only):");
    Ok(report_scrub(&report, true))
}

fn cmd_fsck(flags: &Flags) -> CmdResult {
    let dir = lineage_dir(flags)?;
    // --data proves the operator can supply the base dataset, which decides
    // corruption-found (4) vs unrecoverable (5) when no checkpoint survives
    let has_base = flags
        .get("data")
        .map(|_| load(flags))
        .transpose()?
        .is_some();
    let report =
        scrub::scrub(&StdFs, Path::new(dir)).map_err(|e| format!("scrubbing {dir}: {e}"))?;
    if flags.get("json").is_some() {
        // the JSON report already carries the quarantine list
        return report_scrub_json(&report, has_base);
    }
    println!("fsck of {dir}:");
    let code = report_scrub(&report, has_base);
    if !report.quarantined.is_empty() {
        println!(
            "{} file(s) moved to {}/quarantine/ (see MANIFEST.txt); nothing was deleted",
            report.quarantined.len(),
            dir
        );
    }
    Ok(code)
}

fn cmd_check_metrics(flags: &Flags) -> CmdResult {
    let path = flags.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let summary = validate_prometheus_text(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: OK — {} metric families, {} samples",
        summary.families, summary.samples
    );
    Ok(0)
}
