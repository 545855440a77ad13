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
//! uots recover       --wal-dir DIR [--data data.uotsds] [--verify]
//!                    [--metrics-out FILE] [--obs-listen ADDR] [--obs-linger-ms MS]
//! uots status        --wal-dir DIR [--json]
//! uots fsck          --wal-dir DIR [--data data.uotsds] [--json]
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

use std::sync::{Arc, Mutex};
use uots::cluster::ShardedDurable;
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
        Some("generate") => cmd_generate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("join") => cmd_join(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("check-metrics") => cmd_check_metrics(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            print_usage();
            2
        }
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

// The flags each command reads, its shared helpers' included: `load`
// reads --data, `parse_budget` the budget pair and `start_obs_plane` the
// --obs-* pair.
const GENERATE_FLAGS: &[&str] = &["preset", "trips", "seed", "out"];
const STATS_FLAGS: &[&str] = &["data"];
const QUERY_FLAGS: &[&str] = &[
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
];
const JOIN_FLAGS: &[&str] = &[
    "data",
    "theta",
    "lambda",
    "threads",
    "deadline-ms",
    "max-visited",
    "metrics-out",
];
const INGEST_FLAGS: &[&str] = &[
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
];
const RECOVER_FLAGS: &[&str] = &[
    "wal-dir",
    "data",
    "verify",
    "metrics-out",
    "obs-listen",
    "obs-linger-ms",
];
const STATUS_FLAGS: &[&str] = &["wal-dir", "json"];
const FSCK_FLAGS: &[&str] = &["wal-dir", "data", "json"];
const CHECK_METRICS_FLAGS: &[&str] = &["file"];

/// Tiny flag parser: `--name value` pairs, `--at` repeatable. A flag
/// followed by another `--flag` (or by nothing) is a boolean switch and
/// parses as `true` — e.g. `--verify`. A flag outside the command's list
/// is refused, so a typo cannot run the command in a configuration nobody
/// asked for.
struct Flags {
    accepted: &'static [&'static str],
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String], accepted: &'static [&'static str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
            if !accepted.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_string(), v.clone()));
                    i += 2;
                }
                _ => {
                    pairs.push((key.to_string(), "true".to_string()));
                    i += 1;
                }
            }
        }
        Ok(Flags { accepted, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(self.accepted.contains(&key), "--{key} is not in the list");
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        debug_assert!(self.accepted.contains(&key), "--{key} is not in the list");
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
}

fn fail(msg: impl std::fmt::Display) -> i32 {
    eprintln!("error: {msg}");
    EXIT_ERROR
}

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

fn cmd_generate(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, GENERATE_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let preset = flags.get("preset").unwrap_or("small");
    let trips: usize = match flags.get("trips").unwrap_or("1000").parse() {
        Ok(v) => v,
        Err(_) => return fail("--trips must be an integer"),
    };
    let seed: u64 = match flags.get("seed").unwrap_or("42").parse() {
        Ok(v) => v,
        Err(_) => return fail("--seed must be an integer"),
    };
    let out = match flags.require("out") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let cfg = match preset {
        "small" => DatasetConfig::small(trips, seed),
        "brn" => DatasetConfig::brn_like(trips).with_seed(seed),
        "nrn" => DatasetConfig::nrn_like(trips).with_seed(seed),
        other => return fail(format!("unknown preset `{other}`")),
    };
    eprintln!("building {} ...", cfg.name);
    let ds = match Dataset::build(&cfg) {
        Ok(ds) => ds,
        Err(e) => return fail(e),
    };
    if let Err(e) = persist::save_file(&StdFs, &ds, &cfg, out.as_ref()) {
        return fail(e);
    }
    println!(
        "wrote {out}: {} vertices, {} trips",
        ds.network.num_nodes(),
        ds.store.len()
    );
    0
}

fn load(flags: &Flags) -> Result<Dataset, String> {
    let path = flags.require("data")?;
    persist::load_file(path).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_stats(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, STATS_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let ds = match load(&flags) {
        Ok(ds) => ds,
        Err(e) => return fail(e),
    };
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
    0
}

fn cmd_query(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, QUERY_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let ds = match load(&flags) {
        Ok(ds) => ds,
        Err(e) => return fail(e),
    };
    let ats = flags.get_all("at");
    if ats.is_empty() {
        return fail("need at least one --at x,y place");
    }
    let mut places = Vec::new();
    for at in ats {
        let Some((x, y)) = at.split_once(',') else {
            return fail(format!("--at expects `x,y`, got `{at}`"));
        };
        let (Ok(x), Ok(y)) = (x.trim().parse::<f64>(), y.trim().parse::<f64>()) else {
            return fail(format!("--at coordinates must be numbers, got `{at}`"));
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
    let lambda: f64 = match flags.get("lambda").unwrap_or("0.5").parse() {
        Ok(v) => v,
        Err(_) => return fail("--lambda must be a number"),
    };
    let k: usize = match flags.get("k").unwrap_or("3").parse() {
        Ok(v) => v,
        Err(_) => return fail("--k must be an integer"),
    };
    let weights = match Weights::lambda(lambda) {
        Ok(w) => w,
        Err(e) => return fail(e),
    };
    let budget = match parse_budget(&flags) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let query = match UotsQuery::with_options(
        places,
        KeywordSet::from_ids(keywords),
        vec![],
        QueryOptions {
            weights,
            k,
            budget,
            ..Default::default()
        },
    ) {
        Ok(q) => q,
        Err(e) => return fail(e),
    };
    let db = uots::db(&ds);
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let trace_out = flags.get("trace").map(str::to_string);
    let registry = MetricsRegistry::default();
    let plane = match start_obs_plane(&flags, &registry) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
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
    let result = match Expansion::default().run_ctx(&View::one(db), &query, &ctl, &mut rec) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
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
            if let Err(e) = write_metrics(&registry, &path) {
                return fail(e);
            }
        }
        if let Some(path) = trace_out {
            let trace = report
                .trace
                .expect("tracing recorder always yields a trace");
            if let Err(e) = trace.validate() {
                return fail(format!("internal: invalid trace: {e}"));
            }
            let json = match serde_json::to_string_pretty(&trace) {
                Ok(j) => j,
                Err(e) => return fail(format!("serializing trace: {e}")),
            };
            if let Err(e) = std::fs::write(&path, json) {
                return fail(format!("writing {path}: {e}"));
            }
            println!("wrote query trace to {path}");
        }
    }
    if let Some(p) = plane {
        p.finish();
    }
    0
}

fn cmd_join(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, JOIN_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let ds = match load(&flags) {
        Ok(ds) => ds,
        Err(e) => return fail(e),
    };
    let theta: f64 = match flags.get("theta").unwrap_or("0.8").parse() {
        Ok(v) => v,
        Err(_) => return fail("--theta must be a number"),
    };
    let lambda: f64 = match flags.get("lambda").unwrap_or("0.5").parse() {
        Ok(v) => v,
        Err(_) => return fail("--lambda must be a number"),
    };
    let threads: usize = match flags.get("threads").unwrap_or("2").parse() {
        Ok(v) => v,
        Err(_) => return fail("--threads must be an integer"),
    };
    let cfg = JoinConfig {
        theta,
        lambda,
        ..Default::default()
    };
    let budget = match parse_budget(&flags) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let tidx = ds.store.build_timestamp_index();
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let registry = MetricsRegistry::default();
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_timestamp_index(&tidx);
    let result = match ts_join_with(
        &View::one(db),
        &cfg,
        threads,
        &budget,
        &RunControl::unbounded(),
    ) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
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
        if let Err(e) = write_metrics(&registry, &path) {
            return fail(e);
        }
    }
    0
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
    verify: bool,
    probes: Vec<UotsQuery>,
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
            if self.verify {
                verify_epoch(snap, vocab.len(), &self.probes)?;
                println!(
                    "  verified against from-scratch rebuild ({} probes)",
                    self.probes.len()
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

fn cmd_ingest(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, INGEST_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let ds = match load(&flags) {
        Ok(ds) => ds,
        Err(e) => return fail(e),
    };
    let script_path = match flags.require("script") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let script = match std::fs::read_to_string(script_path) {
        Ok(t) => t,
        Err(e) => return fail(format!("reading {script_path}: {e}")),
    };
    let batch: usize = match flags.get("batch").unwrap_or("0").parse() {
        Ok(v) => v,
        Err(_) => return fail("--batch must be an integer"),
    };
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let registry = MetricsRegistry::default();
    let plane = match start_obs_plane(&flags, &registry) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let journal = plane.as_ref().map(|p| &p.journal);
    let probes: Vec<UotsQuery> = workload::generate(&ds, &workload::WorkloadConfig::default())
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
        .collect();
    let run = IngestRun {
        num_nodes: ds.network.num_nodes(),
        script_path,
        script: &script,
        batch,
        verify: flags.get("verify").is_some(),
        probes,
        plane: plane.as_ref(),
    };

    // the `/status` document a run ends with
    let last_status = match flags.get("wal-dir") {
        Some(dir) => {
            let fsync = match FsyncPolicy::parse(flags.get("fsync").unwrap_or("batch")) {
                Ok(p) => p,
                Err(e) => return fail(format!("--fsync: {e}")),
            };
            let checkpoint_every = match flags.get("checkpoint-every") {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return fail("--checkpoint-every must be a positive integer"),
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
            let (durable, recovery) = match opened {
                Ok(opened) => opened,
                Err(e) => return fail(format!("opening wal in {dir}: {e}")),
            };
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
            if let Err(e) = run.run(&mut cluster, &vocab, status) {
                return fail(e);
            }
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
            if let Err(e) = run.run(&mut cluster, &vocab, status) {
                return fail(e);
            }
            status(&cluster)
        }
    };
    if let Some(path) = metrics_out {
        if let Err(e) = write_metrics(&registry, &path) {
            return fail(e);
        }
    }
    if let Some(p) = plane {
        p.set_status(last_status);
        p.finish();
    }
    0
}

fn cmd_recover(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, RECOVER_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let dir = match flags.require("wal-dir") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let base = match flags.get("data") {
        Some(path) => match persist::load_file(path) {
            Ok(ds) => Some(ds),
            Err(e) => return fail(format!("loading {path}: {e}")),
        },
        None => None,
    };
    let verify = flags.get("verify").is_some();
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let registry = MetricsRegistry::default();
    let plane = match start_obs_plane(&flags, &registry) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };

    let recovered = match recover(
        &StdFs,
        std::path::Path::new(dir),
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
            return EXIT_UNRECOVERABLE;
        }
        Err(e) => return fail(format!("recovering from {dir}: {e}")),
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
        let probe_source = match &base {
            Some(ds) => ds,
            None => {
                return fail("--verify needs --data to derive probe queries");
            }
        };
        let probes: Vec<UotsQuery> =
            workload::generate(probe_source, &workload::WorkloadConfig::default())
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
                .collect();
        if let Err(e) = verify_epoch(&snap, recovered.vocab.len(), &probes) {
            return fail(e);
        }
        println!(
            "verified against from-scratch rebuild ({} probes)",
            probes.len()
        );
    }
    if let Some(path) = metrics_out {
        if let Err(e) = write_metrics(&registry, &path) {
            return fail(e);
        }
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
    code
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
fn report_scrub_json(r: &ScrubReport, has_base: bool) -> i32 {
    match serde_json::to_string_pretty(r) {
        Ok(json) => println!("{json}"),
        Err(e) => return fail(format!("serializing report: {e}")),
    }
    scrub_exit_code(r, has_base)
}

fn cmd_status(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, STATUS_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let dir = match flags.require("wal-dir") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let report = match scrub::inspect(&StdFs, std::path::Path::new(dir)) {
        Ok(r) => r,
        Err(e) => return fail(format!("inspecting {dir}: {e}")),
    };
    // status cannot know whether the operator holds the base dataset;
    // assume they might, so a checkpoint-less-but-intact dir reports 4
    // rather than 5
    if flags.get("json").is_some() {
        return report_scrub_json(&report, true);
    }
    println!("status of {dir} (read-only):");
    report_scrub(&report, true)
}

fn cmd_fsck(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, FSCK_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let dir = match flags.require("wal-dir") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    // --data proves the operator can supply the base dataset, which decides
    // corruption-found (4) vs unrecoverable (5) when no checkpoint survives
    let has_base = match flags.get("data") {
        Some(path) => match persist::load_file(path) {
            Ok(_) => true,
            Err(e) => return fail(format!("loading {path}: {e}")),
        },
        None => false,
    };
    let report = match scrub::scrub(&StdFs, std::path::Path::new(dir)) {
        Ok(r) => r,
        Err(e) => return fail(format!("scrubbing {dir}: {e}")),
    };
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
    code
}

fn cmd_check_metrics(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, CHECK_METRICS_FLAGS) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let path = match flags.require("file") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(format!("reading {path}: {e}")),
    };
    match validate_prometheus_text(&text) {
        Ok(summary) => {
            println!(
                "{path}: OK — {} metric families, {} samples",
                summary.families, summary.samples
            );
            0
        }
        Err(e) => fail(format!("{path}: {e}")),
    }
}
