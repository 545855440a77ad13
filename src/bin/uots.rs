//! `uots` — command-line interface to the trajectory search library.
//!
//! ```text
//! uots generate      --preset small|brn|nrn --trips N --seed S --out data.uotsds
//! uots stats         --data data.uotsds
//! uots query         --data data.uotsds --at x,y --at x,y [--tags a,b] [--lambda L] [--k K]
//!                    [--metrics-out FILE] [--trace FILE] [--obs-listen ADDR]
//! uots join          --data data.uotsds --theta T [--lambda L] [--threads N]
//!                    [--metrics-out FILE]
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
//! | 5 | unrecoverable: no usable checkpoint and no base dataset |

use std::sync::{Arc, Mutex};
use uots::datagen::persist;
use uots::durable::{recover_with_journal, DurableError, DurableIngest, RecoverySource};
use uots::join::{record_join_metrics, ts_join_with, JoinConfig};
use uots::obs::{
    validate_prometheus_text, EventJournal, ObsServer, ObsState, TailSampler,
    DEFAULT_EXEMPLAR_CAPACITY, DEFAULT_SLOW_QUANTILE,
};
use uots::prelude::*;
use uots::scrub::{self, ScrubReport};
use uots::storage::StdFs;
use uots::{
    DistanceCache, EpochManager, FsyncPolicy, LiveSet, MetricsRegistry, PhaseNanos, Recorder,
    RunControl, Sample, SearchContext, Trajectory, WalConfig, DEFAULT_CACHE_CAPACITY,
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
         \x20          [--cache-capacity N] [--no-cache]\n\
         \x20          [--metrics-out FILE] [--trace FILE] [--obs-listen ADDR]\n\
         \x20 join     --data FILE --theta T=0.8 [--lambda L=0.5] [--threads N=2]\n\
         \x20          [--deadline-ms MS] [--max-visited N] [--metrics-out FILE]\n\
         \x20          [--cache-capacity N] [--no-cache]\n\
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
         network distances are memoized in a shared cache by default;\n\
         --cache-capacity N sizes it (0 disables), --no-cache turns it\n\
         off. results are identical either way.\n\
         --metrics-out writes a Prometheus text exposition, --trace a JSON\n\
         span timeline; check-metrics validates an exposition file.\n\
         --obs-listen ADDR serves live observability over HTTP while the\n\
         command runs: /metrics (Prometheus), /status (JSON health),\n\
         /journal?n=K (structured event log, JSON lines), /traces (slow-\n\
         query exemplars); --obs-linger-ms keeps it up after the work ends\n\
         so scripts can scrape a finished run. --json on status/fsck emits\n\
         the report as JSON (same exit codes).\n\
         status is a read-only integrity walk of a durable ingest directory\n\
         (checkpoint CRCs + WAL durable prefix); fsck additionally moves\n\
         wholly-unusable files into DIR/quarantine/ with a manifest — it\n\
         never deletes anything. recover/status/fsck exit codes: 0 clean,\n\
         1 operational error, 2 usage, 3 recovered-with-fallback,\n\
         4 corruption found (still recoverable), 5 unrecoverable."
    );
}

// Exit codes of the durability commands — see the module docs.
const EXIT_CLEAN: i32 = 0;
const EXIT_ERROR: i32 = 1;
const EXIT_RECOVERED_WITH_FALLBACK: i32 = 3;
const EXIT_CORRUPTION_FOUND: i32 = 4;
const EXIT_UNRECOVERABLE: i32 = 5;

/// Tiny flag parser: `--name value` pairs, `--at` repeatable. A flag
/// followed by another `--flag` (or by nothing) is a boolean switch and
/// parses as `true` — e.g. `--no-cache`.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
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
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
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

/// Parses `--cache-capacity` / `--no-cache` into an optional shared
/// distance cache, wired to `registry` for hit/miss counters.
fn parse_cache(
    flags: &Flags,
    registry: &MetricsRegistry,
) -> Result<Option<Arc<DistanceCache>>, String> {
    if flags.get("no-cache").is_some() {
        return Ok(None);
    }
    let capacity: usize = match flags.get("cache-capacity") {
        Some(v) => v
            .parse()
            .map_err(|_| "--cache-capacity must be an integer".to_string())?,
        None => DEFAULT_CACHE_CAPACITY,
    };
    if capacity == 0 {
        return Ok(None);
    }
    Ok(Some(Arc::new(DistanceCache::with_metrics(
        capacity, registry,
    ))))
}

/// One-line cache utilization report.
fn report_cache(cache: &DistanceCache) {
    let s = cache.stats();
    println!(
        "distance cache: {} hits / {} misses ({:.1}% hit rate), {} inserts, \
         {} evictions, {} bound prunes",
        s.hits,
        s.misses,
        s.hit_rate() * 100.0,
        s.inserts,
        s.evictions,
        s.bound_prunes
    );
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
    server: ObsServer,
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
    let sampler = TailSampler::with_policy(
        DEFAULT_EXEMPLAR_CAPACITY,
        DEFAULT_SLOW_QUANTILE,
        0,
        Some(4096),
    );
    let status = Arc::new(Mutex::new("{}".to_string()));
    let status_read = Arc::clone(&status);
    let state = ObsState::new()
        .with_registry(registry.clone())
        .with_journal(journal.clone())
        .with_sampler(sampler.clone())
        .with_status(move || {
            status_read
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
        });
    let server = ObsServer::start(addr, state).map_err(|e| format!("--obs-listen {addr}: {e}"))?;
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
    let flags = match Flags::parse(args) {
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
    if let Err(e) = persist::save_file(&ds, &cfg, out) {
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
    let flags = match Flags::parse(args) {
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
    let flags = match Flags::parse(args) {
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
    let cache = match parse_cache(&flags, &registry) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let ctx = match &cache {
        Some(c) => SearchContext::with_cache(Arc::clone(c)),
        None => SearchContext::default(),
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
    let result =
        match Expansion::default().run_ctx(&db, &query, &RunControl::unbounded(), &mut rec, &ctx) {
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
    if let Some(c) = &cache {
        report_cache(c);
    }
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
    let flags = match Flags::parse(args) {
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
    let cache = match parse_cache(&flags, &registry) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let result = match ts_join_with(
        &ds.network,
        &ds.store,
        &ds.vertex_index,
        &tidx,
        &cfg,
        threads,
        &budget,
        &RunControl::unbounded(),
        cache.as_ref(),
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
    if let Some(c) = &cache {
        report_cache(c);
    }
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
    let oracle_db = Database::new(net, &compacted, &vidx).with_keyword_index(&kidx);
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

/// The ingest sink: a bare [`EpochManager`], or a [`DurableIngest`]
/// logging every mutation to a WAL (and cutting checkpoints) first.
enum Ingestor {
    Plain(Box<EpochManager>),
    Durable(Box<DurableIngest>),
}

impl Ingestor {
    fn ingest(&mut self, t: Trajectory) -> Result<TrajectoryId, String> {
        match self {
            Ingestor::Plain(m) => Ok(m.ingest(t)),
            Ingestor::Durable(d) => d.ingest(t).map_err(|e| e.to_string()),
        }
    }

    fn retire(&mut self, id: TrajectoryId) -> Result<bool, String> {
        match self {
            Ingestor::Plain(m) => Ok(m.retire(id)),
            Ingestor::Durable(d) => d.retire(id).map_err(|e| e.to_string()),
        }
    }

    fn publish(&mut self) -> Result<Arc<uots::EpochSnapshot>, String> {
        match self {
            Ingestor::Plain(m) => Ok(m.publish()),
            Ingestor::Durable(d) => d.publish().map_err(|e| e.to_string()),
        }
    }

    fn pending(&self) -> u64 {
        match self {
            Ingestor::Plain(m) => m.pending(),
            Ingestor::Durable(d) => d.manager().pending(),
        }
    }

    fn snapshot(&self) -> Arc<uots::EpochSnapshot> {
        match self {
            Ingestor::Plain(m) => m.snapshot(),
            Ingestor::Durable(d) => d.snapshot(),
        }
    }

    /// The `/status` document for this sink: the full [`DurableIngest`]
    /// health summary when durable, a minimal epoch summary otherwise.
    fn status_json(&self) -> String {
        match self {
            Ingestor::Plain(m) => {
                let st = m.snapshot().stats();
                format!(
                    "{{\"state\":\"healthy\",\"mode\":\"plain\",\"epoch\":{},\
                     \"live\":{},\"pending\":{}}}",
                    st.epoch,
                    st.live,
                    m.pending()
                )
            }
            Ingestor::Durable(d) => {
                serde_json::to_string(&d.status()).unwrap_or_else(|_| "{}".to_string())
            }
        }
    }
}

fn cmd_ingest(args: &[String]) -> i32 {
    let flags = match Flags::parse(args) {
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
    let verify = flags.get("verify").is_some();
    let metrics_out = flags.get("metrics-out").map(str::to_string);
    let registry = MetricsRegistry::default();
    let plane = match start_obs_plane(&flags, &registry) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };

    let num_nodes = ds.network.num_nodes();
    let vocab_len = ds.vocab.len();
    let mut sink = match flags.get("wal-dir") {
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
            // directory continues its lineage instead of logging over it
            let (durable, recovery) = match DurableIngest::open(
                &ds,
                dir,
                config,
                checkpoint_every,
                Some(&registry),
                plane.as_ref().map(|p| &p.journal),
            ) {
                Ok(opened) => opened,
                Err(e) => return fail(format!("opening wal in {dir}: {e}")),
            };
            println!(
                "durable ingest: wal in {dir} (fsync {fsync}, checkpoint every {})",
                checkpoint_every.map_or("never".to_string(), |n| format!("{n} batches")),
            );
            if let Some(report) = recovery {
                println!(
                    "resumed: replayed {} wal batches, continuing at lsn {}",
                    report.replayed_batches, report.next_lsn
                );
            }
            Ingestor::Durable(Box::new(durable))
        }
        None => {
            let manager = EpochManager::from_parts(
                Arc::new(ds.network.clone()),
                ds.store.clone(),
                LiveSet::all_live(ds.store.len()),
                vocab_len,
                0,
                Some(&registry),
                plane.as_ref().map(|p| &p.journal),
            );
            Ingestor::Plain(Box::new(manager))
        }
    };
    if let Some(p) = &plane {
        p.set_status(sink.status_json());
    }
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

    let started = std::time::Instant::now();
    let mut next_id = sink.snapshot().stats().total;
    let mut ingested = 0u64;
    let mut retired = 0u64;
    let mut published = 0u64;
    let mut since_publish = 0usize;
    let do_publish = |sink: &mut Ingestor, published: &mut u64| -> Result<(), String> {
        let snap = sink.publish()?;
        *published += 1;
        let st = snap.stats();
        println!(
            "epoch {}: {} live / {} total, {} postings, {} mutations folded in",
            st.epoch, st.live, st.total, st.postings, st.mutations
        );
        if verify {
            verify_epoch(&snap, vocab_len, &probes)?;
            println!(
                "  verified against from-scratch rebuild ({} probes)",
                probes.len()
            );
        }
        if let Some(p) = &plane {
            p.set_status(sink.status_json());
        }
        Ok(())
    };

    for (lineno, raw) in script.lines().enumerate() {
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
                    _ => return fail(at(format!("bad vertex `{tok}`"))),
                };
                samples.push(Sample {
                    node: NodeId(v),
                    time: 60.0 * samples.len() as f64,
                });
            }
            let mut tags = Vec::new();
            if let Some(t) = tags_part {
                for tag in t.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                    match ds.vocab.get(tag) {
                        Some(id) => tags.push(id),
                        None => eprintln!("warning: tag `{tag}` not in the vocabulary; ignored"),
                    }
                }
            }
            let t = match Trajectory::new(samples, KeywordSet::from_ids(tags)) {
                Ok(t) => t,
                Err(e) => return fail(at(format!("{e}"))),
            };
            let id = match sink.ingest(t) {
                Ok(id) => id,
                Err(e) => return fail(at(e)),
            };
            debug_assert_eq!(id.index(), next_id);
            next_id += 1;
            ingested += 1;
            true
        } else if let Some(rest) = line.strip_prefix("retire") {
            let id: usize = match rest.trim().parse() {
                Ok(v) if v < next_id => v,
                _ => return fail(at(format!("bad trajectory id `{}`", rest.trim()))),
            };
            match sink.retire(TrajectoryId(id as u32)) {
                Ok(true) => retired += 1,
                Ok(false) => {}
                Err(e) => return fail(at(e)),
            }
            true
        } else if line == "publish" {
            since_publish = 0;
            if let Err(e) = do_publish(&mut sink, &mut published) {
                return fail(e);
            }
            false
        } else {
            return fail(at(format!("unknown directive `{line}`")));
        };
        if mutated && batch > 0 {
            since_publish += 1;
            if since_publish >= batch {
                since_publish = 0;
                if let Err(e) = do_publish(&mut sink, &mut published) {
                    return fail(e);
                }
            }
        }
    }
    if sink.pending() > 0 {
        if let Err(e) = do_publish(&mut sink, &mut published) {
            return fail(e);
        }
    }

    let elapsed = started.elapsed();
    let final_snap = sink.snapshot();
    println!(
        "replayed {} mutations ({ingested} ingests, {retired} retires) over {published} \
         epochs in {elapsed:?} ({:.0} mutations/s); serving epoch {} with {} live trips",
        ingested + retired,
        (ingested + retired) as f64 / elapsed.as_secs_f64().max(1e-9),
        final_snap.epoch(),
        final_snap.stats().live
    );
    if let Ingestor::Durable(d) = &sink {
        println!(
            "wal durable through lsn {} (last checkpoint at lsn {})",
            d.next_lsn().saturating_sub(1),
            d.last_checkpoint_lsn()
        );
    }
    if let Some(path) = metrics_out {
        if let Err(e) = write_metrics(&registry, &path) {
            return fail(e);
        }
    }
    if let Some(p) = &plane {
        p.set_status(sink.status_json());
    }
    if let Some(p) = plane {
        p.finish();
    }
    0
}

fn cmd_recover(args: &[String]) -> i32 {
    let flags = match Flags::parse(args) {
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

    let recovered = match recover_with_journal(
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
/// `--json` renderings so scripts can rely on it either way.
fn scrub_exit_code(r: &ScrubReport, has_base: bool) -> i32 {
    if r.is_clean() {
        EXIT_CLEAN
    } else if r.recoverable(has_base) {
        EXIT_CORRUPTION_FOUND
    } else {
        EXIT_UNRECOVERABLE
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
    match &r.plan.checkpoint {
        Some((path, lsn)) => println!(
            "recovery plan: checkpoint {} (lsn {lsn}) + {} wal batch(es) \
             ({} mutations); writer resumes at lsn {}",
            path.display(),
            r.plan.replayable_batches,
            r.plan.replayable_mutations,
            r.plan.next_lsn
        ),
        None => println!(
            "recovery plan: no usable checkpoint — base dataset + {} wal batch(es) \
             ({} mutations); writer resumes at lsn {}",
            r.plan.replayable_batches, r.plan.replayable_mutations, r.plan.next_lsn
        ),
    }
    let code = scrub_exit_code(r, has_base);
    if code == EXIT_CLEAN {
        println!("clean");
    } else if code == EXIT_UNRECOVERABLE {
        println!("unrecoverable: no usable checkpoint (supply --data for a base dataset)");
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
    let flags = match Flags::parse(args) {
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
    let flags = match Flags::parse(args) {
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
    let flags = match Flags::parse(args) {
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
