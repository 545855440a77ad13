//! `uots-serve` — the UOTS query service as a standalone server.
//!
//! ```text
//! uots-serve --data data.uotsds [--listen 127.0.0.1:8080]
//!            [--http-threads N] [--batch-threads N]
//!            [--max-batch N] [--max-inflight N] [--tenant-inflight N]
//!            [--degraded-deadline-ms MS] [--degraded-max-visited N]
//!            [--force-algorithm expansion|iknn-baseline|text-first|brute-force]
//!            [--wal-dir DIR] [--fsync batch|off|interval:MS]
//!            [--shards N] [--partitioner hash|grid:CELLS]
//! ```
//!
//! Loads a dataset (the binary format of `uots generate`), publishes it
//! through an epoch manager, and serves `POST /search`, `/topk`, `/join`
//! and `/ingest` plus the full observability surface (`GET /metrics`,
//! `/status`, `/journal`, `/traces`) on one port. With `--wal-dir`,
//! `/ingest` goes through the durable WAL-backed path (created fresh, or
//! resumed when the directory already holds segments).
//!
//! With `--shards N` (N ≥ 2) the store is partitioned across `N` shards
//! and every endpoint routes through the scatter-gather coordinator
//! (`uots_core::shard`): a search walks the shards by descending upper
//! bound on the request's own thread, sharing one network expansion per
//! query location and carrying the running top-k threshold into each
//! shard; `/ingest` routes each mutation to its owning shard, and
//! responses gain per-shard `epochs`. Combined with `--wal-dir`, each
//! shard owns its own WAL + checkpoint lineage under `DIR/shard-<s>/`
//! and recovery parallelizes across shards (the directory layout decides
//! fresh-vs-resume). `--partitioner grid:CELLS` selects the spatial-grid
//! partitioner (volatile backend only; the durable facade is hash-only).
//!
//! The process runs until `POST /admin/shutdown` (or SIGKILL); shutdown
//! drains the worker threads and exits 0 — CI asserts this.
//!
//! By default the per-query algorithm is chosen by the adaptive planner
//! (`uots_core::planner`); `--force-algorithm` pins every query to one
//! algorithm, the escape hatch when the planner misjudges a workload.

use std::sync::Arc;
use std::time::Duration;

use uots::cluster::{shard_dir, ShardedDurable};
use uots::core::planner::AlgorithmKind;
use uots::core::shard::{Partitioner, ShardedCluster};
use uots::datagen::persist;
use uots::durable::DurableIngest;
use uots::obs::{EventJournal, ObsState, TailSampler, DEFAULT_EXEMPLAR_CAPACITY};
use uots::serve::{QueryService, ServiceConfig};
use uots::{EpochManager, ExecutionBudget, FsyncPolicy, MetricsRegistry, WalConfig};

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

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
}

fn parse_or<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args)?;
    let path = flags.require("data")?;
    let ds = persist::load_file(path).map_err(|e| format!("loading {path}: {e}"))?;

    let mut cfg = ServiceConfig {
        http_threads: parse_or(&flags, "http-threads", 4)?,
        batch_threads: parse_or(&flags, "batch-threads", 0)?,
        max_batch: parse_or(&flags, "max-batch", 1024)?,
        max_inflight: parse_or(&flags, "max-inflight", 4096)?,
        tenant_inflight: parse_or(&flags, "tenant-inflight", 64)?,
        ..ServiceConfig::default()
    };
    cfg.degraded_budget = ExecutionBudget::default()
        .with_deadline_ms(parse_or(&flags, "degraded-deadline-ms", 50u64)?)
        .with_max_visited(parse_or(&flags, "degraded-max-visited", 512usize)?)
        .with_max_settled(parse_or(&flags, "degraded-max-settled", 20_000usize)?);
    if let Some(name) = flags.get("force-algorithm") {
        cfg.force = Some(
            AlgorithmKind::parse(name)
                .ok_or_else(|| format!("--force-algorithm: unknown algorithm `{name}`"))?,
        );
    }

    let registry = MetricsRegistry::new();
    let journal = EventJournal::default();
    let sampler = TailSampler::new(DEFAULT_EXEMPLAR_CAPACITY);
    let name = ds.name.clone();
    let trajectories = ds.store.len();
    let obs = ObsState::new()
        .with_registry(registry.clone())
        .with_journal(journal.clone())
        .with_sampler(sampler.clone())
        .with_status(move || {
            format!("{{\"dataset\":\"{name}\",\"trajectories\":{trajectories},\"serving\":true}}")
        });

    let listen = flags.get("listen").unwrap_or("127.0.0.1:8080");
    let forced = cfg.force;
    let shards: usize = parse_or(&flags, "shards", 1usize)?;
    if shards == 0 {
        return Err("--shards: must be at least 1".to_string());
    }
    let partitioner = match flags.get("partitioner") {
        None | Some("hash") => Partitioner::Hash,
        Some(v) => match v.strip_prefix("grid:").and_then(|c| c.parse().ok()) {
            Some(cells_per_axis) if cells_per_axis > 0 => {
                Partitioner::SpatialGrid { cells_per_axis }
            }
            _ => {
                return Err(format!(
                    "--partitioner: expected hash or grid:CELLS, got `{v}`"
                ))
            }
        },
    };
    let mut service = match (flags.get("wal-dir"), shards) {
        (Some(dir), n) => {
            let fsync = FsyncPolicy::parse(flags.get("fsync").unwrap_or("batch"))
                .map_err(|e| format!("--fsync: {e}"))?;
            let config = WalConfig {
                fsync,
                ..WalConfig::default()
            };
            if n >= 2 {
                if partitioner != Partitioner::Hash {
                    return Err("--partitioner: the durable backend is hash-only".to_string());
                }
                // The directory layout decides fresh-vs-resume, exactly
                // like the unsharded durable path.
                let resumes = shard_dir(std::path::Path::new(dir), 0).exists();
                let cluster = if resumes {
                    let (cluster, reports) =
                        ShardedDurable::open(dir, n, config, None, Some(&registry))
                            .map_err(|e| format!("recovering {n} shards in {dir}: {e}"))?;
                    let slowest = reports.iter().map(|r| r.micros).max().unwrap_or(0);
                    println!("uots-serve: recovered {n} shards in {slowest} us (max over shards)");
                    cluster
                } else {
                    ShardedDurable::create(
                        Arc::new(ds.network.clone()),
                        &ds.store,
                        &ds.vocab,
                        dir,
                        n,
                        config,
                        None,
                        Some(&registry),
                    )
                    .map_err(|e| format!("creating {n} shard wals in {dir}: {e}"))?
                };
                QueryService::start_sharded_durable(listen, cluster, registry, obs, cfg)
            } else {
                let (mut durable, recovery) =
                    DurableIngest::open(&ds, dir, config, None, Some(&registry))
                        .map_err(|e| format!("opening wal in {dir}: {e}"))?;
                if let Some(report) = recovery {
                    println!(
                        "uots-serve: recovered {} batches in {} us",
                        report.replayed_batches, report.micros
                    );
                }
                durable.set_journal(journal.clone());
                QueryService::start_durable(listen, durable, registry, obs, cfg)
            }
        }
        (None, n) if n >= 2 => {
            let cluster = ShardedCluster::with_metrics(
                Arc::new(ds.network.clone()),
                &ds.store,
                ds.vocab.len(),
                n,
                partitioner,
                &registry,
            );
            QueryService::start_sharded(listen, Arc::new(cluster), registry, obs, cfg)
        }
        (None, _) => {
            let mut manager = EpochManager::with_metrics(
                Arc::new(ds.network.clone()),
                ds.store.clone(),
                ds.vocab.len(),
                &registry,
            );
            manager.set_journal(journal.clone());
            QueryService::start(listen, Arc::new(manager), registry, obs, cfg)
        }
    }
    .map_err(|e| format!("binding {listen}: {e}"))?;

    println!("uots-serve: listening on http://{}", service.local_addr());
    println!(
        "uots-serve: {trajectories} trajectories live, planner {}, {shards} shard(s)",
        match forced {
            Some(kind) => format!("forced to {kind}"),
            None => "adaptive".to_string(),
        }
    );

    while !service.is_stopped() {
        std::thread::sleep(Duration::from_millis(50));
    }
    service.shutdown();
    println!("uots-serve: shutdown complete");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
