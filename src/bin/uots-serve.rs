//! `uots-serve` — the UOTS query service as a standalone server.
//!
//! ```text
//! uots-serve --data data.uotsds [--listen 127.0.0.1:8080]
//!            [--http-threads N (default: one per core, at least 2)]
//!            [--batch-threads N]
//!            [--max-batch N] [--max-inflight N] [--tenant-inflight N]
//!            [--degraded-deadline-ms MS] [--degraded-max-visited N]
//!            [--force-algorithm expansion|iknn-baseline|text-first|brute-force]
//!            [--wal-dir DIR] [--fsync batch|off|interval:MS]
//!            [--shards N] [--partitioner hash|grid:CELLS]
//! ```
//!
//! Loads a dataset (the binary format of `uots generate`) and serves
//! `POST /search`, `/topk`, `/join` and `/ingest` plus the full
//! observability surface (`GET /metrics`, `/status`, `/journal`,
//! `/traces`) on one port.
//!
//! Every server is a cluster of `--shards N` shards, `N = 1` by default
//! (`uots_core::shard`): a search walks the shards by descending upper
//! bound on the request's own thread, sharing one network expansion per
//! query location and carrying the running top-k threshold into each
//! shard — with one shard, exactly the unsharded search. `/ingest` routes
//! each mutation to its owning shard; responses carry the per-shard
//! `epochs` at every `N`. `--partitioner grid:CELLS` selects the
//! spatial-grid partitioner (volatile only; the durable cluster is
//! hash-only).
//!
//! With `--wal-dir`, `/ingest` goes through the durable WAL-backed path,
//! created fresh or resumed by what the directory holds. One shard keeps
//! its WAL segments and checkpoints directly in `DIR` (the layout of
//! `uots ingest | recover | scrub --wal-dir`; the dataset stays the
//! recovery base); `N ≥ 2` shards each own a self-contained lineage under
//! `DIR/shard-<s>/`, recovered in parallel. A directory written with
//! another shard count is refused: the global ids `g = l·N + s` only mean
//! anything under the `N` they were issued with.
//!
//! Every shard — its recovery included — is constructed with the one
//! registry and the one event journal, so `GET /journal` shows what a
//! restart recovered from, then epoch swaps, WAL seals, retries and
//! degradations, at any `N`.
//!
//! `--http-threads N` workers block in `accept()` on the one listener, so
//! a connection is served the moment it lands and an idle server burns
//! nothing; every request pins the last completely published cut with a
//! read-lock, so `/topk` never queues behind an `/ingest` (`--wal-dir`
//! included: append, fsync and publish happen behind the writer's lock,
//! which readers never take). `N` defaults to the number of cores the
//! process may run on, at least 2 (`uots_serve_http_workers` on `/metrics`
//! shows the size in effect): requests are short and CPU-bound, so workers
//! beyond the cores answer no more of them and — woken FIFO, each onto the
//! CPU it last ran on — cost throughput (4 workers on 2 cores served a
//! quarter fewer `/topk` per second than 2). Raise `N` when peers are slow
//! or idle: a connection that sends nothing holds its worker for up to the
//! 2 s read timeout.
//!
//! The process runs until `POST /admin/shutdown` (or SIGKILL): the
//! handler sets the stop flag and wakes every blocked worker with a
//! self-connect, the main thread joins them and exits 0 — CI asserts
//! this, with a timeout.
//!
//! By default the per-query algorithm is chosen by the adaptive planner
//! (`uots_core::planner`); `--force-algorithm` pins every query to one
//! algorithm, the escape hatch when the planner misjudges a workload.

use std::sync::Arc;

use uots::cluster::ShardedDurable;
use uots::core::planner::AlgorithmKind;
use uots::core::shard::{Partitioner, ShardedCluster};
use uots::datagen::persist;
use uots::obs::{EventJournal, ObsState, TailSampler, DEFAULT_EXEMPLAR_CAPACITY};
use uots::serve::{QueryService, ServiceConfig};
use uots::{ExecutionBudget, FsyncPolicy, MetricsRegistry, WalConfig};

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

    let defaults = ServiceConfig::default();
    let mut cfg = ServiceConfig {
        http_threads: parse_or(&flags, "http-threads", defaults.http_threads)?,
        batch_threads: parse_or(&flags, "batch-threads", 0)?,
        max_batch: parse_or(&flags, "max-batch", 1024)?,
        max_inflight: parse_or(&flags, "max-inflight", 4096)?,
        tenant_inflight: parse_or(&flags, "tenant-inflight", 64)?,
        ..defaults
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
    let mut service = match flags.get("wal-dir") {
        Some(dir) => {
            if partitioner != Partitioner::Hash {
                return Err("--partitioner: the durable backend is hash-only".to_string());
            }
            let fsync = FsyncPolicy::parse(flags.get("fsync").unwrap_or("batch"))
                .map_err(|e| format!("--fsync: {e}"))?;
            let config = WalConfig {
                fsync,
                ..WalConfig::default()
            };
            let (cluster, reports) = ShardedDurable::open_or_create(
                &ds,
                dir,
                shards,
                config,
                None,
                Some(&registry),
                Some(&journal),
            )
            .map_err(|e| format!("--wal-dir {dir}, --shards is {shards}: {e}"))?;
            if let Some(slowest) = reports.iter().map(|r| r.micros).max() {
                if shards == 1 {
                    let batches = reports[0].replayed_batches;
                    println!("uots-serve: recovered {batches} batches in {slowest} us");
                } else {
                    println!(
                        "uots-serve: recovered {shards} shards in {slowest} us (max over shards)"
                    );
                }
            }
            QueryService::start_durable(listen, cluster, obs, cfg)
        }
        None => {
            let cluster = ShardedCluster::with_metrics(
                Arc::new(ds.network.clone()),
                &ds.store,
                ds.vocab.len(),
                shards,
                partitioner,
                Some(&registry),
                Some(&journal),
            );
            QueryService::start(listen, Arc::new(cluster), obs, cfg)
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

    service.join();
    println!("uots-serve: shutdown complete");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
