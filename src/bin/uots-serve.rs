//! `uots-serve` — the UOTS query service as a standalone server.
//!
//! ```text
//! uots-serve --data data.uotsds [--listen 127.0.0.1:8080]
//!            [--http-threads N (default: one per core, at least 2)]
//!            [--wal-dir DIR] [--fsync batch|off|interval:MS]
//!            [--shards N]
//! ```
//!
//! Loads a dataset (the binary format of `uots generate`) and serves
//! `POST /search`, `/topk`, `/join` and `/ingest` plus the full
//! observability surface (`GET /metrics`, `/status`, `/journal`,
//! `/traces`) on one port. `/status` reports the published cut: live
//! `trajectories` over all shards, `shards` and per-shard `epochs`. A
//! flag not listed above is refused, naming it. Admission and degradation
//! run at [`ServiceConfig::default`]'s settings; in-process callers of
//! [`QueryService::start`] set the other fields.
//!
//! Every server is a cluster of `--shards N` hash shards, `N = 1` by
//! default (`uots_core::shard`): a search is one engine run over every
//! shard of the pinned cut on the request's own thread — one network
//! expansion per query location, one walk of the cut's one vertex index
//! per settled vertex, one top-k in global ids — and a shard whose upper
//! bound falls strictly below the running k-th score stops being
//! walked. With one shard that run is exactly the unsharded search.
//! `/ingest` applies its body as one batch, split into one sub-batch per
//! shard it touches; responses carry the per-shard `epochs` at every `N`.
//!
//! With `--wal-dir`, `/ingest` goes through the durable WAL-backed path,
//! created fresh or resumed by what the directory holds. One shard keeps
//! its WAL segments and checkpoints directly in `DIR` (the layout of
//! `uots ingest --wal-dir`; the dataset stays the recovery base); `N ≥ 2`
//! shards each own a self-contained lineage under `DIR/shard-<s>/`,
//! recovered in parallel. `uots recover | status | fsck` read one lineage
//! directory: `DIR` at one shard, one `DIR/shard-<s>` at `N ≥ 2`. A directory written with
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
//! Every query runs the paper's expansion search under the heuristic
//! scheduler (`uots_core::planner::AlgorithmKind::Expansion`); a request
//! names another algorithm with its `"algorithm"` field.

mod flags;

use std::sync::Arc;

use flags::Flags;
use serde::Content;
use uots::cluster::ShardedDurable;
use uots::core::shard::{ClusterSnapshot, CutReader, ShardedCluster};
use uots::datagen::persist;
use uots::obs::{EventJournal, ObsState, TailSampler, DEFAULT_EXEMPLAR_CAPACITY};
use uots::serve::{QueryService, ServiceConfig};
use uots::{FsyncPolicy, MetricsRegistry, WalConfig};

/// Every flag [`run`] reads; [`Flags::parse`] refuses the rest, so a typo
/// cannot start the server in a configuration nobody asked for.
const FLAGS: &[&str] = &[
    "data",
    "listen",
    "http-threads",
    "wal-dir",
    "fsync",
    "shards",
];

/// The `/status` document of the cut `cut`: the dataset served, the live
/// trajectories over all shards, the shard count and the per-shard epochs.
fn status_json(dataset: &str, cut: &ClusterSnapshot) -> String {
    let doc = Content::Map(vec![
        ("dataset".to_string(), Content::Str(dataset.to_string())),
        (
            "trajectories".to_string(),
            Content::U64(cut.num_live() as u64),
        ),
        ("shards".to_string(), Content::U64(cut.num_shards() as u64)),
        (
            "epochs".to_string(),
            Content::Seq(cut.epochs().into_iter().map(Content::U64).collect()),
        ),
    ]);
    serde_json::to_string(&doc).expect("status renders")
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args, FLAGS)?;
    let path = flags.require("data")?;
    let ds = persist::load_file(path).map_err(|e| format!("loading {path}: {e}"))?;

    let defaults = ServiceConfig::default();
    let cfg = ServiceConfig {
        http_threads: flags.parse_or("http-threads", defaults.http_threads)?,
        ..defaults
    };

    let registry = MetricsRegistry::new();
    let journal = EventJournal::default();
    let sampler = TailSampler::new(DEFAULT_EXEMPLAR_CAPACITY);
    let name = ds.name.clone();
    let trajectories = ds.store.len();
    // `/status` reads the published cut the way a request pins it, never
    // the writer's lock
    let obs = |cut: CutReader| {
        let status = move || status_json(&name, &cut.get());
        ObsState::new(registry.clone(), journal.clone(), sampler.clone(), status)
    };

    let listen = flags.get("listen").unwrap_or("127.0.0.1:8080");
    let shards: usize = flags.parse_or("shards", 1)?;
    if shards == 0 {
        return Err("--shards: must be at least 1".to_string());
    }
    let mut service = match flags.get("wal-dir") {
        Some(dir) => {
            let fsync = FsyncPolicy::parse(flags.get("fsync").unwrap_or("batch"))
                .map_err(|e| format!("--fsync: {e}"))?;
            let config = WalConfig {
                fsync,
                ..WalConfig::default()
            };
            // the lineage takes the dataset over: a fresh one moves its
            // network and trajectories into the shards, a resumed one
            // keeps it only as the recovery base of a one-shard open
            let (cluster, reports) = ShardedDurable::open_or_create(
                ds,
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
            let obs = obs(cluster.cut());
            QueryService::start(listen, cluster.into(), obs, cfg)
        }
        None => {
            // the cluster takes the network and trajectories over; the
            // rest of the dataset is freed before the server starts
            let (network, store, vocab) = ds.into_parts();
            let cluster = ShardedCluster::with_metrics(
                Arc::new(network),
                store,
                vocab.len(),
                shards,
                Some(&registry),
                Some(&journal),
            );
            let obs = obs(cluster.cut());
            QueryService::start(listen, cluster, obs, cfg)
        }
    }
    .map_err(|e| format!("binding {listen}: {e}"))?;

    println!("uots-serve: listening on http://{}", service.local_addr());
    println!(
        "uots-serve: {trajectories} trajectories live, algorithm expansion, {shards} shard(s)"
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
