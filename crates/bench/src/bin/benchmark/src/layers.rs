//! Every call the benchmark makes into the crates of this repository.
//!
//! The end-to-end half of the benchmark is black-box; this file is the
//! whole white-box half. It uses, and nothing else in the benchmark may
//! use:
//!
//! * `datagen::persist::load_file`, `datagen::workload::generate`
//! * `EpochManager::{new, snapshot, apply, publish}`,
//!   `EpochSnapshot::database`
//! * `Planner::{new, forced, decide}`, `Algorithm::{run, run_recorded}`,
//!   `Expansion::new(Scheduler::RoundRobin)`, `BruteForce`
//! * `parallel::run_batch_ctx`
//! * `ShardedCluster::{new, snapshot}`, `ClusterSnapshot::{search, shard,
//!   num_live}`, `shard::shard_upper_bound`
//! * `ShardedDurable::{create, apply, publish_all, open, snapshot}`
//! * `join::ts_join`
//! * `MetricsRegistry::{new, snapshot}` and `Recorder::phases_only`
//!
//! A change that removes one of these keeps a forwarding shim until a
//! benchmark change re-points this file.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use serde::{Content, Serialize};
use uots::algorithms::{Algorithm, BruteForce, Expansion};
use uots::cluster::ShardedDurable;
use uots::core::planner::{AlgorithmKind, Planner};
use uots::core::shard::{shard_upper_bound, Partitioner, ShardedCluster};
use uots::datagen::persist;
use uots::datagen::workload::{self, WorkloadConfig};
use uots::join::{ts_join, JoinConfig};
use uots::{
    parallel, BatchOptions, BatchPolicy, CancellationToken, Dataset, EpochManager, FsyncPolicy,
    MetricsRegistry, Mutation, Phase, QueryOptions, QueryResult, Recorder, RoadNetwork, RunControl,
    Scheduler, SearchContext, TrajectoryId, TrajectoryStore, UotsQuery, WalConfig, Weights,
};

use crate::server::{copy_dir, dir_bytes};
use crate::stats::{median, p50, percentile, sorted};
use crate::trace::Tracer;

/// A query shape: places, keywords, spatial weight λ.
pub type Shape = (usize, usize, f64);

/// A dataset file loaded into this process: the source of pools, of the
/// brute-force oracle and of the replay.
pub struct Loaded {
    ds: Dataset,
    pub file_bytes: u64,
    pub load_ms: f64,
}

pub fn load(path: &Path) -> Result<Loaded, String> {
    let start = Instant::now();
    let ds = persist::load_file(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    let file_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    Ok(Loaded {
        ds,
        file_bytes,
        load_ms,
    })
}

impl Loaded {
    pub fn trips(&self) -> usize {
        self.ds.store.len()
    }

    /// Trajectory `i` of the dataset as the JSON `/ingest` accepts.
    pub fn trip_json(&self, i: usize) -> String {
        let t = self.ds.store.get(TrajectoryId(i as u32));
        serde_json::to_string(&t.serialize()).expect("a trajectory renders")
    }
}

/// One pool entry: the `/topk` body and the query it encodes.
pub struct Query {
    pub body: String,
    /// Index into the shapes the pool was built from.
    pub shape: usize,
    q: UotsQuery,
}

/// A seeded pool of `total` queries over `shapes`, interleaved so that
/// every prefix has the same shape mix.
pub fn make_pool(data: &Loaded, shapes: &[Shape], total: usize, k: usize, seed: u64) -> Vec<Query> {
    let per_shape = total.div_ceil(shapes.len());
    let by_shape: Vec<Vec<Query>> = shapes
        .iter()
        .enumerate()
        .map(|(shape, &(m, keywords, lambda))| {
            let specs = workload::generate(
                &data.ds,
                &WorkloadConfig {
                    num_queries: per_shape,
                    locations_per_query: m,
                    keywords_per_query: keywords,
                    seed: seed.wrapping_mul(1_000).wrapping_add(shape as u64),
                    ..WorkloadConfig::default()
                },
            );
            specs
                .into_iter()
                .map(|s| {
                    let q = UotsQuery::with_options(
                        s.locations,
                        s.keywords,
                        Vec::new(),
                        QueryOptions {
                            weights: Weights::lambda(lambda).expect("shape λ is in [0, 1]"),
                            k,
                            ..QueryOptions::default()
                        },
                    )
                    .expect("generated queries are valid");
                    let body = format!(
                        r#"{{"locations":[{}],"keywords":[{}],"lambda":{lambda},"k":{k}}}"#,
                        join_ids(q.locations().iter().map(|l| l.0)),
                        join_ids(q.keywords().ids().iter().map(|w| w.0)),
                    );
                    Query { body, shape, q }
                })
                .collect()
        })
        .collect();
    let mut columns: Vec<_> = by_shape.into_iter().map(Vec::into_iter).collect();
    let mut pool = Vec::with_capacity(total);
    'fill: loop {
        for column in &mut columns {
            match column.next() {
                Some(q) if pool.len() < total => pool.push(q),
                _ => break 'fill,
            }
        }
    }
    pool
}

fn join_ids(ids: impl Iterator<Item = u32>) -> String {
    ids.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

/// A ranked answer reduced to what the wire carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub ids: Vec<u64>,
    pub similarities: Vec<f64>,
}

fn answer_of(r: &QueryResult) -> Answer {
    Answer {
        ids: r.matches.iter().map(|m| u64::from(m.id.0)).collect(),
        similarities: r.matches.iter().map(|m| m.similarity).collect(),
    }
}

/// The brute-force answer over the dataset as generated.
pub fn oracle(data: &Loaded, query: &Query) -> Answer {
    let r = BruteForce
        .run(&uots::db(&data.ds), &query.q)
        .expect("the oracle accepts pool queries");
    answer_of(&r)
}

/// The brute-force oracle over a live store: the dataset plus every
/// mutation the server acknowledged. Unsharded, so agreement with a
/// sharded server also shows sharded equals unsharded.
pub struct Model {
    manager: EpochManager,
}

impl Model {
    pub fn new(data: &Loaded) -> Model {
        Model {
            manager: EpochManager::new(
                Arc::new(data.ds.network.clone()),
                data.ds.store.clone(),
                data.ds.vocab.len(),
            ),
        }
    }

    /// Inserts copies of the dataset trips `inserts`, retires `retires`,
    /// publishes. Returns the ids the inserts received.
    pub fn apply(&self, data: &Loaded, inserts: &[usize], retires: &[u64]) -> Vec<u64> {
        let ids = self.manager.apply(mutations(data, inserts, retires));
        self.manager.publish();
        ids.into_iter().map(|id| u64::from(id.0)).collect()
    }

    pub fn oracle(&self, query: &Query) -> Answer {
        let snapshot = self.manager.snapshot();
        let r = BruteForce
            .run(&snapshot.database(), &query.q)
            .expect("the oracle accepts pool queries");
        answer_of(&r)
    }
}

fn mutations(data: &Loaded, inserts: &[usize], retires: &[u64]) -> Vec<Mutation> {
    let store = &data.ds.store;
    inserts
        .iter()
        .map(|&i| Mutation::Insert(store.get(TrajectoryId(i as u32)).clone()))
        .chain(
            retires
                .iter()
                .map(|&id| Mutation::Retire(TrajectoryId(id as u32))),
        )
        .collect()
}

/// The insert and retire halves of write batch `b`, the same in the
/// served run and in the replay: copies of 8 dataset trips, starting from
/// a trip the seed picks, and 2 retires of ids acknowledged two batches
/// earlier.
pub fn write_batch(trips: usize, seed: u64, b: usize, acked: &[u64]) -> (Vec<usize>, Vec<u64>) {
    let first = seed.wrapping_mul(7_919) as usize % trips;
    let inserts = (0..8).map(|j| (first + b * 8 + j) % trips).collect();
    let retires = match b.checked_sub(2) {
        Some(earlier) => acked.iter().skip(earlier * 8).take(2).copied().collect(),
        None => Vec::new(),
    };
    (inserts, retires)
}

/// Write batches the replay applies, to the unsharded manager and to the
/// durable cluster.
const REPLAY_WRITE_BATCHES: usize = 30;
/// Recoveries timed on copies of the durable directory.
const REPLAY_RECOVERIES: usize = 3;
/// Trajectories in the join guard.
const JOIN_TRAJECTORIES: usize = 200;

/// Replays `pool` single-threaded through each layer's public functions,
/// one span per call, and returns the replay-tagged per-layer metrics.
/// `shards` is the fan-out of the `shard.*` section; `scratch` receives
/// the durable directories.
pub fn replay(
    data: &Loaded,
    pool: &[Query],
    shards: usize,
    seed: u64,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut replay = Replay {
        data,
        pool,
        seed,
        network: Arc::new(data.ds.network.clone()),
        tr,
        out: Vec::new(),
    };
    let manager = replay.epoch_build();
    let (planned, run_ms) = replay.requests(&manager)?;
    replay.batches(&manager, &run_ms)?;
    replay.shards(shards, &planned, p50(run_ms))?;
    replay.epoch_writes(&manager);
    drop(manager);
    replay.durable(scratch)?;
    replay.join()?;
    Ok(replay.out)
}

struct Replay<'a> {
    data: &'a Loaded,
    pool: &'a [Query],
    seed: u64,
    network: Arc<RoadNetwork>,
    tr: &'a mut Tracer,
    out: Vec<(&'static str, f64)>,
}

impl Replay<'_> {
    fn push(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    fn p50_ms(&self, span: &str) -> f64 {
        p50(self.tr.durations_ms(span))
    }

    fn write_batch(&self, b: usize, acked: &[u64]) -> (Vec<usize>, Vec<u64>) {
        write_batch(self.data.trips(), self.seed, b, acked)
    }

    /// epoch: build a manager, pin snapshots.
    fn epoch_build(&mut self) -> EpochManager {
        let ds = &self.data.ds;
        let network = Arc::clone(&self.network);
        let manager = self.tr.leaf("epoch.build", || {
            EpochManager::new(network, ds.store.clone(), ds.vocab.len())
        });
        const PINS: u32 = 10_000;
        let start = Instant::now();
        self.tr.leaf("epoch.pin_loop", || {
            for _ in 0..PINS {
                black_box(manager.snapshot());
            }
        });
        let pin_ns = start.elapsed().as_nanos() as f64 / f64::from(PINS);
        self.push("epoch.pin_ns", pin_ns);
        self.push("epoch.build_ms", self.p50_ms("epoch.build"));
        manager
    }

    /// serve / planner / engine: one request at a time — parse, pin, plan,
    /// run, render — then the same query under forced algorithms and under
    /// a phase recorder. Returns the planned results and their run times.
    fn requests(&mut self, manager: &EpochManager) -> Result<(Vec<QueryResult>, Vec<f64>), String> {
        let planner = Planner::new();
        let forced_expansion = Planner::forced(AlgorithmKind::Expansion);
        let forced_text_first = Planner::forced(AlgorithmKind::TextFirst);
        let round_robin = Expansion::new(Scheduler::RoundRobin);
        let snapshot = manager.snapshot();
        let mut planned: Vec<QueryResult> = Vec::with_capacity(self.pool.len());
        let mut phase_ns = [0u64; Phase::ALL.len()];
        for (i, query) in self.pool.iter().enumerate() {
            let json_err = |e: serde_json::Error| format!("replay of pool entry {i}: {e}");
            let err = |e| format!("replay of pool entry {i}: {e}");
            let result = self.tr.span("request", Some(i), |tr| {
                tr.leaf("serve.parse", || {
                    black_box(serde_json::from_str::<Content>(&query.body).map(|_| ()))
                })
                .map_err(json_err)?;
                let pinned = tr.leaf("epoch.pin", || manager.snapshot());
                let db = pinned.database();
                tr.leaf("planner.decide", || {
                    black_box(planner.decide(&db, &query.q))
                });
                let result = tr
                    .leaf("engine.run", || planner.run(&db, &query.q))
                    .map_err(err)?;
                tr.leaf("serve.render", || {
                    black_box(serde_json::to_string(&result.serialize()).map(|s| s.len()))
                })
                .map_err(json_err)?;
                Ok::<_, String>(result)
            })?;
            let db = snapshot.database();
            self.tr.span("variants", Some(i), |tr| {
                tr.leaf("engine.expansion", || forced_expansion.run(&db, &query.q))
                    .map_err(err)?;
                tr.leaf("engine.expansion_rr", || round_robin.run(&db, &query.q))
                    .map_err(err)?;
                tr.leaf("engine.textfirst", || forced_text_first.run(&db, &query.q))
                    .map_err(err)?;
                let mut recorder = Recorder::phases_only("replay");
                let recorded = tr
                    .leaf("engine.run_recorded", || {
                        planner.run_recorded(&db, &query.q, &RunControl::unbounded(), &mut recorder)
                    })
                    .map_err(err)?;
                for (slot, phase) in phase_ns.iter_mut().zip(Phase::ALL) {
                    *slot += recorded.metrics.phases.nanos(phase);
                }
                Ok::<_, String>(())
            })?;
            planned.push(result);
        }

        let run_ms = self.tr.durations_ms("engine.run");
        let run_sorted = sorted(run_ms.clone());
        let expansion_ms = self.tr.durations_ms("engine.expansion");
        self.push("serve.parse_us", self.p50_ms("serve.parse") * 1e3);
        self.push("serve.render_us", self.p50_ms("serve.render") * 1e3);
        self.push("planner.decide_us", self.p50_ms("planner.decide") * 1e3);
        self.push("engine.run_p50_ms", percentile(&run_sorted, 0.50));
        self.push("engine.run_p95_ms", percentile(&run_sorted, 0.95));
        self.push(
            "planner.vs_expansion_ms_ratio",
            run_ms.iter().sum::<f64>() / expansion_ms.iter().sum::<f64>(),
        );
        self.push("engine.expansion_p50_ms", p50(expansion_ms));
        self.push(
            "engine.expansion_rr_p50_ms",
            self.p50_ms("engine.expansion_rr"),
        );
        self.push("engine.textfirst_p50_ms", self.p50_ms("engine.textfirst"));
        let n = planned.len().max(1) as f64;
        let per_query =
            |f: fn(&QueryResult) -> usize| planned.iter().map(f).sum::<usize>() as f64 / n;
        let candidates = per_query(|r| r.metrics.candidates);
        let visited = per_query(|r| r.metrics.visited_trajectories);
        let settled = per_query(|r| r.metrics.settled_vertices);
        let heap_pushes = per_query(|r| r.metrics.heap_pushes);
        self.push("engine.visited_per_query", visited);
        self.push("engine.candidates_per_query", candidates);
        self.push("engine.settled_per_query", settled);
        self.push("engine.heap_pushes_per_query", heap_pushes);
        self.push(
            "engine.candidate_ratio",
            candidates / self.data.trips() as f64,
        );
        let phase_total = phase_ns.iter().sum::<u64>().max(1) as f64;
        for (name, phase) in [
            (
                "engine.phase.network_expansion_share",
                Phase::NetworkExpansion,
            ),
            ("engine.phase.text_filter_share", Phase::TextFilter),
            (
                "engine.phase.candidate_refine_share",
                Phase::CandidateRefine,
            ),
            (
                "engine.phase.heap_maintenance_share",
                Phase::HeapMaintenance,
            ),
            ("engine.phase.cache_replay_share", Phase::CacheReplay),
        ] {
            self.push(name, phase_ns[phase.index()] as f64 / phase_total);
        }
        Ok((planned, run_ms))
    }

    /// parallel: the batch executor the service calls, on batches of 16.
    fn batches(&mut self, manager: &EpochManager, run_ms: &[f64]) -> Result<(), String> {
        let snapshot = manager.snapshot();
        let db = snapshot.database();
        let planner = Planner::new();
        let options = BatchOptions {
            policy: BatchPolicy::Partial,
            deadline: None,
            max_batch: Some(1024),
            threads: 0,
        };
        let queries: Vec<UotsQuery> = self.pool.iter().map(|q| q.q.clone()).collect();
        let context = SearchContext::new();
        let in_batches = queries.len() / 16 * 16;
        for batch in queries[..in_batches].chunks(16) {
            let token = CancellationToken::new();
            let results = self
                .tr
                .leaf("parallel.batch16", || {
                    parallel::run_batch_ctx(&db, &planner, batch, &options, &token, &context)
                })
                .map_err(|e| format!("replay batch: {e}"))?;
            if let Some(Err(e)) = results.into_iter().find(Result::is_err) {
                return Err(format!("replay batch: {e}"));
            }
        }
        let batch_ms = self.tr.durations_ms("parallel.batch16");
        self.push("parallel.batch16_ms", median(&batch_ms));
        self.push(
            "parallel.speedup_vs_serial",
            run_ms[..in_batches].iter().sum::<f64>() / batch_ms.iter().sum::<f64>().max(1e-9),
        );
        Ok(())
    }

    /// shard: scatter-gather over a hash-partitioned cluster. Every answer
    /// must equal the unsharded one.
    fn shards(
        &mut self,
        shards: usize,
        planned: &[QueryResult],
        unsharded_p50_ms: f64,
    ) -> Result<(), String> {
        let ds = &self.data.ds;
        let network = Arc::clone(&self.network);
        let planner = Planner::new();
        let cluster = self.tr.leaf("shard.build", || {
            ShardedCluster::new(
                network,
                &ds.store,
                ds.vocab.len(),
                shards,
                Partitioner::Hash,
            )
        });
        let (mut cut, mut cancelled, mut visited) = (0usize, 0usize, 0usize);
        for (i, query) in self.pool.iter().enumerate() {
            let answer = self.tr.span("shard.request", Some(i), |tr| {
                let snapshot = tr.leaf("shard.snapshot", || cluster.snapshot());
                tr.leaf("shard.upper_bound", || {
                    for s in 0..shards {
                        black_box(shard_upper_bound(snapshot.shard(s), &query.q));
                    }
                });
                tr.leaf("shard.search", || snapshot.search(&planner, &query.q))
            });
            let answer = answer.map_err(|e| format!("sharded replay of pool entry {i}: {e}"))?;
            if answer_of(&answer.result).ids != answer_of(&planned[i]).ids {
                return Err(format!(
                    "pool entry {i}: {shards}-shard answer differs from the unsharded answer"
                ));
            }
            cut += answer.shards_cut;
            cancelled += answer.shards_cancelled;
            visited += answer.result.metrics.visited_trajectories;
        }
        let n = self.pool.len().max(1) as f64;
        let shard_runs = n * shards as f64;
        let search_p50 = self.p50_ms("shard.search");
        self.push("shard.search_p50_ms", search_p50);
        self.push(
            "shard.overhead_ratio",
            search_p50 / unsharded_p50_ms.max(1e-9),
        );
        self.push(
            "shard.upper_bound_us",
            self.p50_ms("shard.upper_bound") * 1e3 / shards as f64,
        );
        self.push("shard.snapshot_us", self.p50_ms("shard.snapshot") * 1e3);
        self.push("shard.cut_share", cut as f64 / shard_runs);
        self.push("shard.cancelled_share", cancelled as f64 / shard_runs);
        self.push("shard.visited_sum_per_query", visited as f64 / n);
        Ok(())
    }

    /// epoch: apply + publish on the unsharded manager.
    fn epoch_writes(&mut self, manager: &EpochManager) {
        let mut acked: Vec<u64> = Vec::new();
        for b in 0..REPLAY_WRITE_BATCHES {
            let (inserts, retires) = self.write_batch(b, &acked);
            let batch = mutations(self.data, &inserts, &retires);
            let ids = self.tr.leaf("epoch.apply", || manager.apply(batch));
            acked.extend(ids.into_iter().map(|id| u64::from(id.0)));
            self.tr
                .leaf("epoch.publish", || black_box(manager.publish()));
        }
        self.push("epoch.publish_ms", self.p50_ms("epoch.publish"));
    }

    /// wal / cluster: the sharded durable write path, then recovery of
    /// copies of its directory.
    fn durable(&mut self, scratch: &Path) -> Result<(), String> {
        let ds = &self.data.ds;
        let registry = MetricsRegistry::new();
        let config = WalConfig {
            fsync: FsyncPolicy::parse("batch").expect("`batch` is a policy"),
            ..WalConfig::default()
        };
        let wal_dir = scratch.join("replay-wal");
        let err = |e| format!("durable replay: {e}");
        let network = Arc::clone(&self.network);
        let mut durable = self
            .tr
            .leaf("cluster.create", || {
                ShardedDurable::create(
                    network,
                    &ds.store,
                    &ds.vocab,
                    &wal_dir,
                    2,
                    config,
                    None,
                    Some(&registry),
                )
            })
            .map_err(err)?;
        let before = registry.snapshot();
        let disk_before = dir_bytes(&wal_dir);
        let mut acked: Vec<u64> = Vec::new();
        let (mut retired, mut body_bytes) = (0usize, 0usize);
        for b in 0..REPLAY_WRITE_BATCHES {
            let (inserts, retires) = self.write_batch(b, &acked);
            retired += retires.len();
            body_bytes += inserts
                .iter()
                .map(|&i| self.data.trip_json(i).len())
                .sum::<usize>();
            let batch = mutations(self.data, &inserts, &retires);
            let ids = self
                .tr
                .leaf("cluster.apply", || durable.apply(batch))
                .map_err(err)?;
            acked.extend(ids.into_iter().map(|id| u64::from(id.0)));
            self.tr
                .leaf("cluster.publish", || durable.publish_all().map(|_| ()))
                .map_err(err)?;
        }
        let after = registry.snapshot();
        let counter = |name: &str| {
            (after.counter(name, &[]).unwrap_or(0) - before.counter(name, &[]).unwrap_or(0)) as f64
        };
        let wal_bytes = counter("uots_wal_bytes_total");
        let append_mean_us = after
            .histogram("uots_wal_append_micros", &[])
            .map_or(0.0, |h| h.mean);
        self.push("wal.appends", counter("uots_wal_appends_total"));
        self.push("wal.fsyncs", counter("uots_wal_fsyncs_total"));
        self.push("wal.bytes", wal_bytes);
        self.push("wal.bytes_per_trip", wal_bytes / acked.len().max(1) as f64);
        self.push(
            "wal.disk_bytes_per_ingest_byte",
            (dir_bytes(&wal_dir) - disk_before) as f64 / body_bytes as f64,
        );
        self.push("wal.append_mean_us", append_mean_us);
        self.push("epoch.publishes", counter("uots_epoch_publishes_total"));
        self.push("cluster.apply_p50_ms", self.p50_ms("cluster.apply"));
        drop(durable);

        let expected_live = self.data.trips() + acked.len() - retired;
        let (mut replayed, mut lost) = (0u64, 0usize);
        for r in 0..REPLAY_RECOVERIES {
            let copy = scratch.join(format!("replay-wal-copy-{r}"));
            copy_dir(&wal_dir, &copy).map_err(|e| format!("copying the wal: {e}"))?;
            let (recovered, reports) = self
                .tr
                .leaf("cluster.recover", || {
                    ShardedDurable::open(&copy, 2, config, None, None)
                })
                .map_err(err)?;
            replayed = reports.iter().map(|r| r.replayed_batches).sum();
            lost = lost.max(expected_live.saturating_sub(recovered.snapshot().num_live()));
            drop(recovered);
            let _ = std::fs::remove_dir_all(&copy);
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        self.push(
            "cluster.recover_ms",
            median(&self.tr.durations_ms("cluster.recover")),
        );
        self.push("cluster.replayed_batches", replayed as f64);
        self.push("cluster.acked_lost", lost as f64);
        Ok(())
    }

    /// join: a guard for the `ts_join*` entry points.
    fn join(&mut self) -> Result<(), String> {
        let ds = &self.data.ds;
        let mut subset = TrajectoryStore::new();
        for (_, t) in ds.store.iter().take(JOIN_TRAJECTORIES) {
            subset.push(t.clone());
        }
        let vertex_index = subset.build_vertex_index(ds.network.num_nodes());
        let timestamp_index = subset.build_timestamp_index();
        let config = JoinConfig {
            theta: 0.9,
            ..JoinConfig::default()
        };
        let join = self
            .tr
            .leaf("join.ts_join", || {
                ts_join(
                    &ds.network,
                    &subset,
                    &vertex_index,
                    &timestamp_index,
                    &config,
                    0,
                )
            })
            .map_err(|e| format!("join replay: {e}"))?;
        self.push("join.ts_join_ms", join.runtime.as_secs_f64() * 1e3);
        self.push("join.pairs", join.pairs.len() as f64);
        self.push("join.candidates", join.candidates as f64);
        Ok(())
    }
}
