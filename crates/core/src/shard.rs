//! Sharded trajectory store with pruning-aware scatter-gather top-k.
//!
//! ROADMAP item 2: horizontal scale past one store. A [`ShardedCluster`]
//! partitions the trajectory population across `N` independent
//! [`EpochManager`]s. Each shard keeps its own epoch lineage, its own
//! live-built indexes, and — crucially — its own *planner statistics*, so
//! the per-query algorithm choice stays sound shard-locally (a keyword can
//! be locally absent while globally common; see
//! `planner::keyword_selectivity`).
//!
//! ## Partitioning
//!
//! [`Partitioner::Hash`] assigns global trajectory id `g` to shard
//! `g % N` at local id `g / N` — the bijection `g = l·N + s`. It is
//! *map-free*: global ↔ (shard, local) conversions are arithmetic, and a
//! cluster seeded from an existing store reproduces the unsharded engine's
//! id sequence exactly (ingest picks the shard holding the smallest unused
//! global id, which equals round-robin on a fresh cluster and self-heals
//! deterministically after per-shard gaps).
//!
//! [`Partitioner::SpatialGrid`] routes a trajectory by the grid cell of
//! its first sample, keeping spatially close trajectories on the same
//! shard (the partition-level locality of TISIS-style partitioned
//! similarity search). Routing is table-based (explicit global ↔ local
//! maps, frozen per publish).
//!
//! ## Scatter-gather: one expansion per query, a carried floor
//!
//! [`ClusterSnapshot::search_ctx`] walks the shards **one after another
//! on the calling thread, by descending per-shard upper bound**; each
//! shard runs its own per-query plan against its own snapshot. Two things
//! travel along the walk:
//!
//! * **The settle logs.** Every shard serves the same road network, so
//!   the query owns *one* network expansion per query location
//!   ([`SettleLogs`]): the first shard run extends it, every later run
//!   replays what was settled before settling further. The cluster pays
//!   for the farthest radius any shard needs, not for the sum of them.
//! * **The floor.** The coordinator's running global [`TopK`] holds real
//!   matches of the shards already walked; its k-th score goes into the
//!   next run as a floor ([`SearchContext::scattered`]) and the engine
//!   prunes, retires and terminates against `max(local k-th, floor)`. A
//!   shard whose **upper bound** is strictly below the floor at its turn
//!   is not run at all.
//!
//! The upper bound ([`shard_upper_bound`]) is the only sound one available
//! without touching trajectory data: `w_s·1 + w_tm·1 + w_tx·SimT_ub`,
//! where for Jaccard `SimT_ub = |{q ∈ Q : df_shard(q) > 0}| / |Q|` (a
//! trajectory of the shard can only intersect `Q` on keywords with local
//! postings, and `|Q ∪ T| ≥ |Q|`). Non-Jaccard measures fall back to the
//! trivial `1.0`.
//!
//! ## Exactness and determinism
//!
//! The floor is the k-th score of `k` real trajectories, so it never
//! exceeds the final global k-th. Whatever a run leaves unreported under
//! it — retired, never expanded to, or on a skipped shard — satisfies
//! `sim ≤ ub < floor ≤ kth_final` and cannot enter the answer, not even on
//! the id tie-break; both comparisons are strict, so a bound that *equals*
//! the floor stays live and a shard whose bound equals it still runs. The
//! merged answer is the [`TopK`] of everything reported (the same total
//! order as everywhere else: [`crate::Match::ranking_cmp`], ties by ascending
//! *global* id), hence bit-identical to the unsharded engine for exact
//! runs at any shard count. A 1-shard cut is that walk with one step, no
//! floor and no second reader of the logs, so it skips them: the lone
//! shard runs under the caller's context and its result passes through —
//! bit-identical always, interrupted runs and their certificates included.
//!
//! A shard interrupted by its budget reports real matches plus a gap
//! measured from *its* pruning threshold `max(local k-th, floor)`; the
//! merge certifies its unreported trajectories at `max(worst reported,
//! floor given) + gap`, unless its upper bound ends strictly below the
//! final threshold — then it is **cut** and the certificate does not
//! widen. The walk is sequential, so the floors, the effort counters
//! ([`ShardedAnswer::shards_cut`] / [`ShardedAnswer::shards_cancelled`],
//! per-shard metrics) and every count-budgeted answer are functions of
//! the query and the cut alone.

use crate::algorithms::Algorithm;
use crate::budget::{Completeness, RunControl};
use crate::distcache::{SearchContext, SettleLogs};
use crate::epoch::{EpochManager, EpochSnapshot, Mutation};
use crate::result::QueryResult;
use crate::topk::TopK;
use crate::{CoreError, SearchMetrics, UotsQuery};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;
use uots_network::{Point, RoadNetwork};
use uots_obs::{Counter, EventJournal, Gauge, MetricsRegistry, Recorder};
use uots_text::TextSimilarity;
use uots_trajectory::{LiveSet, Trajectory, TrajectoryId, TrajectoryStore};

/// How trajectories are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Global id `g` lives on shard `g % N` at local id `g / N`
    /// (map-free; reproduces unsharded id assignment).
    Hash,
    /// Route by the grid cell of the trajectory's first sample over the
    /// network's bounding box (`cells_per_axis²` cells, cell → shard by
    /// modulo). Table-based routing; keeps spatially close trajectories
    /// co-resident.
    SpatialGrid {
        /// Grid resolution per axis (≥ 1).
        cells_per_axis: usize,
    },
}

/// Cell router for [`Partitioner::SpatialGrid`].
#[derive(Debug, Clone)]
struct SpatialRouter {
    min_x: f64,
    min_y: f64,
    inv_w: f64,
    inv_h: f64,
    cells: usize,
}

impl SpatialRouter {
    fn new(network: &RoadNetwork, cells_per_axis: usize) -> Self {
        let cells = cells_per_axis.max(1);
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in network.points() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let w = (max_x - min_x).max(f64::MIN_POSITIVE);
        let h = (max_y - min_y).max(f64::MIN_POSITIVE);
        SpatialRouter {
            min_x,
            min_y,
            inv_w: cells as f64 / w,
            inv_h: cells as f64 / h,
            cells,
        }
    }

    fn cell_of(&self, p: Point) -> usize {
        let cx = (((p.x - self.min_x) * self.inv_w) as usize).min(self.cells - 1);
        let cy = (((p.y - self.min_y) * self.inv_h) as usize).min(self.cells - 1);
        cy * self.cells + cx
    }
}

/// Mutable routing state, serialized under one mutex (single logical
/// writer, like [`EpochManager`]'s writer path).
#[derive(Debug)]
struct Routing {
    /// Master-store length of each shard (pending ingests included) — the
    /// id-assignment source of truth.
    next_local: Vec<u32>,
    tables: Option<RoutingTables>,
}

/// Explicit maps for table-based partitioners (spatial grid).
#[derive(Debug)]
struct RoutingTables {
    router: SpatialRouter,
    /// global id → (shard, local id)
    globals: Vec<(u32, TrajectoryId)>,
    /// per shard: local id → global id (frozen into each published cut)
    locals: Vec<Vec<TrajectoryId>>,
}

/// Per-shard local-to-global id mapping carried by a [`ClusterSnapshot`].
#[derive(Debug, Clone)]
enum ShardMap {
    Hash {
        shard: u32,
        shards: u32,
    },
    /// Frozen local → global table (spatial partitioner).
    Table(Arc<Vec<TrajectoryId>>),
}

impl ShardMap {
    #[inline]
    fn global_of(&self, local: TrajectoryId) -> TrajectoryId {
        match self {
            ShardMap::Hash { shard, shards } => TrajectoryId(local.0 * shards + shard),
            ShardMap::Table(t) => t[local.index()],
        }
    }
}

/// Coordinator-level metrics: per-shard live gauges plus scatter-gather
/// outcome counters, labeled so one exposition covers the whole cluster.
#[derive(Debug)]
struct ClusterMetrics {
    queries: Counter,
    settles_live: Counter,
    settles_replayed: Counter,
    shards: Vec<ShardMetrics>,
}

/// The `shard="<s>"`-labelled series of one shard.
#[derive(Debug)]
struct ShardMetrics {
    cutoffs: Counter,
    cancellations: Counter,
    live: Gauge,
}

impl ClusterMetrics {
    fn register(registry: &MetricsRegistry, shards: usize) -> Self {
        let settles = |kind| {
            registry.counter_with(
                "uots_cluster_settles_total",
                "Vertices delivered to shard runs: settled live, or replayed from a log or cache",
                &[("kind", kind)],
            )
        };
        ClusterMetrics {
            queries: registry.counter(
                "uots_cluster_queries_total",
                "Scatter-gather queries coordinated",
            ),
            settles_live: settles("live"),
            settles_replayed: settles("replayed"),
            shards: (0..shards)
                .map(|s| {
                    let label = s.to_string();
                    let shard = [("shard", label.as_str())];
                    ShardMetrics {
                        cutoffs: registry.counter_with(
                            "uots_cluster_shard_cutoffs_total",
                            "Shards whose upper bound proved them irrelevant to a query",
                            &shard,
                        ),
                        cancellations: registry.counter_with(
                            "uots_cluster_shard_cancellations_total",
                            "Shards not run because the floor already exceeded their bound",
                            &shard,
                        ),
                        live: registry.gauge_with(
                            "uots_cluster_shard_live",
                            "Live trajectories per shard",
                            &shard,
                        ),
                    }
                })
                .collect(),
        }
    }
}

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The last **completely** published cut of a coordinator — what readers
/// pin. It is replaced by whole-value assignment once per publish, after
/// every shard of the batch has swapped, so a reader pays a read-lock and
/// an `Arc` clone, never waits out a writer's critical section, and
/// observes the cut before a publish or the one after it — never the
/// per-shard swaps in between. The coordinator owns the cell and alone
/// writes it; [`reader`](Self::reader) hands out read handles.
#[derive(Debug)]
pub struct CutCell(CutReader);

/// A cloneable read handle to a coordinator's [`CutCell`] — usable
/// without the coordinator, e.g. beside the lock a writer sits behind.
#[derive(Debug, Clone)]
pub struct CutReader(Arc<RwLock<Arc<ClusterSnapshot>>>);

impl CutReader {
    /// The published cut. The content is always a whole cut, so a
    /// poisoned lock is read through.
    pub fn get(&self) -> Arc<ClusterSnapshot> {
        Arc::clone(&self.0.read().unwrap_or_else(PoisonError::into_inner))
    }
}

impl CutCell {
    /// A cell holding `cut`.
    pub fn new(cut: ClusterSnapshot) -> Self {
        CutCell(CutReader(Arc::new(RwLock::new(Arc::new(cut)))))
    }

    /// A read handle to this cell.
    pub fn reader(&self) -> CutReader {
        self.0.clone()
    }

    /// The published cut (see [`CutReader::get`]).
    pub fn get(&self) -> Arc<ClusterSnapshot> {
        self.0.get()
    }

    /// Replaces the published cut.
    pub fn set(&self, cut: ClusterSnapshot) {
        let mut cell = (self.0).0.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *cell, Arc::new(cut));
        drop(cell);
        // outside the lock: the last reference to a generation frees it
        drop(old);
    }
}

/// `N` independent epoch-managed shards behind one ingest/search facade.
/// See the [module docs](self) for the partitioning and gather contracts.
pub struct ShardedCluster {
    shards: Vec<EpochManager>,
    partitioner: Partitioner,
    network: Arc<RoadNetwork>,
    routing: Mutex<Routing>,
    cut: CutCell,
    metrics: Arc<ClusterMetrics>,
}

impl ShardedCluster {
    /// Seeds a cluster from `store`, partitioned across `num_shards`
    /// shards, with detached instruments. With [`Partitioner::Hash`], seed
    /// trajectory `g` lands on shard `g % N` at local id `g / N`, so global
    /// ids reproduce the unsharded store's ids exactly.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    pub fn new(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab_len: usize,
        num_shards: usize,
        partitioner: Partitioner,
    ) -> Self {
        Self::with_metrics(
            network,
            store,
            vocab_len,
            num_shards,
            partitioner,
            None,
            None,
        )
    }

    /// [`new`](Self::new) with every input: the `registry` that takes the
    /// `uots_cluster_*` series (per-shard live gauges labeled
    /// `shard="<s>"`, scatter-gather outcome counters) and every shard's
    /// `uots_epoch_*` series — one family shared by all shards, as the
    /// durable cluster's shards share theirs — and the `journal` every
    /// shard's manager records its swaps in. A `None` instrument is one
    /// detached instrument shared by all shards.
    pub fn with_metrics(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab_len: usize,
        num_shards: usize,
        partitioner: Partitioner,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Self {
        assert!(num_shards >= 1, "a cluster needs at least one shard");
        let mut per_shard: Vec<TrajectoryStore> =
            (0..num_shards).map(|_| TrajectoryStore::new()).collect();
        let mut tables = match partitioner {
            Partitioner::Hash => None,
            Partitioner::SpatialGrid { cells_per_axis } => Some(RoutingTables {
                router: SpatialRouter::new(&network, cells_per_axis),
                globals: Vec::with_capacity(store.len()),
                locals: vec![Vec::new(); num_shards],
            }),
        };
        for (global, t) in store.iter() {
            let s = match &tables {
                None => global.index() % num_shards,
                Some(tb) => {
                    let p = network.point(t.samples()[0].node);
                    tb.router.cell_of(p) % num_shards
                }
            };
            let local = per_shard[s].push(t.clone());
            if let Some(tb) = &mut tables {
                tb.globals.push((s as u32, local));
                tb.locals[s].push(global);
            } else {
                debug_assert_eq!(local.index(), global.index() / num_shards);
            }
        }
        let next_local = per_shard.iter().map(|s| s.len() as u32).collect();
        let registry = registry.cloned().unwrap_or_default();
        let journal = journal.cloned().unwrap_or_default();
        let (r, j) = (Some(&registry), Some(&journal));
        let shards: Vec<EpochManager> = per_shard
            .into_iter()
            .map(|s| {
                let live = LiveSet::all_live(s.len());
                EpochManager::from_parts(Arc::clone(&network), s, live, vocab_len, 0, r, j)
            })
            .collect();
        let routing = Routing { next_local, tables };
        let metrics = Arc::new(ClusterMetrics::register(&registry, num_shards));
        let snaps = shards.iter().map(|s| s.snapshot()).collect();
        ShardedCluster {
            cut: CutCell::new(cut_with(snaps, &routing, &metrics)),
            shards,
            partitioner,
            network,
            routing: Mutex::new(routing),
            metrics,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning scheme.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// The shared road network (pointer-identical across every shard and
    /// epoch — the distance-cache survival invariant holds cluster-wide).
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.network
    }

    /// Direct access to a shard's manager (tests, recovery plumbing).
    pub fn shard(&self, s: usize) -> &EpochManager {
        &self.shards[s]
    }

    /// Mutations batched across all shards since the last publish.
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(|s| s.pending()).sum()
    }

    /// Whether `global` is an id this cluster has issued (seeded or
    /// ingested; retired ids remain known).
    pub fn contains(&self, global: TrajectoryId) -> bool {
        let r = lock_ok(&self.routing);
        match &r.tables {
            None => {
                let n = self.shards.len() as u32;
                global.0 / n < r.next_local[(global.0 % n) as usize]
            }
            Some(tb) => global.index() < tb.globals.len(),
        }
    }

    /// Routes `global` to its shard and local id.
    ///
    /// # Panics
    ///
    /// Panics for a global id the cluster has never issued.
    pub fn locate(&self, global: TrajectoryId) -> (usize, TrajectoryId) {
        let r = lock_ok(&self.routing);
        match &r.tables {
            None => {
                let n = self.shards.len() as u32;
                let (s, l) = (global.0 % n, global.0 / n);
                assert!(
                    l < r.next_local[s as usize],
                    "unknown global trajectory id {global}"
                );
                (s as usize, TrajectoryId(l))
            }
            Some(tb) => {
                let (s, l) = tb.globals[global.index()];
                (s as usize, l)
            }
        }
    }

    /// Appends a trajectory and returns its **global** id. Invisible to
    /// queries until the next [`publish_all`](Self::publish_all).
    ///
    /// Hash partitioning assigns the smallest unused global id (the shard
    /// minimizing `l_s·N + s`), which reproduces the unsharded engine's
    /// sequential ids on any `g % N`-consistent cluster state.
    pub fn ingest(&self, t: Trajectory) -> TrajectoryId {
        let mut r = lock_ok(&self.routing);
        let n = self.shards.len();
        match &mut r.tables {
            None => {
                let s = (0..n)
                    .min_by_key(|&s| r.next_local[s] as u64 * n as u64 + s as u64)
                    .expect("at least one shard");
                let global = TrajectoryId(r.next_local[s] * n as u32 + s as u32);
                let local = self.shards[s].ingest(t);
                debug_assert_eq!(local.0, r.next_local[s]);
                r.next_local[s] += 1;
                global
            }
            Some(tb) => {
                let s = tb.router.cell_of(self.network.point(t.samples()[0].node)) % n;
                let global = TrajectoryId(tb.globals.len() as u32);
                let local = self.shards[s].ingest(t);
                debug_assert_eq!(local.index(), tb.locals[s].len());
                tb.globals.push((s as u32, local));
                tb.locals[s].push(global);
                r.next_local[s] += 1;
                global
            }
        }
    }

    /// Retires a trajectory by **global** id; returns whether it was live.
    ///
    /// # Panics
    ///
    /// Panics for an unknown global id.
    pub fn retire(&self, global: TrajectoryId) -> bool {
        let (s, local) = self.locate(global);
        self.shards[s].retire(local)
    }

    /// Applies a batch of mutations in order (ids in [`Mutation::Retire`]
    /// are global). Returns the inserted trajectories' global ids.
    pub fn apply(&self, mutations: impl IntoIterator<Item = Mutation>) -> Vec<TrajectoryId> {
        let mut inserted = Vec::new();
        for m in mutations {
            match m {
                Mutation::Insert(t) => inserted.push(self.ingest(t)),
                Mutation::Retire(id) => {
                    self.retire(id);
                }
            }
        }
        inserted
    }

    /// Publishes every shard (in parallel — index building is per-shard
    /// independent) and returns the consistent cut of the freshly
    /// published snapshots. The build runs under the routing lock — the
    /// writers' lock, which keeps the frozen id maps in step with the
    /// shard snapshots and concurrent publishes in order — and the cut
    /// cell is swapped last: [`snapshot`](Self::snapshot) waits for none
    /// of it and never observes a torn cut.
    pub fn publish_all(&self) -> ClusterSnapshot {
        let r = lock_ok(&self.routing);
        let snaps: Vec<Arc<EpochSnapshot>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|s| scope.spawn(|| s.publish()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(s) => s,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let cut = cut_with(snaps, &r, &self.metrics);
        self.cut.set(cut.clone());
        cut
    }

    /// The current consistent cut — one snapshot per shard plus the
    /// frozen id maps, as the last [`publish_all`](Self::publish_all)
    /// left it. A read of the [cut cell](CutCell): no coordinator lock.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot::clone(&self.cut.get())
    }

    /// A read handle to the published cut (what
    /// [`snapshot`](Self::snapshot) reads).
    pub fn cut(&self) -> CutReader {
        self.cut.reader()
    }
}

/// Assembles a cut from per-shard snapshots taken under the routing
/// lock, freezing the table partitioner's id maps as they stand.
fn cut_with(
    snaps: Vec<Arc<EpochSnapshot>>,
    r: &Routing,
    metrics: &Arc<ClusterMetrics>,
) -> ClusterSnapshot {
    let n = snaps.len() as u32;
    let maps = match &r.tables {
        None => (0..n)
            .map(|s| ShardMap::Hash {
                shard: s,
                shards: n,
            })
            .collect(),
        Some(tb) => tb
            .locals
            .iter()
            .map(|l| ShardMap::Table(Arc::new(l.clone())))
            .collect(),
    };
    ClusterSnapshot::assemble(snaps, maps, Arc::clone(metrics))
}

/// The sound per-shard similarity upper bound used for the walk order,
/// the skip test and cut classification: `w_s·1 + w_tm·1 + w_tx·SimT_ub`.
///
/// For the Jaccard measure with a non-empty query keyword set,
/// `SimT_ub = |{q ∈ Q : df_shard(q) > 0}| / |Q|`: a live trajectory of
/// this shard can only intersect `Q` on keywords that have at least one
/// local posting, and `|Q ∪ T| ≥ |Q|`. Every other configuration (other
/// measures, empty `Q`) falls back to the trivial bound `1.0`. Spatial
/// and temporal channels are bounded trivially — network distances carry
/// no shard-local structure that would be sound to exploit (edge weights
/// need not correlate with geometry).
pub fn shard_upper_bound(snap: &EpochSnapshot, query: &UotsQuery) -> f64 {
    let w = query.options().weights;
    let jaccard = matches!(query.options().text_measure, TextSimilarity::Jaccard);
    let text_ub = if jaccard && !query.keywords().is_empty() {
        match snap.database().keyword_index {
            Some(idx) => {
                let present = query
                    .keywords()
                    .iter()
                    .filter(|&k| idx.document_frequency(k) > 0)
                    .count();
                present as f64 / query.keywords().len() as f64
            }
            None => 1.0,
        }
    } else {
        1.0
    };
    w.spatial + w.temporal + w.textual * text_ub
}

/// A coordinated answer: the merged result plus the coordinator's effort
/// diagnostics (deterministic for a given query and cut).
#[derive(Debug, Clone)]
pub struct ShardedAnswer {
    /// The merged top-k (global ids), with metrics aggregated across all
    /// shards (`runtime` is the scatter's wall clock) and the soundly
    /// widened completeness certificate.
    pub result: QueryResult,
    /// Shards whose upper bound proved they hold nothing above the global
    /// threshold: the [`shards_cancelled`](Self::shards_cancelled) ones
    /// plus every interrupted shard whose bound ended strictly below the
    /// final threshold (its certificate is not needed).
    pub shards_cut: usize,
    /// Shards not run at all: at their turn the floor already exceeded
    /// their upper bound.
    pub shards_cancelled: usize,
    /// The per-shard upper bounds the coordinator worked with.
    pub shard_bounds: Vec<f64>,
}

/// One consistent cut across every shard: per-shard [`EpochSnapshot`]s
/// plus the frozen local → global id maps. Cheap to clone-share; queries
/// against it are untouched by later publishes.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    shards: Vec<Arc<EpochSnapshot>>,
    maps: Vec<ShardMap>,
    metrics: Arc<ClusterMetrics>,
}

impl ClusterSnapshot {
    /// The cut over `shards`, whose live counts it publishes to the
    /// per-shard gauges.
    fn assemble(
        shards: Vec<Arc<EpochSnapshot>>,
        maps: Vec<ShardMap>,
        metrics: Arc<ClusterMetrics>,
    ) -> Self {
        for (snap, series) in shards.iter().zip(&metrics.shards) {
            series.live.set(snap.stats().live as i64);
        }
        ClusterSnapshot {
            shards,
            maps,
            metrics,
        }
    }

    /// Assembles a cut from per-shard snapshots under **hash**
    /// partitioning (shard `s` holds the trajectories whose global id is
    /// `≡ s (mod N)` at local id `g / N`). This is the constructor for
    /// externally managed shards — e.g. the durable facade, where each
    /// shard is owned by its own WAL-backed ingest. Searches of the cut
    /// count into the `uots_cluster_*` series of `registry`, the ones a
    /// [`ShardedCluster`]'s cuts report to (`None`: detached).
    ///
    /// # Panics
    ///
    /// Panics on an empty shard vector.
    pub fn from_hash_shards(
        shards: Vec<Arc<EpochSnapshot>>,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        let n = shards.len() as u32;
        assert!(n >= 1, "a cluster needs at least one shard");
        let maps = (0..n)
            .map(|s| ShardMap::Hash {
                shard: s,
                shards: n,
            })
            .collect();
        let registry = registry.cloned().unwrap_or_default();
        let metrics = ClusterMetrics::register(&registry, shards.len());
        Self::assemble(shards, maps, Arc::new(metrics))
    }

    /// Number of shards in the cut.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s snapshot.
    pub fn shard(&self, s: usize) -> &Arc<EpochSnapshot> {
        &self.shards[s]
    }

    /// Per-shard epoch numbers of this cut.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Live trajectories across all shards.
    pub fn num_live(&self) -> usize {
        self.shards.iter().map(|s| s.stats().live).sum()
    }

    /// Maps a shard-local id to its global id.
    pub fn global_of(&self, shard: usize, local: TrajectoryId) -> TrajectoryId {
        self.maps[shard].global_of(local)
    }

    /// Scatter-gather without external control: unbounded run, empty
    /// context.
    ///
    /// # Errors
    ///
    /// The first shard (in walk order) to reject the query.
    pub fn search<A: Algorithm + Sync>(
        &self,
        algorithm: &A,
        query: &UotsQuery,
    ) -> Result<ShardedAnswer, CoreError> {
        self.search_ctx(
            algorithm,
            query,
            &RunControl::unbounded(),
            &SearchContext::default(),
        )
    }

    /// Scatter-gather top-k: the shards run `algorithm` (typically a
    /// [`crate::Planner`], deciding per-shard) one after another by
    /// descending upper bound (ties by index), sharing one expansion per
    /// query location and each pruning against the k-th score of what the
    /// earlier ones found (see the [module docs](self)). An algorithm may
    /// ignore either (the iknn baseline does); its answer merges the same.
    ///
    /// Every shard runs under `ctl` itself: its deadline and token apply
    /// to the walk as a whole. `ctx`'s cache is probed and published to
    /// once per query location, not once per shard.
    ///
    /// # Errors
    ///
    /// The first shard (in walk order) to reject the query.
    pub fn search_ctx<A: Algorithm + Sync>(
        &self,
        algorithm: &A,
        query: &UotsQuery,
        ctl: &RunControl,
        ctx: &SearchContext,
    ) -> Result<ShardedAnswer, CoreError> {
        let start = Instant::now();
        let n = self.shards.len();
        let bounds: Vec<f64> = self
            .shards
            .iter()
            .map(|s| shard_upper_bound(s, query))
            .collect();
        if n == 1 {
            // The one-shard cut *is* the unsharded search: no floor to
            // carry, nobody to share a settle log with. The caller's `ctx`
            // goes through as is and the result — interrupted runs and
            // their certificates included — comes back with only the ids
            // mapped. Every settle counts as live; what a distance cache
            // replayed is in the cache's own series.
            let db = self.shards[0].database();
            let mut result = algorithm.run_ctx(&db, query, ctl, &mut Recorder::disabled(), ctx)?;
            for m in &mut result.matches {
                m.id = self.maps[0].global_of(m.id);
            }
            self.metrics.queries.inc();
            self.metrics
                .settles_live
                .add(result.metrics.settled_vertices as u64);
            return Ok(ShardedAnswer {
                result,
                shards_cut: 0,
                shards_cancelled: 0,
                shard_bounds: bounds,
            });
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));

        let logs = Arc::new(SettleLogs::new(query.num_locations()));
        let mut running = TopK::new(query.options().k);
        let mut runs: Vec<ShardRun> = Vec::with_capacity(n);
        let mut cancelled: Vec<usize> = Vec::new();
        for s in order {
            let floor = running.threshold();
            if bounds[s] < floor {
                cancelled.push(s);
                continue;
            }
            let db = self.shards[s].database();
            let shard_ctx = ctx.scattered(&logs, floor);
            let mut result =
                algorithm.run_ctx(&db, query, ctl, &mut Recorder::disabled(), &shard_ctx)?;
            for m in &mut result.matches {
                m.id = self.maps[s].global_of(m.id);
                running.offer(*m);
            }
            runs.push(ShardRun {
                shard: s,
                floor,
                result,
            });
        }
        let clean = runs.iter().all(|r| r.result.completeness.is_exact());
        let replayed = logs.finish(self.shards[0].network(), ctx.cache(), clean);

        let (mut result, mut cut) = merge_shard_runs(running, &bounds, runs);
        cut.extend_from_slice(&cancelled);
        result.metrics.runtime = start.elapsed();
        self.metrics.queries.inc();
        self.metrics.settles_replayed.add(replayed);
        self.metrics
            .settles_live
            .add((result.metrics.settled_vertices as u64).saturating_sub(replayed));
        for &s in &cut {
            self.metrics.shards[s].cutoffs.inc();
        }
        for &s in &cancelled {
            self.metrics.shards[s].cancellations.inc();
        }
        Ok(ShardedAnswer {
            result,
            shards_cut: cut.len(),
            shards_cancelled: cancelled.len(),
            shard_bounds: bounds,
        })
    }
}

/// One shard's turn in the walk: what it reported (global ids) under which
/// floor.
struct ShardRun {
    shard: usize,
    floor: f64,
    result: QueryResult,
}

/// The gather: `running` already holds every reported match, `runs` the
/// per-shard results in walk order. Classifies each interrupted shard —
/// **cut** (returned by index) when its upper bound sits strictly below
/// the final threshold, which proves the certificate need not widen;
/// otherwise its unreported trajectories are certified at `max(worst
/// reported, floor given) + gap`, the gap being measured from the run's
/// own pruning threshold.
fn merge_shard_runs(
    running: TopK,
    bounds: &[f64],
    runs: Vec<ShardRun>,
) -> (QueryResult, Vec<usize>) {
    let mut metrics = SearchMetrics::aggregate(runs.iter().map(|r| &r.result.metrics));
    // one logical query, whatever the fan-out
    metrics.queries = 1;

    // an unfilled answer certifies against 0: every missing rank counts
    let threshold = running.threshold();
    let kth = threshold.max(0.0);
    let mut cut = Vec::new();
    let mut gap = 0.0f64;
    for r in runs.iter().filter(|r| !r.result.completeness.is_exact()) {
        if bounds[r.shard] < threshold {
            cut.push(r.shard);
            continue;
        }
        let worst = r.result.matches.last().map_or(0.0, |m| m.similarity);
        let certified = worst.max(r.floor) + r.result.completeness.bound_gap();
        gap = gap.max(certified - kth);
    }
    (
        QueryResult {
            matches: running.into_sorted(),
            metrics,
            completeness: Completeness::from_gap(gap),
        },
        cut,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BruteForce;
    use crate::planner::Planner;
    use crate::result::Match;
    use crate::{QueryOptions, Weights};
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::Sample;

    fn traj(nodes: &[u32], kw: &[u32]) -> Trajectory {
        Trajectory::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample {
                    node: NodeId(v),
                    time: 60.0 * i as f64,
                })
                .collect(),
            KeywordSet::from_ids(kw.iter().map(|&k| KeywordId(k))),
        )
        .unwrap()
    }

    fn fixture(n: usize) -> (Arc<RoadNetwork>, TrajectoryStore) {
        let net = Arc::new(grid_city(&GridCityConfig::tiny(8)).unwrap());
        let mut store = TrajectoryStore::new();
        for i in 0..n as u32 {
            store.push(traj(&[i % 60, (i + 1) % 60, (i + 2) % 60], &[i % 5]));
        }
        (net, store)
    }

    fn m(id: u32, sim: f64) -> Match {
        Match {
            id: TrajectoryId(id),
            similarity: sim,
            spatial: sim,
            textual: 0.0,
            temporal: 0.0,
            order_blend: None,
        }
    }

    fn exact(matches: Vec<Match>) -> QueryResult {
        QueryResult {
            matches,
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        }
    }

    fn best_effort(matches: Vec<Match>, gap: f64) -> QueryResult {
        QueryResult {
            matches,
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::BestEffort { bound_gap: gap },
        }
    }

    #[test]
    fn hash_bijection_round_trips() {
        let (net, store) = fixture(40);
        let cluster = ShardedCluster::new(net, &store, 8, 4, Partitioner::Hash);
        for g in 0..40u32 {
            let (s, l) = cluster.locate(TrajectoryId(g));
            assert_eq!(s, (g % 4) as usize);
            assert_eq!(l, TrajectoryId(g / 4));
            let snap = cluster.snapshot();
            assert_eq!(snap.global_of(s, l), TrajectoryId(g));
        }
    }

    #[test]
    fn hash_ingest_reproduces_unsharded_id_sequence() {
        let (net, store) = fixture(13); // deliberately not a multiple of 4
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        for i in 0..9u32 {
            let id = cluster.ingest(traj(&[i, i + 1], &[1]));
            assert_eq!(id, TrajectoryId(13 + i), "sequential global ids");
        }
        // and they route back to consistent (shard, local) pairs
        for g in 13..22u32 {
            let (s, l) = cluster.locate(TrajectoryId(g));
            assert_eq!(g % 4, s as u32);
            assert_eq!(g / 4, l.0);
        }
    }

    #[test]
    fn sharded_exact_search_matches_unsharded_engine() {
        let (net, store) = fixture(60);
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let db = crate::Database::new(&net, &store, &vidx).with_keyword_index(&kidx);
        let q = UotsQuery::with_options(
            vec![NodeId(3), NodeId(17)],
            KeywordSet::from_ids([KeywordId(2)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.4).unwrap(),
                k: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = BruteForce.run(&db, &q).unwrap();
        for (shards, partitioner) in [
            (1, Partitioner::Hash),
            (4, Partitioner::Hash),
            (3, Partitioner::SpatialGrid { cells_per_axis: 4 }),
        ] {
            let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, shards, partitioner);
            let answer = cluster.snapshot().search(&Planner::new(), &q).unwrap();
            assert!(answer.result.completeness.is_exact());
            assert_eq!(answer.result.ids(), reference.ids(), "{partitioner:?}");
            for (a, b) in answer.result.matches.iter().zip(reference.matches.iter()) {
                assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
                assert_eq!(a.spatial.to_bits(), b.spatial.to_bits());
                assert_eq!(a.textual.to_bits(), b.textual.to_bits());
            }
        }
    }

    #[test]
    fn spatial_partitioner_keeps_global_ids_stable_across_ingest() {
        let (net, store) = fixture(20);
        let cluster = ShardedCluster::new(
            Arc::clone(&net),
            &store,
            8,
            3,
            Partitioner::SpatialGrid { cells_per_axis: 4 },
        );
        let id = cluster.ingest(traj(&[40, 41], &[3]));
        assert_eq!(id, TrajectoryId(20));
        assert!(cluster.retire(TrajectoryId(5)));
        let cut = cluster.publish_all();
        assert_eq!(cut.num_live(), 20); // 20 seed − 1 retired + 1 ingested
                                        // every live global id is reachable through exactly one shard
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..cut.num_shards() {
            let snap = cut.shard(s);
            for l in snap.live().iter_live() {
                assert!(seen.insert(cut.global_of(s, l)));
            }
        }
        assert!(!seen.contains(&TrajectoryId(5)));
        assert!(seen.contains(&TrajectoryId(20)));
    }

    #[test]
    fn upper_bound_reflects_locally_absent_keywords() {
        let (net, store) = fixture(30);
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 1, Partitioner::Hash);
        let snap = cluster.snapshot();
        let q = |kws: &[u32], lambda: f64| {
            UotsQuery::with_options(
                vec![NodeId(0)],
                KeywordSet::from_ids(kws.iter().map(|&k| KeywordId(k))),
                vec![],
                QueryOptions {
                    weights: Weights::lambda(lambda).unwrap(),
                    k: 1,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        // keyword 7 has no postings anywhere: textual channel bounded at 1/2
        let ub = shard_upper_bound(snap.shard(0), &q(&[1, 7], 0.4));
        assert!((ub - (0.4 + 0.6 * 0.5)).abs() < 1e-12, "{ub}");
        // all keywords present: trivial bound
        assert_eq!(shard_upper_bound(snap.shard(0), &q(&[1, 2], 0.4)), 1.0);
        // no keywords: trivial bound
        assert_eq!(shard_upper_bound(snap.shard(0), &q(&[], 0.4)), 1.0);
        // and the bound really is an upper bound on any similarity
        let full = cluster
            .snapshot()
            .search(&BruteForce, &q(&[1, 7], 0.4))
            .unwrap();
        if let Some(best) = full.result.best() {
            assert!(best.similarity <= ub + 1e-12);
        }
    }

    /// Gathers hand-made per-shard results the way the walk does: in the
    /// given order, each under the floor its predecessors left.
    fn merge(k: usize, bounds: &[f64], results: Vec<QueryResult>) -> (QueryResult, usize) {
        let mut running = TopK::new(k);
        let runs = results
            .into_iter()
            .enumerate()
            .map(|(shard, result)| {
                let floor = running.threshold();
                for m in &result.matches {
                    running.offer(*m);
                }
                ShardRun {
                    shard,
                    floor,
                    result,
                }
            })
            .collect();
        let (merged, cut) = merge_shard_runs(running, bounds, runs);
        (merged, cut.len())
    }

    fn gap_of(r: &QueryResult) -> f64 {
        match r.completeness {
            Completeness::BestEffort { bound_gap } => bound_gap,
            Completeness::Exact => panic!("the certificate must widen"),
        }
    }

    /// A one-shard cut hands the caller's context through: the answer of
    /// an interrupted run is the direct run's, certificate and effort
    /// included.
    #[test]
    fn single_shard_cut_is_a_bitwise_passthrough() {
        use crate::algorithms::Expansion;
        use crate::ExecutionBudget;
        let (net, store) = fixture(60);
        let cluster = ShardedCluster::new(net, &store, 8, 1, Partitioner::Hash);
        let cut = cluster.snapshot();
        let q = UotsQuery::with_options(
            vec![NodeId(3), NodeId(17)],
            KeywordSet::from_ids([KeywordId(2)]),
            vec![],
            QueryOptions {
                k: 5,
                budget: ExecutionBudget::default().with_max_visited(4),
                ..Default::default()
            },
        )
        .unwrap();
        let algo = Expansion::default();
        let direct = algo.run(&cut.shard(0).database(), &q).unwrap();
        assert!(!direct.completeness.is_exact(), "the budget must bite");
        let answer = cut.search(&algo, &q).unwrap();
        assert_eq!(answer.result.completeness, direct.completeness);
        assert_eq!(answer.result.matches, direct.matches);
        assert_eq!(
            answer.result.metrics.settled_vertices,
            direct.metrics.settled_vertices
        );
        assert_eq!((answer.shards_cut, answer.shards_cancelled), (0, 0));
        assert_eq!(answer.shard_bounds.len(), 1);
    }

    /// Satellite: tie-breaking at the k boundary with duplicated scores
    /// must follow [`Match::ranking_cmp`]'s total order — ascending global
    /// id among equals — regardless of which shard supplied which match.
    #[test]
    fn merge_breaks_score_ties_by_ascending_global_id() {
        // ids interleave across shards; scores collide exactly at the
        // k-boundary (three 0.5s fighting for two remaining slots)
        let a = exact(vec![m(0, 0.9), m(6, 0.5), m(2, 0.5)]);
        let b = exact(vec![m(5, 0.5), m(1, 0.5), m(9, 0.1)]);
        let (merged, _) = merge(3, &[1.0, 1.0], vec![a.clone(), b.clone()]);
        let ids: Vec<u32> = merged.matches.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "ties at k resolve by ascending id");
        // swapping shard order changes nothing
        let (swapped, _) = merge(3, &[1.0, 1.0], vec![b, a]);
        let ids: Vec<u32> = swapped.matches.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn merge_cuts_best_effort_shards_below_threshold_without_degrading() {
        // shard 0 exact with k=2 filled at threshold 0.6; shard 1
        // interrupted but bounded at 0.4 < 0.6 → cut, answer stays Exact
        let a = exact(vec![m(0, 0.9), m(2, 0.6)]);
        let b = best_effort(vec![m(1, 0.3)], 1.0);
        let (merged, cut) = merge(2, &[1.0, 0.4], vec![a, b]);
        assert_eq!(cut, 1);
        assert!(merged.completeness.is_exact());
        let ids: Vec<u32> = merged.matches.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    /// The certificate fix: an interrupted shard measures its gap from
    /// `max(local k-th, floor)`, so the merge has to certify it from there
    /// too. Certifying from the shard's worst reported match alone (0.3 +
    /// 0.15 = 0.45 ≤ kth) would call this answer exact while a trajectory
    /// scoring up to 0.75 may be missing.
    #[test]
    fn merge_certifies_a_floored_shard_from_its_floor() {
        let a = exact(vec![m(0, 0.9), m(2, 0.6)]);
        let b = best_effort(vec![m(1, 0.3)], 0.15); // ran under floor 0.6
        let (merged, cut) = merge(2, &[1.0, 0.8], vec![a.clone(), b]);
        assert_eq!(cut, 0);
        // certified = max(0.3, 0.6) + 0.15 = 0.75; kth = 0.6 → gap 0.15
        assert!((gap_of(&merged) - 0.15).abs() < 1e-12);
        // walked first, the same shard has no floor: its certificate
        // (0.3 + 0.2 = 0.5) sits below the global kth and the answer
        // collapses back to Exact
        let b = best_effort(vec![m(1, 0.3)], 0.2);
        let (merged, _) = merge(2, &[0.8, 1.0], vec![b, a]);
        assert!(merged.completeness.is_exact());
    }

    /// An answer with fewer than `k` matches certifies against 0, not
    /// against its last match: every missing rank counts as similarity 0.
    #[test]
    fn merge_certifies_an_unfilled_answer_against_zero() {
        let a = exact(vec![m(0, 0.9)]);
        let b = best_effort(vec![], 0.5);
        let (merged, cut) = merge(3, &[1.0, 1.0], vec![a, b]);
        assert_eq!(cut, 0);
        assert!((gap_of(&merged) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shards_bounded_below_the_floor_are_not_run() {
        // one shard holds the only trajectories with keyword 6; a pure
        // textual query (λ = 0) bounds every other shard at 0, strictly
        // below the floor the first shard leaves: none of them runs.
        let net = Arc::new(grid_city(&GridCityConfig::tiny(8)).unwrap());
        let mut store = TrajectoryStore::new();
        for i in 0..64u32 {
            let kw = if i % 4 == 0 { 6 } else { 1 };
            store.push(traj(&[i % 60, (i + 3) % 60], &[kw]));
        }
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let db = crate::Database::new(&net, &store, &vidx).with_keyword_index(&kidx);
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            KeywordSet::from_ids([KeywordId(6)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.0).unwrap(),
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = BruteForce.run(&db, &q).unwrap();
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        let answer = cluster.snapshot().search(&BruteForce, &q).unwrap();
        assert!(answer.result.completeness.is_exact());
        assert_eq!(answer.result.ids(), reference.ids());
        assert_eq!((answer.shards_cut, answer.shards_cancelled), (3, 3));
        // only shard 0's sixteen trajectories were ever touched
        assert_eq!(answer.result.metrics.visited_trajectories, 16);
    }

    /// With a distance cache in the context, a 4-shard query probes and
    /// publishes each query location once — not once per shard — whichever
    /// route drains or expands it, and a repeat replays the published
    /// prefixes.
    #[test]
    fn scattered_query_touches_the_cache_once_per_location() {
        use crate::algorithms::{Expansion, TextFirst};
        use crate::distcache::DistanceCache;
        fn check<A: Algorithm + Sync>(cut: &ClusterSnapshot, q: &UotsQuery, algo: &A) {
            let name = algo.name();
            let want = cut.search(&BruteForce, q).unwrap().result.matches;
            let cache = Arc::new(DistanceCache::new(1 << 16));
            let ctx = SearchContext::with_cache(Arc::clone(&cache));
            let ctl = RunControl::unbounded();
            let cold = cut.search_ctx(algo, q, &ctl, &ctx).unwrap();
            let stats = cache.stats();
            assert_eq!(
                (stats.misses, stats.hits, stats.inserts),
                (3, 0, 3),
                "{name}"
            );
            let warm = cut.search_ctx(algo, q, &ctl, &ctx).unwrap();
            let stats = cache.stats();
            assert_eq!((stats.misses, stats.hits), (3, 3), "{name}: one probe each");
            assert_eq!(stats.poisoned, 0, "{name}");
            assert_eq!(cold.result.matches, want, "{name}");
            assert_eq!(warm.result.matches, want, "{name}");
        }
        let (net, store) = fixture(60);
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        let cut = cluster.snapshot();
        let q = UotsQuery::with_options(
            vec![NodeId(3), NodeId(17), NodeId(40)],
            KeywordSet::from_ids([KeywordId(2)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.4).unwrap(),
                k: 5,
                ..Default::default()
            },
        )
        .unwrap();
        check(&cut, &q, &Expansion::default());
        check(&cut, &q, &TextFirst);
        check(&cut, &q, &BruteForce);
    }

    #[test]
    fn cluster_ingest_retire_publish_tracks_unsharded_manager() {
        let (net, store) = fixture(24);
        let unsharded = EpochManager::new(Arc::clone(&net), store.clone(), 8);
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        for i in 0..6u32 {
            let t = traj(&[i + 2, i + 9], &[2]);
            let a = unsharded.ingest(t.clone());
            let b = cluster.ingest(t);
            assert_eq!(a, b, "global ids stay in lockstep");
        }
        unsharded.retire(TrajectoryId(3));
        cluster.retire(TrajectoryId(3));
        let snap = unsharded.publish();
        let cut = cluster.publish_all();
        assert_eq!(cut.num_live(), snap.stats().live);
        let q = UotsQuery::with_options(
            vec![NodeId(4), NodeId(11)],
            KeywordSet::from_ids([KeywordId(2)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.5).unwrap(),
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = BruteForce.run(&snap.database(), &q).unwrap();
        let answer = cut.search(&Planner::new(), &q).unwrap();
        assert_eq!(answer.result.ids(), reference.ids());
        for (a, b) in answer.result.matches.iter().zip(reference.matches.iter()) {
            assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let (net, store) = fixture(4);
        ShardedCluster::new(net, &store, 8, 0, Partitioner::Hash);
    }
}
