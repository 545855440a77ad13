//! Sharded trajectory store with one top-k run over every shard.
//!
//! ROADMAP item 2: horizontal scale past one store. A [`Cluster`]
//! partitions the trajectory population across `N` independent shards,
//! each an [`EpochManager`] — bare in the volatile [`ShardedCluster`], or
//! behind its own WAL in the root crate's durable cluster. Each shard keeps
//! its own epoch lineage and its own live-built keyword and timestamp
//! indexes; the vertex index is the cut's (see below).
//!
//! ## Partitioning
//!
//! Global trajectory id `g` lives on shard `g % N` at local id `g / N` —
//! the bijection `g = l·N + s`. It is *map-free*: global ↔ (shard, local)
//! conversions are arithmetic, and a cluster seeded from an existing store
//! reproduces the unsharded engine's id sequence exactly (an insert goes to
//! the writable shard holding the smallest unused global id, which equals
//! round-robin on a fresh cluster and self-heals deterministically after
//! per-shard gaps).
//!
//! ## One coordinator
//!
//! [`Cluster`] is the coordinator for every kind of shard unit ([`Shard`]):
//! it alone routes ids, places inserts, splits a batch into per-shard
//! sub-batches, publishes every shard in parallel and swaps the cut
//! readers pin. A shard unit only applies what it is routed,
//! in local ids, and reports whether it still takes inserts.
//!
//! ## One vertex index per cut
//!
//! Every cut carries exactly one vertex index, in global ids
//! ([`ClusterSnapshot::vertex_index`]). At one shard it is the shard's
//! own. At `N ≥ 2` the shards build none (their managers are seeded
//! without, [`EpochManager::from_parts`]): the coordinator builds the
//! cut's from scratch when it is constructed — fresh or recovered — and
//! derives each published cut's from the last one's with the batch since
//! ([`uots_index::InvertedIndex::merged`]), the retired ids taken out and
//! the live inserts put in.
//!
//! ## One run per query over every shard
//!
//! [`ClusterSnapshot::search_ctx`] runs the chosen algorithm **once** per
//! query over the cut's [`View`]: every shard is one *part* of it, with
//! its own store, keyword table, keyword and timestamp indexes and live
//! set. Every shard serves the same road network, so the run expands once
//! per query location and, at each settled vertex, walks the one posting
//! list of the cut's vertex index, in ascending global id — one scan
//! table, one collector, one bound heap, one scheduler and one
//! termination test, all keyed by global id
//! ([`crate::algorithms::Expansion`]). The query's budget covers the run,
//! not each part.
//!
//! A part is **retired** — its postings no longer walked — once its upper
//! bound ([`shard_upper_bound`]) falls strictly below the running k-th
//! score. The bound is the only sound one available without touching
//! trajectory data: `w_s·1 + w_tx·SimT_ub + w_tm·1`, where
//! `SimT_ub = |{q ∈ Q : df_shard(q) > 0}| / |Q|` (a trajectory of the
//! shard can only intersect `Q` on keywords with local postings, and the
//! Jaccard union is `|Q ∪ T| ≥ |Q|`); an empty `Q` bounds at the trivial
//! `1.0`.
//!
//! ## Exactness and determinism
//!
//! Ids are global from the first posting, so the collector's tie-break
//! is the unsharded one ([`crate::Match::ranking_cmp`], ties by ascending
//! *global* id) and nothing is remapped afterwards. A retired part's
//! trajectories satisfy `sim ≤ bound < kth`, and the test is strict, so a
//! part whose bound *equals* the k-th stays walked. Exact answers are
//! therefore bit-identical to the unsharded engine at any shard count; a
//! one-shard cut is the unsharded engine itself (one part, identity map),
//! interrupted runs and their certificates included. The walk visits
//! postings in the unsharded engine's order, so a run that retires no
//! shard does the unsharded run's work, counter for counter. The run is
//! sequential, so the effort counters ([`ShardedAnswer::shards_cut`] /
//! [`ShardedAnswer::shards_cancelled`]) and every count-budgeted answer
//! are functions of the query and the cut alone.

use crate::algorithms::Algorithm;
use crate::budget::RunControl;
use crate::db::{part_upper_bound, IdMap, View};
use crate::epoch::{EpochManager, EpochSnapshot, Mutation};
use crate::result::QueryResult;
use crate::{CoreError, UotsQuery};
use std::sync::{Arc, PoisonError, RwLock};
use uots_index::VertexInvertedIndex;
use uots_network::RoadNetwork;
use uots_obs::{Counter, EventJournal, Gauge, MetricsRegistry, Recorder};
use uots_trajectory::{LiveSet, Trajectory, TrajectoryId, TrajectoryStore};

/// How trajectories are assigned to shards: by hash, the one partitioner
/// (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Global id `g` lives on shard `g % N` at local id `g / N`.
    Hash,
}

/// A write the coordinator refuses before any shard sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A retire named a global id the cluster has not issued.
    UnknownId(TrajectoryId),
    /// Every shard is degraded to read-only, so no insert can be placed.
    NoWritableShard,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownId(g) => write!(f, "unknown global trajectory id {g}"),
            RouteError::NoWritableShard => write!(f, "every shard is degraded to read-only"),
        }
    }
}

impl std::error::Error for RouteError {}

/// One shard of a [`Cluster`]: an [`EpochManager`], possibly behind a
/// durability lineage. It applies what the coordinator routes to it, in
/// local ids; the coordinator alone knows global ids.
pub trait Shard: Send {
    /// What a failed write reports; the coordinator's own refusals
    /// ([`RouteError`]) convert into it.
    type Error: std::error::Error + From<RouteError> + Send;

    /// The shard's manager: issued ids and the published snapshot.
    fn manager(&self) -> &EpochManager;

    /// Whether inserts may be routed here. A shard that cannot take writes
    /// is routed around; its residue class of global ids stops growing.
    fn writable(&self) -> bool {
        true
    }

    /// Applies a batch in local ids; returns the inserts' local ids.
    ///
    /// # Errors
    ///
    /// The unit's refusal; nothing of the batch is applied then.
    fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<TrajectoryId>, Self::Error>;

    /// Publishes the batched mutations as the shard's next snapshot.
    ///
    /// # Errors
    ///
    /// The unit's failure to publish.
    fn publish(&mut self) -> Result<Arc<EpochSnapshot>, Self::Error>;
}

/// The volatile shard unit: the manager itself, which refuses nothing.
impl Shard for EpochManager {
    type Error = RouteError;

    fn manager(&self) -> &EpochManager {
        self
    }

    fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<TrajectoryId>, RouteError> {
        Ok(EpochManager::apply(self, batch))
    }

    fn publish(&mut self) -> Result<Arc<EpochSnapshot>, RouteError> {
        Ok(EpochManager::publish(self))
    }
}

/// Coordinator-level metrics: per-shard live gauges plus query outcome
/// counters, labeled so one exposition covers the whole cluster.
#[derive(Debug)]
struct ClusterMetrics {
    queries: Counter,
    settles_live: Counter,
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
        ClusterMetrics {
            queries: registry.counter(
                "uots_cluster_queries_total",
                "Queries run over a cluster cut",
            ),
            settles_live: registry.counter_with(
                "uots_cluster_settles_total",
                "Vertices settled by cluster queries",
                &[("kind", "live")],
            ),
            shards: (0..shards)
                .map(|s| {
                    let label = s.to_string();
                    let shard = [("shard", label.as_str())];
                    ShardMetrics {
                        cutoffs: registry.counter_with(
                            "uots_cluster_shard_cutoffs_total",
                            "Shards retired from a query: their upper bound fell below its k-th score",
                            &shard,
                        ),
                        cancellations: registry.counter_with(
                            "uots_cluster_shard_cancellations_total",
                            "Shards retired from a query before any of their postings was walked",
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

/// The last **completely** published cut of a coordinator — what readers
/// pin. It is replaced by whole-value assignment once per publish, after
/// every shard of the batch has swapped, so a reader pays a read-lock and
/// an `Arc` clone, never waits out a writer's critical section, and
/// observes the cut before a publish or the one after it — never the
/// per-shard swaps in between. The coordinator owns the cell and alone
/// writes it; [`reader`](Self::reader) hands out read handles.
#[derive(Debug)]
struct CutCell(CutReader);

/// A cloneable read handle to a coordinator's published cut — usable
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
    fn new(cut: ClusterSnapshot) -> Self {
        CutCell(CutReader(Arc::new(RwLock::new(Arc::new(cut)))))
    }

    /// A read handle to this cell.
    fn reader(&self) -> CutReader {
        self.0.clone()
    }

    /// Replaces the published cut.
    fn set(&self, cut: ClusterSnapshot) {
        let mut cell = (self.0).0.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *cell, Arc::new(cut));
        drop(cell);
        // outside the lock: the last reference to a generation frees it
        drop(old);
    }
}

/// `N` hash-partitioned shards behind one global-id coordinator. See the
/// [module docs](self) for the partitioning and the one run per query.
///
/// Single-writer: the writers take `&mut self`. Readers do not need the
/// writer: [`cut`](Self::cut) hands out a [`CutReader`] on the last
/// completely published cut, refreshed at the end of every publish, so a
/// query never queues behind a batch.
pub struct Cluster<S> {
    shards: Vec<S>,
    cut: CutCell,
    metrics: Arc<ClusterMetrics>,
}

/// The volatile cluster: every shard a bare [`EpochManager`].
pub type ShardedCluster = Cluster<EpochManager>;

/// Splits `store` across `num_shards` hash shards: trajectory `g` goes to
/// shard `g % N`, where it receives local id `g / N`.
///
/// One shard is `store` itself. At `N ≥ 2` every trajectory moves into its
/// shard, and only a block that a clone of `store` still shares is copied
/// ([`TrajectoryStore::into_trajectories`]): a caller that keeps its store
/// passes a clone and pays one copy of it, one that does not pays none.
///
/// # Panics
///
/// Panics when `num_shards == 0`.
pub fn partition(store: TrajectoryStore, num_shards: usize) -> Vec<TrajectoryStore> {
    assert!(num_shards >= 1, "a cluster needs at least one shard");
    if num_shards == 1 {
        return vec![store];
    }
    let mut parts: Vec<TrajectoryStore> = (0..num_shards).map(|_| TrajectoryStore::new()).collect();
    for (global, t) in store.into_trajectories().enumerate() {
        parts[global % num_shards].push(t);
    }
    parts
}

impl Cluster<EpochManager> {
    /// Seeds a volatile cluster from `store`, partitioned across
    /// `num_shards` shards, with detached instruments. Seed trajectory `g`
    /// lands on shard `g % N` at local id `g / N`, so global ids reproduce
    /// the unsharded store's ids exactly.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    pub fn new(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab_len: usize,
        num_shards: usize,
        _: Partitioner,
    ) -> Self {
        Self::with_metrics(network, store.clone(), vocab_len, num_shards, None, None)
    }

    /// [`new`](Self::new) with every input: the `registry` that takes the
    /// `uots_cluster_*` series (see [`over`](Self::over)) and every shard's
    /// `uots_epoch_*` series — one family shared by all shards, as the
    /// durable cluster's shards share theirs — and the `journal` every
    /// shard's manager records its swaps in. A `None` instrument is one
    /// detached instrument shared by all shards. The shards take `store`'s
    /// trajectories over rather than copy them (see [`partition`]).
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    pub fn with_metrics(
        network: Arc<RoadNetwork>,
        store: TrajectoryStore,
        vocab_len: usize,
        num_shards: usize,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Self {
        let registry = registry.cloned().unwrap_or_default();
        let journal = journal.cloned().unwrap_or_default();
        let (r, j) = (Some(&registry), Some(&journal));
        let shards = partition(store, num_shards)
            .into_iter()
            .map(|s| {
                let live = LiveSet::all_live(s.len());
                let own = num_shards == 1;
                EpochManager::from_parts(Arc::clone(&network), s, live, vocab_len, 0, own, r, j)
            })
            .collect();
        Self::over(shards, &registry)
    }
}

impl<S: Shard> Cluster<S> {
    /// The coordinator over `shards`, shard `s` holding the global ids
    /// `≡ s (mod N)` at local id `g / N`. Searches of its cuts count into
    /// the `uots_cluster_*` series it registers in `registry` (per-shard
    /// live gauges labeled `shard="<s>"`, query outcome counters); the cut
    /// readers pin starts at the shards' current snapshots, and at `N ≥ 2`
    /// with the cut's vertex index built from scratch over them.
    ///
    /// # Panics
    ///
    /// Panics on an empty shard vector, or when the shards' snapshots do
    /// not leave the vertex index to the cut exactly when `N ≥ 2` (see
    /// [`EpochManager::from_parts`]).
    pub fn over(shards: Vec<S>, registry: &MetricsRegistry) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        let alone = shards.len() == 1;
        assert!(
            (shards.iter()).all(|s| s.manager().snapshot().vertex_index().is_some() == alone),
            "one shard keeps its vertex index, a shard of several leaves it to the cut"
        );
        let metrics = Arc::new(ClusterMetrics::register(registry, shards.len()));
        let cut = CutCell::new(ClusterSnapshot::current(&shards, None, &metrics));
        Cluster {
            shards,
            cut,
            metrics,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s` (tests, status, recovery plumbing).
    pub fn shard(&self, s: usize) -> &S {
        &self.shards[s]
    }

    /// The published cut — one snapshot per shard, as the last publish
    /// left it. A read of the cut cell: no coordinator lock.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot::clone(&self.cut.0.get())
    }

    /// A read handle to the published cut (what
    /// [`snapshot`](Self::snapshot) reads).
    pub fn cut(&self) -> CutReader {
        self.cut.reader()
    }

    /// Each shard's issued-id count, pending inserts included: the
    /// id-assignment source of truth.
    fn issued(&self) -> Vec<u32> {
        self.shards
            .iter()
            .map(|s| s.manager().issued() as u32)
            .collect()
    }

    /// Live trajectories across all shards, unpublished mutations included
    /// (the published count is the cut's [`ClusterSnapshot::num_live`]).
    /// Its move across an [`apply`](Self::apply) is the batch's inserts
    /// minus the retires that hit a live trajectory.
    pub fn num_live(&self) -> usize {
        self.shards.iter().map(|s| s.manager().num_live()).sum()
    }

    /// The writable shard whose next insert receives the smallest unused
    /// global id, given each shard's issued count — the unsharded engine's
    /// sequential assignment while every shard is writable.
    fn insert_shard(&self, issued: &[u32]) -> Result<usize, RouteError> {
        let n = self.shards.len() as u64;
        (0..self.shards.len())
            .filter(|&s| self.shards[s].writable())
            .min_by_key(|&s| u64::from(issued[s]) * n + s as u64)
            .ok_or(RouteError::NoWritableShard)
    }

    /// Splits `batch` into per-shard sub-batches in local ids and returns
    /// them with the inserts' global ids, in batch order. A retire is
    /// checked against the counts that already include the batch's earlier
    /// inserts, so a batch may retire what it inserts.
    fn split(
        &self,
        batch: Vec<Mutation>,
    ) -> Result<(Vec<Vec<Mutation>>, Vec<TrajectoryId>), RouteError> {
        let n = self.shards.len() as u32;
        let mut issued = self.issued();
        let mut subs: Vec<Vec<Mutation>> = self.shards.iter().map(|_| Vec::new()).collect();
        let mut inserted = Vec::new();
        for m in batch {
            match m {
                Mutation::Insert(t) => {
                    let s = self.insert_shard(&issued)?;
                    inserted.push(TrajectoryId(issued[s] * n + s as u32));
                    issued[s] += 1;
                    subs[s].push(Mutation::Insert(t));
                }
                Mutation::Retire(global) => {
                    let (s, local) =
                        locate_in(&issued, global).ok_or(RouteError::UnknownId(global))?;
                    subs[s].push(Mutation::Retire(local));
                }
            }
        }
        Ok((subs, inserted))
    }

    /// Applies a batch (ids in [`Mutation::Retire`] are global) as one
    /// sub-batch per shard it touches; returns the inserts' global ids in
    /// batch order. Invisible to queries until the next
    /// [`publish_all`](Self::publish_all). How many retires hit a live
    /// trajectory is the move of [`num_live`](Self::num_live) short of the
    /// inserts.
    ///
    /// Each sub-batch is as atomic as its shard unit makes it — on a
    /// durable shard, one WAL record written before the shard applies any
    /// of it; the batch is not — on an error, sub-batches already applied
    /// to other shards stay applied, and the error is the first shard's
    /// that failed.
    ///
    /// # Errors
    ///
    /// A [`RouteError`] (nothing applied), or a shard's refusal.
    pub fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<TrajectoryId>, S::Error> {
        let (subs, inserted) = self.split(batch)?;
        for (shard, sub) in self.shards.iter_mut().zip(subs) {
            if !sub.is_empty() {
                shard.apply(sub)?;
            }
        }
        Ok(inserted)
    }

    /// Appends a trajectory and returns its **global** id (see
    /// [`apply`](Self::apply)).
    ///
    /// # Errors
    ///
    /// As [`apply`](Self::apply).
    pub fn ingest(&mut self, t: Trajectory) -> Result<TrajectoryId, S::Error> {
        let ids = self.apply(vec![Mutation::Insert(t)])?;
        Ok(ids[0])
    }

    /// Retires a trajectory by **global** id (a one-mutation
    /// [`apply`](Self::apply)); returns whether it was live.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownId`], or the owning shard's refusal — a retire
    /// cannot be routed around a shard.
    pub fn retire(&mut self, global: TrajectoryId) -> Result<bool, S::Error> {
        let live = self.num_live();
        self.apply(vec![Mutation::Retire(global)])?;
        Ok(self.num_live() < live)
    }

    /// Publishes every shard ([`Shard::publish`]) and returns the fresh
    /// cut, which readers of the [`cut`](Self::cut) see from here on.
    ///
    /// # Errors
    ///
    /// As [`publish_with`](Self::publish_with).
    pub fn publish_all(&mut self) -> Result<ClusterSnapshot, S::Error> {
        self.publish_with(S::publish)
    }

    /// Runs `publish` on every shard in parallel (index building is
    /// per-shard independent), then points the cut readers pin at what the
    /// shards actually published — all of it at once, not shard by shard,
    /// with the cut's vertex index carried over from the last cut's — and
    /// returns that cut.
    ///
    /// # Errors
    ///
    /// The first shard's failure; the cut still moves to what the other
    /// shards published.
    pub fn publish_with<F>(&mut self, publish: F) -> Result<ClusterSnapshot, S::Error>
    where
        F: Fn(&mut S) -> Result<Arc<EpochSnapshot>, S::Error> + Sync,
    {
        let publish = &publish;
        let outcomes: Vec<Result<Arc<EpochSnapshot>, S::Error>> = std::thread::scope(|scope| {
            let (first, rest) = self.shards.split_first_mut().expect("at least one shard");
            let handles: Vec<_> = rest
                .iter_mut()
                .map(|s| scope.spawn(move || publish(s)))
                .collect();
            let mut outcomes = vec![publish(first)];
            outcomes.extend(handles.into_iter().map(|h| match h.join() {
                Ok(outcome) => outcome,
                Err(payload) => std::panic::resume_unwind(payload),
            }));
            outcomes
        });
        let cut = ClusterSnapshot::current(&self.shards, Some(&self.cut.0.get()), &self.metrics);
        self.cut.set(cut.clone());
        outcomes.into_iter().try_for_each(|o| o.map(drop))?;
        Ok(cut)
    }
}

/// The vertex registrations `(v, g)` of shard `s`'s trajectories `locals`
/// in `snap`, in global ids `g = l·N + s`.
fn registrations(
    snap: &EpochSnapshot,
    n: usize,
    s: usize,
    locals: Vec<TrajectoryId>,
) -> impl Iterator<Item = (uots_network::NodeId, TrajectoryId)> + '_ {
    let ids = IdMap {
        stride: n as u32,
        offset: s as u32,
    };
    locals.into_iter().flat_map(move |l| {
        let g = ids.global(l);
        snap.store().get(l).nodes().map(move |v| (v, g))
    })
}

/// The vertex index of `shards`' live trajectories in global ids, built
/// from scratch.
fn cut_vertex_index(shards: &[Arc<EpochSnapshot>]) -> VertexInvertedIndex<TrajectoryId> {
    let num_nodes = shards[0].network().num_nodes();
    let n = shards.len();
    VertexInvertedIndex::build(
        num_nodes,
        (shards.iter().enumerate())
            .flat_map(|(s, snap)| registrations(snap, n, s, snap.live().iter_live().collect())),
    )
}

/// `global`'s shard and local id under `g = l·N + s`, given each shard's
/// issued-id count; `None` for an id not issued yet.
fn locate_in(issued: &[u32], global: TrajectoryId) -> Option<(usize, TrajectoryId)> {
    let n = issued.len() as u32;
    let (s, l) = ((global.0 % n) as usize, global.0 / n);
    (l < issued[s]).then_some((s, TrajectoryId(l)))
}

/// The sound similarity upper bound of every live trajectory of `snap`
/// for `query`: `w_s·1 + w_tx·SimT_ub + w_tm·1` (see the
/// [module docs](self)). A query retires the shard once this falls
/// strictly below its k-th score.
pub fn shard_upper_bound(snap: &EpochSnapshot, query: &UotsQuery) -> f64 {
    part_upper_bound(Some(snap.keyword_index()), query)
}

/// A coordinated answer: the result of the query's one run over the cut
/// plus the coordinator's effort diagnostics (deterministic for a given
/// query and cut).
#[derive(Debug, Clone)]
pub struct ShardedAnswer {
    /// The top-k in global ids, with the run's metrics and certificate.
    pub result: QueryResult,
    /// Shards the run retired: their upper bound fell strictly below its
    /// k-th score, so nothing of them can enter the answer.
    pub shards_cut: usize,
    /// The retired shards none of whose trajectories the run had touched.
    pub shards_cancelled: usize,
}

/// One consistent cut across every shard: per-shard [`EpochSnapshot`]s,
/// shard `s` holding the global ids `≡ s (mod N)`, and the cut's one
/// vertex index. Cheap to clone-share; queries against it are untouched
/// by later publishes.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    shards: Vec<Arc<EpochSnapshot>>,
    /// The vertex index of every shard's live trajectories, in global ids,
    /// at `N ≥ 2`; a one-shard cut reads its shard's own.
    vertex_index: Option<Arc<VertexInvertedIndex<TrajectoryId>>>,
    /// One past the largest global id of the cut.
    id_bound: usize,
    metrics: Arc<ClusterMetrics>,
}

impl ClusterSnapshot {
    /// The cut of `shards`' current snapshots, whose live counts it
    /// publishes to the per-shard gauges. At `N ≥ 2` its vertex index is
    /// `prev`'s plus the batch since, or built from scratch without `prev`.
    fn current<S: Shard>(
        shards: &[S],
        prev: Option<&ClusterSnapshot>,
        metrics: &Arc<ClusterMetrics>,
    ) -> Self {
        let shards: Vec<Arc<EpochSnapshot>> =
            shards.iter().map(|s| s.manager().snapshot()).collect();
        for (snap, series) in shards.iter().zip(&metrics.shards) {
            series.live.set(snap.stats().live as i64);
        }
        let vertex_index = match prev {
            _ if shards.len() == 1 => None,
            None => Some(Arc::new(cut_vertex_index(&shards))),
            Some(prev) => Some(prev.vertex_index_to(&shards)),
        };
        let longest = shards.iter().map(|s| s.store().len()).max().unwrap_or(0);
        ClusterSnapshot {
            id_bound: longest * shards.len(),
            shards,
            vertex_index,
            metrics: Arc::clone(metrics),
        }
    }

    /// This cut's vertex index with the batches applied that took its
    /// shards to `shards` ([`EpochSnapshot::batch_to`]), in global ids;
    /// this cut's own `Arc` when no shard moved.
    fn vertex_index_to(
        &self,
        shards: &[Arc<EpochSnapshot>],
    ) -> Arc<VertexInvertedIndex<TrajectoryId>> {
        let prev = self.vertex_index.as_ref().expect("a cut of several shards");
        let n = shards.len();
        let (mut retired, mut added) = (Vec::new(), Vec::new());
        for (s, (was, now)) in self.shards.iter().zip(shards).enumerate() {
            if Arc::ptr_eq(was, now) {
                continue;
            }
            let (gone, fresh) = was.batch_to(now.store(), now.live());
            retired.extend(registrations(now, n, s, gone));
            added.extend(registrations(now, n, s, fresh));
        }
        if retired.is_empty() && added.is_empty() {
            return Arc::clone(prev);
        }
        Arc::new(prev.merged(retired, added))
    }

    /// The cut's vertex index: every shard's live trajectories, in global
    /// ids — what a search walks once per settled vertex.
    pub fn vertex_index(&self) -> &VertexInvertedIndex<TrajectoryId> {
        match &self.vertex_index {
            Some(cut) => cut,
            None => (self.shards[0].vertex_index()).expect("a lone shard keeps its vertex index"),
        }
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

    /// Shard `s`'s local → global id map.
    fn ids(&self, s: usize) -> IdMap {
        IdMap {
            stride: self.shards.len() as u32,
            offset: s as u32,
        }
    }

    /// Maps a shard-local id to its global id.
    pub fn global_of(&self, shard: usize, local: TrajectoryId) -> TrajectoryId {
        self.ids(shard).global(local)
    }

    /// The read view over the cut: one part per shard and the cut's
    /// vertex index, in global ids.
    pub fn view(&self) -> View<'_> {
        let parts = self.shards.iter().map(|snap| snap.database()).collect();
        View::new(parts, self.vertex_index(), self.id_bound)
    }

    /// [`search_ctx`](Self::search_ctx) without external control: an
    /// unbounded run.
    ///
    /// # Errors
    ///
    /// See [`search_ctx`](Self::search_ctx).
    pub fn search<A: Algorithm + Sync>(
        &self,
        algorithm: &A,
        query: &UotsQuery,
    ) -> Result<ShardedAnswer, CoreError> {
        self.search_ctx(algorithm, query, &RunControl::unbounded())
    }

    /// Top-k over the cut: `algorithm` (the service passes
    /// [`crate::AlgorithmKind::Expansion`]) runs **once** over the cut's
    /// [`view`](Self::view): one expansion per query location, the cut's
    /// one posting list walked per settled vertex (see the
    /// [module docs](self)). The run is under `ctl` and the query's
    /// budget as a whole.
    ///
    /// # Errors
    ///
    /// The run's rejection of the query.
    pub fn search_ctx<A: Algorithm + Sync>(
        &self,
        algorithm: &A,
        query: &UotsQuery,
        ctl: &RunControl,
    ) -> Result<ShardedAnswer, CoreError> {
        let view = self.view();
        let result = algorithm.run_ctx(&view, query, ctl, &mut Recorder::disabled())?;
        self.metrics.queries.inc();
        self.metrics
            .settles_live
            .add(result.metrics.settled_vertices as u64);
        let (mut shards_cut, mut shards_cancelled) = (0, 0);
        for (fate, series) in view.fates().iter().zip(&self.metrics.shards) {
            if fate.retired {
                shards_cut += 1;
                series.cutoffs.inc();
                if !fate.walked {
                    shards_cancelled += 1;
                    series.cancellations.inc();
                }
            }
        }
        Ok(ShardedAnswer {
            result,
            shards_cut,
            shards_cancelled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BruteForce, Expansion};
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

    /// Shard `s` of an `N`-way partition holds exactly the global ids
    /// `≡ s (mod N)`, in order, at local id `g / N`, each equal to the
    /// input's trajectory.
    #[test]
    fn partition_places_every_trajectory_at_its_hash_slot() {
        use uots_datagen::{Dataset, DatasetConfig};
        let ds = Dataset::build(&DatasetConfig::small(75, 9)).unwrap();
        for n in 1..=4 {
            let parts = partition(ds.store.clone(), n);
            assert_eq!(parts.len(), n);
            for (s, part) in parts.iter().enumerate() {
                let expected: Vec<_> = ds
                    .store
                    .iter()
                    .filter(|(g, _)| g.index() % n == s)
                    .collect();
                assert_eq!(part.len(), expected.len(), "shard {s} of {n}");
                for ((l, t), (g, want)) in part.iter().zip(expected) {
                    assert_eq!(
                        l.index(),
                        g.index() / n,
                        "shard {s} of {n}: local id of {g}"
                    );
                    assert_eq!(t, want, "shard {s} of {n}: trajectory {g}");
                }
            }
        }
    }

    /// Where each trajectory's samples live, in id order.
    fn sample_ptrs(store: &TrajectoryStore) -> Vec<*const uots_trajectory::Sample> {
        store.iter().map(|(_, t)| t.samples().as_ptr()).collect()
    }

    #[test]
    fn one_shard_is_the_input_store() {
        let (_, store) = fixture(300);
        let before = sample_ptrs(&store);
        let parts = partition(store, 1);
        assert_eq!(sample_ptrs(&parts[0]), before);
    }

    #[test]
    fn an_unshared_store_is_moved_into_its_shards() {
        let (_, store) = fixture(600); // three blocks, the last one partly filled
        let before = sample_ptrs(&store);
        let parts = partition(store, 4);
        for (s, part) in parts.iter().enumerate() {
            for (l, ptr) in sample_ptrs(part).into_iter().enumerate() {
                assert_eq!(ptr, before[l * 4 + s], "shard {s}, local id {l}");
            }
        }
    }

    #[test]
    fn a_shared_store_is_copied_and_its_clone_left_alone() {
        let (_, store) = fixture(600);
        let before = sample_ptrs(&store);
        let kept = store.clone();
        let parts = partition(store, 4);
        assert_eq!(
            sample_ptrs(&kept),
            before,
            "the clone keeps its trajectories"
        );
        for (s, part) in parts.iter().enumerate() {
            for (l, t) in part.iter() {
                let g = TrajectoryId((l.index() * 4 + s) as u32);
                assert_ne!(t.samples().as_ptr(), before[g.index()], "shard {s}: {g}");
                assert_eq!(t, kept.get(g), "shard {s}: {g}");
            }
        }
    }

    #[test]
    fn hash_bijection_round_trips() {
        let (net, store) = fixture(40);
        let cluster = ShardedCluster::new(net, &store, 8, 4, Partitioner::Hash);
        for g in 0..40u32 {
            let (s, l) = locate_in(&cluster.issued(), TrajectoryId(g)).expect("seeded id");
            assert_eq!(s, (g % 4) as usize);
            assert_eq!(l, TrajectoryId(g / 4));
            let snap = cluster.snapshot();
            assert_eq!(snap.global_of(s, l), TrajectoryId(g));
        }
    }

    #[test]
    fn hash_ingest_reproduces_unsharded_id_sequence() {
        let (net, store) = fixture(13); // deliberately not a multiple of 4
        let mut cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        for i in 0..9u32 {
            let id = cluster.ingest(traj(&[i, i + 1], &[1])).unwrap();
            assert_eq!(id, TrajectoryId(13 + i), "sequential global ids");
        }
        // and they route back to consistent (shard, local) pairs
        for g in 13..22u32 {
            let (s, l) = locate_in(&cluster.issued(), TrajectoryId(g)).expect("ingested id");
            assert_eq!(g % 4, s as u32);
            assert_eq!(g / 4, l.0);
        }
    }

    #[test]
    fn sharded_exact_search_matches_unsharded_engine() {
        let (net, store) = fixture(60);
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let kb = store.build_keyword_blocks();
        let db = crate::Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
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
        for shards in [1, 3, 4] {
            let cluster =
                ShardedCluster::new(Arc::clone(&net), &store, 8, shards, Partitioner::Hash);
            let answer = cluster
                .snapshot()
                .search(&Expansion::default(), &q)
                .unwrap();
            assert!(answer.result.completeness.is_exact());
            assert_eq!(answer.result.ids(), reference.ids(), "{shards} shard(s)");
            for (a, b) in answer.result.matches.iter().zip(reference.matches.iter()) {
                assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
                assert_eq!(a.spatial.to_bits(), b.spatial.to_bits());
                assert_eq!(a.textual.to_bits(), b.textual.to_bits());
            }
        }
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

    /// A one-shard cut hands the caller's context through: the answer of
    /// an interrupted run is the direct run's, certificate and effort
    /// included.
    #[test]
    fn single_shard_cut_is_a_bitwise_passthrough() {
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
    }

    /// Tie-breaking at the k boundary with duplicated scores follows
    /// [`crate::Match::ranking_cmp`]'s total order — ascending global id
    /// among equals — whichever shard holds which tied trajectory.
    #[test]
    fn merge_breaks_score_ties_by_ascending_global_id() {
        use crate::algorithms::TextFirst;
        // id 9 carries both query keywords; every other trajectory is the
        // same trip with one of them, so eleven scores tie exactly for
        // the two slots behind it
        let net = Arc::new(grid_city(&GridCityConfig::tiny(8)).unwrap());
        let mut store = TrajectoryStore::new();
        for id in 0..12u32 {
            store.push(traj(&[5, 6], if id == 9 { &[1, 2] } else { &[1] }));
        }
        let q = UotsQuery::with_options(
            vec![NodeId(5), NodeId(14)],
            KeywordSet::from_ids([KeywordId(1), KeywordId(2)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.5).unwrap(),
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for shards in 1..=4 {
            let cluster =
                ShardedCluster::new(Arc::clone(&net), &store, 4, shards, Partitioner::Hash);
            let cut = cluster.snapshot();
            let runs = [
                cut.search(&BruteForce, &q),
                cut.search(&Expansion::default(), &q),
                cut.search(&TextFirst, &q),
            ];
            for answer in runs {
                let ids: Vec<u32> = answer.unwrap().result.ids().iter().map(|t| t.0).collect();
                assert_eq!(ids, [9, 0, 1], "{shards} shard(s)");
            }
        }
    }

    /// An interrupted answer with fewer than `k` matches certifies against
    /// 0, not against its last match: every missing rank counts as
    /// similarity 0, so every trajectory left out scores at most the gap.
    #[test]
    fn merge_certifies_an_unfilled_answer_against_zero() {
        use crate::ExecutionBudget;
        let (net, store) = fixture(60);
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let kb = store.build_keyword_blocks();
        let db = crate::Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
        let opts = QueryOptions {
            weights: Weights::lambda(0.6).unwrap(),
            k: 10,
            budget: ExecutionBudget::default().with_max_visited(3),
            ..Default::default()
        };
        let q = UotsQuery::with_options(
            vec![NodeId(3), NodeId(40)],
            KeywordSet::from_ids([KeywordId(2)]),
            vec![],
            opts.clone(),
        )
        .unwrap();
        let all = q
            .reoptioned(QueryOptions {
                k: store.len(),
                budget: ExecutionBudget::UNLIMITED,
                ..opts
            })
            .unwrap();
        let oracle = BruteForce.run(&db, &all).unwrap();
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        let r = cluster
            .snapshot()
            .search(&Expansion::default(), &q)
            .unwrap()
            .result;
        assert!(
            r.matches.len() < 10,
            "the budget must leave the answer unfilled"
        );
        let gap = r.completeness.bound_gap();
        assert!(!r.completeness.is_exact() && gap > 0.0);
        for o in oracle.matches.iter().filter(|o| !r.ids().contains(&o.id)) {
            assert!(
                o.similarity <= gap + 1e-12,
                "{} scores {} > {gap}",
                o.id,
                o.similarity
            );
        }
    }

    #[test]
    fn shards_bounded_below_the_floor_are_not_run() {
        // one shard holds the only trajectories with keyword 6; a pure
        // textual query (λ = 0) bounds every other shard at 0, strictly
        // below the k-th score the first shard yields: none of them is
        // ever walked.
        let net = Arc::new(grid_city(&GridCityConfig::tiny(8)).unwrap());
        let mut store = TrajectoryStore::new();
        for i in 0..64u32 {
            let kw = if i % 4 == 0 { 6 } else { 1 };
            store.push(traj(&[i % 60, (i + 3) % 60], &[kw]));
        }
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let kb = store.build_keyword_blocks();
        let db = crate::Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
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

    #[test]
    fn cluster_ingest_retire_publish_tracks_unsharded_manager() {
        let (net, store) = fixture(24);
        let unsharded = EpochManager::new(Arc::clone(&net), store.clone(), 8);
        let mut cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        for i in 0..6u32 {
            let t = traj(&[i + 2, i + 9], &[2]);
            let a = unsharded.ingest(t.clone());
            let b = cluster.ingest(t).unwrap();
            assert_eq!(a, b, "global ids stay in lockstep");
        }
        unsharded.retire(TrajectoryId(3));
        assert!(cluster.retire(TrajectoryId(3)).unwrap());
        assert!(!cluster.retire(TrajectoryId(3)).unwrap(), "already retired");
        assert_eq!(cluster.num_live(), 24 + 6 - 1);
        let snap = unsharded.publish();
        let cut = cluster.publish_all().unwrap();
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
        let answer = cut.search(&Expansion::default(), &q).unwrap();
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
