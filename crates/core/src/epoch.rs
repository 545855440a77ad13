//! Epoch-based live serving: ingest/retire with atomically swapped
//! immutable snapshots.
//!
//! The ROADMAP's north star is a service that ingests trajectories
//! continuously while serving queries. The engine, however, wants frozen
//! CSR indexes — optimal to probe, impossible to update. This module
//! implements the classic resolution, the pattern
//! [`DynamicVertexIndex`] documents: **mutate freely, freeze once per
//! serving epoch**.
//!
//! * [`EpochSnapshot`] — one immutable serving generation: the (append-
//!   only, stably-numbered) [`TrajectoryStore`], a [`LiveSet`] masking
//!   retired trips, and all three inverted indexes built over the live
//!   subset. Queries borrow a [`Database`] from a snapshot `Arc` and are
//!   untouched by later swaps.
//! * [`EpochManager`] — the single-writer ingest path. Mutations batch
//!   into a mutable [`DynamicVertexIndex`] plus the master store/mask;
//!   [`EpochManager::publish`] freezes them into a fresh snapshot and
//!   swaps it in atomically while in-flight readers keep their old `Arc`.
//!
//! ## Interaction with the distance cache
//!
//! The [`crate::DistanceCache`] of a [`crate::SearchContext`] memoizes Dijkstra
//! prefixes keyed **only on the immutable road network** — no trajectory
//! data enters a [`crate::SourcePrefix`]. Every snapshot of one manager
//! shares the *same* `Arc<RoadNetwork>` (publish asserts pointer
//! identity), so a warm cache provably survives epoch swaps; the
//! differential suite exercises warm caches across publishes. All
//! per-epoch derived state (the three indexes, the mask, the stats) lives
//! *inside* the snapshot and drops with its last `Arc` — nothing epoch-
//! tagged can leak into the cross-epoch cache.
//!
//! ## Determinism contract
//!
//! Query results against a snapshot are **bit-identical** to rebuilding a
//! compacted database from the surviving trajectories at that point (ids
//! mapped through the order-preserving compaction of
//! [`LiveSet::compact`]) — the ingest/rebuild differential oracle in the
//! test suite holds this over random interleavings of ingest, retire,
//! publish and query, for all four algorithms, with and without a warm
//! cache, including queries cancelled mid-stream.

use crate::csr::CsrGraph;
use crate::db::LayoutTables;
use crate::Database;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;
use uots_index::{DynamicVertexIndex, KeywordInvertedIndex, TimestampIndex, VertexInvertedIndex};
use uots_network::RoadNetwork;
use uots_obs::{Counter, EventJournal, Gauge, Histogram, MetricsRegistry};
use uots_trajectory::{LiveSet, Trajectory, TrajectoryId, TrajectoryStore};

/// Diagnostic counters describing one published epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// Epoch number (0 = the seed snapshot).
    pub epoch: u64,
    /// Live trajectories in this snapshot.
    pub live: usize,
    /// Total trajectories in the master store (live + retired).
    pub total: usize,
    /// Vertex-index postings over the live subset.
    pub postings: usize,
    /// Mutations (inserts + retires) batched into this epoch's publish.
    pub mutations: u64,
}

/// One immutable serving generation. Cheap to share (`Arc`), never
/// mutated after construction.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    network: Arc<RoadNetwork>,
    store: TrajectoryStore,
    live: LiveSet,
    vertex_index: VertexInvertedIndex<TrajectoryId>,
    keyword_index: KeywordInvertedIndex<TrajectoryId>,
    timestamp_index: TimestampIndex<TrajectoryId>,
    /// Cache-friendly hot-path tables: the shared CSR adjacency (one per
    /// manager — the network never changes across epochs) plus the dense
    /// keyword table rebuilt over this epoch's store revision.
    layout: LayoutTables,
    stats: EpochStats,
}

impl EpochSnapshot {
    #[allow(clippy::too_many_arguments)]
    fn build(
        epoch: u64,
        network: Arc<RoadNetwork>,
        csr: Arc<CsrGraph>,
        vocab_len: usize,
        store: TrajectoryStore,
        live: LiveSet,
        vertex_index: VertexInvertedIndex<TrajectoryId>,
        mutations: u64,
    ) -> Self {
        let keyword_index = store.build_keyword_index_live(vocab_len, &live);
        let timestamp_index = store.build_timestamp_index_live(&live);
        let layout = LayoutTables::build_shared(csr, &store, vocab_len);
        let stats = EpochStats {
            epoch,
            live: live.num_live(),
            total: store.len(),
            postings: vertex_index.num_postings(),
            mutations,
        };
        EpochSnapshot {
            epoch,
            network,
            store,
            live,
            vertex_index,
            keyword_index,
            timestamp_index,
            layout,
            stats,
        }
    }

    /// The epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared road network — identical (`Arc::ptr_eq`) across every
    /// snapshot of one manager; the invariant that keeps the distance
    /// cache valid across swaps.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.network
    }

    /// The master trajectory store (live and retired trips alike; consult
    /// [`live`](Self::live) or go through [`database`](Self::database)).
    pub fn store(&self) -> &TrajectoryStore {
        &self.store
    }

    /// The liveness mask of this epoch.
    pub fn live(&self) -> &LiveSet {
        &self.live
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> EpochStats {
        self.stats
    }

    /// A query-ready [`Database`] borrowing this snapshot: all three
    /// indexes cover exactly the live subset and the liveness mask guards
    /// the store sweeps.
    pub fn database(&self) -> Database<'_> {
        Database::new(&self.network, &self.store, &self.vertex_index)
            .with_keyword_index(&self.keyword_index)
            .with_timestamp_index(&self.timestamp_index)
            .with_live_set(&self.live)
            .with_layout(&self.layout)
    }

    /// The snapshot's hot-path layout tables (shared CSR + dense keyword
    /// table); exposed for benchmarks and layout-differential tests.
    pub fn layout(&self) -> &LayoutTables {
        &self.layout
    }

    /// Rebuilds a compacted dataset of the surviving trajectories from
    /// scratch — the differential oracle's reference side. Returns the
    /// compacted store together with the old → new id map (order-
    /// preserving, see [`LiveSet::compact`]); indexes must be rebuilt by
    /// the caller over the returned store.
    pub fn rebuild_compacted(&self) -> (TrajectoryStore, Vec<Option<TrajectoryId>>) {
        self.live.compact(&self.store)
    }
}

/// A batched ingest-path mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Append a trajectory (live immediately in the *next* published
    /// epoch).
    Insert(Trajectory),
    /// Retire a trajectory by id (a no-op when already retired).
    Retire(TrajectoryId),
}

struct WriterState {
    store: TrajectoryStore,
    live: LiveSet,
    dynamic: DynamicVertexIndex<TrajectoryId>,
    pending: u64,
    last_publish: Instant,
}

struct EpochMetrics {
    publishes: Counter,
    ingested: Counter,
    retired: Counter,
    current_epoch: Gauge,
    live_trajectories: Gauge,
    pending_mutations: Gauge,
    ingest_throughput: Gauge,
    swap_micros: Histogram,
}

impl EpochMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        EpochMetrics {
            publishes: registry.counter("uots_epoch_publishes_total", "Epoch snapshots published"),
            ingested: registry.counter("uots_epoch_ingested_total", "Trajectories ingested"),
            retired: registry.counter("uots_epoch_retired_total", "Trajectories retired"),
            current_epoch: registry.gauge("uots_epoch_current", "Current serving epoch"),
            live_trajectories: registry.gauge(
                "uots_epoch_live_trajectories",
                "Live trajectories in the serving snapshot",
            ),
            pending_mutations: registry.gauge(
                "uots_epoch_pending_mutations",
                "Mutations batched since the last publish",
            ),
            ingest_throughput: registry.gauge(
                "uots_epoch_ingest_throughput_per_s",
                "Mutations per second absorbed over the last publish interval",
            ),
            swap_micros: registry.histogram(
                "uots_epoch_swap_micros",
                "Snapshot publish latency (build + swap), microseconds",
            ),
        }
    }
}

/// The single-writer epoch manager: owns the swap pointer and the batched
/// mutation state. Readers call [`snapshot`](Self::snapshot) (wait-free in
/// practice: one `RwLock` read + `Arc` clone); one logical writer calls
/// [`ingest`](Self::ingest) / [`retire`](Self::retire) and periodically
/// [`publish`](Self::publish). Writer methods are internally serialized by
/// a mutex, so "single writer" is a throughput recommendation, not a
/// safety requirement.
pub struct EpochManager {
    current: RwLock<Arc<EpochSnapshot>>,
    writer: Mutex<WriterState>,
    network: Arc<RoadNetwork>,
    /// CSR adjacency of `network`, built once and shared (`Arc`) by every
    /// snapshot this manager publishes.
    csr: Arc<CsrGraph>,
    vocab_len: usize,
    metrics: EpochMetrics,
    journal: EventJournal,
}

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl EpochManager {
    /// Seeds a manager with epoch 0 = the given store, everything live,
    /// with detached instruments. `vocab_len` sizes the keyword index (as
    /// in [`TrajectoryStore::build_keyword_index`]).
    pub fn new(network: Arc<RoadNetwork>, store: TrajectoryStore, vocab_len: usize) -> Self {
        let live = LiveSet::all_live(store.len());
        Self::from_parts(network, store, live, vocab_len, 0, None, None)
    }

    /// Seeds a manager with every input: a master store with its liveness
    /// mask (retired slots preserved so ids stay stable), the epoch number
    /// to start from, the `registry` the `uots_epoch_*` series (epoch
    /// counter, live/pending gauges, ingest throughput, swap latency
    /// histogram) are registered in, and the `journal` every snapshot swap
    /// is recorded in. A `None` instrument is a detached one nothing reads.
    ///
    /// This is also the crash-recovery constructor: checkpoint + WAL
    /// replay reconstruct `(store, live)`, and the first snapshot must
    /// serve exactly the durable state. Only live trajectories enter the
    /// vertex index — retired ones stay invisible.
    pub fn from_parts(
        network: Arc<RoadNetwork>,
        store: TrajectoryStore,
        live: LiveSet,
        vocab_len: usize,
        epoch: u64,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Self {
        assert_eq!(
            live.len(),
            store.len(),
            "liveness mask must cover the master store"
        );
        let metrics = EpochMetrics::register(&registry.cloned().unwrap_or_default());
        let mut dynamic = DynamicVertexIndex::new(network.num_nodes());
        for (id, t) in store.iter() {
            if live.is_live(id) {
                for v in t.nodes() {
                    dynamic.insert(v, id);
                }
            }
        }
        let csr = Arc::new(CsrGraph::from_network(&network));
        let seed = EpochSnapshot::build(
            epoch,
            Arc::clone(&network),
            Arc::clone(&csr),
            vocab_len,
            store.clone(),
            live.clone(),
            dynamic.freeze(),
            0,
        );
        metrics.current_epoch.set(epoch as i64);
        metrics.live_trajectories.set(seed.stats.live as i64);
        metrics.pending_mutations.set(0);
        EpochManager {
            current: RwLock::new(Arc::new(seed)),
            writer: Mutex::new(WriterState {
                store,
                live,
                dynamic,
                pending: 0,
                last_publish: Instant::now(),
            }),
            network,
            csr,
            vocab_len,
            metrics,
            journal: journal.cloned().unwrap_or_default(),
        }
    }

    /// The current serving snapshot. In-flight queries keep whatever `Arc`
    /// they grabbed; a concurrent publish never invalidates it.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// The shared road network (the cache key space).
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.network
    }

    /// Mutations batched since the last publish.
    pub fn pending(&self) -> u64 {
        lock_ok(&self.writer).pending
    }

    /// Ids issued so far: the master store's length, unpublished ingests
    /// included. [`retire`](Self::retire) accepts exactly the ids below it.
    pub fn issued(&self) -> usize {
        lock_ok(&self.writer).store.len()
    }

    /// Appends a trajectory to the ingest batch and returns its (stable)
    /// id. Invisible to queries until the next [`publish`](Self::publish).
    pub fn ingest(&self, t: Trajectory) -> TrajectoryId {
        let mut w = lock_ok(&self.writer);
        let id = w.store.push(t);
        let new_len = w.store.len();
        w.live.grow_to(new_len);
        let nodes: Vec<_> = w.store.get(id).nodes().collect();
        for v in nodes {
            w.dynamic.insert(v, id);
        }
        w.pending += 1;
        self.metrics.ingested.inc();
        self.metrics.pending_mutations.set(w.pending as i64);
        id
    }

    /// Marks `id` retired in the ingest batch; returns whether it was
    /// live. Still visible to queries until the next publish.
    ///
    /// # Panics
    ///
    /// Panics for an id the master store has never issued.
    pub fn retire(&self, id: TrajectoryId) -> bool {
        let mut w = lock_ok(&self.writer);
        assert!(id.index() < w.store.len(), "retire of unknown id {id}");
        let was_live = w.live.retire(id);
        if was_live {
            let nodes: Vec<_> = w.store.get(id).nodes().collect();
            for v in nodes {
                w.dynamic.remove(v, id);
            }
            w.pending += 1;
            self.metrics.retired.inc();
            self.metrics.pending_mutations.set(w.pending as i64);
        }
        was_live
    }

    /// Applies a batch of mutations in order. Inserted ids are returned in
    /// the order their `Insert`s appeared.
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

    /// Freezes the batched mutations into a fresh immutable snapshot and
    /// swaps it in. In-flight readers keep the previous snapshot; new
    /// [`snapshot`](Self::snapshot) calls observe the new epoch. The write
    /// lock is held only for the pointer swap — index building happens
    /// under the writer mutex, outside any reader-facing lock.
    ///
    /// Publishing with an empty batch is a valid (and cheap) no-op epoch
    /// bump; callers typically gate on [`pending`](Self::pending).
    pub fn publish(&self) -> Arc<EpochSnapshot> {
        let mut w = lock_ok(&self.writer);
        let started = Instant::now();
        let epoch = {
            let cur = self.current.read().unwrap_or_else(|e| e.into_inner());
            cur.epoch + 1
        };
        let snapshot = Arc::new(EpochSnapshot::build(
            epoch,
            Arc::clone(&self.network),
            Arc::clone(&self.csr),
            self.vocab_len,
            w.store.clone(),
            w.live.clone(),
            w.dynamic.freeze(),
            w.pending,
        ));
        let mutations = w.pending;
        let interval = w.last_publish.elapsed();
        w.pending = 0;
        w.last_publish = Instant::now();
        {
            let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
            // the invariant the distance cache's epoch survival rests on:
            // every snapshot serves the *same* road network object
            assert!(
                Arc::ptr_eq(&cur.network, &snapshot.network),
                "epoch swap must not change the road network"
            );
            *cur = Arc::clone(&snapshot);
        }
        self.metrics.publishes.inc();
        self.metrics.current_epoch.set(epoch as i64);
        self.metrics
            .live_trajectories
            .set(snapshot.stats.live as i64);
        self.metrics.pending_mutations.set(0);
        self.metrics
            .swap_micros
            .record(started.elapsed().as_micros() as u64);
        let secs = interval.as_secs_f64();
        if secs > 0.0 {
            self.metrics
                .ingest_throughput
                .set((mutations as f64 / secs) as i64);
        }
        self.journal.info(
            "epoch",
            "snapshot_published",
            &[
                ("epoch", epoch.to_string()),
                ("mutations", mutations.to_string()),
                ("live", snapshot.stats.live.to_string()),
                ("swap_micros", started.elapsed().as_micros().to_string()),
            ],
        );
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Algorithm, BruteForce, Expansion};
    use crate::{DistanceCache, RunControl, SearchContext, UotsQuery};
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_obs::Recorder;
    use uots_text::KeywordSet;
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
            KeywordSet::from_ids(kw.iter().map(|&k| uots_text::KeywordId(k))),
        )
        .unwrap()
    }

    fn manager() -> EpochManager {
        let net = Arc::new(grid_city(&GridCityConfig::tiny(6)).unwrap());
        let mut store = TrajectoryStore::new();
        store.push(traj(&[0, 1, 2], &[1]));
        store.push(traj(&[10, 11], &[2]));
        store.push(traj(&[30, 31, 32], &[1, 3]));
        EpochManager::new(net, store, 8)
    }

    #[test]
    fn ingest_is_invisible_until_publish() {
        let mgr = manager();
        let before = mgr.snapshot();
        let id = mgr.ingest(traj(&[5, 6], &[2]));
        assert_eq!(mgr.pending(), 1);
        assert_eq!(mgr.snapshot().epoch(), 0, "no publish yet");
        assert!(!mgr.snapshot().live().is_live(id) || mgr.snapshot().live().len() <= id.index());
        let after = mgr.publish();
        assert_eq!(after.epoch(), 1);
        assert!(after.live().is_live(id));
        assert_eq!(mgr.pending(), 0);
        // the old snapshot is untouched (readers keep serving it)
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.store().len(), 3);
        assert_eq!(after.store().len(), 4);
    }

    #[test]
    fn retire_hides_trajectory_from_queries_after_publish() {
        let mgr = manager();
        let opts = crate::QueryOptions {
            k: 3,
            ..Default::default()
        };
        let q = UotsQuery::with_options(vec![NodeId(0)], KeywordSet::empty(), Vec::new(), opts)
            .unwrap();
        let snap0 = mgr.snapshot();
        let db0 = snap0.database();
        let r0 = BruteForce.run(&db0, &q).unwrap();
        assert!(r0.ids().contains(&TrajectoryId(0)));

        mgr.retire(TrajectoryId(0));
        let snap1 = mgr.publish();
        let db1 = snap1.database();
        let r1 = BruteForce.run(&db1, &q).unwrap();
        assert!(!r1.ids().contains(&TrajectoryId(0)), "retired id visible");
        // surviving ids keep their numbers — no renumbering on retire
        assert!(r1.ids().contains(&TrajectoryId(1)));
        // double retire is a no-op and does not grow the batch
        assert!(!mgr.retire(TrajectoryId(0)));
        assert_eq!(mgr.pending(), 0);
    }

    #[test]
    fn network_is_pointer_identical_across_swaps() {
        let mgr = manager();
        let a = mgr.snapshot();
        mgr.ingest(traj(&[7], &[]));
        let b = mgr.publish();
        mgr.retire(TrajectoryId(1));
        let c = mgr.publish();
        assert!(Arc::ptr_eq(a.network(), b.network()));
        assert!(Arc::ptr_eq(b.network(), c.network()));
        assert!(Arc::ptr_eq(c.network(), mgr.network()));
    }

    #[test]
    fn warm_cache_survives_epoch_swap() {
        let mgr = manager();
        let cache = Arc::new(DistanceCache::new(1 << 14));
        let ctx = SearchContext::with_cache(Arc::clone(&cache));
        let opts = crate::QueryOptions {
            k: 4,
            ..Default::default()
        };
        let q = UotsQuery::with_options(
            vec![NodeId(0), NodeId(35)],
            KeywordSet::empty(),
            Vec::new(),
            opts,
        )
        .unwrap();

        let cached = |snap: &EpochSnapshot| {
            let (ctl, mut rec) = (RunControl::unbounded(), Recorder::disabled());
            Expansion::default()
                .run_ctx(&snap.database(), &q, &ctl, &mut rec, &ctx)
                .unwrap()
        };
        let snap0 = mgr.snapshot();
        let r0 = cached(&snap0);
        assert!(cache.stats().inserts > 0, "first run warms the cache");

        mgr.ingest(traj(&[20, 21], &[4]));
        mgr.retire(TrajectoryId(1));
        let snap1 = mgr.publish();
        let hits_before = cache.stats().hits;
        let r1 = cached(&snap1);
        assert!(
            cache.stats().hits > hits_before,
            "the post-swap query must replay pre-swap prefixes"
        );
        // and the replayed result is exactly what a cold run produces
        let cold = Expansion::default().run(&snap1.database(), &q).unwrap();
        assert_eq!(r1.ids(), cold.ids());
        // sanity: epochs really did differ
        assert_ne!(r0.ids(), r1.ids());
    }

    #[test]
    fn per_epoch_state_drops_with_the_snapshot() {
        let mgr = manager();
        let old = mgr.snapshot();
        let weak_probe = {
            mgr.ingest(traj(&[3], &[]));
            mgr.publish();
            // `old` + the probe are now the only owners of epoch 0
            Arc::downgrade(&old)
        };
        drop(old);
        assert!(
            weak_probe.upgrade().is_none(),
            "no hidden owner may pin a replaced snapshot's indexes"
        );
    }

    #[test]
    fn metrics_track_ingest_and_swaps() {
        let registry = MetricsRegistry::new();
        let net = Arc::new(grid_city(&GridCityConfig::tiny(4)).unwrap());
        let mut store = TrajectoryStore::new();
        store.push(traj(&[0, 1], &[1]));
        let live = LiveSet::all_live(store.len());
        let mgr = EpochManager::from_parts(net, store, live, 4, 0, Some(&registry), None);
        mgr.ingest(traj(&[2, 3], &[2]));
        mgr.ingest(traj(&[4], &[]));
        mgr.retire(TrajectoryId(0));
        mgr.publish();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("uots_epoch_publishes_total", &[]), Some(1));
        assert_eq!(snap.counter("uots_epoch_ingested_total", &[]), Some(2));
        assert_eq!(snap.counter("uots_epoch_retired_total", &[]), Some(1));
        assert_eq!(snap.gauge("uots_epoch_current", &[]), Some(1));
        assert_eq!(snap.gauge("uots_epoch_live_trajectories", &[]), Some(2));
        assert_eq!(snap.gauge("uots_epoch_pending_mutations", &[]), Some(0));
        let hist = snap
            .histogram("uots_epoch_swap_micros", &[])
            .expect("swap latency recorded");
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn from_parts_serves_exactly_the_mutated_state() {
        let mgr = manager();
        mgr.retire(TrajectoryId(1));
        mgr.ingest(traj(&[8, 9], &[5]));
        let snap = mgr.publish();
        // rebuild a manager from the published master state, as crash
        // recovery does from checkpoint + WAL replay
        let recovered = EpochManager::from_parts(
            Arc::clone(snap.network()),
            snap.store().clone(),
            snap.live().clone(),
            8,
            snap.epoch(),
            None,
            None,
        );
        let rsnap = recovered.snapshot();
        assert_eq!(rsnap.epoch(), 1);
        assert_eq!(rsnap.live(), snap.live());
        let q = UotsQuery::with_options(
            vec![NodeId(0), NodeId(20)],
            KeywordSet::from_ids([uots_text::KeywordId(1), uots_text::KeywordId(5)]),
            Vec::new(),
            crate::QueryOptions {
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let a = Expansion::default().run(&snap.database(), &q).unwrap();
        let b = Expansion::default().run(&rsnap.database(), &q).unwrap();
        assert_eq!(a.ids(), b.ids());
        for (x, y) in a.matches.iter().zip(b.matches.iter()) {
            assert_eq!(x.similarity.to_bits(), y.similarity.to_bits());
        }
        // and the recovered manager keeps working: publish resumes the
        // epoch sequence
        recovered.ingest(traj(&[3, 4], &[2]));
        assert_eq!(recovered.publish().epoch(), 2);
    }

    #[test]
    fn rebuild_compacted_maps_ids_in_order() {
        let mgr = manager();
        mgr.retire(TrajectoryId(1));
        mgr.ingest(traj(&[8, 9], &[5]));
        let snap = mgr.publish();
        let (compacted, map) = snap.rebuild_compacted();
        assert_eq!(compacted.len(), 3);
        assert_eq!(map[0], Some(TrajectoryId(0)));
        assert_eq!(map[1], None);
        assert_eq!(map[2], Some(TrajectoryId(1)));
        assert_eq!(map[3], Some(TrajectoryId(2)));
    }
}
