//! Shared cross-query network-distance cache with landmark-pruned
//! admission.
//!
//! Every UOTS query expands the network from its query locations, and
//! concurrent queries over the same road network repeat the bulk of that
//! shortest-path work. [`DistanceCache`] memoizes, per expansion **source
//! vertex**, the finalized Dijkstra prefix — the settled vertices with
//! their exact `sd(o, v)` distances plus the live frontier — so a later
//! query expanding from the same source *replays* the prefix instead of
//! recomputing it and resumes live Dijkstra from where the cached run
//! stopped.
//!
//! ## Why finalized-only entries are safe
//!
//! A cache entry is a [`SourcePrefix`]: the exact settle sequence of a
//! single-source Dijkstra together with the frontier (tentative distances)
//! and the radius at the moment the snapshot was taken. By Dijkstra's
//! invariant this is a *complete, consistent* description of the
//! computation's state — settled distances are final, every tentative
//! frontier distance equals the best path through the settled set, and
//! absence of a vertex from both sets proves its distance is at least the
//! radius. Replaying a prefix and resuming therefore produces exactly the
//! distances a fresh run would; the search on top stays an exact
//! algorithm, which the differential harness (`tests/differential.rs`)
//! verifies end-to-end. Entries are only **published on clean query
//! completion** — a query interrupted by budget, deadline, or cancellation
//! never publishes (poison-on-cancel), so a torn snapshot can never be
//! observed by a later query.
//!
//! ## Sharding and eviction
//!
//! The cache is a fixed array of mutex-protected shards, indexed by a hash
//! of the source vertex; concurrent queries touching different sources
//! never contend. Capacity is a global budget of *entries* (settled +
//! frontier items); each shard owns an equal slice of it, so the global
//! bound holds by construction. Within a shard, eviction is LRU by a
//! global logical tick. Entries are `Arc`-shared: eviction drops the
//! shard's reference while live readers keep replaying their own — an
//! eviction can never corrupt an in-flight query.
//!
//! ## Landmark admission
//!
//! [`SearchContext`] optionally carries ALT [`Landmarks`]: the engine uses
//! the triangle-inequality lower bound on `d(o, τ)` as a first-class
//! admission filter — a candidate trajectory whose landmark bound already
//! proves it cannot beat the current top-k threshold skips its per-source
//! distance bookkeeping (the cache-backed expansion tracking) entirely,
//! counted in [`CacheStats::bound_prunes`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use uots_network::expansion::{ExpansionState, NetworkExpansion, Settled};
use uots_network::landmarks::Landmarks;
use uots_network::{NodeId, RoadNetwork};
use uots_obs::{Counter, MetricsRegistry};

/// A finalized single-source Dijkstra prefix: everything needed to replay
/// and resume an expansion from `source`.
#[derive(Debug, Clone)]
pub struct SourcePrefix {
    source: NodeId,
    /// Settled vertices in settle order (nondecreasing distance); every
    /// distance is exact.
    settled: Vec<Settled>,
    /// Reached-but-unsettled vertices with tentative distances (see
    /// [`NetworkExpansion::frontier_snapshot`]).
    frontier: Vec<(NodeId, f64)>,
    /// Distance of the last settled vertex: lower bound on every vertex
    /// absent from `settled`.
    radius: f64,
    /// Whether the source's whole component was settled (then absence
    /// proves unreachability).
    exhausted: bool,
}

impl SourcePrefix {
    /// The expansion source this prefix belongs to.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The settled vertices, in settle order.
    pub fn settled(&self) -> &[Settled] {
        &self.settled
    }

    /// Last settled distance.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Whether the whole component was settled.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Entry cost against the cache capacity: settled + frontier items.
    pub fn cost(&self) -> usize {
        self.settled.len() + self.frontier.len()
    }
}

/// Point-in-time counter snapshot of a [`DistanceCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found a usable prefix.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Prefixes accepted into the cache.
    pub inserts: u64,
    /// Prefixes rejected by admission (not better than the resident entry,
    /// or larger than a whole shard).
    pub rejected: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Candidate trajectories pruned by the landmark admission bound
    /// before any cache/expansion bookkeeping.
    pub bound_prunes: u64,
    /// Publications skipped because the producing query was interrupted
    /// (poison-on-cancel).
    pub poisoned: u64,
}

impl CacheStats {
    /// Fraction of probes that hit, in `[0, 1]` (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Optional [`MetricsRegistry`] counter handles, bound at construction.
#[derive(Debug, Clone)]
struct BoundCounters {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    rejected: Counter,
    evictions: Counter,
    bound_prunes: Counter,
    poisoned: Counter,
}

#[derive(Debug)]
struct Entry {
    prefix: Arc<SourcePrefix>,
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<NodeId, Entry>,
    /// Sum of entry costs currently resident in this shard.
    cost: usize,
}

/// Sharded, concurrent, bounded cross-query cache of per-source expansion
/// prefixes. See the module docs for the invariants.
#[derive(Debug)]
pub struct DistanceCache {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard entry budget; the global capacity is `shard_capacity ×
    /// shards.len()` rounded down from the requested capacity.
    shard_capacity: usize,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    rejected: AtomicU64,
    evictions: AtomicU64,
    bound_prunes: AtomicU64,
    poisoned: AtomicU64,
    bound: Option<BoundCounters>,
}

/// Default capacity: one million settled/frontier entries (~16 MiB of
/// distances) — enough to hold full expansions of dozens of sources on a
/// city-scale network.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

const DEFAULT_SHARDS: usize = 16;

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl DistanceCache {
    /// A cache bounded by `capacity` total entries (settled + frontier
    /// items across all shards), with the default shard count.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count. `shards` is clamped so every
    /// shard gets a non-zero slice of `capacity`; the effective global
    /// capacity is `capacity` rounded down to a multiple of the shard
    /// count (never exceeded).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, 256).min(capacity.max(1));
        let shard_capacity = capacity / shards;
        let shards: Vec<Mutex<Shard>> = (0..shards).map(|_| Mutex::new(Shard::default())).collect();
        DistanceCache {
            shards: shards.into_boxed_slice(),
            shard_capacity,
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bound_prunes: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            bound: None,
        }
    }

    /// Like [`new`](Self::new), additionally registering
    /// `uots_distcache_*_total` counters in `registry`; every cache event
    /// increments both the internal statistics and the registry handles.
    pub fn with_metrics(capacity: usize, registry: &MetricsRegistry) -> Self {
        let mut cache = Self::new(capacity);
        let c = |name: &str, help: &str| registry.counter(name, help);
        cache.bound = Some(BoundCounters {
            hits: c("uots_distcache_hits_total", "Distance-cache probe hits"),
            misses: c("uots_distcache_misses_total", "Distance-cache probe misses"),
            inserts: c(
                "uots_distcache_inserts_total",
                "Distance-cache prefixes accepted",
            ),
            rejected: c(
                "uots_distcache_rejected_total",
                "Distance-cache prefixes rejected by admission",
            ),
            evictions: c(
                "uots_distcache_evictions_total",
                "Distance-cache entries evicted",
            ),
            bound_prunes: c(
                "uots_distcache_bound_prunes_total",
                "Candidates pruned by the landmark admission bound",
            ),
            poisoned: c(
                "uots_distcache_poisoned_total",
                "Publications skipped because the query was interrupted",
            ),
        });
        cache
    }

    /// The configured global entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entry cost currently resident across all shards. Always
    /// `<= capacity()`.
    pub fn resident_cost(&self) -> usize {
        self.shards.iter().map(|s| lock_ok(s).cost).sum()
    }

    /// Number of cached source prefixes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_ok(s).map.len()).sum()
    }

    /// Whether no prefix is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn shard_of(&self, source: NodeId) -> &Mutex<Shard> {
        // Fibonacci hashing spreads consecutive vertex ids across shards.
        let h = (u64::from(source.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Looks up the cached prefix for `source`, refreshing its LRU tick.
    pub fn probe(&self, source: NodeId) -> Option<Arc<SourcePrefix>> {
        let mut shard = lock_ok(self.shard_of(source));
        let hit = shard.map.get_mut(&source).map(|e| {
            e.tick = self.tick.fetch_add(1, Ordering::Relaxed);
            Arc::clone(&e.prefix)
        });
        drop(shard);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(b) = &self.bound {
                b.hits.inc();
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(b) = &self.bound {
                b.misses.inc();
            }
        }
        hit
    }

    /// Publishes a finalized prefix. Admission keeps the *larger* of the
    /// resident and offered prefixes for a source, rejects prefixes that
    /// cannot fit a shard, and evicts LRU entries until the newcomer fits.
    /// Returns whether the prefix was accepted.
    pub fn publish(&self, prefix: SourcePrefix) -> bool {
        debug_assert!(
            prefix
                .settled
                .windows(2)
                .all(|w| w[0].dist <= w[1].dist + 1e-12),
            "settle order must be nondecreasing"
        );
        let cost = prefix.cost();
        if cost == 0 || cost > self.shard_capacity {
            self.note_rejected();
            return false;
        }
        let mutex = self.shard_of(prefix.source);
        let mut shard = lock_ok(mutex);
        if let Some(existing) = shard.map.get(&prefix.source) {
            if existing.prefix.settled.len() >= prefix.settled.len() {
                drop(shard);
                self.note_rejected();
                return false;
            }
            // the newcomer supersedes the resident entry
            let old = shard.map.remove(&prefix.source).expect("just observed");
            shard.cost -= old.prefix.cost();
        }
        let mut evicted = 0u64;
        while shard.cost + cost > self.shard_capacity {
            let lru = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
                .expect("cost > 0 implies a resident entry");
            let old = shard.map.remove(&lru).expect("key just found");
            shard.cost -= old.prefix.cost();
            evicted += 1;
        }
        shard.cost += cost;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        shard.map.insert(
            prefix.source,
            Entry {
                prefix: Arc::new(prefix),
                tick,
            },
        );
        drop(shard);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = &self.bound {
            b.inserts.inc();
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if let Some(b) = &self.bound {
                b.evictions.add(evicted);
            }
        }
        true
    }

    /// Drops every cached prefix (live readers keep their `Arc`s). Only a
    /// performance event, never a correctness one — see the mid-batch
    /// clear property test.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let mut shard = lock_ok(s);
            shard.map.clear();
            shard.cost = 0;
        }
    }

    /// Counts one landmark-bound admission prune.
    #[inline]
    pub fn note_bound_prune(&self) {
        self.bound_prunes.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = &self.bound {
            b.bound_prunes.inc();
        }
    }

    /// Counts one publication skipped because the query was interrupted.
    #[inline]
    pub fn note_poisoned(&self) {
        self.poisoned.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = &self.bound {
            b.poisoned.inc();
        }
    }

    fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = &self.bound {
            b.rejected.inc();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bound_prunes: self.bound_prunes.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }
}

/// Cross-query context threaded through every algorithm: an optional
/// shared [`DistanceCache`] and optional ALT [`Landmarks`] for admission
/// pruning. `Default` is the empty context (no cache, no landmarks) —
/// exactly the pre-cache behavior.
///
/// A cluster scatter additionally hands each shard run the query's
/// [`SettleLogs`] and a similarity floor ([`scattered`](Self::scattered)).
#[derive(Debug, Clone, Default)]
pub struct SearchContext {
    cache: Option<Arc<DistanceCache>>,
    landmarks: Option<Arc<Landmarks>>,
    /// The scattered query's logs and this run's floor.
    scatter: Option<(Arc<SettleLogs>, f64)>,
}

impl SearchContext {
    /// The empty context: no cache, no landmarks.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context sharing `cache`.
    pub fn with_cache(cache: Arc<DistanceCache>) -> Self {
        SearchContext {
            cache: Some(cache),
            ..Self::default()
        }
    }

    /// Adds ALT landmarks for admission pruning.
    pub fn with_landmarks(mut self, landmarks: Arc<Landmarks>) -> Self {
        self.landmarks = Some(landmarks);
        self
    }

    /// The shared cache, if any.
    pub fn cache(&self) -> Option<&Arc<DistanceCache>> {
        self.cache.as_ref()
    }

    /// The landmark tables, if any.
    pub fn landmarks(&self) -> Option<&Landmarks> {
        self.landmarks.as_deref()
    }

    /// This context for one shard run of a scattered query: the engine
    /// shares `logs` with the query's other shard runs (one expansion per
    /// query location, see [`SettleLogs`]) and prunes against
    /// `max(local k-th, floor)`. The caller guarantees that at least `k`
    /// trajectories outside this run score `floor` or more, so nothing
    /// strictly below it can enter the merged answer.
    pub fn scattered(&self, logs: &Arc<SettleLogs>, floor: f64) -> Self {
        SearchContext {
            scatter: Some((Arc::clone(logs), floor)),
            ..self.clone()
        }
    }

    /// Whether this is the context of one shard run of a scattered query.
    pub fn is_scattered(&self) -> bool {
        self.scatter.is_some()
    }

    /// The similarity floor of a scattered run; `-∞` otherwise.
    pub fn floor(&self) -> f64 {
        self.scatter
            .as_ref()
            .map_or(f64::NEG_INFINITY, |&(_, floor)| floor)
    }

    /// Whether the context carries neither cache nor landmarks.
    pub fn is_empty(&self) -> bool {
        self.cache.is_none() && self.landmarks.is_none()
    }
}

/// One query location's expansion, parked between the shard runs of a
/// scattered query: the cached prefix it was seeded from, every vertex
/// settled live since, and the expansion that settled them.
#[derive(Debug)]
struct SourceLog {
    exp: ExpansionState,
    base: Option<Arc<SourcePrefix>>,
    fresh: Vec<Settled>,
}

/// The settle logs of one scattered query, one slot per query location.
///
/// Every shard of a cluster serves the same road network, so the shard
/// runs of one query would each repeat the same Dijkstra from the same
/// sources. Instead the first run to need location `i` starts the
/// expansion (probing the [`DistanceCache`] once); when it ends it parks
/// the expansion here together with what it settled, and each later run
/// picks it up through [`CachedSource::for_location`], replays the log
/// from the start and only then settles further. Runs take turns — a slot
/// is empty while a run holds its log.
#[derive(Debug)]
pub struct SettleLogs {
    slots: Vec<Mutex<Option<SourceLog>>>,
    replayed: AtomicU64,
}

impl SettleLogs {
    /// Empty logs for a query with `locations` query locations.
    pub fn new(locations: usize) -> Self {
        SettleLogs {
            slots: (0..locations).map(|_| Mutex::new(None)).collect(),
            replayed: AtomicU64::new(0),
        }
    }

    /// Ends the query: each location's extended prefix is published to
    /// `cache` once, or — when some run was interrupted (`clean == false`)
    /// — poisoned once. Returns how many vertices the runs were delivered
    /// from a log instead of settling them.
    pub fn finish(
        &self,
        net: &RoadNetwork,
        cache: Option<&Arc<DistanceCache>>,
        clean: bool,
    ) -> u64 {
        for slot in &self.slots {
            let (Some(log), Some(cache)) = (lock_ok(slot).take(), cache) else {
                continue;
            };
            let mut src = CachedSource::resumed(net, log, Some(cache));
            if clean {
                src.publish();
            } else {
                src.poison();
            }
        }
        self.replayed.load(Ordering::Relaxed)
    }
}

/// A cache-aware expansion source: replays a cached prefix (if the cache
/// holds one for the source), then continues live Dijkstra, recording the
/// newly settled vertices so the *extended* prefix can be published back
/// on clean completion. Within a scattered query
/// ([`for_location`](Self::for_location)) it also replays what the query's
/// earlier shard runs settled.
///
/// The interface mirrors [`NetworkExpansion`] where the engine consumes
/// it; during replay, `radius()` / `unsettled_lower_bound()` report the
/// **last replayed distance** (not the radius the producer reached):
/// vertices later in the replay have not been delivered yet, so only the
/// replay-local radius is a sound lower bound for the consumer.
pub struct CachedSource<'a> {
    exp: NetworkExpansion<'a>,
    cache: Option<Arc<DistanceCache>>,
    /// Where [`settle`](Self::settle) parks the expansion (scattered
    /// queries only).
    park: Option<(Arc<SettleLogs>, usize)>,
    base: Option<Arc<SourcePrefix>>,
    /// Vertices settled live since `base`, oldest first — kept only when
    /// a cache or a later shard run will read them.
    fresh: Vec<Settled>,
    record: bool,
    /// The replay: `base`'s settled vertices, then the `fresh` ones that
    /// were already there when this consumer started.
    replay_len: usize,
    cursor: usize,
    replay_radius: f64,
    finished: bool,
}

impl<'a> CachedSource<'a> {
    /// Allocates scratch for `net` and starts from `source`, probing
    /// `cache` for a prefix to replay.
    pub fn start(net: &'a RoadNetwork, source: NodeId, cache: Option<&Arc<DistanceCache>>) -> Self {
        let mut s = CachedSource {
            exp: NetworkExpansion::new(net),
            record: cache.is_some(),
            cache: cache.cloned(),
            park: None,
            base: None,
            fresh: Vec::new(),
            replay_len: 0,
            cursor: 0,
            replay_radius: 0.0,
            finished: false,
        };
        s.begin(source);
        s
    }

    /// The source for query location `i` (`source`) of the query `ctx`
    /// belongs to. Outside a scattered query this is [`start`](Self::start)
    /// on the context's cache. Inside one, the first shard run to ask
    /// starts the expansion and every later one resumes it behind a replay
    /// of the location's log; either way [`settle`](Self::settle) parks it
    /// for the next run.
    pub fn for_location(
        net: &'a RoadNetwork,
        ctx: &SearchContext,
        i: usize,
        source: NodeId,
    ) -> Self {
        let Some((logs, _)) = &ctx.scatter else {
            return Self::start(net, source, ctx.cache());
        };
        let mut s = match lock_ok(&logs.slots[i]).take() {
            Some(log) => Self::resumed(net, log, None),
            None => Self::start(net, source, ctx.cache()),
        };
        debug_assert_eq!(s.source(), source);
        s.park = Some((Arc::clone(logs), i));
        s.record = true;
        s
    }

    /// A consumer at the start of a parked log.
    fn resumed(net: &'a RoadNetwork, log: SourceLog, cache: Option<&Arc<DistanceCache>>) -> Self {
        let base_len = log.base.as_ref().map_or(0, |b| b.settled.len());
        CachedSource {
            exp: NetworkExpansion::attach(net, log.exp),
            record: cache.is_some(),
            cache: cache.cloned(),
            park: None,
            replay_len: base_len + log.fresh.len(),
            base: log.base,
            fresh: log.fresh,
            cursor: 0,
            replay_radius: 0.0,
            finished: false,
        }
    }

    /// Restarts from a new source, reusing the scratch buffers (for join
    /// workers that probe many trajectories). Does **not** publish the
    /// previous run — call [`publish`](Self::publish) first if it
    /// completed cleanly.
    pub fn restart(&mut self, source: NodeId) {
        self.begin(source);
    }

    fn begin(&mut self, source: NodeId) {
        self.cursor = 0;
        self.replay_radius = 0.0;
        self.fresh.clear();
        self.finished = false;
        self.base = self.cache.as_ref().and_then(|c| c.probe(source));
        match &self.base {
            Some(prefix) => {
                self.replay_len = prefix.settled.len();
                self.exp.resume(source, &prefix.settled, &prefix.frontier);
            }
            None => {
                self.replay_len = 0;
                self.exp.start(source);
            }
        }
    }

    /// The expansion source.
    pub fn source(&self) -> NodeId {
        self.exp.source()
    }

    /// Whether a cached prefix or a shared log is still being replayed.
    #[inline]
    pub fn in_replay(&self) -> bool {
        self.cursor < self.replay_len
    }

    /// Whether this source started from a cache hit.
    pub fn was_hit(&self) -> bool {
        self.base.is_some()
    }

    /// Next settled vertex: replayed while a replay is pending, then live
    /// Dijkstra.
    #[inline]
    pub fn next_settled(&mut self) -> Option<Settled> {
        if self.cursor < self.replay_len {
            let base = self.base.as_ref().map_or(&[][..], |b| &b.settled);
            let s = match base.get(self.cursor) {
                Some(&s) => s,
                None => self.fresh[self.cursor - base.len()],
            };
            self.cursor += 1;
            self.replay_radius = s.dist;
            return Some(s);
        }
        let s = self.exp.next_settled();
        if let (Some(s), true) = (s, self.record) {
            self.fresh.push(s);
        }
        s
    }

    /// Distance of the most recently delivered vertex — a valid lower
    /// bound on everything not yet delivered (see the type docs for the
    /// replay subtlety).
    #[inline]
    pub fn radius(&self) -> f64 {
        if self.in_replay() {
            self.replay_radius
        } else {
            self.exp.radius()
        }
    }

    /// Lower bound on the distance of any vertex not yet delivered.
    #[inline]
    pub fn unsettled_lower_bound(&self) -> f64 {
        if self.in_replay() {
            self.replay_radius
        } else {
            self.exp.unsettled_lower_bound()
        }
    }

    /// Whether no vertex remains to deliver.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        !self.in_replay() && self.exp.is_exhausted()
    }

    /// Number of vertices delivered so far.
    #[inline]
    pub fn settled_count(&self) -> usize {
        if self.in_replay() {
            self.cursor
        } else {
            self.exp.settled_count()
        }
    }

    /// Pending heap entries of the live expansion (the replay itself has
    /// no frontier cost).
    #[inline]
    pub fn frontier_len(&self) -> usize {
        self.exp.frontier_len()
    }

    /// Exact distance to `v` **after the source has been fully drained**
    /// (all vertices delivered). During replay this also reports vertices
    /// not yet delivered (they are pre-settled in the resumed scratch), so
    /// only drained consumers should call it.
    #[inline]
    pub fn settled_distance(&self, v: NodeId) -> Option<f64> {
        self.exp.settled_distance(v)
    }

    /// Publishes the extended prefix (cached base + fresh settles) back to
    /// the cache. Call **only on clean completion** — an interrupted query
    /// must call [`poison`](Self::poison) instead. No-op without a cache,
    /// when nothing new was settled, or when already published.
    pub fn publish(&mut self) {
        let Some(cache) = self.cache.clone() else {
            return;
        };
        if self.finished {
            return;
        }
        self.finished = true;
        if self.fresh.is_empty() && self.base.is_some() {
            return; // the resident prefix is at least as good
        }
        let mut settled = match &self.base {
            Some(b) => b.settled.clone(),
            None => Vec::with_capacity(self.fresh.len()),
        };
        settled.extend_from_slice(&self.fresh);
        if settled.is_empty() {
            return;
        }
        cache.publish(SourcePrefix {
            source: self.exp.source(),
            settled,
            frontier: self.exp.frontier_snapshot(),
            radius: self.exp.radius(),
            exhausted: self.exp.is_exhausted(),
        });
    }

    /// Marks the run interrupted: nothing is published and the skip is
    /// counted (poison-on-cancel).
    pub fn poison(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if let Some(cache) = &self.cache {
            if !self.fresh.is_empty() {
                cache.note_poisoned();
            }
        }
    }

    /// Ends this consumer's run. Inside a scattered query the expansion is
    /// parked for the query's next shard run, whether or not this run was
    /// interrupted — its settles are final either way, and
    /// [`SettleLogs::finish`] decides about the cache once for the whole
    /// query. Otherwise [`publish`](Self::publish) when `clean`, else
    /// [`poison`](Self::poison).
    pub fn settle(mut self, clean: bool) {
        if let Some((logs, i)) = self.park.take() {
            logs.replayed
                .fetch_add(self.cursor as u64, Ordering::Relaxed);
            *lock_ok(&logs.slots[i]) = Some(SourceLog {
                exp: self.exp.detach(),
                base: self.base,
                fresh: self.fresh,
            });
        } else if clean {
            self.publish();
        } else {
            self.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_network::generators::{grid_city, GridCityConfig};

    fn net() -> uots_network::RoadNetwork {
        grid_city(&GridCityConfig::tiny(6)).unwrap()
    }

    fn drain(src: &mut CachedSource<'_>) -> Vec<Settled> {
        std::iter::from_fn(|| src.next_settled()).collect()
    }

    #[test]
    fn miss_then_hit_replays_identically() {
        let net = net();
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let mut first = CachedSource::start(&net, NodeId(0), Some(&cache));
        assert!(!first.was_hit());
        let a = drain(&mut first);
        first.publish();
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.stats().misses, 1);

        let mut second = CachedSource::start(&net, NodeId(0), Some(&cache));
        assert!(second.was_hit());
        assert!(second.in_replay());
        let b = drain(&mut second);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.dist, y.dist);
        }
    }

    #[test]
    fn partial_prefix_resumes_live_and_republishes_extended() {
        let net = net();
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let mut first = CachedSource::start(&net, NodeId(7), Some(&cache));
        for _ in 0..10 {
            first.next_settled().unwrap();
        }
        first.publish(); // 10 settled vertices cached

        let mut second = CachedSource::start(&net, NodeId(7), Some(&cache));
        let all = drain(&mut second);
        assert_eq!(all.len(), net.num_nodes());
        second.publish();
        // the extended (exhausted) prefix replaced the short one
        let p = cache.probe(NodeId(7)).unwrap();
        assert_eq!(p.settled().len(), net.num_nodes());
        assert!(p.is_exhausted());
    }

    #[test]
    fn replay_radius_is_sound_mid_replay() {
        let net = net();
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let mut first = CachedSource::start(&net, NodeId(0), Some(&cache));
        drain(&mut first);
        first.publish();

        let mut second = CachedSource::start(&net, NodeId(0), Some(&cache));
        let mut last = 0.0;
        while let Some(s) = second.next_settled() {
            assert!(
                second.radius() <= s.dist + 1e-12,
                "radius may never exceed the just-delivered distance"
            );
            assert!(s.dist >= last - 1e-12, "nondecreasing delivery");
            last = s.dist;
            if second.in_replay() {
                assert!(!second.is_exhausted());
            }
        }
        assert!(second.is_exhausted());
    }

    #[test]
    fn settles_are_recorded_only_for_a_reader() {
        let net = net();
        let mut alone = CachedSource::start(&net, NodeId(2), None);
        drain(&mut alone);
        assert!(alone.fresh.is_empty(), "no cache, no log: nothing to keep");
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let mut cached = CachedSource::start(&net, NodeId(2), Some(&cache));
        drain(&mut cached);
        assert_eq!(cached.fresh.len(), net.num_nodes());
    }

    /// The shard runs of a scattered query take turns on one expansion:
    /// each replays what its predecessors settled — with a radius that
    /// trails its *own* cursor — before settling further, and together
    /// they deliver exactly a lone run's sequence.
    #[test]
    fn scattered_runs_share_one_expansion_per_location() {
        let net = net();
        let whole = drain(&mut CachedSource::start(&net, NodeId(4), None));
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let logs = Arc::new(SettleLogs::new(1));
        let ctx = SearchContext::with_cache(Arc::clone(&cache)).scattered(&logs, 0.25);
        assert_eq!(ctx.floor(), 0.25);
        assert_eq!(SearchContext::new().floor(), f64::NEG_INFINITY);

        let mut first = CachedSource::for_location(&net, &ctx, 0, NodeId(4));
        for want in &whole[..10] {
            assert!(!first.in_replay());
            assert_eq!(first.next_settled().as_ref(), Some(want));
        }
        first.settle(true);
        assert_eq!(cache.stats().inserts, 0, "parked, not published");

        // an interrupted run in the middle costs the log nothing
        let mut second = CachedSource::for_location(&net, &ctx, 0, NodeId(4));
        for want in &whole[..10] {
            assert!(second.in_replay() && !second.is_exhausted());
            assert_eq!(second.next_settled().as_ref(), Some(want));
            assert_eq!(second.radius(), want.dist);
            assert_eq!(second.unsettled_lower_bound(), want.dist);
        }
        assert!(!second.in_replay());
        assert_eq!(second.next_settled().as_ref(), Some(&whole[10]));
        second.settle(false);

        let mut third = CachedSource::for_location(&net, &ctx, 0, NodeId(4));
        assert_eq!(drain(&mut third), whole);
        assert!(third.is_exhausted());
        third.settle(true);

        // 10 + 11 replayed deliveries; one probe, one publication
        assert_eq!(logs.finish(&net, ctx.cache(), true), 21);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.inserts), (1, 0, 1));
        let published = cache.probe(NodeId(4)).unwrap();
        assert_eq!(published.settled(), &whole[..]);
        assert!(published.is_exhausted());
    }

    #[test]
    fn poison_publishes_nothing() {
        let net = net();
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let mut src = CachedSource::start(&net, NodeId(3), Some(&cache));
        for _ in 0..5 {
            src.next_settled().unwrap();
        }
        src.poison();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().poisoned, 1);
        // poisoning is final: a later publish on the same run is ignored
        src.publish();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_and_eviction() {
        let cache = DistanceCache::with_shards(8, 1);
        let mk = |id: u32, n: usize| SourcePrefix {
            source: NodeId(id),
            settled: (0..n)
                .map(|i| Settled {
                    node: NodeId(i as u32),
                    dist: i as f64,
                })
                .collect(),
            frontier: vec![],
            radius: n as f64,
            exhausted: false,
        };
        assert!(cache.publish(mk(1, 4)));
        assert!(cache.publish(mk(2, 4)));
        assert_eq!(cache.len(), 2);
        // a third entry evicts the LRU (source 1: source 2 was inserted later)
        assert!(cache.publish(mk(3, 4)));
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_cost() <= cache.capacity());
        assert!(cache.probe(NodeId(1)).is_none());
        assert!(cache.probe(NodeId(3)).is_some());
        // an entry larger than the whole cache is rejected outright
        assert!(!cache.publish(mk(4, 9)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn admission_keeps_the_larger_prefix() {
        let cache = DistanceCache::new(1 << 12);
        let mk = |n: usize| SourcePrefix {
            source: NodeId(9),
            settled: (0..n)
                .map(|i| Settled {
                    node: NodeId(i as u32),
                    dist: i as f64,
                })
                .collect(),
            frontier: vec![],
            radius: n as f64,
            exhausted: false,
        };
        assert!(cache.publish(mk(10)));
        assert!(!cache.publish(mk(5)), "smaller prefix must be rejected");
        assert_eq!(cache.probe(NodeId(9)).unwrap().settled().len(), 10);
        assert!(cache.publish(mk(20)), "larger prefix supersedes");
        assert_eq!(cache.probe(NodeId(9)).unwrap().settled().len(), 20);
    }

    #[test]
    fn clear_keeps_live_readers_valid() {
        let net = net();
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let mut first = CachedSource::start(&net, NodeId(0), Some(&cache));
        drain(&mut first);
        first.publish();

        let mut second = CachedSource::start(&net, NodeId(0), Some(&cache));
        second.next_settled().unwrap();
        cache.clear(); // mid-replay clear
        assert!(cache.is_empty());
        let rest = drain(&mut second);
        assert_eq!(rest.len(), net.num_nodes() - 1, "replay unaffected");
    }

    #[test]
    fn context_emptiness_tracks_the_cache() {
        let ctx = SearchContext::new();
        assert!(ctx.is_empty());
        let ctx = SearchContext::with_cache(Arc::new(DistanceCache::new(64)));
        assert!(!ctx.is_empty());
        assert!(ctx.cache().is_some());
    }
}
