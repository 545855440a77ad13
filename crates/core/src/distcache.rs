//! Shared cross-query network-distance cache.
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use uots_network::expansion::{NetworkExpansion, Settled};
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

/// The cache's event counters: detached, or the registry's
/// `uots_distcache_*_total` handles (see [`DistanceCache::with_metrics`]).
#[derive(Debug, Clone, Default)]
struct Counters {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    rejected: Counter,
    evictions: Counter,
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
    counters: Counters,
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
            counters: Counters::default(),
        }
    }

    /// Like [`new`](Self::new), counting its events in `registry`'s
    /// `uots_distcache_*_total` counters, which [`stats`](Self::stats)
    /// then reads: caches sharing one registry share their statistics.
    pub fn with_metrics(capacity: usize, registry: &MetricsRegistry) -> Self {
        let mut cache = Self::new(capacity);
        let c = |name: &str, help: &str| registry.counter(name, help);
        cache.counters = Counters {
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
            poisoned: c(
                "uots_distcache_poisoned_total",
                "Publications skipped because the query was interrupted",
            ),
        };
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
            self.counters.hits.inc();
        } else {
            self.counters.misses.inc();
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
            self.counters.rejected.inc();
            return false;
        }
        let mutex = self.shard_of(prefix.source);
        let mut shard = lock_ok(mutex);
        if let Some(existing) = shard.map.get(&prefix.source) {
            if existing.prefix.settled.len() >= prefix.settled.len() {
                drop(shard);
                self.counters.rejected.inc();
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
        self.counters.inserts.inc();
        self.counters.evictions.add(evicted);
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

    /// Counts one publication skipped because the query was interrupted.
    #[inline]
    pub fn note_poisoned(&self) {
        self.counters.poisoned.inc();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            hits: c.hits.get(),
            misses: c.misses.get(),
            inserts: c.inserts.get(),
            rejected: c.rejected.get(),
            evictions: c.evictions.get(),
            poisoned: c.poisoned.get(),
        }
    }
}

/// Cross-query context threaded through every algorithm: an optional
/// shared [`DistanceCache`]. `Default` is the empty context (no cache) —
/// exactly the pre-cache behavior.
#[derive(Debug, Clone, Default)]
pub struct SearchContext {
    cache: Option<Arc<DistanceCache>>,
}

impl SearchContext {
    /// The empty context: no cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context sharing `cache`.
    pub fn with_cache(cache: Arc<DistanceCache>) -> Self {
        SearchContext { cache: Some(cache) }
    }

    /// The shared cache, if any.
    pub fn cache(&self) -> Option<&Arc<DistanceCache>> {
        self.cache.as_ref()
    }
}

/// A cache-aware expansion source: replays a cached prefix (if the cache
/// holds one for the source), then continues live Dijkstra, recording the
/// newly settled vertices so the *extended* prefix can be published back
/// on clean completion.
///
/// The interface mirrors [`NetworkExpansion`] where the engine consumes
/// it; during replay, `radius()` / `unsettled_lower_bound()` report the
/// **last replayed distance** (not the radius the producer reached):
/// vertices later in the replay have not been delivered yet, so only the
/// replay-local radius is a sound lower bound for the consumer.
pub struct CachedSource<'a> {
    exp: NetworkExpansion<'a>,
    cache: Option<Arc<DistanceCache>>,
    base: Option<Arc<SourcePrefix>>,
    /// Vertices settled live since `base`, oldest first — kept only when
    /// a cache will read them.
    fresh: Vec<Settled>,
    /// Length of the replay: `base`'s settled vertices (0 without one).
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
            cache: cache.cloned(),
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

    /// Whether a cached prefix is still being replayed.
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
            let base = self.base.as_ref().expect("a replay has a base");
            let s = base.settled[self.cursor];
            self.cursor += 1;
            self.replay_radius = s.dist;
            return Some(s);
        }
        let s = self.exp.next_settled();
        if let (Some(s), true) = (s, self.cache.is_some()) {
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

    /// Ends this consumer's run: [`publish`](Self::publish) when `clean`,
    /// else [`poison`](Self::poison).
    pub fn settle(mut self, clean: bool) {
        if clean {
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
        assert!(alone.fresh.is_empty(), "no cache: nothing to keep");
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let mut cached = CachedSource::start(&net, NodeId(2), Some(&cache));
        drain(&mut cached);
        assert_eq!(cached.fresh.len(), net.num_nodes());
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
        assert!(SearchContext::new().cache().is_none());
        let ctx = SearchContext::with_cache(Arc::new(DistanceCache::new(64)));
        assert!(ctx.cache().is_some());
    }
}
