//! Property tests for the shared [`DistanceCache`]: the bounded-capacity,
//! eviction-safety, concurrency, and mid-batch-clear invariants the module
//! docs promise. All of them drive the cache exclusively through its
//! public surface — [`CachedSource`] runs over random road networks — so
//! the properties hold for the exact code paths the query engine uses. A
//! last test checks, over a cached query batch, that a registered cache
//! counts its events in the registry alone.

use proptest::prelude::*;
use std::sync::Arc;
use uots_core::algorithms::Expansion;
use uots_core::parallel::run_batch_ctx;
use uots_core::{
    BatchOptions, CacheStats, CachedSource, CancellationToken, Database, DistanceCache,
    ExecutionBudget, QueryOptions, SearchContext, UotsQuery,
};
use uots_datagen::{workload, Dataset, DatasetConfig};
use uots_network::expansion::Settled;
use uots_network::{NetworkBuilder, NodeId, Point, RoadNetwork};
use uots_obs::MetricsRegistry;

/// A connected random network: spanning tree plus chords.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = RoadNetwork> {
    (4usize..max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|_| b.add_node(Point::new(rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0)))
            .collect();
        for i in 1..n {
            let j = rng.gen_range(0..i);
            b.add_edge(ids[i], ids[j], Some(rng.gen::<f64>() * 4.0 + 0.05))
                .expect("valid edge");
        }
        for _ in 0..n {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if i != j {
                b.add_edge(ids[i], ids[j], Some(rng.gen::<f64>() * 4.0 + 0.05))
                    .expect("valid edge");
            }
        }
        b.build().expect("non-empty")
    })
}

/// Fully drains a cache-backed source and returns its settle sequence.
fn drain(src: &mut CachedSource<'_>) -> Vec<Settled> {
    std::iter::from_fn(|| src.next_settled()).collect()
}

/// Reference settle sequence: a fresh, uncached run.
fn reference(net: &RoadNetwork, source: NodeId) -> Vec<Settled> {
    drain(&mut CachedSource::start(net, source, None))
}

fn same_sequence(a: &[Settled], b: &[Settled]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.node == y.node && x.dist.to_bits() == y.dist.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The resident cost never exceeds the configured capacity, no matter
    /// what sequence of publishes (and partial publishes) the cache sees.
    #[test]
    fn capacity_never_exceeded(
        net in graph_strategy(28),
        capacity in 1usize..64,
        shards in 1usize..6,
        sources in proptest::collection::vec(any::<u32>(), 1..40),
        partial in any::<u64>(),
    ) {
        let n = net.num_nodes();
        let cache = Arc::new(DistanceCache::with_shards(capacity, shards));
        for (i, s) in sources.iter().enumerate() {
            let source = NodeId(s % n as u32);
            let mut src = CachedSource::start(&net, source, Some(&cache));
            if partial.rotate_left(i as u32) & 1 == 0 {
                drain(&mut src);
            } else {
                // settle only a few: publishes a short prefix
                for _ in 0..3 {
                    if src.next_settled().is_none() {
                        break;
                    }
                }
            }
            src.publish();
            prop_assert!(
                cache.resident_cost() <= cache.capacity(),
                "resident {} > capacity {} after publish {}",
                cache.resident_cost(), cache.capacity(), i
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, sources.len() as u64);
    }

    /// Evicting an entry never corrupts a reader that is replaying it:
    /// the `Arc` keeps the prefix alive and byte-identical, and the replay
    /// still produces exactly the uncached settle sequence.
    #[test]
    fn eviction_never_corrupts_live_replay(
        net in graph_strategy(24),
        churn in proptest::collection::vec(any::<u32>(), 4..24),
    ) {
        let n = net.num_nodes();
        // tiny cache: nearly every publish evicts something
        let cache = Arc::new(DistanceCache::with_shards(2 * n, 1));
        let victim = NodeId(0);
        let mut first = CachedSource::start(&net, victim, Some(&cache));
        drain(&mut first);
        first.publish();
        let held = cache.probe(victim).expect("just published");
        let held_before: Vec<(NodeId, u64)> = held
            .settled()
            .iter()
            .map(|s| (s.node, s.dist.to_bits()))
            .collect();

        // a reader mid-replay of the victim entry…
        let mut reader = CachedSource::start(&net, victim, Some(&cache));
        prop_assert!(reader.was_hit());
        let mut delivered = vec![reader.next_settled().expect("non-empty prefix")];

        // …while churn evicts it from the shard
        for s in &churn {
            let mut src = CachedSource::start(&net, NodeId(s % n as u32), Some(&cache));
            drain(&mut src);
            src.publish();
        }

        delivered.extend(drain(&mut reader));
        prop_assert!(
            same_sequence(&delivered, &reference(&net, victim)),
            "mid-eviction replay diverged from the uncached run"
        );
        let held_after: Vec<(NodeId, u64)> = held
            .settled()
            .iter()
            .map(|s| (s.node, s.dist.to_bits()))
            .collect();
        prop_assert_eq!(held_before, held_after, "held Arc must be immutable");
        prop_assert!(cache.resident_cost() <= cache.capacity());
    }

    /// Concurrent inserts and probes from many threads: every thread's
    /// every run produces exactly the uncached settle sequence — a probe
    /// observes either nothing or a complete published prefix, never a
    /// torn one.
    #[test]
    fn concurrent_insert_probe_is_linearizable(
        net in graph_strategy(20),
        seeds in proptest::collection::vec(any::<u64>(), 2..5),
    ) {
        let n = net.num_nodes();
        let cache = Arc::new(DistanceCache::new(1 << 12));
        let refs: Vec<Vec<Settled>> =
            (0..n).map(|v| reference(&net, NodeId(v as u32))).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &seed in &seeds {
                let cache = Arc::clone(&cache);
                let net = &net;
                let refs = &refs;
                handles.push(scope.spawn(move || {
                    use rand::rngs::StdRng;
                    use rand::{Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..12 {
                        let v = rng.gen_range(0..n);
                        let mut src =
                            CachedSource::start(net, NodeId(v as u32), Some(&cache));
                        let got = drain(&mut src);
                        src.publish();
                        assert!(
                            same_sequence(&got, &refs[v]),
                            "thread observed a torn or wrong prefix for source {v}"
                        );
                    }
                }));
            }
            for h in handles {
                h.join().expect("worker panicked");
            }
        });
        prop_assert!(cache.resident_cost() <= cache.capacity());
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, seeds.len() as u64 * 12);
    }

    /// Clearing the cache mid-batch — even mid-replay — is purely a
    /// performance event: every in-flight and subsequent run still yields
    /// the exact uncached sequence; only hit/miss counters change.
    #[test]
    fn mid_batch_clear_costs_only_performance(
        net in graph_strategy(24),
        sources in proptest::collection::vec(any::<u32>(), 2..12),
        clear_at in 0usize..12,
    ) {
        let n = net.num_nodes();
        let cache = Arc::new(DistanceCache::new(1 << 12));
        // warm the cache, then keep one reader suspended mid-replay
        let warm = NodeId(0);
        let mut w = CachedSource::start(&net, warm, Some(&cache));
        drain(&mut w);
        w.publish();
        let mut suspended = CachedSource::start(&net, warm, Some(&cache));
        let mut delivered = vec![suspended.next_settled().expect("non-empty")];

        let clear_idx = clear_at % sources.len();
        for (i, s) in sources.iter().enumerate() {
            if i == clear_idx {
                cache.clear();
                prop_assert!(cache.is_empty());
            }
            let v = NodeId(s % n as u32);
            let mut src = CachedSource::start(&net, v, Some(&cache));
            let got = drain(&mut src);
            src.publish();
            prop_assert!(
                same_sequence(&got, &reference(&net, v)),
                "post-clear run diverged for source {}", v.0
            );
        }
        delivered.extend(drain(&mut suspended));
        prop_assert!(
            same_sequence(&delivered, &reference(&net, warm)),
            "suspended replay diverged across a clear"
        );
    }
}

/// A registered cache counts every event once, in the registry: after a
/// cached batch its `stats()` are the registry snapshot's
/// `uots_distcache_*_total` samples, one for one.
#[test]
fn registered_stats_are_the_registry_counters() {
    let ds = Dataset::build(&DatasetConfig::small(150, 9)).unwrap();
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index)
        .with_keyword_index(&ds.keyword_index);
    let queries = |seed: u64, options: QueryOptions| -> Vec<UotsQuery> {
        let config = workload::WorkloadConfig {
            num_queries: 12,
            seed,
            ..Default::default()
        };
        let specs = workload::generate(&ds, &config);
        specs
            .into_iter()
            .map(|s| {
                UotsQuery::with_options(s.locations, s.keywords, vec![], options.clone()).unwrap()
            })
            .collect()
    };
    let registry = MetricsRegistry::default();
    // small enough that prefixes are evicted and some are rejected
    let cache = Arc::new(DistanceCache::with_metrics(1 << 12, &registry));
    let ctx = SearchContext::with_cache(Arc::clone(&cache));
    let budgeted = QueryOptions {
        budget: ExecutionBudget::default().with_max_visited(2),
        ..Default::default()
    };
    // an interrupted pass poisons, then a clean pass run twice hits
    for batch in [
        queries(1, budgeted),
        queries(2, QueryOptions::default()),
        queries(2, QueryOptions::default()),
    ] {
        let token = CancellationToken::new();
        let opts = BatchOptions::fail_fast(2);
        run_batch_ctx(&db, &Expansion::default(), &batch, &opts, &token, &ctx).unwrap();
    }
    let stats = cache.stats();
    // every counter moved, so no equality below holds at zero alone
    let CacheStats {
        hits,
        misses,
        inserts,
        rejected,
        evictions,
        poisoned,
    } = stats;
    assert!(
        [hits, misses, inserts, rejected, evictions, poisoned]
            .iter()
            .all(|&n| n > 0),
        "{stats:?}"
    );
    let snapshot = registry.snapshot();
    let total = |event: &str| {
        let name = format!("uots_distcache_{event}_total");
        snapshot
            .counter(&name, &[])
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(total("hits"), stats.hits);
    assert_eq!(total("misses"), stats.misses);
    assert_eq!(total("inserts"), stats.inserts);
    assert_eq!(total("rejected"), stats.rejected);
    assert_eq!(total("evictions"), stats.evictions);
    assert_eq!(total("poisoned"), stats.poisoned);
}
