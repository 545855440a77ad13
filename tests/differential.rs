//! Differential harness for the shared distance cache **and** the
//! cache-friendly data layouts: over hundreds of randomized cases, every
//! algorithm must return **bit-identical** results with and without the
//! cache, on both the legacy (HashMap adjacency / `KeywordSet`
//! intersection) and the CSR/bitset layouts — and all of them must equal
//! the brute-force oracle.
//!
//! The cache is a pure memo: replaying a cached expansion prefix yields
//! exactly the settle sequence a fresh Dijkstra would produce (the heap
//! order is total — distance, then node id — so ties cannot reorder).
//! The layouts are pure re-encodings: CSR Dijkstra settles the same
//! (distance, node) sequence and the bitset/galloping Jaccard routes the
//! same integer counts through the same float arithmetic. These tests are
//! the executable form of both claims, across:
//!
//! * uniform random connected networks and trajectory stores;
//! * `datagen::adversarial::hub_spike` — one vertex fans out to the whole
//!   store, maximal index pressure;
//! * `datagen::adversarial::split_city` — disconnected islands, so
//!   expansions exhaust and the infinite-distance sweep path runs;
//! * engineered exact ties (duplicated trajectories) at every `k`;
//! * small cache capacities, so eviction and admission rejection happen
//!   *during* the differential run;
//! * landmark-equipped contexts (ALT admission pruning enabled).
//! * **sharded coordinators**: every dataset is also partitioned across
//!   1 and 4 hash shards, and the scatter-gather merge must reproduce
//!   the unsharded fingerprint bit-for-bit — Exact runs for all four
//!   algorithms plus the planner, budget-interrupted best-effort runs
//!   on one shard (the bitwise-passthrough contract), and deterministic
//!   replay on four.
//!
//! Seeds are fixed: CI runs reproduce these exact cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use uots::datagen::adversarial::{hub_spike, split_city};
use uots::network::landmarks::Landmarks;
use uots::prelude::*;
use uots::{
    DistanceCache, EpochManager, EpochSnapshot, KeywordSet, LayoutTables, NetworkBuilder,
    QueryResult, Recorder, SearchContext, TrajectoryStore, UotsQuery,
};
use uots_core::algorithms::{BruteForce, Expansion, IknnBaseline, TextFirst};
use uots_core::{ClusterSnapshot, Partitioner, Planner, ShardedCluster};
use uots_text::KeywordId;
use uots_trajectory::{Sample, Trajectory};

/// Everything observable about a result, bit-exact. Two runs are "the
/// same" iff their fingerprints are equal — ids in order, every similarity
/// channel to the last mantissa bit.
fn fingerprint(r: &QueryResult) -> Vec<(TrajectoryId, u64, u64, u64, u64)> {
    r.matches
        .iter()
        .map(|m| {
            (
                m.id,
                m.similarity.to_bits(),
                m.spatial.to_bits(),
                m.textual.to_bits(),
                m.temporal.to_bits(),
            )
        })
        .collect()
}

/// The four algorithms under differential test (the brute force is the
/// oracle and additionally tested against itself cached-vs-uncached).
/// `algo` under `ctx`, unbounded and unrecorded.
fn run_under(
    algo: &(impl Algorithm + ?Sized),
    db: &Database<'_>,
    q: &UotsQuery,
    ctx: &SearchContext,
) -> QueryResult {
    algo.run_ctx(
        db,
        q,
        &RunControl::unbounded(),
        &mut Recorder::disabled(),
        ctx,
    )
    .expect("run under a context")
}

fn lineup() -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        ("expansion", Box::new(Expansion::default())),
        (
            "expansion-rr",
            Box::new(Expansion::new(Scheduler::RoundRobin)),
        ),
        (
            "iknn-baseline",
            Box::new(IknnBaseline {
                settles_per_round: 5,
            }),
        ),
        ("text-first", Box::new(TextFirst)),
    ]
}

/// Runs one (database, query) case on **both data layouts**: the legacy
/// oracle uncached sets the expected fingerprint, then the CSR/bitset
/// oracle and every algorithm — uncached and under `ctx`, legacy and
/// layout — must reproduce it bit-exactly. Both representations share
/// `ctx`'s cache on purpose: prefixes recorded by one layout must replay
/// bit-identically under the other (the cache stores (distance, node)
/// settle sequences, which the layouts agree on by construction).
/// Returns the number of differential comparisons performed.
fn check_case<'a>(
    db: &Database<'a>,
    layout: &'a LayoutTables,
    q: &UotsQuery,
    ctx: &SearchContext,
    label: &str,
) -> usize {
    let want = fingerprint(&BruteForce.run(db, q).expect("oracle runs"));
    let mut comparisons = 0;
    for (rep, rdb) in [("legacy", *db), ("layout", db.with_layout(layout))] {
        if rep == "layout" {
            let oracle = BruteForce.run(&rdb, q).expect("layout oracle runs");
            assert_eq!(
                want,
                fingerprint(&oracle),
                "{label}: layout brute force diverged"
            );
            comparisons += 1;
        }
        let oracle_cached = run_under(&BruteForce, &rdb, q, ctx);
        assert_eq!(
            want,
            fingerprint(&oracle_cached),
            "{label}: cached {rep} brute force diverged"
        );
        comparisons += 1;
        for (name, algo) in lineup() {
            let uncached = algo.run(&rdb, q).expect("uncached run");
            assert_eq!(
                want,
                fingerprint(&uncached),
                "{label}: uncached {rep} {name} diverged from oracle"
            );
            let cached = run_under(algo.as_ref(), &rdb, q, ctx);
            assert_eq!(
                want,
                fingerprint(&cached),
                "{label}: cached {rep} {name} diverged from oracle"
            );
            comparisons += 2;
        }
    }
    comparisons
}

/// Shard counts every differential case replays through: one shard must
/// be a bitwise passthrough of the unsharded engine, four shards
/// exercise the scatter-gather walk: shared settle logs, carried floor,
/// merge.
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Consistent cuts of `store` hash-partitioned across each of
/// [`SHARD_COUNTS`] — the sharded counterparts of one dataset.
fn hash_cuts(
    net: &uots::RoadNetwork,
    store: &TrajectoryStore,
    vocab_len: usize,
) -> Vec<ClusterSnapshot> {
    let net = Arc::new(net.clone());
    SHARD_COUNTS
        .iter()
        .map(|&n| {
            ShardedCluster::new(Arc::clone(&net), store, vocab_len, n, Partitioner::Hash).snapshot()
        })
        .collect()
}

/// One sharded run: scatter-gather `algo` across `cut` and demand the
/// merged answer reproduce the unsharded fingerprint bit-for-bit.
fn assert_sharded<A: Algorithm + Sync>(
    cut: &ClusterSnapshot,
    algo: &A,
    name: &str,
    q: &UotsQuery,
    ctx: &SearchContext,
    want: &[(TrajectoryId, u64, u64, u64, u64)],
    label: &str,
) {
    let ans = cut
        .search_ctx(algo, q, &RunControl::unbounded(), ctx)
        .expect("sharded run");
    assert_eq!(
        want,
        fingerprint(&ans.result).as_slice(),
        "{label}: {name} across {} shard(s) diverged from the unsharded engine",
        cut.num_shards()
    );
}

/// Replays one (dataset, query) case through every sharded cut: the four
/// algorithms plus the per-shard planner, each merged answer bit-equal to
/// the unsharded oracle fingerprint. Shards share `ctx`'s cache on
/// purpose — prefixes recorded by the unsharded runs must replay
/// bit-identically inside a shard. Returns comparisons performed.
fn check_sharded_case(
    cuts: &[ClusterSnapshot],
    q: &UotsQuery,
    ctx: &SearchContext,
    want: &[(TrajectoryId, u64, u64, u64, u64)],
    label: &str,
) -> usize {
    let mut comparisons = 0;
    for cut in cuts {
        assert_sharded(cut, &BruteForce, "brute-force", q, ctx, want, label);
        assert_sharded(cut, &Expansion::default(), "expansion", q, ctx, want, label);
        assert_sharded(
            cut,
            &Expansion::new(Scheduler::RoundRobin),
            "expansion-rr",
            q,
            ctx,
            want,
            label,
        );
        assert_sharded(
            cut,
            &IknnBaseline {
                settles_per_round: 5,
            },
            "iknn-baseline",
            q,
            ctx,
            want,
            label,
        );
        assert_sharded(cut, &TextFirst, "text-first", q, ctx, want, label);
        assert_sharded(cut, &Planner::new(), "planner", q, ctx, want, label);
        comparisons += 6;
    }
    comparisons
}

/// A connected random network: spanning tree plus extra chords.
fn random_network(rng: &mut StdRng, n: usize) -> (uots::RoadNetwork, Vec<NodeId>) {
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
    (b.build().expect("non-empty"), ids)
}

/// A random store over `n` network nodes; `dup` copies of each trajectory
/// force exact similarity ties.
fn random_store(rng: &mut StdRng, n: usize, trips: usize, dup: usize) -> TrajectoryStore {
    let mut store = TrajectoryStore::new();
    for _ in 0..trips {
        let len = rng.gen_range(1..7);
        let t0 = rng.gen::<f64>() * 80_000.0;
        let samples: Vec<Sample> = (0..len)
            .map(|i| Sample {
                node: NodeId(rng.gen_range(0..n) as u32),
                time: (t0 + 30.0 * i as f64).min(86_400.0),
            })
            .collect();
        let tags: Vec<KeywordId> = (0..rng.gen_range(0..4))
            .map(|_| KeywordId(rng.gen_range(0..12)))
            .collect();
        let t = Trajectory::new(samples, KeywordSet::from_ids(tags)).expect("valid");
        for _ in 0..dup.max(1) {
            store.push(t.clone());
        }
    }
    store
}

/// A random query over `n` nodes; `k` spans top-1 through top-5.
fn random_query(rng: &mut StdRng, n: usize) -> UotsQuery {
    let m = rng.gen_range(1..4);
    let locations: Vec<NodeId> = (0..m).map(|_| NodeId(rng.gen_range(0..n) as u32)).collect();
    let kws: Vec<KeywordId> = (0..rng.gen_range(0..4))
        .map(|_| KeywordId(rng.gen_range(0..12)))
        .collect();
    let lambda = [0.0, 0.3, 0.5, 0.7, 1.0][rng.gen_range(0..5usize)];
    let k = rng.gen_range(1..6);
    UotsQuery::with_options(
        locations,
        KeywordSet::from_ids(kws),
        vec![],
        QueryOptions {
            weights: Weights::lambda(lambda).expect("valid lambda"),
            k,
            ..Default::default()
        },
    )
    .expect("valid query")
}

/// A cache-bearing context for dataset `i`: capacities cycle through
/// tiny (eviction-heavy), small and ample; odd datasets add landmarks.
fn context_for(i: usize, net: &uots::RoadNetwork) -> SearchContext {
    let capacity = [64usize, 1 << 10, 1 << 16][i % 3];
    let ctx = SearchContext::with_cache(Arc::new(DistanceCache::new(capacity)));
    if i % 2 == 1 {
        ctx.with_landmarks(Arc::new(Landmarks::select(net, 3, NodeId(0))))
    } else {
        ctx
    }
}

/// Uniform random graphs and stores: the bulk of the case count. One
/// shared cache per dataset, so later queries replay earlier prefixes.
#[test]
fn differential_uniform_random() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0001);
    let mut cases = 0;
    for ds_i in 0..12 {
        let n = rng.gen_range(6..22);
        let (net, _) = random_network(&mut rng, n);
        // every third dataset duplicates trajectories to engineer ties
        let dup = if ds_i % 3 == 2 { 3 } else { 1 };
        let trips = rng.gen_range(1..20);
        let store = random_store(&mut rng, n, trips, dup);
        let vidx = store.build_vertex_index(n);
        let kidx = store.build_keyword_index(12);
        let db = Database::new(&net, &store, &vidx).with_keyword_index(&kidx);
        let layout = LayoutTables::build(&net, &store, 12);
        let ctx = context_for(ds_i, &net);
        let cuts = hash_cuts(&net, &store, 12);
        for q_i in 0..10 {
            let q = random_query(&mut rng, n);
            let label = format!("uniform ds{ds_i} q{q_i}");
            cases += check_case(&db, &layout, &q, &ctx, &label);
            let want = fingerprint(&BruteForce.run(&db, &q).expect("oracle runs"));
            cases += check_sharded_case(&cuts, &q, &ctx, &want, &label);
        }
    }
    assert!(cases >= 31 * 120, "expected ≥31 comparisons × 120 cases");
}

/// Hub-spike datasets: one vertex's posting list covers the whole store.
#[test]
fn differential_hub_spike() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0002);
    for (ds_i, seed) in [17u64, 29].into_iter().enumerate() {
        let ds = hub_spike(24, seed).expect("hub-spike builds");
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let layout = LayoutTables::build(&ds.network, &ds.store, 12);
        let n = ds.network.num_nodes();
        let ctx = context_for(ds_i, &ds.network);
        let cuts = hash_cuts(&ds.network, &ds.store, ds.vocab.len());
        for q_i in 0..20 {
            let mut q = random_query(&mut rng, n);
            if q_i % 4 == 0 {
                // aim a location straight at the hub: worst-case fan-out
                let hub = NodeId((n / 2) as u32);
                q = UotsQuery::with_options(
                    vec![hub],
                    KeywordSet::from_ids((0..2).map(|_| KeywordId(rng.gen_range(0..12)))),
                    vec![],
                    q.options().clone(),
                )
                .expect("hub query");
            }
            let label = format!("hub-spike ds{ds_i} q{q_i}");
            check_case(&db, &layout, &q, &ctx, &label);
            let want = fingerprint(&BruteForce.run(&db, &q).expect("oracle runs"));
            check_sharded_case(&cuts, &q, &ctx, &want, &label);
        }
    }
}

/// Split-city datasets: expansions exhaust inside their island, so the
/// unreachable-∞ sweep must behave identically cached and uncached.
#[test]
fn differential_split_city() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0003);
    for (ds_i, seed) in [41u64, 57].into_iter().enumerate() {
        let ds = split_city(3, 9, seed).expect("split-city builds");
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let layout = LayoutTables::build(&ds.network, &ds.store, 12);
        let n = ds.network.num_nodes();
        let ctx = context_for(ds_i, &ds.network);
        let cuts = hash_cuts(&ds.network, &ds.store, ds.vocab.len());
        for q_i in 0..20 {
            let q = random_query(&mut rng, n);
            let label = format!("split-city ds{ds_i} q{q_i}");
            check_case(&db, &layout, &q, &ctx, &label);
            let want = fingerprint(&BruteForce.run(&db, &q).expect("oracle runs"));
            check_sharded_case(&cuts, &q, &ctx, &want, &label);
        }
    }
}

/// Replaying the *same* query against a warm cache — the highest-hit-rate
/// path — still changes nothing, run after run.
#[test]
fn differential_warm_replay_is_stable() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0004);
    let n = 18;
    let (net, _) = random_network(&mut rng, n);
    let store = random_store(&mut rng, n, 14, 2);
    let vidx = store.build_vertex_index(n);
    let kidx = store.build_keyword_index(12);
    let db = Database::new(&net, &store, &vidx).with_keyword_index(&kidx);
    let layout = LayoutTables::build(&net, &store, 12);
    let cache = Arc::new(DistanceCache::new(1 << 14));
    let ctx = SearchContext::with_cache(Arc::clone(&cache));
    let queries: Vec<UotsQuery> = (0..5).map(|_| random_query(&mut rng, n)).collect();
    let cuts = hash_cuts(&net, &store, 12);
    for round in 0..4 {
        for (q_i, q) in queries.iter().enumerate() {
            let label = format!("warm round{round} q{q_i}");
            check_case(&db, &layout, q, &ctx, &label);
            let want = fingerprint(&BruteForce.run(&db, q).expect("oracle runs"));
            check_sharded_case(&cuts, q, &ctx, &want, &label);
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "warm replay should hit: {stats:?}");
}

/// One random trajectory for the ingest path (same shape as
/// [`random_store`] generates).
fn random_traj(rng: &mut StdRng, n: usize) -> Trajectory {
    let len = rng.gen_range(1..7);
    let t0 = rng.gen::<f64>() * 80_000.0;
    let samples: Vec<Sample> = (0..len)
        .map(|i| Sample {
            node: NodeId(rng.gen_range(0..n) as u32),
            time: (t0 + 30.0 * i as f64).min(86_400.0),
        })
        .collect();
    let tags: Vec<KeywordId> = (0..rng.gen_range(0..4))
        .map(|_| KeywordId(rng.gen_range(0..12)))
        .collect();
    Trajectory::new(samples, KeywordSet::from_ids(tags)).expect("valid")
}

/// The ingest/rebuild oracle for one published epoch and one query: every
/// algorithm's answer on the **live** snapshot (retired trips masked, ids
/// stable), with and without the cross-epoch cache, must map — through the
/// order-preserving compaction — onto the bit-exact answer a from-scratch
/// database over only the surviving trajectories gives.
fn check_epoch_case(snapshot: &EpochSnapshot, q: &UotsQuery, ctx: &SearchContext, label: &str) {
    let net = snapshot.network();
    let (compacted, id_map) = snapshot.rebuild_compacted();
    let vidx = compacted.build_vertex_index(net.num_nodes());
    let kidx = compacted.build_keyword_index(12);
    let oracle_db = Database::new(net, &compacted, &vidx).with_keyword_index(&kidx);
    let live_db = snapshot.database();
    let want = fingerprint(&BruteForce.run(&oracle_db, q).expect("rebuild oracle runs"));
    let map_fp = |r: &QueryResult| -> Vec<(TrajectoryId, u64, u64, u64, u64)> {
        fingerprint(r)
            .into_iter()
            .map(|(id, s, sp, tx, tm)| {
                let mapped = id_map[id.index()]
                    .unwrap_or_else(|| panic!("{label}: live snapshot served retired {id}"));
                (mapped, s, sp, tx, tm)
            })
            .collect()
    };
    // The snapshot attaches its CSR/bitset tables; stripping `layout` gives
    // the legacy view of the *same* epoch — both must match the rebuild.
    let mut live_legacy = live_db;
    live_legacy.layout = None;
    for (rep, rdb) in [("layout", live_db), ("legacy", live_legacy)] {
        let oracle_live = BruteForce.run(&rdb, q).expect("live oracle runs");
        assert_eq!(
            want,
            map_fp(&oracle_live),
            "{label}: live {rep} brute force diverged"
        );
        for (name, algo) in lineup() {
            let uncached = algo.run(&rdb, q).expect("live uncached run");
            assert_eq!(
                want,
                map_fp(&uncached),
                "{label}: live {rep} {name} diverged from rebuild"
            );
            let cached = run_under(algo.as_ref(), &rdb, q, ctx);
            assert_eq!(
                want,
                map_fp(&cached),
                "{label}: cached live {rep} {name} diverged from rebuild"
            );
        }
    }
}

/// The keystone differential: random interleavings of ingest / retire /
/// publish / query against an [`EpochManager`] answer exactly as a
/// from-scratch rebuild of the surviving trajectories at every published
/// epoch — for all four algorithms, with one distance cache kept warm
/// **across** the epoch swaps (it is keyed on the road network, which the
/// manager never replaces).
#[test]
fn differential_ingest_rebuild_oracle() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0005);
    for ds_i in 0..4 {
        let n = rng.gen_range(8..20);
        let (net, _) = random_network(&mut rng, n);
        let net = Arc::new(net);
        let trips = rng.gen_range(3..10);
        let store = random_store(&mut rng, n, trips, 1);
        // the sharded clusters mirror the unsharded manager's mutation
        // stream: hash partitioning issues the same sequential global ids
        let clusters: Vec<ShardedCluster> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedCluster::new(Arc::clone(&net), &store, 12, s, Partitioner::Hash))
            .collect();
        let mgr = EpochManager::new(Arc::clone(&net), store, 12);
        let cache = Arc::new(DistanceCache::new([256usize, 1 << 14][ds_i % 2]));
        let ctx = SearchContext::with_cache(Arc::clone(&cache));
        let mut next_id = mgr.snapshot().store().len();
        let mut live_estimate = next_id;
        for round in 0..6 {
            for _ in 0..rng.gen_range(1..6) {
                if live_estimate <= 2 || rng.gen_bool(0.6) {
                    let t = random_traj(&mut rng, n);
                    mgr.ingest(t.clone());
                    for cluster in &clusters {
                        assert_eq!(
                            cluster.ingest(t.clone()).index(),
                            next_id,
                            "hash partitioning must reproduce sequential global ids"
                        );
                    }
                    next_id += 1;
                    live_estimate += 1;
                } else {
                    let victim = TrajectoryId(rng.gen_range(0..next_id) as u32);
                    let was_live = mgr.retire(victim);
                    for cluster in &clusters {
                        assert_eq!(
                            cluster.retire(victim),
                            was_live,
                            "sharded retire must agree on liveness"
                        );
                    }
                    if was_live {
                        live_estimate -= 1;
                    }
                }
            }
            let snapshot = mgr.publish();
            let cuts: Vec<ClusterSnapshot> = clusters.iter().map(|c| c.publish_all()).collect();
            assert!(
                Arc::ptr_eq(snapshot.network(), &net),
                "publish must never replace the network (the cache key space)"
            );
            assert_eq!(snapshot.live().num_live(), live_estimate);
            for cut in &cuts {
                assert_eq!(cut.num_live(), live_estimate);
            }
            let live_db = snapshot.database();
            for q_i in 0..4 {
                let q = random_query(&mut rng, n);
                let label = format!("ingest ds{ds_i} round{round} q{q_i}");
                check_epoch_case(&snapshot, &q, &ctx, &label);
                // the sharded cuts answer in global ids — compare them
                // straight against the live unsharded snapshot
                let live_want =
                    fingerprint(&BruteForce.run(&live_db, &q).expect("live oracle runs"));
                check_sharded_case(&cuts, &q, &ctx, &live_want, &label);
            }
        }
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "ds{ds_i}: the cache must survive epoch swaps and keep hitting: {stats:?}"
        );
    }
}

/// Budget-interrupted queries agree with the rebuild too: `max_visited`
/// trips deterministically, and because compaction preserves id order the
/// live snapshot and the from-scratch rebuild visit corresponding
/// trajectories in the same sequence — so even *partial* (best-effort)
/// answers are bit-identical under the id map.
#[test]
fn differential_ingest_interrupted_queries_match_rebuild() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0006);
    let n = 16;
    let (net, _) = random_network(&mut rng, n);
    let net = Arc::new(net);
    let store = random_store(&mut rng, n, 10, 1);
    let clusters: Vec<ShardedCluster> = SHARD_COUNTS
        .iter()
        .map(|&s| ShardedCluster::new(Arc::clone(&net), &store, 12, s, Partitioner::Hash))
        .collect();
    let mgr = EpochManager::new(Arc::clone(&net), store, 12);
    for _ in 0..6 {
        let t = random_traj(&mut rng, n);
        mgr.ingest(t.clone());
        for cluster in &clusters {
            cluster.ingest(t.clone());
        }
    }
    for victim in [TrajectoryId(1), TrajectoryId(4)] {
        mgr.retire(victim);
        for cluster in &clusters {
            cluster.retire(victim);
        }
    }
    let snapshot = mgr.publish();
    let cuts: Vec<ClusterSnapshot> = clusters.iter().map(|c| c.publish_all()).collect();
    let (compacted, id_map) = snapshot.rebuild_compacted();
    let vidx = compacted.build_vertex_index(n);
    let kidx = compacted.build_keyword_index(12);
    let oracle_db = Database::new(&net, &compacted, &vidx).with_keyword_index(&kidx);
    let live_db = snapshot.database();
    for q_i in 0..10 {
        let mut q = random_query(&mut rng, n);
        let mut opts = q.options().clone();
        opts.budget = ExecutionBudget::default().with_max_visited(rng.gen_range(1..6));
        q = UotsQuery::with_options(q.locations().to_vec(), q.keywords().clone(), vec![], opts)
            .expect("budgeted query");
        let live = Expansion::default().run(&live_db, &q).expect("live run");
        // the legacy view of the same snapshot must interrupt identically
        let mut legacy_db = live_db;
        legacy_db.layout = None;
        let legacy = Expansion::default()
            .run(&legacy_db, &q)
            .expect("legacy run");
        assert_eq!(
            fingerprint(&live),
            fingerprint(&legacy),
            "q{q_i}: interrupted layouts diverged"
        );
        let oracle = Expansion::default()
            .run(&oracle_db, &q)
            .expect("oracle run");
        let mapped: Vec<TrajectoryId> = live
            .ids()
            .iter()
            .map(|id| id_map[id.index()].expect("live answer is live"))
            .collect();
        assert_eq!(mapped, oracle.ids(), "q{q_i}: interrupted answers diverged");
        for (a, b) in live.matches.iter().zip(oracle.matches.iter()) {
            assert_eq!(
                a.similarity.to_bits(),
                b.similarity.to_bits(),
                "q{q_i}: interrupted similarity drift"
            );
        }
        assert_eq!(
            live.completeness, oracle.completeness,
            "q{q_i}: certified gaps must agree"
        );
        // One shard is a bitwise passthrough: the interrupted best-effort
        // answer — ids, every similarity channel, the certificate — must
        // equal the unsharded run exactly.
        let single = cuts[0]
            .search(&Expansion::default(), &q)
            .expect("1-shard budgeted run");
        assert_eq!(
            fingerprint(&live),
            fingerprint(&single.result),
            "q{q_i}: 1-shard budgeted answer is not a bitwise passthrough"
        );
        assert_eq!(
            live.completeness, single.result.completeness,
            "q{q_i}: 1-shard certificate drifted"
        );
        // Four shards interrupt along different per-shard visit orders,
        // so the merged answer legitimately differs from the unsharded
        // one — but it is computed from complete per-shard outcomes, so
        // replaying the same cut must reproduce it bit-for-bit, and every
        // returned id must be live in the cut.
        let quad_a = cuts[1]
            .search(&Expansion::default(), &q)
            .expect("4-shard budgeted run");
        let quad_b = cuts[1]
            .search(&Expansion::default(), &q)
            .expect("4-shard budgeted replay");
        assert_eq!(
            fingerprint(&quad_a.result),
            fingerprint(&quad_b.result),
            "q{q_i}: 4-shard budgeted merge is not deterministic"
        );
        assert_eq!(
            quad_a.result.completeness, quad_b.result.completeness,
            "q{q_i}: 4-shard certificate is not deterministic"
        );
        for id in quad_a.result.ids() {
            let (s, local) = (id.index() % 4, TrajectoryId((id.index() / 4) as u32));
            assert!(
                cuts[1].shard(s).live().is_live(local),
                "q{q_i}: 4-shard answer served retired {id}"
            );
        }
    }
}

/// A query cancelled while publishes race underneath still returns a
/// certified best-effort answer drawn from exactly one epoch — the one its
/// snapshot pinned — never a torn mix of generations.
#[test]
fn differential_cancellation_mid_swap_stays_epoch_consistent() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0007);
    let n = 14;
    let (net, _) = random_network(&mut rng, n);
    let net = Arc::new(net);
    let store = random_store(&mut rng, n, 8, 1);
    let mgr = EpochManager::new(Arc::clone(&net), store, 12);
    let q = random_query(&mut rng, n);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            let mut churn_rng = StdRng::seed_from_u64(0xc4a9);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                mgr.ingest(random_traj(&mut churn_rng, n));
                mgr.publish();
            }
        });
        for _ in 0..20 {
            let snapshot = mgr.snapshot();
            let token = CancellationToken::new();
            token.cancel();
            let ctl = RunControl::with_token(token);
            let r = Expansion::default()
                .run_recorded(&snapshot.database(), &q, &ctl, &mut Recorder::disabled())
                .expect("cancelled run still returns");
            assert!(
                !r.completeness.is_exact(),
                "a cancelled run must be best-effort"
            );
            for id in r.ids() {
                assert!(
                    snapshot.live().is_live(id),
                    "{id} not live in the pinned epoch {}",
                    snapshot.epoch()
                );
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churn.join().expect("churn thread");
    });
}

/// The sharded analog: a pre-cancelled coordinator run still returns a
/// certified best-effort answer drawn from the pinned cut — every id
/// live, never an error — while publishes land on the cluster
/// underneath.
#[test]
fn differential_sharded_cancellation_stays_cut_consistent() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0008);
    let n = 14;
    let (net, _) = random_network(&mut rng, n);
    let net = Arc::new(net);
    let store = random_store(&mut rng, n, 12, 1);
    let cluster = ShardedCluster::new(Arc::clone(&net), &store, 12, 4, Partitioner::Hash);
    let q = random_query(&mut rng, n);
    for round in 0..10 {
        let cut = cluster.snapshot();
        let token = CancellationToken::new();
        token.cancel();
        let ctl = RunControl::with_token(token);
        let ans = cut
            .search_ctx(&Expansion::default(), &q, &ctl, &SearchContext::default())
            .expect("cancelled scatter-gather still returns");
        assert!(
            !ans.result.completeness.is_exact(),
            "round {round}: a cancelled scatter-gather must be best-effort"
        );
        for id in ans.result.ids() {
            let (s, local) = (id.index() % 4, TrajectoryId((id.index() / 4) as u32));
            assert!(
                cut.shard(s).live().is_live(local),
                "round {round}: {id} not live in the pinned cut"
            );
        }
        cluster.ingest(random_traj(&mut rng, n));
        cluster.publish_all();
    }
}
