//! Differential harness: over hundreds of randomized cases, every
//! algorithm must return **bit-identical** results to the brute-force
//! oracle, unsharded and over sharded cuts, across:
//!
//! * uniform random connected networks and trajectory stores;
//! * `datagen::adversarial::hub_spike` — one vertex fans out to the whole
//!   store, maximal index pressure;
//! * `datagen::adversarial::split_city` — disconnected islands, so
//!   expansions exhaust and the infinite-distance sweep path runs;
//! * engineered exact ties (duplicated trajectories) at every `k`;
//! * **sharded cuts**: every dataset is also partitioned across 1, 3 and 4
//!   hash shards, and the one run over all shards must reproduce the
//!   unsharded fingerprint bit-for-bit — Exact runs for all four
//!   algorithms, budget-interrupted best-effort runs on
//!   one shard (the plain engine), and deterministic replay on four. The
//!   ingest replays drive the volatile and the durable coordinator alike.
//!
//! The oracle's own two ingredients are pinned against independent
//! references in `tests/layout_proptests.rs`: the batched drain against
//! single-source Dijkstra trees, the keyword table against the merge walk.
//!
//! Seeds are fixed: CI runs reproduce these exact cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use uots::cluster::ShardedDurable;
use uots::datagen::adversarial::{hub_spike, split_city};
use uots::index::TimestampIndex;
use uots::prelude::*;
use uots::{
    EpochManager, EpochSnapshot, FsyncPolicy, KeywordSet, NetworkBuilder, QueryResult, Recorder,
    TrajectoryStore, UotsQuery, WalConfig,
};
use uots_core::algorithms::{BruteForce, Expansion, IknnBaseline, TextFirst};
use uots_core::shard::{Cluster, Shard};
use uots_core::{ClusterSnapshot, Partitioner, ShardedCluster};
use uots_text::{KeywordId, Vocabulary};
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
/// oracle).
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

/// Runs one (database, query) case: every algorithm must reproduce the
/// oracle's fingerprint `want` bit-exactly. Returns the number of
/// differential comparisons performed.
fn check_case(
    db: &Database<'_>,
    q: &UotsQuery,
    want: &[(TrajectoryId, u64, u64, u64, u64)],
    label: &str,
) -> usize {
    let lineup = lineup();
    for (name, algo) in &lineup {
        let got = algo.run(db, q).expect("run");
        assert_eq!(
            want,
            fingerprint(&got).as_slice(),
            "{label}: {name} diverged from oracle"
        );
    }
    lineup.len()
}

/// Hash shard counts every differential case replays through: one shard
/// is the unsharded engine over a one-part view, four shards exercise
/// the lockstep over several parts.
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Consistent cuts of `store` hash-partitioned across each of
/// [`SHARD_COUNTS`] and across three shards, a count that divides neither
/// of them — the sharded counterparts of one dataset.
fn cuts_of(
    net: &uots::RoadNetwork,
    store: &TrajectoryStore,
    vocab_len: usize,
) -> Vec<ClusterSnapshot> {
    let net = Arc::new(net.clone());
    SHARD_COUNTS
        .iter()
        .chain(&[3])
        .map(|&n| ShardedCluster::new(Arc::clone(&net), store, vocab_len, n, Partitioner::Hash))
        .map(|cluster| cluster.snapshot())
        .collect()
}

/// The coordinators an ingest replay drives in lockstep with the
/// unsharded manager: the volatile and the durable one at each of
/// [`SHARD_COUNTS`], over 12 keywords. Dropping it removes the durable
/// clusters' directories.
struct Coordinators {
    volatile: Vec<ShardedCluster>,
    durable: Vec<ShardedDurable>,
    root: PathBuf,
}

impl Coordinators {
    fn new(net: &Arc<uots::RoadNetwork>, store: &TrajectoryStore, name: &str) -> Self {
        let root = std::env::temp_dir()
            .join("uots_differential")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut vocab = Vocabulary::new();
        for k in 0..12 {
            vocab.intern(&format!("k{k}"));
        }
        let config = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        };
        let durable = SHARD_COUNTS
            .iter()
            .map(|&s| {
                let dir = root.join(format!("{s}-shards"));
                let net = Arc::clone(net);
                ShardedDurable::create(net, store, &vocab, dir, s, config, None, None)
                    .expect("create a durable cluster")
            })
            .collect();
        let volatile = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedCluster::new(Arc::clone(net), store, 12, s, Partitioner::Hash))
            .collect();
        Coordinators {
            volatile,
            durable,
            root,
        }
    }

    /// Every coordinator's global id for an insert of `t`.
    fn ingest(&mut self, t: &Trajectory) -> Vec<TrajectoryId> {
        fn one<S: Shard>(c: &mut Cluster<S>, t: &Trajectory) -> TrajectoryId {
            c.ingest(t.clone()).expect("ingest")
        }
        let volatile = self.volatile.iter_mut().map(|c| one(c, t));
        volatile
            .chain(self.durable.iter_mut().map(|c| one(c, t)))
            .collect()
    }

    /// Every coordinator's answer to whether `victim` was live.
    fn retire(&mut self, victim: TrajectoryId) -> Vec<bool> {
        fn one<S: Shard>(c: &mut Cluster<S>, victim: TrajectoryId) -> bool {
            c.retire(victim).expect("retire")
        }
        let volatile = self.volatile.iter_mut().map(|c| one(c, victim));
        volatile
            .chain(self.durable.iter_mut().map(|c| one(c, victim)))
            .collect()
    }

    /// Publishes every coordinator: the volatile cuts in [`SHARD_COUNTS`]
    /// order, then the durable ones. A durable cut holds exactly the live
    /// set of its volatile twin.
    fn publish_all(&mut self) -> Vec<ClusterSnapshot> {
        let mut cuts: Vec<ClusterSnapshot> = Vec::new();
        for c in &mut self.volatile {
            cuts.push(c.publish_all().expect("volatile publish"));
        }
        for c in &mut self.durable {
            cuts.push(c.publish_all().expect("durable publish"));
        }
        let (volatile, durable) = cuts.split_at(SHARD_COUNTS.len());
        for (v, d) in volatile.iter().zip(durable) {
            for s in 0..v.num_shards() {
                assert_eq!(
                    v.shard(s).live(),
                    d.shard(s).live(),
                    "{} shard(s): shard {s}'s durable live set diverged",
                    v.num_shards()
                );
            }
        }
        cuts
    }
}

impl Drop for Coordinators {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One sharded run: `algo` once over all shards of `cut`, and its answer
/// must reproduce the unsharded fingerprint bit-for-bit.
fn assert_sharded<A: Algorithm + Sync>(
    cut: &ClusterSnapshot,
    algo: &A,
    name: &str,
    q: &UotsQuery,
    want: &[(TrajectoryId, u64, u64, u64, u64)],
    label: &str,
) {
    let ans = cut.search(algo, q).expect("sharded run");
    assert_eq!(
        want,
        fingerprint(&ans.result).as_slice(),
        "{label}: {name} over {} shard(s) diverged from the unsharded engine",
        cut.num_shards()
    );
}

/// Replays one (dataset, query) case through every sharded cut: the four
/// algorithms (expansion under two schedulers), each answer bit-equal to the unsharded
/// oracle fingerprint. Returns comparisons performed.
fn check_sharded_case(
    cuts: &[ClusterSnapshot],
    q: &UotsQuery,
    want: &[(TrajectoryId, u64, u64, u64, u64)],
    label: &str,
) -> usize {
    let mut comparisons = 0;
    for cut in cuts {
        assert_sharded(cut, &BruteForce, "brute-force", q, want, label);
        assert_sharded(cut, &Expansion::default(), "expansion", q, want, label);
        assert_sharded(
            cut,
            &Expansion::new(Scheduler::RoundRobin),
            "expansion-rr",
            q,
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
            want,
            label,
        );
        assert_sharded(cut, &TextFirst, "text-first", q, want, label);
        comparisons += 5;
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

/// Uniform random graphs and stores: the bulk of the case count.
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
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
        let cuts = cuts_of(&net, &store, 12);
        for q_i in 0..10 {
            let q = random_query(&mut rng, n);
            let label = format!("uniform ds{ds_i} q{q_i}");
            let want = fingerprint(&BruteForce.run(&db, &q).expect("oracle runs"));
            cases += check_case(&db, &q, &want, &label);
            cases += check_sharded_case(&cuts, &q, &want, &label);
        }
    }
    assert!(cases >= 19 * 120, "expected ≥19 comparisons × 120 cases");
}

/// Hub-spike datasets: one vertex's posting list covers the whole store.
#[test]
fn differential_hub_spike() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0002);
    for (ds_i, seed) in [17u64, 29].into_iter().enumerate() {
        let ds = hub_spike(24, seed).expect("hub-spike builds");
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let n = ds.network.num_nodes();
        let cuts = cuts_of(&ds.network, &ds.store, ds.vocab.len());
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
            let want = fingerprint(&BruteForce.run(&db, &q).expect("oracle runs"));
            check_case(&db, &q, &want, &label);
            check_sharded_case(&cuts, &q, &want, &label);
        }
    }
}

/// Split-city datasets: expansions exhaust inside their island, so the
/// unreachable-∞ sweep runs.
#[test]
fn differential_split_city() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0003);
    for (ds_i, seed) in [41u64, 57].into_iter().enumerate() {
        let ds = split_city(3, 9, seed).expect("split-city builds");
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let n = ds.network.num_nodes();
        let cuts = cuts_of(&ds.network, &ds.store, ds.vocab.len());
        for q_i in 0..20 {
            let q = random_query(&mut rng, n);
            let label = format!("split-city ds{ds_i} q{q_i}");
            let want = fingerprint(&BruteForce.run(&db, &q).expect("oracle runs"));
            check_case(&db, &q, &want, &label);
            check_sharded_case(&cuts, &q, &want, &label);
        }
    }
}

/// Replaying the *same* queries round after round changes nothing.
#[test]
fn differential_replay_is_stable() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0004);
    let n = 18;
    let (net, _) = random_network(&mut rng, n);
    let store = random_store(&mut rng, n, 14, 2);
    let vidx = store.build_vertex_index(n);
    let kidx = store.build_keyword_index(12);
    let kb = store.build_keyword_blocks();
    let db = Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
    let queries: Vec<UotsQuery> = (0..5).map(|_| random_query(&mut rng, n)).collect();
    let cuts = cuts_of(&net, &store, 12);
    for round in 0..4 {
        for (q_i, q) in queries.iter().enumerate() {
            let label = format!("replay round{round} q{q_i}");
            let want = fingerprint(&BruteForce.run(&db, q).expect("oracle runs"));
            check_case(&db, q, &want, &label);
            check_sharded_case(&cuts, q, &want, &label);
        }
    }
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
/// stable) must map — through the
/// order-preserving compaction — onto the bit-exact answer a from-scratch
/// database over only the surviving trajectories gives.
fn check_epoch_case(snapshot: &EpochSnapshot, q: &UotsQuery, label: &str) {
    let net = snapshot.network();
    let (compacted, id_map) = snapshot.rebuild_compacted();
    let vidx = compacted.build_vertex_index(net.num_nodes());
    let kidx = compacted.build_keyword_index(12);
    let kb = compacted.build_keyword_blocks();
    let oracle_db = Database::new(net, &compacted, &vidx, &kb).with_keyword_index(&kidx);
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
    let oracle_live = BruteForce.run(&live_db, q).expect("live oracle runs");
    assert_eq!(
        want,
        map_fp(&oracle_live),
        "{label}: live brute force diverged"
    );
    for (name, algo) in lineup() {
        let got = algo.run(&live_db, q).expect("live run");
        assert_eq!(
            want,
            map_fp(&got),
            "{label}: live {name} diverged from rebuild"
        );
    }
}

/// The keystone differential: random interleavings of ingest / retire /
/// publish / query against an [`EpochManager`] answer exactly as a
/// from-scratch rebuild of the surviving trajectories at every published
/// epoch — for all four algorithms.
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
        let mut clusters = Coordinators::new(&net, &store, &format!("ingest-ds{ds_i}"));
        let mgr = EpochManager::new(Arc::clone(&net), store, 12);
        let mut next_id = mgr.snapshot().store().len();
        let mut live_estimate = next_id;
        for round in 0..6 {
            for _ in 0..rng.gen_range(1..6) {
                if live_estimate <= 2 || rng.gen_bool(0.6) {
                    let t = random_traj(&mut rng, n);
                    mgr.ingest(t.clone());
                    for id in clusters.ingest(&t) {
                        assert_eq!(
                            id.index(),
                            next_id,
                            "hash partitioning must reproduce sequential global ids"
                        );
                    }
                    next_id += 1;
                    live_estimate += 1;
                } else {
                    let victim = TrajectoryId(rng.gen_range(0..next_id) as u32);
                    let was_live = mgr.retire(victim);
                    for live in clusters.retire(victim) {
                        assert_eq!(live, was_live, "sharded retire must agree on liveness");
                    }
                    if was_live {
                        live_estimate -= 1;
                    }
                }
            }
            let snapshot = mgr.publish();
            let cuts = clusters.publish_all();
            assert!(
                Arc::ptr_eq(snapshot.network(), &net),
                "publish must never replace the network"
            );
            assert_eq!(snapshot.live().num_live(), live_estimate);
            for cut in &cuts {
                assert_eq!(cut.num_live(), live_estimate);
            }
            let live_db = snapshot.database();
            // publish derives its indexes from the previous epoch plus the
            // batch; they must be the full rebuilds over the live ids
            let (store, live) = (snapshot.store(), snapshot.live());
            assert_eq!(
                live_db.vertex_index,
                Some(&store.build_vertex_index_live(net.num_nodes(), live)),
                "ds{ds_i} round{round}: published vertex index"
            );
            assert_eq!(
                live_db.keyword_index,
                Some(&store.build_keyword_index_live(12, live)),
                "ds{ds_i} round{round}: published keyword index"
            );
            let (published, rebuilt) = (
                live_db
                    .timestamp_index
                    .expect("a snapshot carries its timestamp index"),
                store.build_timestamp_index_live(live),
            );
            let bits = |idx: &TimestampIndex<TrajectoryId>| -> Vec<u64> {
                idx.times().iter().map(|t| t.to_bits()).collect()
            };
            assert_eq!(
                bits(published),
                bits(&rebuilt),
                "ds{ds_i} round{round}: times"
            );
            assert_eq!(
                published.values(),
                rebuilt.values(),
                "ds{ds_i} round{round}: ids"
            );
            for q_i in 0..4 {
                let q = random_query(&mut rng, n);
                let label = format!("ingest ds{ds_i} round{round} q{q_i}");
                check_epoch_case(&snapshot, &q, &label);
                // the sharded cuts answer in global ids — compare them
                // straight against the live unsharded snapshot
                let live_want =
                    fingerprint(&BruteForce.run(&live_db, &q).expect("live oracle runs"));
                check_sharded_case(&cuts, &q, &live_want, &label);
            }
        }
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
    let mut clusters = Coordinators::new(&net, &store, "interrupted");
    let mgr = EpochManager::new(Arc::clone(&net), store, 12);
    for _ in 0..6 {
        let t = random_traj(&mut rng, n);
        let id = mgr.ingest(t.clone());
        assert!(clusters.ingest(&t).iter().all(|&g| g == id));
    }
    for victim in [TrajectoryId(1), TrajectoryId(4)] {
        let was_live = mgr.retire(victim);
        assert!(clusters.retire(victim).iter().all(|&live| live == was_live));
    }
    let snapshot = mgr.publish();
    let cuts = clusters.publish_all();
    let (compacted, id_map) = snapshot.rebuild_compacted();
    let vidx = compacted.build_vertex_index(n);
    let kidx = compacted.build_keyword_index(12);
    let kb = compacted.build_keyword_blocks();
    let oracle_db = Database::new(&net, &compacted, &vidx, &kb).with_keyword_index(&kidx);
    let live_db = snapshot.database();
    for q_i in 0..10 {
        let mut q = random_query(&mut rng, n);
        let mut opts = q.options().clone();
        opts.budget = ExecutionBudget::default().with_max_visited(rng.gen_range(1..6));
        q = UotsQuery::with_options(q.locations().to_vec(), q.keywords().clone(), vec![], opts)
            .expect("budgeted query");
        let live = Expansion::default().run(&live_db, &q).expect("live run");
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
        // One shard is the plain engine: the interrupted best-effort
        // answer — ids, every similarity channel, the certificate — must
        // equal the unsharded run exactly, volatile or durable.
        for one in cuts.iter().filter(|c| c.num_shards() == 1) {
            let single = one
                .search(&Expansion::default(), &q)
                .expect("1-shard budgeted run");
            assert_eq!(
                fingerprint(&live),
                fingerprint(&single.result),
                "q{q_i}: 1-shard budgeted answer is not the unsharded one"
            );
            assert_eq!(
                live.completeness, single.result.completeness,
                "q{q_i}: 1-shard certificate drifted"
            );
        }
        // Four shards walk a vertex's postings part by part, not in
        // ascending id order, so an interrupted answer may differ from the
        // unsharded one (tests/sharded.rs pins when it may not) — but
        // replaying the same cut, or its durable twin, must reproduce it
        // bit-for-bit, and every returned id must be live in the cut.
        let quads: Vec<&ClusterSnapshot> = cuts.iter().filter(|c| c.num_shards() == 4).collect();
        let quad_a = quads[0]
            .search(&Expansion::default(), &q)
            .expect("4-shard budgeted run");
        for quad in &quads {
            let quad_b = quad
                .search(&Expansion::default(), &q)
                .expect("4-shard budgeted replay");
            assert_eq!(
                fingerprint(&quad_a.result),
                fingerprint(&quad_b.result),
                "q{q_i}: 4-shard budgeted answer is not deterministic"
            );
            assert_eq!(
                quad_a.result.completeness, quad_b.result.completeness,
                "q{q_i}: 4-shard certificate is not deterministic"
            );
        }
        for id in quad_a.result.ids() {
            let (s, local) = (id.index() % 4, TrajectoryId((id.index() / 4) as u32));
            assert!(
                quads[0].shard(s).live().is_live(local),
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
    let mut cluster = ShardedCluster::new(Arc::clone(&net), &store, 12, 4, Partitioner::Hash);
    let q = random_query(&mut rng, n);
    for round in 0..10 {
        let cut = cluster.snapshot();
        let token = CancellationToken::new();
        token.cancel();
        let ctl = RunControl::with_token(token);
        let ans = cut
            .search_ctx(&Expansion::default(), &q, &ctl)
            .expect("a cancelled cluster query still returns");
        assert!(
            !ans.result.completeness.is_exact(),
            "round {round}: a cancelled cluster query must be best-effort"
        );
        for id in ans.result.ids() {
            let (s, local) = (id.index() % 4, TrajectoryId((id.index() / 4) as u32));
            assert!(
                cut.shard(s).live().is_live(local),
                "round {round}: {id} not live in the pinned cut"
            );
        }
        cluster.ingest(random_traj(&mut rng, n)).expect("ingest");
        cluster.publish_all().expect("publish");
    }
}
