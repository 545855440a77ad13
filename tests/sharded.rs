//! Chaos suite for the sharded durable cluster: crash one shard's WAL
//! mid-ingest and the *cluster* must come back — the torn shard recovers
//! exactly its durable prefix (the damage is reported, never silently
//! absorbed), every other shard replays in full, and a query over
//! the recovered cut answers bit-identically to an unsharded engine over
//! the surviving trajectories. A shard whose lineage is gone entirely
//! must fail the open cleanly instead of serving a hole.
//!
//! Seeds are fixed: CI reproduces these exact crash scenes.
//!
//! The second half pins the lockstep itself (DESIGN §16.2): a k-boundary
//! tie plateau split across shards, the effort of a sharded run against
//! the unsharded one, the certificate of count-budgeted answers, and the
//! determinism of the effort counters — and the TS-join over a cut's view
//! against the brute-force oracle.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use uots::cluster::{shard_dir, ShardedDurable};
use uots::core::testing::corrupt;
use uots::core::wal::{self, WalConfig};
use uots::datagen::adversarial::{hub_spike, split_city};
use uots::join::{ts_join, ts_join_brute, ts_join_with, JoinConfig, JoinPair};
use uots::network::generators::{grid_city, GridCityConfig};
use uots::prelude::*;
use uots::storage::StdFs;
use uots::{
    Dataset, DatasetConfig, EpochManager, KeywordSet, NetworkBuilder, QueryResult, Sample,
    TrajectoryStore, UotsQuery,
};
use uots_core::algorithms::BruteForce;
use uots_core::shard::{Cluster, RouteError, Shard};
use uots_core::{ClusterSnapshot, Mutation, Partitioner, ShardedAnswer, ShardedCluster};
use uots_index::VertexInvertedIndex;
use uots_text::KeywordId;
use uots_trajectory::{LiveSet, Trajectory};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uots_sharded_tests")
        .join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bit-exact result fingerprint (ids + every similarity channel).
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

fn donor(ds: &Dataset, i: usize) -> Trajectory {
    ds.store
        .get(TrajectoryId((i % ds.store.len()) as u32))
        .clone()
}

fn random_query(rng: &mut StdRng, num_nodes: usize, vocab_len: usize) -> UotsQuery {
    let m = rng.gen_range(1..4);
    let locations: Vec<NodeId> = (0..m)
        .map(|_| NodeId(rng.gen_range(0..num_nodes) as u32))
        .collect();
    let kws: Vec<KeywordId> = (0..rng.gen_range(0..4))
        .map(|_| KeywordId(rng.gen_range(0..vocab_len as u32)))
        .collect();
    let lambda = [0.1, 0.3, 0.5, 0.8][rng.gen_range(0..4usize)];
    UotsQuery::with_options(
        locations,
        KeywordSet::from_ids(kws),
        vec![],
        QueryOptions {
            weights: Weights::lambda(lambda).expect("valid lambda"),
            k: rng.gen_range(1..6),
            ..Default::default()
        },
    )
    .expect("valid query")
}

/// The chaos keystone: 4 shards ingest 32 trajectories, the process
/// "crashes" with a torn write at the tail of shard 2's WAL, and the
/// reopened cluster serves the durable prefix — shard 2 minus exactly the
/// torn record, everything else in full — with answers bit-identical to
/// an unsharded engine over the same surviving set.
#[test]
fn torn_shard_wal_recovers_durable_prefix_others_replay_fully() {
    let ds = Dataset::build(&DatasetConfig::small(40, 21)).expect("dataset");
    let seed_len = ds.store.len() as u32;
    let root = tmpdir("torn-shard");
    let network = Arc::new(ds.network.clone());
    let mut cluster = ShardedDurable::create(
        Arc::clone(&network),
        &ds.store,
        &ds.vocab,
        &root,
        4,
        WalConfig::default(),
        None,
        None,
    )
    .expect("create cluster");
    for i in 0..32 {
        let id = cluster.ingest(donor(&ds, i)).expect("ingest");
        assert_eq!(
            id,
            TrajectoryId(seed_len + i as u32),
            "healthy routing must assign sequential global ids"
        );
    }
    cluster.publish_all().expect("publish");
    let live_before = cluster.snapshot().num_live();
    assert_eq!(live_before, 72);
    drop(cluster);

    // Crash scene: the final WAL record of shard 2 was torn mid-write.
    // With 4 shards, shard 2 holds globals ≡ 2 (mod 4); its last acked
    // insert is global 70.
    let victim_dir = shard_dir(&root, 2);
    let segments = wal::list_segments(&StdFs, &victim_dir).expect("list segments");
    let tail = segments.last().expect("shard 2 has a segment");
    let len = std::fs::metadata(tail).unwrap().len();
    corrupt::truncate_file(tail, len - 7).unwrap();

    let (reopened, reports) =
        ShardedDurable::open(&root, 4, WalConfig::default(), None, None).expect("reopen");
    assert_eq!(reports.len(), 4);
    for (s, r) in reports.iter().enumerate() {
        if s == 2 {
            assert!(
                r.wal_corruption.is_some(),
                "shard 2 must report the torn tail: {r:?}"
            );
            assert_eq!(
                r.replayed_batches, 7,
                "shard 2 recovers its durable prefix (7 of 8 ingests): {r:?}"
            );
        } else {
            assert!(r.wal_corruption.is_none(), "shard {s} was undamaged: {r:?}");
            assert_eq!(r.replayed_batches, 8, "shard {s} replays in full: {r:?}");
        }
    }

    let cut = reopened.snapshot();
    assert_eq!(
        cut.num_live(),
        live_before - 1,
        "exactly the torn record is lost"
    );
    // global 70 = shard 2, local 17: gone; global 66 = local 16: intact
    assert!(cut.shard(2).store().len() as u32 == 17);
    assert!(cut.shard(2).live().is_live(TrajectoryId(16)));

    // The unsharded twin of the recovered state: the full history with
    // the torn trajectory retired (masking and absence answer queries
    // identically — global ids stay aligned).
    let mut full = ds.store.clone();
    for i in 0..32 {
        full.push(donor(&ds, i));
    }
    let mgr = EpochManager::new(Arc::clone(&network), full, ds.vocab.len());
    assert!(mgr.retire(TrajectoryId(70)));
    let snapshot = mgr.publish();
    let live_db = snapshot.database();

    let mut rng = StdRng::seed_from_u64(0x5a4d_0001);
    for q_i in 0..10 {
        let q = random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len());
        let want = fingerprint(&BruteForce.run(&live_db, &q).expect("unsharded oracle"));
        let brute = cut.search(&BruteForce, &q).expect("sharded brute force");
        assert_eq!(
            want,
            fingerprint(&brute.result),
            "q{q_i}: recovered cut (brute force) diverged"
        );
        let expansion = cut
            .search(&Expansion::default(), &q)
            .expect("sharded expansion");
        assert_eq!(
            want,
            fingerprint(&expansion.result),
            "q{q_i}: recovered cut (expansion) diverged"
        );
    }

    // The reopened cluster keeps accepting writes and the torn shard's
    // residue class resumes from its recovered length: the next insert
    // routed to shard 2 reuses the lost global id.
    let mut reopened = reopened;
    let mut new_ids = Vec::new();
    for i in 0..4 {
        new_ids.push(
            reopened
                .ingest(donor(&ds, i))
                .expect("post-recovery ingest"),
        );
    }
    assert!(
        new_ids.contains(&TrajectoryId(70)),
        "the lost global id is re-issued before any new ones: {new_ids:?}"
    );
    let after = reopened.publish_all().expect("publish after recovery");
    assert_eq!(after.num_live(), live_before + 3);
}

/// A shard directory that lost its entire lineage (all checkpoints and
/// segments) fails the cluster open with a clean error — operators must
/// restore or re-seed it explicitly; the cluster never silently serves a
/// hole in the id space.
#[test]
fn missing_shard_lineage_fails_open_cleanly() {
    let ds = Dataset::build(&DatasetConfig::small(24, 33)).expect("dataset");
    let root = tmpdir("missing-shard");
    let cluster = ShardedDurable::create(
        Arc::new(ds.network.clone()),
        &ds.store,
        &ds.vocab,
        &root,
        4,
        WalConfig::default(),
        None,
        None,
    )
    .expect("create cluster");
    drop(cluster);
    std::fs::remove_dir_all(shard_dir(&root, 1)).unwrap();
    let err = ShardedDurable::open(&root, 4, WalConfig::default(), None, None);
    assert!(err.is_err(), "a vanished shard lineage must fail the open");
}

fn traj(nodes: &[u32], tags: &[u32]) -> Trajectory {
    Trajectory::new(
        nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| Sample {
                node: NodeId(v),
                time: 60.0 * i as f64,
            })
            .collect(),
        KeywordSet::from_ids(tags.iter().map(|&k| KeywordId(k))),
    )
    .expect("valid trajectory")
}

/// A tie plateau exactly at the k boundary, split across every shard.
///
/// The query visits vertices 27 and 28 with keywords {1, 2}, λ = 0.5,
/// k = 3. Trajectory 23 passes both places and carries both keywords
/// (similarity 1). Two ids in three pass both places with keyword 1 only:
/// spatial 1, Jaccard 1/2, similarity **exactly** 0.75 — the plateau, 31
/// members with ids 0, 1, 3, 4, … and first samples all over the grid. The
/// rest sit in the far corner and score less. The answer is 23 and the two
/// *smallest* plateau ids, 0 and 1.
///
/// Keyword 2 lives on trajectory 23 alone, so its shard is bounded at 1;
/// every other shard is bounded at `0.5 + 0.5·½ = 0.75`: equal to the
/// k-th score once the top-k fills, so it must stay walked — retiring a
/// part on `bound <= kth` loses ids 0 and 1. Each plateau member is first
/// sighted with one distance known (0) and the other bounded by a zero
/// radius, i.e. with `ub = 0.75`, equal to the k-th: retiring on `ub <=
/// kth` loses them again.
#[test]
fn tie_plateau_at_the_k_boundary_survives_any_split() {
    let net = Arc::new(grid_city(&GridCityConfig::tiny(8)).expect("grid"));
    let mut store = TrajectoryStore::new();
    for id in 0..48u32 {
        store.push(match id {
            23 => traj(&[27, 28], &[1, 2]),
            _ if id % 3 != 2 => traj(&[(id * 5) % 64, 27, 28], &[1]),
            _ => traj(&[id % 8, id % 8 + 8], &[1]),
        });
    }
    let q = UotsQuery::with_options(
        vec![NodeId(27), NodeId(28)],
        KeywordSet::from_ids([KeywordId(1), KeywordId(2)]),
        vec![],
        QueryOptions {
            weights: Weights::lambda(0.5).expect("valid lambda"),
            k: 3,
            ..Default::default()
        },
    )
    .expect("valid query");
    let vidx = store.build_vertex_index(net.num_nodes());
    let kidx = store.build_keyword_index(4);
    let kb = store.build_keyword_blocks();
    let db = Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
    let oracle = BruteForce.run(&db, &q).expect("oracle");
    assert_eq!(
        oracle.ids(),
        [23, 0, 1].map(TrajectoryId),
        "the fixture is the plateau it claims to be"
    );
    assert_eq!(oracle.matches[1].similarity, 0.75);
    let want = fingerprint(&oracle);

    for shards in [1, 2, 3, 4, 8] {
        let cut =
            ShardedCluster::new(Arc::clone(&net), &store, 4, shards, Partitioner::Hash).snapshot();
        let runs = [
            ("brute-force", cut.search(&BruteForce, &q)),
            ("expansion", cut.search(&Expansion::default(), &q)),
        ];
        for (name, answer) in runs {
            let answer = answer.expect("sharded run");
            assert!(
                answer.result.completeness.is_exact(),
                "{shards} shard(s): {name}"
            );
            assert_eq!(
                want,
                fingerprint(&answer.result),
                "{shards} shard(s): {name}"
            );
        }
    }
}

/// The run is sequential, so its effort is a function of the query and
/// the cut: the same query twice reports the same cut and cancelled shards
/// and does the same work, budgeted or not.
#[test]
fn effort_counters_are_deterministic() {
    let ds = Dataset::build(&DatasetConfig::small(160, 5)).expect("dataset");
    let network = Arc::new(ds.network.clone());
    let cluster = ShardedCluster::new(network, &ds.store, ds.vocab.len(), 4, Partitioner::Hash);
    let mut rng = StdRng::seed_from_u64(0x5a4d_0003);
    // needles: a keyword one or two trajectories carry, asked for at the
    // holder's own places with a textually dominated ranking — the shards
    // without the keyword are bounded at λ and retired
    let needles: Vec<UotsQuery> = (0..ds.vocab.len() as u32)
        .map(KeywordId)
        .filter(|&kw| (1..=2).contains(&ds.keyword_index.values_at(kw).len()))
        .take(10)
        .map(|kw| {
            let holder = ds.store.get(ds.keyword_index.values_at(kw)[0]);
            UotsQuery::with_options(
                holder.nodes().take(1).collect(),
                KeywordSet::from_ids([kw]),
                vec![],
                QueryOptions {
                    weights: Weights::lambda(0.1).expect("valid lambda"),
                    ..Default::default()
                },
            )
            .expect("valid needle")
        })
        .collect();
    let mut cut = 0;
    for q_i in 0..40 {
        let mut q = match needles.get(q_i / 4) {
            Some(needle) if q_i % 4 == 0 => needle.clone(),
            _ => random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len()),
        };
        if q_i % 2 == 1 {
            let mut opts = q.options().clone();
            opts.budget = ExecutionBudget::default().with_max_visited(rng.gen_range(1..40));
            q = q.reoptioned(opts).expect("same query, budgeted");
        }
        let effort = |_| {
            let a = cluster
                .snapshot()
                .search(&Expansion::default(), &q)
                .expect("sharded run");
            let m = &a.result.metrics;
            (
                a.shards_cut,
                a.shards_cancelled,
                m.visited_trajectories,
                m.settled_vertices,
                fingerprint(&a.result),
                a.result.completeness,
            )
        };
        let (first, second) = (effort(0), effort(1));
        assert_eq!(first, second, "q{q_i}");
        cut += first.0;
    }
    assert!(cut > 0, "the pool never retired a shard");
}

/// Every effort counter of a run's metrics (all but its timings).
fn counters(m: &uots::core::SearchMetrics) -> [usize; 9] {
    [
        m.queries,
        m.visited_trajectories,
        m.settled_vertices,
        m.scanned_timestamps,
        m.candidates,
        m.retired,
        m.interrupted,
        m.heap_pushes,
        m.peak_frontier,
    ]
}

/// Checks a sharded answer's effort against the unsharded run of the same
/// query: with no part retired the sharded run walks the cut's one
/// posting list in the unsharded order, so it is the unsharded engine step
/// for step — every effort counter equal, and a count budget trips at the
/// same step with the same answer. A retired part only saves work:
/// between two runs that end by their termination test the sharded one
/// settles and visits no more. (Under a visit budget a retired part can
/// make it settle more: it walks fewer postings per settle, so the budget
/// trips later.)
fn assert_lockstep_effort(sharded: &ShardedAnswer, unsharded: &QueryResult, label: &str) {
    let (s, u) = (&sharded.result.metrics, &unsharded.metrics);
    let exact = sharded.result.completeness.is_exact();
    if sharded.shards_cut == 0 {
        assert_eq!(counters(s), counters(u), "{label}: effort counters");
        assert_eq!(
            exact,
            unsharded.completeness.is_exact(),
            "{label}: the budget tripped at another step"
        );
        assert_eq!(
            fingerprint(&sharded.result),
            fingerprint(unsharded),
            "{label}"
        );
    } else if exact && unsharded.completeness.is_exact() {
        assert!(
            s.settled_vertices <= u.settled_vertices,
            "{label}: settles {s:?} {u:?}"
        );
        assert!(
            s.visited_trajectories <= u.visited_trajectories,
            "{label}: visits"
        );
    }
}

/// A connected random network (spanning tree plus chords) and a store
/// over it whose trajectories come in `dup` identical copies — the
/// uniform cases of `tests/differential.rs`.
fn random_case(rng: &mut StdRng, dup: usize) -> (uots::RoadNetwork, TrajectoryStore) {
    let n = rng.gen_range(6..22);
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
    let mut store = TrajectoryStore::new();
    for _ in 0..rng.gen_range(1..20) {
        let t0 = rng.gen::<f64>() * 80_000.0;
        let samples: Vec<Sample> = (0..rng.gen_range(1..7))
            .map(|i| Sample {
                node: NodeId(rng.gen_range(0..n) as u32),
                time: (t0 + 30.0 * i as f64).min(86_400.0),
            })
            .collect();
        let tags: Vec<KeywordId> = (0..rng.gen_range(0..4))
            .map(|_| KeywordId(rng.gen_range(0..12)))
            .collect();
        let t = Trajectory::new(samples, KeywordSet::from_ids(tags)).expect("valid");
        for _ in 0..dup {
            store.push(t.clone());
        }
    }
    (b.build().expect("non-empty"), store)
}

/// The lockstep at the level of counts, over the uniform, hub-spike and
/// split-city cases of the differential harness: every hash cut of 2, 3,
/// 4 and 8 shards answers exactly as the unsharded engine, and its effort
/// is the unsharded effort whenever no part was retired, unbudgeted and
/// under visit and settle budgets alike.
#[test]
fn lockstep_effort_matches_the_unsharded_engine() {
    let mut rng = StdRng::seed_from_u64(0x5a4d_0004);
    let mut cases: Vec<(uots::RoadNetwork, TrajectoryStore, usize)> = (0..12)
        .map(|i| {
            let (net, store) = random_case(&mut rng, if i % 3 == 2 { 3 } else { 1 });
            (net, store, 12)
        })
        .collect();
    for seed in [17u64, 29] {
        let ds = hub_spike(24, seed).expect("hub-spike builds");
        cases.push((ds.network, ds.store, ds.vocab.len()));
    }
    for seed in [41u64, 57] {
        let ds = split_city(3, 9, seed).expect("split-city builds");
        cases.push((ds.network, ds.store, ds.vocab.len()));
    }
    let (mut compared, mut retired) = (0, 0);
    for (ds_i, (net, store, vocab_len)) in cases.into_iter().enumerate() {
        let net = Arc::new(net);
        let nodes = net.num_nodes();
        let unsharded = EpochManager::new(Arc::clone(&net), store.clone(), vocab_len).snapshot();
        let db = unsharded.database();
        let cuts: Vec<ClusterSnapshot> = [2, 3, 4, 8]
            .map(|n| {
                ShardedCluster::new(Arc::clone(&net), &store, vocab_len, n, Partitioner::Hash)
                    .snapshot()
            })
            .into();
        for q_i in 0..10 {
            let q = random_query(&mut rng, nodes, vocab_len.min(12));
            let budgets = [
                ExecutionBudget::UNLIMITED,
                ExecutionBudget::default().with_max_visited(rng.gen_range(1..12)),
                ExecutionBudget::default().with_max_settled(rng.gen_range(1..16)),
            ];
            for budget in budgets {
                let mut opts = q.options().clone();
                opts.budget = budget;
                let q = q.reoptioned(opts).expect("same query, budgeted");
                for algo in [Expansion::default(), Expansion::new(Scheduler::RoundRobin)] {
                    let want = algo.run(&db, &q).expect("unsharded run");
                    for cut in &cuts {
                        let label = format!(
                            "case {ds_i} q{q_i} {budget:?} {} on {} shards",
                            algo.name(),
                            cut.num_shards()
                        );
                        let got = cut.search(&algo, &q).expect("sharded run");
                        if want.completeness.is_exact() && got.result.completeness.is_exact() {
                            assert_eq!(fingerprint(&got.result), fingerprint(&want), "{label}");
                        }
                        assert_lockstep_effort(&got, &want, &label);
                        compared += 1;
                        retired += usize::from(got.shards_cut > 0);
                    }
                }
            }
        }
    }
    assert!(
        retired > 0 && retired < compared,
        "{retired} of {compared} runs retired a part"
    );
}

/// A join's pairs as comparable rows: ids and similarity bits.
fn join_rows(pairs: &[JoinPair]) -> Vec<(TrajectoryId, TrajectoryId, u64)> {
    pairs
        .iter()
        .map(|p| (p.a, p.b, p.similarity.to_bits()))
        .collect()
}

/// The live trajectories of `cut` in one store, in ascending global id
/// order, beside the global id of each compact one.
fn live_store(cut: &ClusterSnapshot) -> (TrajectoryStore, Vec<TrajectoryId>) {
    let mut rows: Vec<(TrajectoryId, Trajectory)> = (0..cut.num_shards())
        .flat_map(|s| {
            let shard = cut.shard(s);
            shard
                .live()
                .iter_live()
                .map(move |local| (cut.global_of(s, local), shard.store().get(local).clone()))
        })
        .collect();
    rows.sort_by_key(|r| r.0);
    let mut store = TrajectoryStore::new();
    let globals = rows
        .into_iter()
        .map(|(g, t)| {
            store.push(t);
            g
        })
        .collect();
    (store, globals)
}

/// Checks the TS-join over `cut`'s view against the brute-force oracle
/// and the unsharded join over the same live trajectories; returns how
/// many pairs it found.
fn assert_view_join_matches(cut: &ClusterSnapshot, label: &str) -> usize {
    let (store, globals) = live_store(cut);
    let to_global = |pairs: Vec<JoinPair>| -> Vec<JoinPair> {
        pairs
            .into_iter()
            .map(|p| JoinPair {
                a: globals[p.a.index()],
                b: globals[p.b.index()],
                similarity: p.similarity,
            })
            .collect()
    };
    let net = cut.shard(0).network();
    let vidx = store.build_vertex_index(net.num_nodes());
    let tidx = store.build_timestamp_index();
    let mut found = 0;
    for lambda in [0.0, 0.5, 1.0] {
        let cfg = JoinConfig {
            theta: 0.7,
            lambda,
            ..Default::default()
        };
        let label = format!("{label} λ={lambda}");
        let (budget, ctl) = (&ExecutionBudget::UNLIMITED, &RunControl::unbounded());
        let got = ts_join_with(&cut.view(), &cfg, 2, budget, ctl).expect("view join");
        assert!(got.completeness.is_exact(), "{label}");
        let brute = to_global(ts_join_brute(net, &store, &cfg).expect("oracle"));
        assert_eq!(join_rows(&got.pairs), join_rows(&brute), "{label}: oracle");
        let flat = ts_join(net, &store, &vidx, &tidx, &cfg, 1).expect("unsharded join");
        let flat = to_global(flat.pairs);
        assert_eq!(
            join_rows(&got.pairs),
            join_rows(&flat),
            "{label}: unsharded"
        );
        found += got.pairs.len();
    }
    found
}

/// The TS-join runs over a cluster cut's [`View`] as it stands: at every
/// shard count, on a fresh cut, mid-ingest (inserts published, more
/// pending) and after retires, it answers the brute-force oracle's pairs
/// over the cut's live trajectories — in global ids, with the same
/// similarity bits — and the unsharded join's. A budget that trips
/// mid-join returns a certified subset.
#[test]
fn join_over_a_view_equals_the_oracle_at_every_shard_count() {
    let ds = Dataset::build(&DatasetConfig::small(40, 31)).expect("dataset");
    let network = Arc::new(ds.network.clone());
    let mut found = 0;
    for shards in [1usize, 2, 4, 8] {
        let mut cluster = ShardedCluster::new(
            Arc::clone(&network),
            &ds.store,
            ds.vocab.len(),
            shards,
            Partitioner::Hash,
        );
        found += assert_view_join_matches(&cluster.snapshot(), &format!("{shards} fresh"));

        // near-duplicates of seed trips: published, then more pending
        let inserts = |from: usize| (from..from + 5).map(|i| Mutation::Insert(donor(&ds, i * 3)));
        cluster.apply(inserts(0).collect()).expect("insert");
        cluster.publish_all().expect("publish");
        cluster.apply(inserts(5).collect()).expect("pending insert");
        let label = format!("{shards} mid-ingest");
        found += assert_view_join_matches(&cluster.snapshot(), &label);

        let retires = [0u32, 3, 7, 41, 44].map(|g| Mutation::Retire(TrajectoryId(g)));
        cluster.apply(retires.into()).expect("retire");
        cluster.publish_all().expect("publish");
        found += assert_view_join_matches(&cluster.snapshot(), &format!("{shards} retired"));

        if shards == 4 {
            let cut = cluster.snapshot();
            let cfg = JoinConfig {
                theta: 0.6,
                ..Default::default()
            };
            let ctl = &RunControl::unbounded();
            let exact = ts_join_with(&cut.view(), &cfg, 1, &ExecutionBudget::UNLIMITED, ctl)
                .expect("exact join");
            let tiny = ExecutionBudget::default().with_max_visited(1);
            let r = ts_join_with(&cut.view(), &cfg, 1, &tiny, ctl).expect("budgeted join");
            assert_eq!(
                r.completeness,
                Completeness::BestEffort {
                    bound_gap: 1.0 - cfg.theta
                }
            );
            let exact = join_rows(&exact.pairs);
            for row in join_rows(&r.pairs) {
                assert!(exact.contains(&row), "budgeted pair {row:?} not exact");
            }
            assert!(r.pairs.len() < exact.len(), "the budget cut pairs");
        }
    }
    assert!(found > 0, "no λ and cut produced a pair");
}

const EPS: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Count-budgeted sharded answers: whatever the budget interrupts, the
    /// `bound_gap` covers every trajectory the answer left out, and the
    /// run's effort is the unsharded run's whenever no part was retired.
    #[test]
    fn budgeted_sharded_answers_are_certified_sound(
        seed in 0u64..1_000,
        shards in 2usize..5,
        max_visited in 0usize..48,
        k in 1usize..5,
        lambda in 0.0f64..=1.0,
    ) {
        let ds = Dataset::build(&DatasetConfig::small(40, seed)).unwrap();
        let spec = &workload::generate(&ds, &workload::WorkloadConfig {
            num_queries: 1,
            seed: seed ^ 0x51,
            ..Default::default()
        })[0];
        let opts = QueryOptions {
            weights: Weights::lambda(lambda).unwrap(),
            k,
            budget: ExecutionBudget::default().with_max_visited(max_visited),
            ..Default::default()
        };
        let q = UotsQuery::with_options(
            spec.locations.clone(), spec.keywords.clone(), vec![], opts.clone(),
        ).unwrap();
        // every trajectory's exact similarity, best first
        let full = q.reoptioned(QueryOptions {
            k: ds.store.len(),
            budget: ExecutionBudget::UNLIMITED,
            ..opts
        }).unwrap();
        let oracle = BruteForce.run(&uots::db(&ds), &full).unwrap();

        let cut = ShardedCluster::new(
            Arc::new(ds.network.clone()), &ds.store, ds.vocab.len(), shards, Partitioner::Hash,
        ).snapshot();
        let algo = Expansion::default();
        let answer = cut.search(&algo, &q).unwrap();
        let r = &answer.result;
        let gap = r.completeness.bound_gap();
        prop_assert!(r.is_ranked() && r.matches.len() <= k);
        prop_assert!((0.0..=1.0).contains(&gap));

        // real trajectories with their exact scores
        for m in &r.matches {
            let exact = oracle.matches.iter().find(|o| o.id == m.id).expect("real id");
            prop_assert_eq!(m.similarity.to_bits(), exact.similarity.to_bits());
        }
        // nothing left out beats the returned k-th by more than the gap
        // (an unfilled answer certifies against 0) …
        let kth = if r.matches.len() == k { r.matches[k - 1].similarity } else { 0.0 };
        for o in oracle.matches.iter().filter(|o| !r.ids().contains(&o.id)) {
            prop_assert!(
                o.similarity <= kth + gap + EPS,
                "{} scores {} > kth {kth} + gap {gap}", o.id, o.similarity
            );
        }
        // … so every rank is within the gap of the optimum
        for (i, o) in oracle.matches.iter().take(k).enumerate() {
            let returned = r.matches.get(i).map_or(0.0, |m| m.similarity);
            prop_assert!(o.similarity <= returned + gap + EPS && returned <= o.similarity + EPS);
        }
        if r.completeness.is_exact() {
            let best: Vec<_> = oracle.matches.iter().take(k).map(|m| m.id).collect();
            prop_assert_eq!(r.ids(), best);
        }

        // the one run against the unsharded one, for what it did
        let unsharded = algo.run(&uots::db(&ds), &q).unwrap();
        assert_lockstep_effort(&answer, &unsharded, &format!("seed {seed}, {shards} shards"));
    }
}

/// A volatile shard that can refuse inserts, as a degraded durable shard
/// does: the coordinator routes them around it, so its residue class of
/// global ids stops growing and leaves a gap.
struct Refusing {
    manager: EpochManager,
    writable: bool,
}

impl Shard for Refusing {
    type Error = RouteError;

    fn manager(&self) -> &EpochManager {
        &self.manager
    }

    fn writable(&self) -> bool {
        self.writable
    }

    fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<TrajectoryId>, RouteError> {
        Ok(self.manager.apply(batch))
    }

    fn publish(&mut self) -> Result<Arc<uots_core::EpochSnapshot>, RouteError> {
        Ok(self.manager.publish())
    }
}

/// `N` volatile shards reseeded from `snapshots` — the state a restart
/// recovers — shard `degraded` refusing inserts.
fn refusing_cluster(
    net: &Arc<uots::RoadNetwork>,
    snapshots: Vec<(TrajectoryStore, LiveSet)>,
    vocab_len: usize,
    degraded: Option<usize>,
) -> Cluster<Refusing> {
    let own = snapshots.len() == 1;
    let shards = (snapshots.into_iter().enumerate())
        .map(|(s, (store, live))| Refusing {
            manager: EpochManager::from_parts(
                Arc::clone(net),
                store,
                live,
                vocab_len,
                0,
                own,
                None,
                None,
            ),
            writable: degraded != Some(s),
        })
        .collect();
    Cluster::over(shards, &uots::MetricsRegistry::new())
}

/// The cut's shards as `(store, live)` pairs, as a restart recovers them.
fn recovered_state(cut: &ClusterSnapshot) -> Vec<(TrajectoryStore, LiveSet)> {
    (0..cut.num_shards())
        .map(|s| (cut.shard(s).store().clone(), cut.shard(s).live().clone()))
        .collect()
}

/// The vertex index of the cut's live trajectories rebuilt over one
/// unpartitioned store at their global ids — a hole a refusing shard left
/// holds a retired placeholder — for comparison with the cut's own.
fn rebuilt_vertex_index(cut: &ClusterSnapshot) -> VertexInvertedIndex<TrajectoryId> {
    let n = cut.num_shards();
    let rows = (0..n)
        .map(|s| cut.shard(s).store().len())
        .max()
        .unwrap_or(0);
    let (mut store, mut live) = (TrajectoryStore::new(), LiveSet::all_live(rows * n));
    for g in 0..rows * n {
        let (s, l) = (g % n, TrajectoryId((g / n) as u32));
        let shard = cut.shard(s);
        if l.index() < shard.store().len() {
            store.push(shard.store().get(l).clone());
            if !shard.live().is_live(l) {
                live.retire(TrajectoryId(g as u32));
            }
        } else {
            store.push(cut.shard(0).store().get(TrajectoryId(0)).clone());
            live.retire(TrajectoryId(g as u32));
        }
    }
    store.build_vertex_index_live(cut.shard(0).network().num_nodes(), &live)
}

/// The one vertex index per cut: the cut's own, and none per shard at
/// `N ≥ 2` (a lone shard's is the cut's).
fn assert_one_vertex_index(cut: &ClusterSnapshot, label: &str) {
    assert_eq!(
        cut.vertex_index(),
        &rebuilt_vertex_index(cut),
        "{label}: the cut's vertex index is not the rebuild's"
    );
    for s in 0..cut.num_shards() {
        let own = cut.shard(s).vertex_index().is_some();
        assert_eq!(own, cut.num_shards() == 1, "{label}: shard {s}'s own index");
    }
}

/// One step of a random write script.
#[derive(Debug, Clone)]
enum Step {
    /// Insert a copy of donor trajectory `i`.
    Insert(usize),
    /// Retire the `i`-th issued id (modulo the ids issued so far).
    Retire(usize),
    /// Retire the batch's own `i`-th insert (modulo its inserts; none yet:
    /// nothing).
    RetireOwn(usize),
    /// Apply the batch built so far and publish every shard.
    Publish,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..7, 0usize..1000).prop_map(|(kind, i)| match kind {
        0..=2 => Step::Insert(i % 40),
        3 | 4 => Step::Retire(i),
        5 => Step::RetireOwn(i),
        _ => Step::Publish,
    })
}

/// Runs `steps` against `cluster`, checking the cut after every publish.
/// A batch's own inserts get the ids the coordinator's rule issues: the
/// writable shard with the smallest unused global id.
fn run_script<S: Shard>(cluster: &mut Cluster<S>, ds: &Dataset, steps: &[Step], label: &str)
where
    S::Error: std::fmt::Debug,
{
    let n = cluster.num_shards();
    let issued =
        |c: &Cluster<S>| -> Vec<usize> { (0..n).map(|s| c.shard(s).manager().issued()).collect() };
    let mut batch: Vec<Mutation> = Vec::new();
    let mut own: Vec<TrajectoryId> = Vec::new();
    let mut counts = issued(cluster);
    for (i, step) in steps.iter().chain([&Step::Publish]).enumerate() {
        match *step {
            Step::Insert(d) => {
                let s = (0..n)
                    .filter(|&s| cluster.shard(s).writable())
                    .min_by_key(|&s| counts[s] * n + s)
                    .expect("a writable shard");
                own.push(TrajectoryId((counts[s] * n + s) as u32));
                counts[s] += 1;
                batch.push(Mutation::Insert(donor(ds, d)));
            }
            Step::Retire(r) => {
                let ids: Vec<usize> = (0..n)
                    .flat_map(|s| (0..counts[s]).map(move |l| l * n + s))
                    .collect();
                if !ids.is_empty() {
                    batch.push(Mutation::Retire(TrajectoryId(ids[r % ids.len()] as u32)));
                }
            }
            Step::RetireOwn(r) => {
                if !own.is_empty() {
                    batch.push(Mutation::Retire(own[r % own.len()]));
                }
            }
            Step::Publish => {
                let inserts = batch.iter().filter(|m| matches!(m, Mutation::Insert(_)));
                let want = own.len();
                assert_eq!(inserts.count(), want);
                let got = cluster.apply(std::mem::take(&mut batch)).expect("apply");
                assert_eq!(
                    got,
                    std::mem::take(&mut own),
                    "{label} step {i}: issued ids"
                );
                let cut = cluster.publish_all().expect("publish");
                assert_one_vertex_index(&cut, &format!("{label} step {i}"));
                counts = issued(cluster);
            }
        }
    }
}

fn script_dataset() -> &'static Dataset {
    static DS: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
    DS.get_or_init(|| Dataset::build(&DatasetConfig::small(30, 23)).unwrap())
}

#[test]
fn a_cut_of_several_shards_holds_one_vertex_index() {
    let ds = script_dataset();
    let net = Arc::new(ds.network.clone());
    for n in 1..=4 {
        let cut = ShardedCluster::new(
            Arc::clone(&net),
            &ds.store,
            ds.vocab.len(),
            n,
            Partitioner::Hash,
        )
        .snapshot();
        assert_one_vertex_index(&cut, &format!("{n} shard(s)"));
        assert!(std::ptr::eq(cut.view().vertex_index(), cut.vertex_index()));
        if n == 1 {
            let own = cut.shard(0).vertex_index().expect("a lone shard's index");
            assert!(std::ptr::eq(cut.vertex_index(), own), "one shard: no copy");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any script of batches and publishes — batches that retire
    /// their own inserts, one shard refusing inserts, a restart that lets
    /// it take them again and fill its gap below the highest id — the
    /// cut's one vertex index equals a rebuild over the unpartitioned
    /// live store, volatile and durable alike.
    #[test]
    fn the_cut_vertex_index_is_the_rebuild(
        shards in 1usize..=4,
        degraded in 0usize..5,
        durable in any::<bool>(),
        before in proptest::collection::vec(step(), 0..24),
        after in proptest::collection::vec(step(), 0..24),
    ) {
        let ds = script_dataset();
        let net = Arc::new(ds.network.clone());
        // 4: no shard refuses inserts
        let degraded = (degraded < shards && shards > 1).then_some(degraded);
        let label = format!("{shards} shards, degraded {degraded:?}, durable {durable}");
        if durable {
            let dir = tmpdir(&format!("cut-index-{shards}"));
            let config = WalConfig::default();
            let mut cluster = ShardedDurable::create(
                Arc::clone(&net), &ds.store, &ds.vocab, &dir, shards, config, None, None,
            ).expect("create");
            assert_one_vertex_index(&cluster.snapshot(), &label);
            run_script(&mut cluster, ds, &before, &label);
            drop(cluster);
            let (mut cluster, _) =
                ShardedDurable::open(&dir, shards, config, None, None).expect("recover");
            assert_one_vertex_index(&cluster.snapshot(), &format!("{label}, recovered"));
            run_script(&mut cluster, ds, &after, &format!("{label}, recovered"));
            std::fs::remove_dir_all(&dir).ok();
        } else {
            let seeded = ShardedCluster::new(
                Arc::clone(&net), &ds.store, ds.vocab.len(), shards, Partitioner::Hash,
            );
            let state = recovered_state(&seeded.snapshot());
            let mut cluster = refusing_cluster(&net, state, ds.vocab.len(), degraded);
            run_script(&mut cluster, ds, &before, &label);
            let state = recovered_state(&cluster.snapshot());
            let mut cluster = refusing_cluster(&net, state, ds.vocab.len(), None);
            assert_one_vertex_index(&cluster.snapshot(), &format!("{label}, restarted"));
            run_script(&mut cluster, ds, &after, &format!("{label}, restarted"));
        }
    }
}
