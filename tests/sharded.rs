//! Chaos suite for the sharded durable cluster: crash one shard's WAL
//! mid-ingest and the *cluster* must come back — the torn shard recovers
//! exactly its durable prefix (the damage is reported, never silently
//! absorbed), every other shard replays in full, and scatter-gather over
//! the recovered cut answers bit-identically to an unsharded engine over
//! the surviving trajectories. A shard whose lineage is gone entirely
//! must fail the open cleanly instead of serving a hole.
//!
//! Seeds are fixed: CI reproduces these exact crash scenes.
//!
//! The second half pins the scatter-gather walk itself (DESIGN §16.2): a
//! k-boundary tie plateau split across shards, the certificate of
//! count-budgeted answers, and the determinism of the effort counters.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use uots::cluster::{shard_dir, ShardedDurable};
use uots::core::testing::corrupt;
use uots::core::wal::{self, WalConfig};
use uots::network::generators::{grid_city, GridCityConfig};
use uots::prelude::*;
use uots::{
    Dataset, DatasetConfig, EpochManager, KeywordSet, QueryResult, Recorder, Sample, SearchContext,
    TopK, TrajectoryStore, UotsQuery,
};
use uots_core::algorithms::BruteForce;
use uots_core::{shard_upper_bound, Partitioner, Planner, SettleLogs, ShardedCluster};
use uots_text::KeywordId;
use uots_trajectory::Trajectory;

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
    fingerprint_of(&r.matches)
}

fn fingerprint_of(matches: &[Match]) -> Vec<(TrajectoryId, u64, u64, u64, u64)> {
    matches
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
    let segments = wal::list_segments(&victim_dir).expect("list segments");
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
    let planner = Planner::new();
    for q_i in 0..10 {
        let q = random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len());
        let want = fingerprint(&BruteForce.run(&live_db, &q).expect("unsharded oracle"));
        let brute = cut.search(&BruteForce, &q).expect("sharded brute force");
        assert_eq!(
            want,
            fingerprint(&brute.result),
            "q{q_i}: recovered scatter-gather (brute force) diverged"
        );
        let planned = cut.search(&planner, &q).expect("sharded planner");
        assert_eq!(
            want,
            fingerprint(&planned.result),
            "q{q_i}: recovered scatter-gather (planner) diverged"
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
/// Keyword 2 lives on trajectory 23 alone, so its shard is bounded at 1
/// and walked first; it holds at least two plateau members (its ids are
/// ≡ 23 mod N, never 0), which fill the top-k and leave the floor at
/// exactly 0.75. Every other shard is then bounded at `0.5 + 0.5·½ =
/// 0.75`: equal to the floor, so it must still run — skipping on `bound
/// <= floor` loses ids 0 and 1. Inside those runs each plateau member is
/// first sighted with one distance known (0) and the other bounded by a
/// zero radius, i.e. with `ub = 0.75`, equal to the floor: retiring on
/// `ub <= floor` loses them again.
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
    let db = Database::new(&net, &store, &vidx).with_keyword_index(&kidx);
    let oracle = BruteForce.run(&db, &q).expect("oracle");
    assert_eq!(
        oracle.ids(),
        [23, 0, 1].map(TrajectoryId),
        "the fixture is the plateau it claims to be"
    );
    assert_eq!(oracle.matches[1].similarity, 0.75);
    let want = fingerprint(&oracle);

    for shards in [1, 2, 3, 4, 8] {
        for partitioner in [
            Partitioner::Hash,
            Partitioner::SpatialGrid { cells_per_axis: 4 },
        ] {
            let cut =
                ShardedCluster::new(Arc::clone(&net), &store, 4, shards, partitioner).snapshot();
            let label = format!("{shards} shard(s), {partitioner:?}");
            let runs = [
                ("brute-force", cut.search(&BruteForce, &q)),
                ("expansion", cut.search(&Expansion::default(), &q)),
                ("planner", cut.search(&Planner::new(), &q)),
            ];
            for (name, answer) in runs {
                let answer = answer.expect("sharded run");
                assert!(answer.result.completeness.is_exact(), "{label}: {name}");
                assert_eq!(want, fingerprint(&answer.result), "{label}: {name}");
            }
        }
    }
}

/// The walk is sequential, so its effort is a function of the query and
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
    // without the keyword are bounded at λ and never run
    let needles: Vec<UotsQuery> = (0..ds.vocab.len() as u32)
        .map(KeywordId)
        .filter(|&kw| (1..=2).contains(&ds.keyword_index.values_for(kw).len()))
        .take(10)
        .map(|kw| {
            let holder = ds.store.get(ds.keyword_index.values_for(kw)[0]);
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
    let mut cancelled = 0;
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
        cancelled += first.1;
    }
    assert!(cancelled > 0, "the pool never exercised a skipped shard");
}

const EPS: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Count-budgeted scatter-gather: whatever the budget interrupts, the
    /// merged `bound_gap` covers every trajectory the answer left out, and
    /// is at least what the interrupted shards' own certificates — each
    /// measured from `max(local k-th, floor)` — add up to.
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

        // the walk again, by hand, for what the shard certificates require
        let bounds: Vec<f64> = (0..shards).map(|s| shard_upper_bound(cut.shard(s), &q)).collect();
        let mut order: Vec<usize> = (0..shards).collect();
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));
        let logs = Arc::new(SettleLogs::new(q.num_locations()));
        let mut running = TopK::new(k);
        let mut certified: Vec<(usize, f64)> = Vec::new();
        for s in order {
            let floor = running.threshold();
            if bounds[s] < floor {
                continue;
            }
            let ctx = SearchContext::new().scattered(&logs, floor);
            let run = algo.run_ctx(
                &cut.shard(s).database(), &q, &RunControl::unbounded(),
                &mut Recorder::disabled(), &ctx,
            ).unwrap();
            for m in &run.matches {
                running.offer(Match { id: cut.global_of(s, m.id), ..*m });
            }
            if !run.completeness.is_exact() {
                let worst = run.matches.last().map_or(0.0, |m| m.similarity);
                certified.push((s, worst.max(floor) + run.completeness.bound_gap()));
            }
        }
        prop_assert_eq!(fingerprint_of(&running.clone().into_sorted()), fingerprint(r));
        let threshold = running.threshold();
        let required = certified.iter()
            .filter(|&&(s, _)| bounds[s] >= threshold)
            .map(|&(_, c)| c - threshold.max(0.0))
            .fold(0.0, f64::max);
        prop_assert!(gap >= required.min(1.0) - EPS, "gap {gap} < required {required}");
    }
}
