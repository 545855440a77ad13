//! Cross-crate integration tests: the full pipeline from dataset generation
//! through indexing to query answering, exercised through the public facade.

use uots::prelude::*;
use uots::{order, parallel, TrajectoryStore};

fn build(trips: usize, seed: u64) -> Dataset {
    Dataset::build(&DatasetConfig::small(trips, seed)).expect("dataset builds")
}

#[test]
fn full_pipeline_all_algorithms_agree() {
    let ds = build(120, 1);
    let tidx = ds.store.build_timestamp_index();
    let db = uots::db(&ds).with_timestamp_index(&tidx);
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 6,
            locations_per_query: 4,
            keywords_per_query: 3,
            seed: 5,
            ..Default::default()
        },
    );
    let algos: Vec<Box<dyn Algorithm>> = vec![
        Box::new(BruteForce),
        Box::new(TextFirst),
        Box::new(IknnBaseline::default()),
        Box::new(Expansion::default()),
    ];
    for spec in specs {
        for k in [1usize, 3, 7] {
            let q = UotsQuery::with_options(
                spec.locations.clone(),
                spec.keywords.clone(),
                vec![],
                QueryOptions {
                    k,
                    ..Default::default()
                },
            )
            .expect("valid query");
            let oracle = BruteForce.run(&db, &q).expect("oracle runs");
            for a in &algos {
                let got = a.run(&db, &q).expect("algorithm runs");
                assert_eq!(got.ids(), oracle.ids(), "{} k={k}", a.name());
                // every visited trajectory is exactly evaluated, retired on
                // its bound, or still partly scanned at the stop
                let m = &got.metrics;
                assert!(
                    m.candidates + m.retired <= m.visited_trajectories,
                    "{} k={k}: {m:?}",
                    a.name()
                );
            }
        }
    }
}

#[test]
fn facade_helper_wires_keyword_index() {
    let ds = build(50, 2);
    let db = uots::db(&ds);
    // TextFirst requires the keyword index, so this proves it is attached
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).expect("valid");
    assert!(TextFirst.run(&db, &q).is_ok());
}

#[test]
fn results_serialize_and_deserialize() {
    let ds = build(40, 3);
    let db = uots::db(&ds);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).expect("valid");
    let r = Expansion::default().run(&db, &q).expect("runs");
    let json = serde_json::to_string(&r).expect("serializes");
    let back: QueryResult = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(r.ids(), back.ids());
    assert_eq!(
        r.metrics.visited_trajectories,
        back.metrics.visited_trajectories
    );
    assert_eq!(r.metrics.retired, back.metrics.retired);
}

#[test]
fn batch_execution_is_deterministic_across_thread_counts() {
    let ds = build(100, 4);
    let db = uots::db(&ds);
    let queries: Vec<UotsQuery> = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 10,
            seed: 17,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|s| UotsQuery::new(s.locations, s.keywords).expect("valid"))
    .collect();
    let algo = Expansion::default();
    let r1 = parallel::run_batch(&db, &algo, &queries, 1).expect("runs");
    let r3 = parallel::run_batch(&db, &algo, &queries, 3).expect("runs");
    for (a, b) in r1.iter().zip(r3.iter()) {
        assert_eq!(a.ids(), b.ids());
    }
}

#[test]
fn order_reranking_preserves_the_match_set() {
    let ds = build(80, 5);
    let db = uots::db(&ds);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::with_options(
        spec.locations.clone(),
        spec.keywords.clone(),
        vec![],
        QueryOptions {
            k: 5,
            ..Default::default()
        },
    )
    .expect("valid");
    let mut r = Expansion::default().run(&db, &q).expect("runs");
    let mut before: Vec<TrajectoryId> = r.ids();
    before.sort_unstable();
    order::rerank_by_order(&db, &q, &mut r, 0.4);
    let mut after: Vec<TrajectoryId> = r.ids();
    after.sort_unstable();
    assert_eq!(before, after, "re-ranking must permute, not alter, the set");
    assert!(r.is_ranked() || !r.matches.is_empty());
}

#[test]
fn network_round_trips_through_edge_list_and_queries_still_work() {
    let ds = build(30, 6);
    let text = uots::network::io::to_edge_list(&ds.network);
    let net2 = uots::network::io::parse_edge_list(&text).expect("parses");
    assert_eq!(ds.network, net2);
    // rebuild the database against the re-parsed network
    let vidx = ds.store.build_vertex_index(net2.num_nodes());
    let db = Database::new(&net2, &ds.store, &vidx);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).expect("valid");
    assert!(Expansion::default().run(&db, &q).is_ok());
}

#[test]
fn gps_ingestion_pipeline_feeds_queries() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uots::network::astar::AStar;
    use uots::trajectory::mapmatch::{map_match, simulate_gps};
    use uots::trajectory::{TagModelConfig, TagSampler};

    let ds = build(1, 7); // reuse its network only
    let grid = uots::index::GridIndex::build(ds.network.points(), 8);
    let mut rng = StdRng::seed_from_u64(9);
    let (tags, vocab) = TagSampler::synthetic(&TagModelConfig::default(), &mut rng);
    let mut store = TrajectoryStore::new();
    let mut astar = AStar::new(&ds.network);
    for i in 0..20u32 {
        let a = NodeId(i * 13 % ds.network.num_nodes() as u32);
        let b = NodeId((i * 31 + 200) % ds.network.num_nodes() as u32);
        if a == b {
            continue;
        }
        let route = astar.route(a, b).expect("connected");
        if route.path.len() < 2 {
            continue;
        }
        let fixes = simulate_gps(
            &ds.network,
            &route.path,
            3_600.0,
            30.0,
            10.0,
            0.02,
            &mut rng,
        );
        let kws = tags.sample_tags(0, 3, &mut rng);
        store.push(map_match(&fixes, &grid, kws).expect("matches"));
    }
    assert!(store.len() >= 15);
    let vidx = store.build_vertex_index(ds.network.num_nodes());
    let kidx = store.build_keyword_index(vocab.len());
    let db = Database::new(&ds.network, &store, &vidx).with_keyword_index(&kidx);
    let mut rng2 = StdRng::seed_from_u64(11);
    let kws = tags.sample_tags(0, 2, &mut rng2);
    let q = UotsQuery::new(vec![NodeId(0), NodeId(400)], kws).expect("valid");
    let r = Expansion::default().run(&db, &q).expect("runs");
    let oracle = BruteForce.run(&db, &q).expect("runs");
    assert_eq!(r.ids(), oracle.ids());
}

#[test]
fn stats_and_metrics_are_consistent() {
    let ds = build(60, 8);
    let db = uots::db(&ds);
    let stats = ds.stats();
    assert_eq!(stats.count, 60);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).expect("valid");
    let r = Expansion::default().run(&db, &q).expect("runs");
    assert!(r.metrics.visited_trajectories <= stats.count);
    assert!(r.metrics.candidates <= r.metrics.visited_trajectories);
    assert!(r.metrics.candidate_ratio(stats.count) <= 1.0);
}
