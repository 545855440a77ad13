//! Edge-case torture tests for the query engine and its substrates:
//! boundary parameter values, degenerate stores, tie-breaking, and the
//! exactness of each similarity channel against independently computed
//! values.

use uots::network::astar::AStar;
use uots::network::generators::{grid_city, GridCityConfig};
use uots::prelude::*;
use uots::trajectory::{Sample, Trajectory};
use uots::{KeywordId, RoadNetwork, TrajectoryStore};

fn kws(ids: &[u32]) -> KeywordSet {
    KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
}

fn traj(nodes: &[u32], t0: f64, tags: &[u32]) -> Trajectory {
    Trajectory::new(
        nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| Sample {
                node: NodeId(v),
                time: (t0 + 60.0 * i as f64).min(86_400.0),
            })
            .collect(),
        kws(tags),
    )
    .unwrap()
}

fn run_all(
    net: &RoadNetwork,
    store: &TrajectoryStore,
    q: &UotsQuery,
) -> Vec<(String, QueryResult)> {
    let vidx = store.build_vertex_index(net.num_nodes());
    let kidx = store.build_keyword_index(64);
    let kb = store.build_keyword_blocks();
    let db = Database::new(net, store, &vidx, &kb).with_keyword_index(&kidx);
    let algos: Vec<Box<dyn Algorithm>> = vec![
        Box::new(BruteForce),
        Box::new(TextFirst),
        Box::new(IknnBaseline::default()),
        Box::new(Expansion::default()),
        Box::new(Expansion::new(Scheduler::MinRadius)),
    ];
    algos
        .into_iter()
        .map(|a| (a.name().to_string(), a.run(&db, q).unwrap()))
        .collect()
}

#[test]
fn sixty_four_query_locations_is_accepted_and_sixty_five_rejected() {
    let net = grid_city(&GridCityConfig::tiny(10)).unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[0, 1, 2], 0.0, &[1]));
    let max: Vec<NodeId> = (0..64).map(NodeId).collect();
    let q = UotsQuery::new(max, kws(&[1])).unwrap();
    let results = run_all(&net, &store, &q);
    let oracle_ids = results[0].1.ids();
    for (name, r) in &results {
        assert_eq!(r.ids(), oracle_ids, "{name}");
    }
    let too_many: Vec<NodeId> = (0..65).map(NodeId).collect();
    assert!(UotsQuery::new(too_many, kws(&[])).is_err());
}

#[test]
fn single_trajectory_single_sample_store() {
    let net = grid_city(&GridCityConfig::tiny(4)).unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[7], 500.0, &[]));
    let q = UotsQuery::new(vec![NodeId(0), NodeId(15)], kws(&[2])).unwrap();
    for (name, r) in run_all(&net, &store, &q) {
        assert_eq!(r.matches.len(), 1, "{name}");
        assert_eq!(r.matches[0].id, TrajectoryId(0), "{name}");
        assert_eq!(r.matches[0].textual, 0.0, "{name}");
    }
}

#[test]
fn every_trajectory_identical_forces_full_tie_break() {
    // 20 identical trajectories: ranking must be by ascending id everywhere
    let net = grid_city(&GridCityConfig::tiny(6)).unwrap();
    let mut store = TrajectoryStore::new();
    for _ in 0..20 {
        store.push(traj(&[0, 1, 7], 100.0, &[3, 4]));
    }
    let q = UotsQuery::new(vec![NodeId(0), NodeId(8)], kws(&[3]))
        .unwrap()
        .reoptioned(QueryOptions {
            k: 5,
            ..Default::default()
        })
        .unwrap();
    for (name, r) in run_all(&net, &store, &q) {
        let expect: Vec<TrajectoryId> = (0..5).map(TrajectoryId).collect();
        assert_eq!(r.ids(), expect, "{name}");
    }
}

#[test]
fn lambda_one_matches_network_distances_exactly() {
    // pure spatial query on a single-sample trajectory: similarity must be
    // exactly e^(-sd(o, p)) with sd verified by A*
    let net = grid_city(&GridCityConfig::new(12, 12).with_seed(5)).unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[77], 100.0, &[1]));
    let q = UotsQuery::with_options(
        vec![NodeId(3)],
        kws(&[]),
        vec![],
        QueryOptions {
            weights: Weights::lambda(1.0).unwrap(),
            ..Default::default()
        },
    )
    .unwrap();
    let results = run_all(&net, &store, &q);
    let sd = AStar::new(&net).distance(NodeId(3), NodeId(77)).unwrap();
    let expect = (-sd).exp();
    for (name, r) in results {
        assert!(
            (r.matches[0].similarity - expect).abs() < 1e-9,
            "{name}: {} vs {}",
            r.matches[0].similarity,
            expect
        );
    }
}

#[test]
fn lambda_zero_is_pure_jaccard() {
    let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[0], 0.0, &[1, 2, 3]));
    store.push(traj(&[24], 0.0, &[1, 2]));
    let q = UotsQuery::with_options(
        vec![NodeId(12)],
        kws(&[1, 2]),
        vec![],
        QueryOptions {
            weights: Weights::lambda(0.0).unwrap(),
            k: 2,
            ..Default::default()
        },
    )
    .unwrap();
    for (name, r) in run_all(&net, &store, &q) {
        // τ1 has Jaccard 1.0 (exact match), τ0 has 2/3
        assert_eq!(r.matches[0].id, TrajectoryId(1), "{name}");
        assert!((r.matches[0].similarity - 1.0).abs() < 1e-12, "{name}");
        assert!(
            (r.matches[1].similarity - 2.0 / 3.0).abs() < 1e-12,
            "{name}"
        );
    }
}

#[test]
fn duplicate_query_locations_collapse() {
    let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[0, 1], 0.0, &[1]));
    store.push(traj(&[20, 21], 0.0, &[1]));
    let q_dup =
        UotsQuery::new(vec![NodeId(2), NodeId(2), NodeId(2), NodeId(14)], kws(&[1])).unwrap();
    let q_clean = UotsQuery::new(vec![NodeId(2), NodeId(14)], kws(&[1])).unwrap();
    assert_eq!(q_dup.num_locations(), 2);
    let vidx = store.build_vertex_index(net.num_nodes());
    let kb = store.build_keyword_blocks();
    let db = Database::new(&net, &store, &vidx, &kb);
    let a = Expansion::default().run(&db, &q_dup).unwrap();
    let b = Expansion::default().run(&db, &q_clean).unwrap();
    assert_eq!(a.ids(), b.ids());
    assert!((a.matches[0].similarity - b.matches[0].similarity).abs() < 1e-12);
}

#[test]
fn trajectories_spanning_midnight_boundaries() {
    let net = grid_city(&GridCityConfig::tiny(4)).unwrap();
    let mut store = TrajectoryStore::new();
    // ends exactly at the day boundary
    store.push(
        Trajectory::new(
            vec![
                Sample {
                    node: NodeId(0),
                    time: 86_300.0,
                },
                Sample {
                    node: NodeId(1),
                    time: 86_400.0,
                },
            ],
            kws(&[1]),
        )
        .unwrap(),
    );
    // starts at zero
    store.push(traj(&[2, 3], 0.0, &[1]));
    let tidx = store.build_timestamp_index();
    let vidx = store.build_vertex_index(net.num_nodes());
    let kb = store.build_keyword_blocks();
    let db = Database::new(&net, &store, &vidx, &kb).with_timestamp_index(&tidx);
    let q = UotsQuery::with_options(
        vec![NodeId(0)],
        kws(&[]),
        vec![86_400.0],
        QueryOptions {
            weights: Weights::new(0.3, 0.0, 0.7).unwrap(),
            k: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let r = Expansion::default().run(&db, &q).unwrap();
    let oracle = BruteForce.run(&db, &q).unwrap();
    assert_eq!(r.ids(), oracle.ids());
    // the late-night trajectory matches the 24:00 preference best
    assert_eq!(r.matches[0].id, TrajectoryId(0));
}

#[test]
fn k_equal_to_store_size_with_heavy_duplicates() {
    let net = grid_city(&GridCityConfig::tiny(6)).unwrap();
    let mut store = TrajectoryStore::new();
    for i in 0..12u32 {
        store.push(traj(&[i % 4, i % 4 + 6], 100.0 * i as f64, &[i % 3]));
    }
    let q = UotsQuery::new(vec![NodeId(0)], kws(&[0]))
        .unwrap()
        .reoptioned(QueryOptions {
            k: 12,
            ..Default::default()
        })
        .unwrap();
    for (name, r) in run_all(&net, &store, &q) {
        assert_eq!(r.matches.len(), 12, "{name}");
        assert!(r.is_ranked(), "{name}");
    }
}

#[test]
fn extreme_decay_scales_still_agree_with_oracle() {
    let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
    let mut store = TrajectoryStore::new();
    for i in 0..15u32 {
        store.push(traj(
            &[i * 4 % 64, (i * 4 + 1) % 64],
            1_000.0 * i as f64,
            &[i % 5],
        ));
    }
    for decay_km in [0.01, 100.0] {
        let q = UotsQuery::with_options(
            vec![NodeId(0), NodeId(63)],
            kws(&[1, 2]),
            vec![],
            QueryOptions {
                decay_km,
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
        let fast = Expansion::default().run(&db, &q).unwrap();
        let oracle = BruteForce.run(&db, &q).unwrap();
        assert_eq!(fast.ids(), oracle.ids(), "decay {decay_km}");
        for (f, o) in fast.matches.iter().zip(oracle.matches.iter()) {
            assert!((f.similarity - o.similarity).abs() < 1e-9);
        }
    }
}

#[test]
fn revisiting_trajectories_count_each_vertex_once_in_the_index() {
    // a trajectory bouncing between two vertices must behave identically to
    // its deduplicated twin for spatial similarity (min distance semantics)
    let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[0, 1, 0, 1, 0, 1], 0.0, &[1]));
    store.push(traj(&[0, 1], 0.0, &[1]));
    let q = UotsQuery::new(vec![NodeId(12)], kws(&[1]))
        .unwrap()
        .reoptioned(QueryOptions {
            k: 2,
            ..Default::default()
        })
        .unwrap();
    for (name, r) in run_all(&net, &store, &q) {
        assert_eq!(r.matches.len(), 2, "{name}");
        assert!(
            (r.matches[0].similarity - r.matches[1].similarity).abs() < 1e-12,
            "{name}: revisits must not change min-distance similarity"
        );
    }
}
