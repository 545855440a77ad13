//! Workspace-level property tests on the core invariants:
//!
//! * shortest-path primitives agree with the Floyd–Warshall oracle;
//! * the incremental expansion realizes exact first-hit distances in
//!   nondecreasing order;
//! * the UOTS algorithms return the brute-force ranking for *arbitrary*
//!   datasets, queries and parameters — the paper's correctness claim;
//! * textual similarity axioms;
//! * grid-index nearest-neighbour equals linear scan;
//! * top-k equals sort-and-truncate.

mod matrix;

use matrix::DistanceMatrix;
use proptest::prelude::*;
use uots::core::TopK;
use uots::index::GridIndex;
use uots::network::expansion::NetworkExpansion;
use uots::network::{dijkstra, NetworkBuilder};
use uots::prelude::*;
use uots::text::{jaccard, KeywordId};
use uots::trajectory::{Sample, Trajectory};
use uots::{RoadNetwork, TrajectoryStore};

// ---------- strategies ----------

/// A connected random graph: `n` jittered points, spanning tree + extras.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = RoadNetwork> {
    (3usize..max_n, any::<u64>()).prop_map(|(n, seed)| {
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
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                b.add_edge(ids[i], ids[j], Some(rng.gen::<f64>() * 4.0 + 0.05))
                    .expect("valid edge");
            }
        }
        b.build().expect("non-empty")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dijkstra_matches_floyd_warshall(net in graph_strategy(24)) {
        let m = DistanceMatrix::compute(&net);
        let src = NodeId(0);
        let tree = dijkstra::shortest_path_tree(&net, src);
        for v in net.node_ids() {
            match (tree.distance(v), m.get(src, v)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn expansion_settles_in_order_with_exact_distances(net in graph_strategy(24)) {
        let tree = dijkstra::shortest_path_tree(&net, NodeId(0));
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        let mut last = 0.0f64;
        while let Some(s) = exp.next_settled() {
            prop_assert!(s.dist >= last - 1e-12);
            last = s.dist;
            prop_assert!((tree.distance(s.node).expect("reached") - s.dist).abs() < 1e-12);
        }
    }

    #[test]
    fn astar_matches_dijkstra(net in graph_strategy(20), a in 0u32..20, b in 0u32..20) {
        let n = net.num_nodes() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let expect = dijkstra::distance(&net, a, b);
        let got = uots::network::astar::AStar::new(&net).distance(a, b);
        match (expect, got) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            (x, y) => prop_assert_eq!(x.is_some(), y.is_some()),
        }
    }

    #[test]
    fn jaccard_axioms(
        xs in proptest::collection::vec(0u32..30, 0..10),
        ys in proptest::collection::vec(0u32..30, 0..10),
    ) {
        let a = KeywordSet::from_ids(xs.into_iter().map(KeywordId));
        let b = KeywordSet::from_ids(ys.into_iter().map(KeywordId));
        let ab = jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert_eq!(ab, jaccard(&b, &a));
        prop_assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn grid_nearest_equals_linear_scan(
        pts in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0), 1..80),
        qx in -10.0f64..60.0,
        qy in -10.0f64..60.0,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let grid = GridIndex::build(&points, 4);
        let q = Point::new(qx, qy);
        let (_, gd) = grid.nearest(&q);
        let ld = points
            .iter()
            .map(|p| q.distance(p))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((gd - ld).abs() < 1e-9);
    }

    #[test]
    fn topk_equals_sort_and_truncate(
        sims in proptest::collection::vec(0.0f64..1.0, 1..40),
        k in 1usize..10,
    ) {
        let mut topk = TopK::new(k);
        let mut all: Vec<Match> = sims
            .iter()
            .enumerate()
            .map(|(i, &s)| Match {
                id: TrajectoryId(i as u32),
                similarity: s,
                spatial: s,
                textual: 0.0,
                temporal: 0.0,
            })
            .collect();
        for m in &all {
            topk.offer(*m);
        }
        all.sort_by(Match::ranking_cmp);
        all.truncate(k);
        let got = topk.into_sorted();
        prop_assert_eq!(got.len(), all.len());
        for (g, e) in got.iter().zip(all.iter()) {
            prop_assert_eq!(g.id, e.id);
        }
    }
}

proptest! {
    // end-to-end cases are heavier: fewer cases, still randomized
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: on arbitrary connected networks, trajectory
    /// stores and query parameters, every algorithm reproduces the
    /// brute-force ranking.
    #[test]
    fn algorithms_match_oracle_on_arbitrary_inputs(
        net in graph_strategy(18),
        seed in any::<u64>(),
        lambda in 0.0f64..=1.0,
        k in 1usize..6,
        m in 1usize..4,
        kws in proptest::collection::vec(0u32..12, 0..4),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = net.num_nodes();
        let store = {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = TrajectoryStore::new();
            for _ in 0..rng.gen_range(1..30) {
                let len = rng.gen_range(1..7);
                let t0 = rng.gen::<f64>() * 80_000.0;
                let samples = (0..len)
                    .map(|i| Sample {
                        node: NodeId(rng.gen_range(0..n) as u32),
                        time: (t0 + 30.0 * i as f64).min(86_400.0),
                    })
                    .collect();
                let tags: Vec<KeywordId> =
                    (0..rng.gen_range(0..4)).map(|_| KeywordId(rng.gen_range(0..12))).collect();
                store.push(
                    Trajectory::new(samples, KeywordSet::from_ids(tags)).expect("valid"),
                );
            }
            store
        };
        let vidx = store.build_vertex_index(n);
        let kidx = store.build_keyword_index(12);
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let locations: Vec<NodeId> = (0..m).map(|_| NodeId(rng.gen_range(0..n) as u32)).collect();
        let q = UotsQuery::with_options(
            locations,
            KeywordSet::from_ids(kws.into_iter().map(KeywordId)),
            vec![],
            QueryOptions {
                weights: Weights::lambda(lambda).expect("valid"),
                k,
                ..Default::default()
            },
        )
        .expect("valid query");

        let oracle = BruteForce.run(&db, &q).expect("oracle runs");
        for algo in [
            Box::new(Expansion::default()) as Box<dyn Algorithm>,
            Box::new(Expansion::new(Scheduler::RoundRobin)),
            Box::new(Expansion::new(Scheduler::MinRadius)),
            Box::new(IknnBaseline { settles_per_round: 7 }),
            Box::new(TextFirst),
        ] {
            let got = algo.run(&db, &q).expect("runs");
            prop_assert_eq!(got.ids(), oracle.ids(), "{} λ={} k={}", algo.name(), lambda, k);
            for (g, o) in got.matches.iter().zip(oracle.matches.iter()) {
                prop_assert!((g.similarity - o.similarity).abs() < 1e-9);
            }
        }
    }
}
