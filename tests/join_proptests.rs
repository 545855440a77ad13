//! Property tests for the trajectory similarity self-join: on arbitrary
//! random networks, stores and parameters, the two-phase join must return
//! exactly the brute-force pair set with matching similarities.

use proptest::prelude::*;
use uots::join::{ts_join, ts_join_brute, JoinConfig};
use uots::network::NetworkBuilder;
use uots::trajectory::{Sample, Trajectory};
use uots::{KeywordSet, NodeId, Point, RoadNetwork, TrajectoryStore};

fn graph(seed: u64, n: usize) -> RoadNetwork {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetworkBuilder::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|_| b.add_node(Point::new(rng.gen::<f64>() * 8.0, rng.gen::<f64>() * 8.0)))
        .collect();
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b.add_edge(ids[i], ids[j], Some(rng.gen::<f64>() * 2.0 + 0.05))
            .expect("valid edge");
    }
    for _ in 0..n / 2 {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            b.add_edge(ids[i], ids[j], Some(rng.gen::<f64>() * 2.0 + 0.05))
                .expect("valid edge");
        }
    }
    b.build().expect("non-empty")
}

fn store(seed: u64, n_nodes: usize, count: usize) -> TrajectoryStore {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = TrajectoryStore::new();
    for _ in 0..count {
        let len = rng.gen_range(1..6);
        let t0 = rng.gen::<f64>() * 80_000.0;
        let samples = (0..len)
            .map(|i| Sample {
                node: NodeId(rng.gen_range(0..n_nodes) as u32),
                time: (t0 + 45.0 * i as f64).min(86_400.0),
            })
            .collect();
        store.push(Trajectory::new(samples, KeywordSet::empty()).expect("valid"));
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn join_equals_brute_force_on_arbitrary_inputs(
        seed in any::<u64>(),
        n_nodes in 6usize..16,
        count in 2usize..18,
        theta in 0.3f64..0.95,
        lambda in 0.0f64..=1.0,
    ) {
        let net = graph(seed, n_nodes);
        let st = store(seed ^ 1, n_nodes, count);
        let vidx = st.build_vertex_index(net.num_nodes());
        let tidx = st.build_timestamp_index();
        let cfg = JoinConfig {
            theta,
            lambda,
            ..Default::default()
        };
        let fast = ts_join(&net, &st, &vidx, &tidx, &cfg, 1).expect("join runs");
        let brute = ts_join_brute(&net, &st, &cfg).expect("brute runs");
        prop_assert_eq!(
            fast.pairs.len(),
            brute.len(),
            "θ={} λ={}: {:?} vs {:?}",
            theta,
            lambda,
            fast.pairs,
            brute
        );
        for (f, b) in fast.pairs.iter().zip(brute.iter()) {
            prop_assert_eq!((f.a, f.b), (b.a, b.b));
            prop_assert!((f.similarity - b.similarity).abs() < 1e-9);
            prop_assert!(f.similarity >= theta);
        }
    }

    #[test]
    fn join_pairs_are_canonical_and_deduplicated(
        seed in any::<u64>(),
        theta in 0.4f64..0.9,
    ) {
        let net = graph(seed, 10);
        let st = store(seed ^ 2, 10, 12);
        let vidx = st.build_vertex_index(net.num_nodes());
        let tidx = st.build_timestamp_index();
        let cfg = JoinConfig { theta, ..Default::default() };
        let result = ts_join(&net, &st, &vidx, &tidx, &cfg, 2).expect("join runs");
        let mut seen = std::collections::HashSet::new();
        for p in &result.pairs {
            prop_assert!(p.a < p.b, "pairs must be canonical: {:?}", p);
            prop_assert!(seen.insert((p.a, p.b)), "duplicate pair {:?}", p);
        }
    }
}
