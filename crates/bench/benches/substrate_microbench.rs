//! Substrate microbenchmarks: the primitives everything else is built on.
//!
//! * full Dijkstra tree vs A* point-to-point vs incremental expansion;
//! * grid-index nearest-neighbour snap;
//! * keyword-set Jaccard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uots_index::GridIndex;
use uots_network::astar::AStar;
use uots_network::expansion::NetworkExpansion;
use uots_network::generators::{grid_city, GridCityConfig};
use uots_network::{dijkstra, NodeId, Point};
use uots_text::{jaccard, KeywordId, KeywordSet};

fn bench(c: &mut Criterion) {
    let net = grid_city(&GridCityConfig::new(100, 100).with_seed(3)).expect("network builds");
    let n = net.num_nodes();
    let mut rng = StdRng::seed_from_u64(1);

    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));

    group.bench_function("dijkstra_full_tree_10k", |b| {
        b.iter(|| {
            criterion::black_box(dijkstra::shortest_path_tree(
                &net,
                NodeId(rng.gen_range(0..n) as u32),
            ))
        })
    });

    let mut astar = AStar::new(&net);
    group.bench_function("astar_point_to_point_10k", |b| {
        b.iter(|| {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let t = NodeId(rng.gen_range(0..n) as u32);
            criterion::black_box(astar.distance(a, t))
        })
    });

    for settles in [100usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("expansion_settles", settles),
            &settles,
            |b, &s| {
                let mut exp = NetworkExpansion::new(&net);
                b.iter(|| {
                    exp.start(NodeId(rng.gen_range(0..n) as u32));
                    for _ in 0..s {
                        if exp.next_settled().is_none() {
                            break;
                        }
                    }
                    criterion::black_box(exp.radius())
                })
            },
        );
    }

    let grid = GridIndex::build(net.points(), 8);
    group.bench_function("grid_nearest_snap", |b| {
        b.iter(|| {
            let p = Point::new(rng.gen::<f64>() * 25.0, rng.gen::<f64>() * 25.0);
            criterion::black_box(grid.nearest(&p))
        })
    });

    let a: KeywordSet = (0..6).map(|i| KeywordId(i * 3)).collect();
    let bset: KeywordSet = (0..6).map(|i| KeywordId(i * 2)).collect();
    group.bench_function("jaccard_6x6", |b| {
        b.iter(|| criterion::black_box(jaccard(&a, &bset)))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
