//! End-to-end ingestion pipeline: raw GPS fixes → map matching →
//! trajectory store → UOTS query.
//!
//! The paper assumes map-matched input; this example shows the full path
//! from simulated raw GPS (noisy fixes along ground-truth routes) to query
//! answers, exercising `uots_trajectory::mapmatch` and the grid index.
//!
//! ```text
//! cargo run --release --example map_matching_pipeline
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uots::network::astar::AStar;
use uots::network::generators::{grid_city, GridCityConfig};
use uots::prelude::*;
use uots::trajectory::mapmatch::{map_match, simulate_gps};
use uots::trajectory::{TagModelConfig, TagSampler, TrajectoryStore};

fn main() {
    let net = grid_city(&GridCityConfig::new(40, 40).with_seed(9)).expect("network builds");
    let grid = uots::index::GridIndex::build(net.points(), 8);
    let mut rng = StdRng::seed_from_u64(77);
    let (tags, vocab) = TagSampler::synthetic(&TagModelConfig::default(), &mut rng);

    // 1. Simulate 150 vehicles: ground-truth route, noisy GPS, map matching.
    let mut store = TrajectoryStore::new();
    let mut astar = AStar::new(&net);
    let mut raw_fix_count = 0usize;
    while store.len() < 150 {
        let a = NodeId(rng.gen_range(0..net.num_nodes()) as u32);
        let b = NodeId(rng.gen_range(0..net.num_nodes()) as u32);
        if a == b {
            continue;
        }
        let Some(route) = astar.route(a, b) else {
            continue;
        };
        if route.distance < 2.0 {
            continue;
        }
        let start = rng.gen_range(6.0..20.0) * 3_600.0;
        let fixes = simulate_gps(
            &net,
            &route.path,
            start,
            rng.gen_range(20.0..45.0), // km/h
            15.0,                      // one fix per 15 s
            0.04,                      // 40 m GPS noise
            &mut rng,
        );
        raw_fix_count += fixes.len();
        let category = tags.sample_category(&mut rng);
        let keywords = tags.sample_tags(category, 4, &mut rng);
        match map_match(&fixes, &grid, keywords) {
            Ok(traj) => {
                store.push(traj);
            }
            Err(e) => eprintln!("map matching rejected a trace: {e}"),
        }
    }
    println!(
        "ingested {} raw fixes into {} map-matched trajectories",
        raw_fix_count,
        store.len()
    );
    println!("{}\n", uots::trajectory::DatasetStats::compute(&store));

    // 2. Index and query.
    let vidx = store.build_vertex_index(net.num_nodes());
    let kidx = store.build_keyword_index(vocab.len());
    let kb = store.build_keyword_blocks();
    let db = Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);

    let places = vec![NodeId(0), NodeId(820), NodeId(1599)];
    let keywords = tags.sample_tags(0, 3, &mut rng);
    let query = UotsQuery::with_options(
        places,
        keywords,
        vec![],
        QueryOptions {
            k: 3,
            ..Default::default()
        },
    )
    .expect("valid query");

    let result = Expansion::default().run(&db, &query).expect("query runs");
    println!("top-3 trips over map-matched data:");
    for m in &result.matches {
        println!(
            "  {} sim {:.4} (spatial {:.4}, textual {:.4})",
            m.id, m.similarity, m.spatial, m.textual
        );
    }
    println!(
        "visited {} / {} trajectories",
        result.metrics.visited_trajectories,
        store.len()
    );
}
