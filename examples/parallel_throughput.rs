//! Parallel batch processing: many travelers' queries at once.
//!
//! UOTS searches are independent, so a query batch parallelizes trivially —
//! the property the paper exploits. This example measures batch throughput
//! at several thread counts on one dataset.
//!
//! ```text
//! cargo run --release --example parallel_throughput
//! ```

use std::time::Instant;
use uots::parallel::run_batch;
use uots::prelude::*;

fn main() {
    let ds = Dataset::build(&DatasetConfig::small(600, 1234)).expect("dataset builds");
    let db = uots::db(&ds);
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 64,
            ..Default::default()
        },
    );
    let queries: Vec<UotsQuery> = specs
        .into_iter()
        .map(|s| UotsQuery::new(s.locations, s.keywords).expect("valid query"))
        .collect();

    println!(
        "dataset: {} ({} trajectories); batch of {} queries\n",
        ds.name,
        ds.store.len(),
        queries.len()
    );
    println!(
        "{:>8} {:>12} {:>14} {:>18}",
        "threads", "wall time", "queries/s", "visited/query"
    );

    let algo = Expansion::default();
    let mut reference: Option<Vec<Vec<TrajectoryId>>> = None;
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for threads in [1usize, 2, 4, hw.max(4) * 2] {
        let start = Instant::now();
        let results = run_batch(&db, &algo, &queries, threads).expect("batch runs");
        let wall = start.elapsed();
        let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
        let ids: Vec<Vec<TrajectoryId>> = results.iter().map(|r| r.ids()).collect();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(r, &ids, "thread count must not change answers"),
        }
        println!(
            "{threads:>8} {:>12?} {:>14.1} {:>18.1}",
            wall,
            queries.len() as f64 / wall.as_secs_f64(),
            agg.visited_per_query()
        );
    }
    println!("\n(available hardware parallelism: {hw} threads)");
}
