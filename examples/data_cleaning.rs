//! Data cleaning with the similarity join — the paper family's
//! near-duplicate-detection application.
//!
//! A crowd-sourced trajectory database accumulates near-identical copies of
//! popular trips. The pipeline here:
//!
//! 1. plant exact/near duplicates into a dataset,
//! 2. find them with a high-θ similarity self-join,
//! 3. cluster the pairs (union-find) and keep one representative per
//!    cluster,
//! 4. retire the rest through an [`EpochManager`], publish, and keep
//!    answering UOTS queries over the published snapshot.
//!
//! ```text
//! cargo run --release --example data_cleaning
//! ```

use std::sync::Arc;
use uots::join::{ts_join, JoinConfig};
use uots::prelude::*;
use uots::{EpochManager, Mutation};

fn main() {
    let ds = Dataset::build(&DatasetConfig::small(250, 64)).expect("dataset builds");

    // 1. pollute the store with near-duplicates of the first 30 trips
    let mut store = ds.store.clone();
    for i in 0..30u32 {
        let original = ds.store.get(TrajectoryId(i)).clone();
        store.push(original); // exact copy
    }
    println!(
        "polluted store: {} trajectories ({} planted duplicates)",
        store.len(),
        30
    );

    // 2. near-duplicate join
    let vidx = store.build_vertex_index(ds.network.num_nodes());
    let tidx = store.build_timestamp_index();
    let cfg = JoinConfig {
        theta: 0.98,
        lambda: 0.5,
        ..Default::default()
    };
    let result = ts_join(&ds.network, &store, &vidx, &tidx, &cfg, 2).expect("join runs");
    println!(
        "join found {} near-duplicate pairs in {:?}",
        result.pairs.len(),
        result.runtime
    );

    // 3. union-find clustering; keep the smallest id of each cluster
    let mut parent: Vec<u32> = (0..store.len() as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for p in &result.pairs {
        let (ra, rb) = (find(&mut parent, p.a.0), find(&mut parent, p.b.0));
        if ra != rb {
            // keep the smaller id as the representative
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[drop as usize] = keep;
        }
    }
    let retired: Vec<TrajectoryId> = store
        .ids()
        .filter(|id| find(&mut parent, id.0) != id.0)
        .collect();
    println!("retiring {} redundant trajectories", retired.len());

    // 4. retire through an epoch manager, publish, keep serving
    let retired_set: std::collections::HashSet<TrajectoryId> = retired.iter().copied().collect();
    let manager = EpochManager::new(Arc::new(ds.network.clone()), store, ds.vocab.len());
    manager.apply(retired.into_iter().map(Mutation::Retire));
    let snapshot = manager.publish();
    let db = snapshot.database();
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
    .expect("valid query");
    let r = Expansion::default().run(&db, &q).expect("query runs");
    println!("\ntop-5 over the cleaned database: {:?}", r.ids());
    assert!(
        r.ids().iter().all(|id| !retired_set.contains(id)),
        "retired trajectories must not be recommended"
    );
    println!("no retired trajectory appears in the results ✓");
}
