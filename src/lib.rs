//! # uots — User Oriented Trajectory Search for trip recommendation
//!
//! A from-scratch Rust reproduction of **"User oriented trajectory search
//! for trip recommendation"** (Shang, Ding, Yuan, Xie, Zheng, Kalnis —
//! EDBT 2012), including every substrate the paper depends on: road
//! networks and shortest paths, network-constrained trajectories with
//! textual attributes, the query-time indexes, synthetic data standing in
//! for the paper's proprietary taxi datasets, and a full benchmark harness.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`network`] | `uots-network` | road networks, Dijkstra, incremental expansion, A*, generators |
//! | [`text`] | `uots-text` | vocabularies, keyword sets, set similarities, Zipf |
//! | [`index`] | `uots-index` | spatial grid, inverted indexes, timestamp index |
//! | [`trajectory`] | `uots-trajectory` | trajectory model, trip generator, map matching |
//! | [`datagen`] | `uots-datagen` | dataset presets and query workloads |
//! | [`core`] | `uots-core` | the UOTS query engine, algorithms, parallel batches |
//! | [`join`] | `uots-join` | trajectory similarity threshold self-join (extension) |
//! | [`obs`] | `uots-obs` | phase tracing, latency histograms, metrics exposition |
//!
//! The most common types are re-exported at the top level.
//!
//! ## Quick start
//!
//! ```
//! use uots::prelude::*;
//!
//! // 1. Build a dataset (synthetic city + trips + tags + indexes).
//! let ds = Dataset::build(&DatasetConfig::small(100, 7)).unwrap();
//!
//! // 2. Open a database view over it.
//! let db = uots::db(&ds);
//!
//! // 3. Ask for a trip: places to visit + preference keywords.
//! let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
//! let query = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
//!
//! // 4. Run the paper's expansion search.
//! let result = Expansion::default().run(&db, &query).unwrap();
//! println!("best trip: {:?}", result.best());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod durable;
pub mod scrub;
pub mod serve;

pub use uots_core as core;
pub use uots_core::storage;
pub use uots_datagen as datagen;
pub use uots_index as index;
pub use uots_join as join;
pub use uots_network as network;
pub use uots_obs as obs;
pub use uots_text as text;
pub use uots_trajectory as trajectory;

pub use uots_core::wal::{FsyncPolicy, WalConfig, WalError, WalWriter};
pub use uots_core::{
    algorithms, epoch, expansion_search_ctx, order, parallel, similarity, threshold_search_ctx,
    BatchOptions, BatchPolicy, CacheStats, CancellationToken, Completeness, CoreError, Database,
    DistanceCache, EpochManager, EpochSnapshot, ExecutionBudget, LayoutTables, Match, Mutation,
    QueryOptions, QueryResult, RunControl, Scheduler, SearchContext, SearchMetrics, TopK,
    UotsQuery, Weights, DEFAULT_CACHE_CAPACITY,
};
pub use uots_datagen::{workload, Dataset, DatasetConfig};
pub use uots_network::{NetworkBuilder, NodeId, Point, RoadNetwork};
pub use uots_obs::{MetricsRegistry, Phase, PhaseNanos, Recorder};
pub use uots_text::{KeywordId, KeywordSet, TextSimilarity, Vocabulary};
pub use uots_trajectory::{LiveSet, Sample, Trajectory, TrajectoryId, TrajectoryStore};

/// Opens a [`Database`] over a built [`Dataset`], wiring up the keyword
/// index (the timestamp index is built per dataset on demand; attach it with
/// [`Database::with_timestamp_index`] for temporal queries).
pub fn db(ds: &Dataset) -> Database<'_> {
    Database::new(&ds.network, &ds.store, &ds.vertex_index).with_keyword_index(&ds.keyword_index)
}

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::algorithms::{Algorithm, BruteForce, Expansion, IknnBaseline, TextFirst};
    pub use crate::{
        workload, CancellationToken, Completeness, Database, Dataset, DatasetConfig,
        ExecutionBudget, KeywordSet, Match, NodeId, Point, QueryOptions, QueryResult, RunControl,
        Scheduler, SearchMetrics, TrajectoryId, UotsQuery, Weights,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_round_trip() {
        let ds = Dataset::build(&DatasetConfig::small(20, 99)).unwrap();
        let db = crate::db(&ds);
        let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
        let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
        let r = Expansion::default().run(&db, &q).unwrap();
        assert!(r.best().is_some());
    }
}
