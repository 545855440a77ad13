//! # uots-core
//!
//! The UOTS query engine: a from-scratch reproduction of **"User oriented
//! trajectory search for trip recommendation"** (Shang, Ding, Yuan, Xie,
//! Zheng, Kalnis — EDBT 2012).
//!
//! Given a road-network trajectory database where trajectories carry textual
//! attributes, a [`UotsQuery`] supplies a set of intended places and a set
//! of preference keywords (plus, as extensions, preferred timestamps and
//! top-k answer sizes); the engine returns the trajectories maximizing the
//! linear combination of spatial, textual (and optionally temporal)
//! similarity, weighted by [`Weights`] (the channel formulas are in the
//! crate's private `similarity` module).
//!
//! ## Quick start
//!
//! ```
//! use uots_core::{algorithms::{Algorithm, Expansion}, Database, UotsQuery};
//! use uots_datagen::{workload, Dataset, DatasetConfig};
//!
//! let ds = Dataset::build(&DatasetConfig::small(50, 42)).unwrap();
//! let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
//!     .with_keyword_index(&ds.keyword_index);
//! let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
//! let query = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
//! let result = Expansion::default().run(&db, &query).unwrap();
//! assert!(result.best().is_some());
//! ```
//!
//! ## Algorithms
//!
//! * [`algorithms::Expansion`] — the paper's concurrent expansion search
//!   with per-trajectory similarity upper bounds and the heuristic
//!   query-source scheduling strategy ([`Scheduler`]);
//! * [`algorithms::IknnBaseline`] — lockstep-round candidate generation
//!   (BCT/IKNN adapted to networks), the coarse-bound baseline;
//! * [`algorithms::TextFirst`] — textual filter-and-refine baseline;
//! * [`algorithms::BruteForce`] — the exact oracle.
//!
//! All algorithms return identical rankings; the evaluation compares their
//! cost ([`SearchMetrics`]). Batches of queries run in parallel via
//! [`parallel::run_batch`] (or [`parallel::run_batch_cluster`] under
//! explicit options).
//!
//! ## Anytime execution
//!
//! Every algorithm honors an [`ExecutionBudget`] (wall clock, visited
//! trajectories, settled vertices — carried in [`QueryOptions`]) and a
//! [`CancellationToken`]/deadline pair ([`RunControl`], passed to
//! [`algorithms::Algorithm::run_ctx`], which runs over a [`View`]: one
//! database, or every shard of a cluster cut at once). Interrupted runs are not errors:
//! they return the current top-k tagged [`Completeness::BestEffort`] with
//! a certified `bound_gap` — see [`budget`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod budget;
mod db;
mod engine;
pub mod epoch;
mod error;
mod keywords;
mod metrics;
pub mod parallel;
pub mod planner;
mod query;
mod result;
mod scheduling;
pub mod shard;
mod similarity;
pub mod testing;
mod topk;
pub mod wal;

/// Re-export of the storage seam ([`uots_storage`]): backend traits,
/// `StdFs`, the `FaultFs` injector, the error taxonomy and retry policy.
pub use uots_storage as storage;

pub use budget::{CancellationToken, Completeness, ExecutionBudget, RunControl};
pub use db::{Database, IdMap, Part, TimeChannel, View};
pub use epoch::{EpochManager, EpochSnapshot, Mutation};
pub use error::CoreError;
pub use metrics::SearchMetrics;
pub use parallel::{BatchOptions, BatchPolicy, SearchContext};
pub use planner::AlgorithmKind;
pub use query::{QueryOptions, UotsQuery, Weights};
pub use result::{Match, QueryResult};
pub use scheduling::Scheduler;
pub use shard::{ClusterSnapshot, Partitioner, ShardedAnswer, ShardedCluster};
pub use topk::TopK;
