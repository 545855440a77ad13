//! # uots-trajectory
//!
//! Trajectory substrate for the UOTS reproduction: the network-constrained
//! trajectory model, synthetic trip generation, simulated map matching and
//! dataset statistics.
//!
//! * [`Trajectory`] / [`TrajectoryStore`] — validated, immutable
//!   trajectories with dense ids plus index construction
//!   (vertex / keyword / timestamp inverted indexes);
//! * [`TripGenerator`] — hotspot-biased shortest-path trips standing in for
//!   the paper's T-drive taxi data;
//! * [`TagSampler`] — category-correlated, Zipf-skewed textual attributes;
//! * [`mapmatch`] — simulated GPS emission and nearest-vertex map matching;
//! * [`codec`] — the one binary trajectory layout and its bounded reader.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
mod error;
mod generator;
mod live;
pub mod mapmatch;
mod model;
mod stats;
mod tags;

pub use error::TrajectoryError;
pub use generator::{TripGenerator, TripGeneratorConfig};
pub use live::LiveSet;
pub use model::{Sample, Trajectory, TrajectoryId, TrajectoryStore};
pub use stats::DatasetStats;
pub use tags::{TagModelConfig, TagSampler};
