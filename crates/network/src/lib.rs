//! # uots-network
//!
//! Spatial (road) network substrate for the UOTS reproduction: graph model,
//! shortest paths, incremental network expansion and synthetic generators.
//!
//! The UOTS paper family models a spatial network as a connected, undirected,
//! edge-weighted graph whose vertices carry planar geometry; trajectory
//! sample points are map-matched to vertices. Every spatial computation in
//! the workspace reduces to primitives from this crate:
//!
//! * [`RoadNetwork`] — immutable CSR graph built via [`NetworkBuilder`];
//! * [`dijkstra`] — exact shortest-path trees and point-to-point distances
//!   (brute-force oracle, baselines, generators);
//! * [`expansion::NetworkExpansion`] — *resumable* Dijkstra, the primitive
//!   behind the paper's concurrent multi-source expansion search;
//! * [`astar::AStar`] — landmark-pruned A*, point-to-point routing for trip
//!   generation (the plain Euclidean A*'s route, bit for bit);
//! * [`generators`] — deterministic synthetic city networks standing in for
//!   the paper's Beijing road network.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod astar;
pub mod dijkstra;
mod error;
pub mod expansion;
pub mod generators;
mod geometry;
mod graph;
mod heap;

pub use error::NetworkError;
pub use geometry::{BBox, Point};
pub use graph::{Edge, EdgeId, NetworkBuilder, NodeId, RoadNetwork};
pub use heap::TotalF64;
