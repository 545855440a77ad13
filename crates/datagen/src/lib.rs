//! # uots-datagen
//!
//! Reproducible dataset construction for the UOTS reproduction: bundles a
//! road network, a trajectory store, the vocabulary and all query-time
//! indexes into a [`Dataset`], with presets scaled after the paper family's
//! evaluation networks (Beijing ≈ 28k vertices, New York ≈ 95k vertices),
//! plus a [`workload`] generator producing UOTS query inputs.
//!
//! Everything is deterministic from the configuration's seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversarial;
pub mod persist;
pub mod workload;

use uots_index::{GridIndex, KeywordBlocks, KeywordInvertedIndex, VertexInvertedIndex};
use uots_network::generators::{grid_city, GridCityConfig};
use uots_network::{NodeId, Point, RoadNetwork};
use uots_text::Vocabulary;
use uots_trajectory::{
    DatasetStats, TagModelConfig, TagSampler, TrajectoryError, TrajectoryId, TrajectoryStore,
    TripGenerator, TripGeneratorConfig,
};

/// Full dataset configuration: network + trips + tags.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Human-readable dataset name (used in experiment output).
    pub name: String,
    /// The jittered-lattice city network, see
    /// [`uots_network::generators::grid_city`].
    pub network: GridCityConfig,
    /// Trip generator settings.
    pub trips: TripGeneratorConfig,
    /// Tag model settings.
    pub tags: TagModelConfig,
    /// Seed for the tag model (the trip generator has its own seed).
    pub tag_seed: u64,
}

impl DatasetConfig {
    /// A Beijing-like configuration: ≈ 28k vertices (the paper's BRN has
    /// 28,342), trips averaging tens of samples. `num_trips` scales the
    /// trajectory cardinality — the paper family used 50k–200k on BRN.
    pub fn brn_like(num_trips: usize) -> Self {
        let mut grid = GridCityConfig::new(168, 168); // 28,224 vertices
        grid.seed = 0xbe11;
        DatasetConfig {
            name: format!("BRN-like ({num_trips} trips)"),
            network: grid,
            trips: TripGeneratorConfig {
                num_trips,
                hotspots: 24,
                min_trip_km: 4.0,
                sample_stride: 3,
                ..Default::default()
            },
            tags: TagModelConfig::default(),
            tag_seed: 0xbe12,
        }
    }

    /// A New-York-like configuration: denser network (the paper's NRN has
    /// 95,581 vertices; this preset generates ≈ 95k).
    pub fn nrn_like(num_trips: usize) -> Self {
        let mut grid = GridCityConfig::new(310, 308); // 95,480 vertices
        grid.seed = 0x4e11;
        grid.diagonal_prob = 0.08;
        DatasetConfig {
            name: format!("NRN-like ({num_trips} trips)"),
            network: grid,
            trips: TripGeneratorConfig {
                num_trips,
                hotspots: 40,
                min_trip_km: 5.0,
                sample_stride: 3,
                ..Default::default()
            },
            tags: TagModelConfig {
                vocab_size: 800,
                num_categories: 20,
                ..Default::default()
            },
            tag_seed: 0x4e12,
        }
    }

    /// A small dataset for unit/integration tests and quick examples:
    /// a 30×30 city with the requested number of trips.
    pub fn small(num_trips: usize, seed: u64) -> Self {
        let mut grid = GridCityConfig::new(30, 30);
        grid.seed = seed;
        DatasetConfig {
            name: format!("small ({num_trips} trips, seed {seed})"),
            network: grid,
            trips: TripGeneratorConfig {
                num_trips,
                hotspots: 5,
                min_trip_km: 1.5,
                sample_stride: 2,
                ..Default::default()
            }
            .with_seed(seed ^ 0x1111),
            tags: TagModelConfig {
                vocab_size: 60,
                num_categories: 6,
                keywords_per_category: 15,
                ..Default::default()
            },
            tag_seed: seed ^ 0x2222,
        }
    }

    /// Overrides every generator seed, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.trips.seed = seed ^ 0xaaaa;
        self.tag_seed = seed ^ 0xbbbb;
        self.network.seed = seed ^ 0xcccc;
        self
    }
}

/// A fully built dataset: network, trajectories, vocabulary and all
/// query-time indexes. A clone copies the network and every index but
/// shares the trajectories' blocks ([`TrajectoryStore`]).
#[derive(Clone)]
pub struct Dataset {
    /// Dataset name (from the configuration).
    pub name: String,
    /// The road network.
    pub network: RoadNetwork,
    /// The trajectories.
    pub store: TrajectoryStore,
    /// The tag vocabulary.
    pub vocab: Vocabulary,
    /// The tag sampler used to generate (and to sample query) keywords.
    pub tags: TagSampler,
    /// vertex → trajectories index (probed by the expansion search).
    pub vertex_index: VertexInvertedIndex<TrajectoryId>,
    /// keyword → trajectories index (textual baseline).
    pub keyword_index: KeywordInvertedIndex<TrajectoryId>,
    /// The dense per-trajectory keyword table every textual term reads.
    pub keyword_blocks: KeywordBlocks,
    /// Spatial grid over network vertices (query-point snapping).
    pub grid: GridIndex,
}

impl Dataset {
    /// Builds the dataset described by `cfg`. This generates the network,
    /// all trips, and every index. Cost is dominated by routing one
    /// landmark-pruned A* query per trip (two passes, ≈ 1,170 settles on
    /// BRN), which [`TripGenerator::generate`] spreads over every available
    /// core; the trips are the same at any core count.
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors.
    pub fn build(cfg: &DatasetConfig) -> Result<Self, BuildError> {
        let network = grid_city(&cfg.network).map_err(BuildError::Network)?;
        let mut tag_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(cfg.tag_seed);
        let (tags, vocab) = TagSampler::synthetic(&cfg.tags, &mut tag_rng);
        let store = {
            let mut generator =
                TripGenerator::new(&network, cfg.trips.clone()).map_err(BuildError::Trajectory)?;
            generator.generate(&tags)
        };
        let vertex_index = store.build_vertex_index(network.num_nodes());
        let keyword_index = store.build_keyword_index(vocab.len());
        let keyword_blocks = store.build_keyword_blocks();
        let grid = GridIndex::build(network.points(), 8);
        Ok(Dataset {
            name: cfg.name.clone(),
            network,
            store,
            vocab,
            tags,
            vertex_index,
            keyword_index,
            keyword_blocks,
            grid,
        })
    }

    /// Snaps an arbitrary point to its nearest network vertex.
    pub fn snap(&self, p: &Point) -> NodeId {
        NodeId(self.grid.nearest(p).0 as u32)
    }

    /// Dataset statistics (table T1 of the experiment suite).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::compute(&self.store)
    }

    /// The network, trajectories and vocabulary by value — what a serving
    /// cluster keeps of a loaded dataset. The indexes, the tag sampler and
    /// the grid are freed here: a cluster builds its own indexes per epoch.
    pub fn into_parts(self) -> (RoadNetwork, TrajectoryStore, Vocabulary) {
        (self.network, self.store, self.vocab)
    }
}

/// Errors from [`Dataset::build`].
#[derive(Debug)]
pub enum BuildError {
    /// Network generation failed.
    Network(uots_network::NetworkError),
    /// Trip generation failed.
    Trajectory(TrajectoryError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Network(e) => write!(f, "network generation failed: {e}"),
            BuildError::Trajectory(e) => write!(f, "trip generation failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_dataset_builds_consistently() {
        let cfg = DatasetConfig::small(40, 7);
        let ds = Dataset::build(&cfg).unwrap();
        assert_eq!(ds.store.len(), 40);
        assert_eq!(ds.network.num_nodes(), 900);
        assert!(ds.network.is_connected());
        assert_eq!(ds.vertex_index.num_keys(), 900);
        assert_eq!(ds.keyword_index.num_keys(), ds.vocab.len());
        // every trajectory's vertices and keywords are registered
        for (id, t) in ds.store.iter() {
            for v in t.nodes() {
                assert!(ds.vertex_index.values_at(v).contains(&id));
            }
            for k in t.keywords().iter() {
                assert!(ds.keyword_index.values_at(k).contains(&id));
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = DatasetConfig::small(15, 3);
        let a = Dataset::build(&cfg).unwrap();
        let b = Dataset::build(&cfg).unwrap();
        assert_eq!(a.network, b.network);
        for (x, y) in a.store.iter().zip(b.store.iter()) {
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn with_seed_changes_everything() {
        let a = Dataset::build(&DatasetConfig::small(10, 1).with_seed(100)).unwrap();
        let b = Dataset::build(&DatasetConfig::small(10, 1).with_seed(200)).unwrap();
        assert_ne!(a.network, b.network);
    }

    #[test]
    fn snap_returns_nearest_vertex() {
        let ds = Dataset::build(&DatasetConfig::small(5, 2)).unwrap();
        for v in [NodeId(0), NodeId(450), NodeId(899)] {
            let p = ds.network.point(v);
            assert_eq!(ds.snap(&p), v);
        }
    }

    #[test]
    fn stats_reflect_store() {
        let ds = Dataset::build(&DatasetConfig::small(25, 9)).unwrap();
        let st = ds.stats();
        assert_eq!(st.count, 25);
        assert!(st.avg_len >= 2.0);
        assert!(st.distinct_keywords > 0);
    }

    #[test]
    fn brn_and_nrn_presets_match_paper_scale() {
        // don't build (expensive); just check the configured shapes
        let g = DatasetConfig::brn_like(1000).network;
        let n = g.nx * g.ny;
        assert!((27_000..30_000).contains(&n), "vertices {n}");
        let g = DatasetConfig::nrn_like(1000).network;
        let n = g.nx * g.ny;
        assert!((93_000..98_000).contains(&n), "vertices {n}");
    }
}
