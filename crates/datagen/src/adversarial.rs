//! Adversarial dataset generators for robustness testing.
//!
//! The standard presets produce well-behaved cities; the anytime execution
//! layer must also survive pathological inputs. Two stressors:
//!
//! * [`hub_spike`] — every trajectory is routed through one shared hub
//!   vertex, so the vertex inverted index fans out to the *entire* store
//!   the moment any expansion reaches the hub. Worst case for
//!   candidate-generation budgets (`max_visited`).
//! * [`split_city`] — the network is a set of mutually unreachable
//!   islands. Expansions from query locations can never leave their
//!   island, so most trajectories keep spatial similarity exactly zero;
//!   exercises the exhaustion/sweep paths and join subset semantics.
//!
//! Both are deterministic from their seed and return a fully indexed
//! [`Dataset`].

use crate::{BuildError, Dataset, DatasetConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uots_index::GridIndex;
use uots_network::{NetworkBuilder, NodeId, Point};
use uots_trajectory::{Sample, TagModelConfig, TagSampler, Trajectory, TrajectoryStore};

/// Builds a small city where **every** trajectory passes through one hub
/// vertex (the grid centre), prepended as each trip's first sample.
///
/// Probing the vertex index at the hub returns the whole store, which
/// makes any search touching it visit `num_trips` candidates at once —
/// the spike a `max_visited` budget exists to absorb.
///
/// # Errors
///
/// Propagates [`Dataset::build`] errors from the underlying preset.
pub fn hub_spike(num_trips: usize, seed: u64) -> Result<Dataset, BuildError> {
    let mut cfg = DatasetConfig::small(num_trips, seed);
    cfg.name = format!("hub-spike ({num_trips} trips, seed {seed})");
    let base = Dataset::build(&cfg)?;
    let hub = NodeId((base.network.num_nodes() / 2) as u32);

    let mut store = TrajectoryStore::new();
    for (_, t) in base.store.iter() {
        let first = t.samples()[0];
        let mut samples = Vec::with_capacity(t.len() + 1);
        samples.push(Sample {
            node: hub,
            time: (first.time - 60.0).max(0.0),
        });
        samples.extend_from_slice(t.samples());
        store.push(
            Trajectory::new(samples, t.keywords().clone())
                .expect("prepending an earlier sample keeps the trajectory valid"),
        );
    }

    let vertex_index = store.build_vertex_index(base.network.num_nodes());
    let keyword_index = store.build_keyword_index(base.vocab.len());
    let keyword_blocks = store.build_keyword_blocks();
    Ok(Dataset {
        name: cfg.name,
        network: base.network,
        store,
        vocab: base.vocab,
        tags: base.tags,
        vertex_index,
        keyword_index,
        keyword_blocks,
        grid: base.grid,
    })
}

/// Lattice side length of each [`split_city`] island.
const ISLAND_SIDE: usize = 8;
/// Vertex spacing within an island, kilometres.
const ISLAND_SPACING_KM: f64 = 0.4;
/// Gap between islands, kilometres — far beyond any similarity decay.
const ISLAND_GAP_KM: f64 = 25.0;

/// Builds a city of `components` mutually disconnected lattice islands
/// with `trips_per_component` random-walk trajectories confined to each.
///
/// Network distances across islands are infinite: a query placed on one
/// island sees spatial similarity exactly `0` for every other island's
/// trajectories, no matter how long the search runs.
///
/// # Errors
///
/// [`BuildError::Network`] if the network is degenerate (`components` or
/// `trips_per_component` of zero still build an empty-but-valid dataset
/// only when at least one vertex exists, so `components == 0` errors).
pub fn split_city(
    components: usize,
    trips_per_component: usize,
    seed: u64,
) -> Result<Dataset, BuildError> {
    let n = ISLAND_SIDE;
    let mut b = NetworkBuilder::new();
    for c in 0..components {
        let x0 = c as f64 * (n as f64 * ISLAND_SPACING_KM + ISLAND_GAP_KM);
        let base = b.num_nodes() as u32;
        for j in 0..n {
            for i in 0..n {
                b.add_node(Point::new(
                    x0 + i as f64 * ISLAND_SPACING_KM,
                    j as f64 * ISLAND_SPACING_KM,
                ));
            }
        }
        for j in 0..n {
            for i in 0..n {
                let v = base + (j * n + i) as u32;
                if i + 1 < n {
                    b.add_edge(NodeId(v), NodeId(v + 1), None)
                        .map_err(BuildError::Network)?;
                }
                if j + 1 < n {
                    b.add_edge(NodeId(v), NodeId(v + n as u32), None)
                        .map_err(BuildError::Network)?;
                }
            }
        }
    }
    let network = b.build().map_err(BuildError::Network)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let (tags, vocab) = TagSampler::synthetic(
        &TagModelConfig {
            vocab_size: 40,
            num_categories: 4,
            keywords_per_category: 12,
            ..Default::default()
        },
        &mut rng,
    );

    let island_nodes = n * n;
    let mut store = TrajectoryStore::new();
    for c in 0..components {
        let base = (c * island_nodes) as u32;
        for _ in 0..trips_per_component {
            let len = rng.gen_range(4..10usize);
            let mut v = NodeId(base + rng.gen_range(0..island_nodes) as u32);
            let mut time = rng.gen_range(0.0..70_000.0);
            let mut samples = Vec::with_capacity(len);
            for _ in 0..len {
                samples.push(Sample { node: v, time });
                let nbrs: Vec<NodeId> = network.neighbors(v).map(|(u, _)| u).collect();
                v = nbrs[rng.gen_range(0..nbrs.len())];
                time += rng.gen_range(20.0..90.0);
            }
            let category = tags.sample_category(&mut rng);
            let kw = tags.sample_tags(category, 3, &mut rng);
            store.push(Trajectory::new(samples, kw).expect("walk times increase"));
        }
    }

    let vertex_index = store.build_vertex_index(network.num_nodes());
    let keyword_index = store.build_keyword_index(vocab.len());
    let keyword_blocks = store.build_keyword_blocks();
    let grid = GridIndex::build(network.points(), 8);
    Ok(Dataset {
        name: format!("split-city ({components}×{trips_per_component} trips, seed {seed})"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_spike_routes_everything_through_the_hub() {
        let ds = hub_spike(25, 5).unwrap();
        assert_eq!(ds.store.len(), 25);
        let hub = NodeId((ds.network.num_nodes() / 2) as u32);
        // the hub's inverted-index posting list covers the whole store
        assert_eq!(ds.vertex_index.values_at(hub).len(), 25);
        for (_, t) in ds.store.iter() {
            assert_eq!(t.samples()[0].node, hub);
        }
    }

    #[test]
    fn hub_spike_is_deterministic() {
        let a = hub_spike(10, 3).unwrap();
        let b = hub_spike(10, 3).unwrap();
        for (x, y) in a.store.iter().zip(b.store.iter()) {
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn split_city_is_disconnected_with_confined_walks() {
        let ds = split_city(3, 8, 11).unwrap();
        assert_eq!(ds.network.num_nodes(), 3 * ISLAND_SIDE * ISLAND_SIDE);
        assert!(!ds.network.is_connected());
        assert_eq!(ds.store.len(), 24);
        let island = |v: NodeId| v.index() / (ISLAND_SIDE * ISLAND_SIDE);
        for (_, t) in ds.store.iter() {
            let home = island(t.samples()[0].node);
            for s in t.samples() {
                assert_eq!(island(s.node), home, "walks must not cross islands");
            }
        }
    }

    #[test]
    fn split_city_single_island_is_connected() {
        let ds = split_city(1, 5, 13).unwrap();
        assert!(ds.network.is_connected());
    }

    #[test]
    fn split_city_rejects_zero_components() {
        assert!(split_city(0, 5, 1).is_err());
    }
}
