//! Deterministic synthetic road-network generators.
//!
//! The original UOTS evaluation used the (not redistributable) Beijing Road
//! Network. These generators produce connected planar-ish networks with the
//! statistical features the algorithms care about — bounded degree, local
//! connectivity, mildly irregular block structure — at any target size, from
//! a single seed.
//!
//! [`grid_city`] is a jittered lattice with random block removals and
//! optional diagonal shortcuts; it resembles a planned city core (and, at
//! ~28k vertices, the Beijing network's scale).
//!
//! Connectivity is guaranteed by protecting a random spanning tree from
//! removal.

use crate::geometry::Point;
use crate::{NetworkBuilder, NetworkError, NodeId, RoadNetwork};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Minimal union-find used to protect a spanning tree during edge removal.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // path compression
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Unites the sets of `a` and `b`; returns true when they were distinct.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

/// Configuration of the [`grid_city`] generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCityConfig {
    /// Lattice columns (≥ 2).
    pub nx: usize,
    /// Lattice rows (≥ 2).
    pub ny: usize,
    /// Block edge length in kilometres.
    pub spacing_km: f64,
    /// Positional jitter as a fraction of `spacing_km` in `[0, 0.45]`.
    pub jitter: f64,
    /// Probability of removing a non-spanning-tree street, in `[0, 1)`.
    /// Models dead ends and super-blocks; connectivity is preserved.
    pub removal_prob: f64,
    /// Probability of adding a diagonal shortcut inside a block; models
    /// avenue-style diagonals.
    pub diagonal_prob: f64,
    /// Edge weights are Euclidean length × `1 + U(0, roughness)`; models
    /// curved streets. Keep small so A*'s heuristic stays effective.
    pub roughness: f64,
    /// RNG seed; same config + seed ⇒ identical network.
    pub seed: u64,
}

impl GridCityConfig {
    /// A realistic default city of `nx × ny` intersections.
    pub fn new(nx: usize, ny: usize) -> Self {
        GridCityConfig {
            nx,
            ny,
            spacing_km: 0.25,
            jitter: 0.2,
            removal_prob: 0.12,
            diagonal_prob: 0.04,
            roughness: 0.15,
            seed: 0x005e_ed00,
        }
    }

    /// A deterministic, perfectly regular `n × n` lattice with unit spacing:
    /// no jitter, no removals, no diagonals. Ideal for tests whose expected
    /// distances must be computable by hand (vertex `(col, row)` has id
    /// `row * n + col` and position `(col, row)`).
    pub fn tiny(n: usize) -> Self {
        GridCityConfig {
            nx: n,
            ny: n,
            spacing_km: 1.0,
            jitter: 0.0,
            removal_prob: 0.0,
            diagonal_prob: 0.0,
            roughness: 0.0,
            seed: 0,
        }
    }

    /// Overrides the seed, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), NetworkError> {
        if self.nx < 2 || self.ny < 2 {
            return Err(NetworkError::BadGeneratorConfig(
                "grid_city requires nx >= 2 and ny >= 2".into(),
            ));
        }
        if self.spacing_km <= 0.0 || self.spacing_km.is_nan() {
            return Err(NetworkError::BadGeneratorConfig(
                "spacing_km must be positive".into(),
            ));
        }
        if !(0.0..=0.45).contains(&self.jitter) {
            return Err(NetworkError::BadGeneratorConfig(
                "jitter must be in [0, 0.45]".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.removal_prob) {
            return Err(NetworkError::BadGeneratorConfig(
                "removal_prob must be in [0, 1)".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.diagonal_prob) || self.roughness < 0.0 {
            return Err(NetworkError::BadGeneratorConfig(
                "diagonal_prob must be in [0, 1] and roughness >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// Generates a jittered-lattice city network. See [`GridCityConfig`].
///
/// The result is always connected; `num_nodes() == nx * ny`.
pub fn grid_city(cfg: &GridCityConfig) -> Result<RoadNetwork, NetworkError> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (nx, ny) = (cfg.nx, cfg.ny);
    let n = nx * ny;
    let mut b = NetworkBuilder::with_capacity(n, 2 * n);
    let mut pts = Vec::with_capacity(n);

    let id = |col: usize, row: usize| NodeId((row * nx + col) as u32);
    for row in 0..ny {
        for col in 0..nx {
            let (jx, jy) = if cfg.jitter > 0.0 {
                (
                    (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.spacing_km,
                    (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.spacing_km,
                )
            } else {
                (0.0, 0.0)
            };
            let p = Point::new(
                col as f64 * cfg.spacing_km + jx,
                row as f64 * cfg.spacing_km + jy,
            );
            pts.push(p);
            b.add_node(p);
        }
    }

    // candidate streets: lattice neighbours
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * n);
    for row in 0..ny {
        for col in 0..nx {
            if col + 1 < nx {
                candidates.push((id(col, row), id(col + 1, row)));
            }
            if row + 1 < ny {
                candidates.push((id(col, row), id(col, row + 1)));
            }
        }
    }

    // protect a random spanning tree so removals cannot disconnect the city
    let mut shuffled = candidates.clone();
    shuffled.shuffle(&mut rng);
    let mut uf = UnionFind::new(n);
    let mut tree_edges = std::collections::HashSet::with_capacity(n);
    for &(a, c) in &shuffled {
        if uf.union(a.0, c.0) {
            tree_edges.insert((a, c));
        }
    }

    for &(a, c) in &candidates {
        let keep = tree_edges.contains(&(a, c)) || rng.gen::<f64>() >= cfg.removal_prob;
        if keep {
            let base = pts[a.index()].distance(&pts[c.index()]);
            let w = base * (1.0 + rng.gen::<f64>() * cfg.roughness);
            b.add_edge(a, c, Some(w))?;
        }
    }

    // diagonal shortcuts inside blocks
    if cfg.diagonal_prob > 0.0 {
        for row in 0..ny.saturating_sub(1) {
            for col in 0..nx.saturating_sub(1) {
                if rng.gen::<f64>() < cfg.diagonal_prob {
                    let (a, c) = if rng.gen::<bool>() {
                        (id(col, row), id(col + 1, row + 1))
                    } else {
                        (id(col + 1, row), id(col, row + 1))
                    };
                    let base = pts[a.index()].distance(&pts[c.index()]);
                    let w = base * (1.0 + rng.gen::<f64>() * cfg.roughness);
                    b.add_edge(a, c, Some(w))?;
                }
            }
        }
    }

    let net = b.build()?;
    debug_assert!(net.is_connected());
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_is_exact_lattice() {
        let net = grid_city(&GridCityConfig::tiny(4)).unwrap();
        assert_eq!(net.num_nodes(), 16);
        assert_eq!(net.num_edges(), 2 * 4 * 3); // 24 unit streets
        assert!(net.is_connected());
        // vertex (col, row) = row * 4 + col at position (col, row)
        assert_eq!(net.point(NodeId(0)), Point::new(0.0, 0.0));
        assert_eq!(net.point(NodeId(5)), Point::new(1.0, 1.0));
        assert_eq!(net.point(NodeId(15)), Point::new(3.0, 3.0));
        for e in net.edges() {
            assert!((e.weight - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_city_is_deterministic() {
        let cfg = GridCityConfig::new(20, 15).with_seed(99);
        let a = grid_city(&cfg).unwrap();
        let b = grid_city(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = grid_city(&GridCityConfig::new(20, 15).with_seed(1)).unwrap();
        let b = grid_city(&GridCityConfig::new(20, 15).with_seed(2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn grid_city_stays_connected_under_heavy_removal() {
        let mut cfg = GridCityConfig::new(30, 30).with_seed(5);
        cfg.removal_prob = 0.6;
        let net = grid_city(&cfg).unwrap();
        assert!(net.is_connected());
        assert_eq!(net.num_nodes(), 900);
        // a spanning tree needs n-1 edges; removal can't go below that
        assert!(net.num_edges() >= 899);
    }

    #[test]
    fn grid_city_rejects_bad_configs() {
        assert!(grid_city(&GridCityConfig::new(1, 5)).is_err());
        let mut cfg = GridCityConfig::new(5, 5);
        cfg.jitter = 0.9;
        assert!(grid_city(&cfg).is_err());
        let mut cfg = GridCityConfig::new(5, 5);
        cfg.removal_prob = 1.0;
        assert!(grid_city(&cfg).is_err());
        let mut cfg = GridCityConfig::new(5, 5);
        cfg.spacing_km = 0.0;
        assert!(grid_city(&cfg).is_err());
    }

    #[test]
    fn grid_city_weights_respect_roughness_bounds() {
        let cfg = GridCityConfig::new(10, 10).with_seed(3);
        let net = grid_city(&cfg).unwrap();
        for e in net.edges() {
            let straight = net.point(e.a).distance(&net.point(e.b));
            assert!(e.weight >= straight - 1e-12);
            assert!(e.weight <= straight * (1.0 + cfg.roughness) + 1e-12);
        }
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.find(1), uf.find(2));
    }
}
