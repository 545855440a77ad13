//! ALT-style landmark lower bounds for network distances.
//!
//! A set of landmark vertices is selected with the farthest-point heuristic;
//! each stores its full shortest-path tree. The triangle inequality then
//! yields, for any pair `(a, b)`:
//!
//! ```text
//! sd(a, b) >= |sd(l, a) - sd(l, b)|        for every landmark l
//! ```
//!
//! The UOTS expansion algorithm uses the *expansion radius* as its
//! unscanned-distance lower bound (that is what the paper does); landmarks
//! are an optional extension (`f11_landmarks` ablation) that can sharpen the
//! bound for spatially distant trajectories before any expansion happens.

use crate::dijkstra::shortest_path_tree;
use crate::{NodeId, RoadNetwork};

/// Relative slack [`Landmarks::lower_bound`] gives up per leg: far above
/// the rounding error of any path sum (≈ `path edges × 1.1e-16`), far below
/// anything that costs pruning power.
pub const ROUNDING_SLACK: f64 = 1e-9;

/// Precomputed landmark distance tables.
#[derive(Debug, Clone)]
pub struct Landmarks {
    landmarks: Vec<NodeId>,
    /// `dist[l][v]` = network distance from landmark `l` to vertex `v`
    /// (`f64::INFINITY` when unreachable).
    dist: Vec<Vec<f64>>,
}

impl Landmarks {
    /// Selects `count` landmarks by farthest-point traversal starting from
    /// `start` and computes their distance tables (`count` full Dijkstras).
    ///
    /// # Panics
    ///
    /// Panics when `count == 0` or `start` is not in the network.
    pub fn select(net: &RoadNetwork, count: usize, start: NodeId) -> Self {
        assert!(count > 0, "need at least one landmark");
        assert!(net.contains_node(start));
        let mut landmarks = Vec::with_capacity(count);
        let mut dist: Vec<Vec<f64>> = Vec::with_capacity(count);

        // First landmark: the vertex farthest from `start` (classic trick to
        // avoid a central landmark).
        let t0 = shortest_path_tree(net, start);
        let first = argmax_finite(t0.distances()).unwrap_or(start);
        landmarks.push(first);
        dist.push(shortest_path_tree(net, first).distances().to_vec());

        while landmarks.len() < count {
            // farthest point from the current landmark set: maximize the
            // minimum distance to any chosen landmark
            let n = net.num_nodes();
            let mut best_v = None;
            let mut best_d = -1.0;
            for v in 0..n {
                let mut min_d = f64::INFINITY;
                for table in &dist {
                    min_d = min_d.min(table[v]);
                }
                if min_d.is_finite() && min_d > best_d {
                    best_d = min_d;
                    best_v = Some(NodeId(v as u32));
                }
            }
            let Some(next) = best_v else { break };
            if landmarks.contains(&next) {
                break; // graph smaller than requested landmark count
            }
            landmarks.push(next);
            dist.push(shortest_path_tree(net, next).distances().to_vec());
        }
        Landmarks { landmarks, dist }
    }

    /// The selected landmark vertices.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Lower bound on `sd(a, b)`: the best triangle-inequality bound over
    /// all landmarks.
    ///
    /// A landmark leg that does not reach one of the vertices (distance
    /// `f64::INFINITY`) contributes the **vacuous** bound `0.0` — the naive
    /// `|sd(l,a) − sd(l,b)|` would evaluate `INFINITY − INFINITY = NaN` on a
    /// disconnected network, which silently poisons every downstream
    /// comparison (`NaN` fails both `<` and `>=`). The result is therefore
    /// always a finite, non-negative, non-`NaN` lower bound.
    ///
    /// It is also a lower bound on the distance *as computed*: the two
    /// legs and `sd(a, b)` are floating-point sums along different paths,
    /// so the exact-arithmetic inequality can fail by a few ulps of the
    /// longer leg. Each leg bound gives up [`ROUNDING_SLACK`] of that leg,
    /// which keeps callers that compare bounds strictly (the engine
    /// retires on `ub < kth`, where a tie must survive) sound.
    #[inline]
    pub fn lower_bound(&self, a: NodeId, b: NodeId) -> f64 {
        let mut best = 0.0f64;
        for table in &self.dist {
            let (da, db) = (table[a.index()], table[b.index()]);
            // both legs finite — the only case where the subtraction is safe
            if da.is_finite() && db.is_finite() {
                best = best.max((da - db).abs() - ROUNDING_SLACK * da.max(db));
            }
        }
        debug_assert!(best.is_finite() && best >= 0.0);
        best
    }

    /// Lower bound on the distance from `a` to the *nearest* of `targets`:
    /// the minimum of the pairwise lower bounds. An empty target set yields
    /// the vacuous bound `0.0` (a `min` over nothing would be `+∞`, which
    /// as an admission bound would wrongly prune everything).
    pub fn lower_bound_to_set(&self, a: NodeId, targets: &[NodeId]) -> f64 {
        if targets.is_empty() {
            return 0.0;
        }
        targets
            .iter()
            .map(|&t| self.lower_bound(a, t))
            .fold(f64::INFINITY, f64::min)
    }
}

fn argmax_finite(values: &[f64]) -> Option<NodeId> {
    let mut best = None;
    let mut best_d = -1.0;
    for (i, &d) in values.iter().enumerate() {
        if d.is_finite() && d > best_d {
            best_d = d;
            best = Some(NodeId(i as u32));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::generators::{grid_city, GridCityConfig};

    #[test]
    fn bounds_never_exceed_true_distance() {
        let net = grid_city(&GridCityConfig::new(12, 12).with_seed(17)).unwrap();
        let lm = Landmarks::select(&net, 4, NodeId(0));
        assert_eq!(lm.landmarks().len(), 4);
        let pairs = [(0u32, 100u32), (5, 77), (33, 130), (143, 0)];
        for (a, b) in pairs {
            let lb = lm.lower_bound(NodeId(a), NodeId(b));
            let d = dijkstra::distance(&net, NodeId(a), NodeId(b)).unwrap();
            assert!(lb <= d + 1e-9, "{a}->{b}: lb {lb} > d {d}");
        }
    }

    #[test]
    fn bound_to_self_is_zero() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let lm = Landmarks::select(&net, 2, NodeId(0));
        for v in net.node_ids() {
            assert_eq!(lm.lower_bound(v, v), 0.0);
        }
    }

    #[test]
    fn bound_is_useful_for_far_pairs() {
        // On a regular lattice with corner landmarks, opposite corners must
        // get a substantially positive bound.
        let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
        let lm = Landmarks::select(&net, 4, NodeId(0));
        let lb = lm.lower_bound(NodeId(0), NodeId(63));
        assert!(lb > 0.0);
        let d = dijkstra::distance(&net, NodeId(0), NodeId(63)).unwrap();
        assert!(lb <= d);
    }

    #[test]
    fn set_bound_is_min_of_pairwise() {
        let net = grid_city(&GridCityConfig::tiny(6)).unwrap();
        let lm = Landmarks::select(&net, 3, NodeId(0));
        let targets = [NodeId(35), NodeId(5), NodeId(12)];
        let set_lb = lm.lower_bound_to_set(NodeId(0), &targets);
        let min_pair = targets
            .iter()
            .map(|&t| lm.lower_bound(NodeId(0), t))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(set_lb, min_pair);
    }

    /// Two disconnected line components: `0–1–2` and `3–4–5`.
    fn disconnected() -> RoadNetwork {
        use crate::{NetworkBuilder, Point};
        let mut b = NetworkBuilder::new();
        let ids: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64, if i < 3 { 0.0 } else { 50.0 })))
            .collect();
        b.add_edge(ids[0], ids[1], None).unwrap();
        b.add_edge(ids[1], ids[2], None).unwrap();
        b.add_edge(ids[3], ids[4], None).unwrap();
        b.add_edge(ids[4], ids[5], None).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn disconnected_network_yields_vacuous_bounds_never_nan() {
        // Regression: unreachable landmark legs used to risk
        // INFINITY − INFINITY = NaN in the triangle-inequality bound.
        let net = disconnected();
        let lm = Landmarks::select(&net, 2, NodeId(0));
        // landmarks live in the start component only
        for &l in lm.landmarks() {
            assert!(l.0 < 3, "landmark {l:?} escaped the start component");
        }
        for a in net.node_ids() {
            for b in net.node_ids() {
                let lb = lm.lower_bound(a, b);
                assert!(!lb.is_nan(), "{a:?}->{b:?} produced NaN");
                assert!(lb.is_finite() && lb >= 0.0, "{a:?}->{b:?}: {lb}");
            }
        }
        // a pair with one or both endpoints unreachable from every landmark
        // gets the vacuous bound
        assert_eq!(lm.lower_bound(NodeId(0), NodeId(4)), 0.0);
        assert_eq!(lm.lower_bound(NodeId(3), NodeId(5)), 0.0);
    }

    #[test]
    fn set_bound_handles_empty_and_unreachable_targets() {
        let net = disconnected();
        let lm = Landmarks::select(&net, 2, NodeId(0));
        // empty target set: vacuous, not +∞ (which would prune everything)
        assert_eq!(lm.lower_bound_to_set(NodeId(0), &[]), 0.0);
        // all-unreachable targets: every leg vacuous, still not NaN
        let lb = lm.lower_bound_to_set(NodeId(0), &[NodeId(3), NodeId(5)]);
        assert!(!lb.is_nan());
        assert_eq!(lb, 0.0);
        // mixed set: min of the pairwise bounds — the vacuous unreachable
        // leg (0.0) wins over the positive reachable one
        let mixed = lm.lower_bound_to_set(NodeId(0), &[NodeId(2), NodeId(4)]);
        let pair_min = lm
            .lower_bound(NodeId(0), NodeId(2))
            .min(lm.lower_bound(NodeId(0), NodeId(4)));
        assert_eq!(mixed, pair_min);
        assert_eq!(mixed, 0.0);
    }

    #[test]
    fn landmark_count_caps_at_graph_size() {
        let net = grid_city(&GridCityConfig::tiny(2)).unwrap(); // 4 vertices
        let lm = Landmarks::select(&net, 10, NodeId(0));
        assert!(lm.landmarks().len() <= 4);
        assert!(!lm.landmarks().is_empty());
    }
}
