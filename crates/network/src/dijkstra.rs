//! Dijkstra's algorithm in several guises: full shortest-path trees,
//! early-terminating point-to-point distances and radius-bounded trees.
//!
//! These are the exact-distance workhorses used by the brute-force oracle,
//! the baselines and the data generators. The *incremental* expansion used
//! by the UOTS query algorithm lives in [`crate::expansion`].

use crate::heap::{HeapEntry, TotalF64};
use crate::{NodeId, RoadNetwork};
use std::collections::BinaryHeap;

/// The distances of a (possibly partial) shortest-path tree rooted at a
/// source vertex.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    dist: Vec<f64>,
}

impl ShortestPathTree {
    /// Network distance from the source to `v`, or `None` when `v` was not
    /// reached (disconnected, or outside the radius of a bounded search).
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<f64> {
        let d = self.dist[v.index()];
        d.is_finite().then_some(d)
    }

    /// Raw distance slice; unreachable vertices hold `f64::INFINITY`.
    #[inline]
    pub(crate) fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Number of vertices reached (settled) by the search.
    pub fn reached_count(&self) -> usize {
        self.dist.iter().filter(|d| d.is_finite()).count()
    }
}

/// Computes the full shortest-path tree from `source`.
///
/// Classic binary-heap Dijkstra with stale-entry skipping:
/// `O((|V| + |E|) log |V|)`.
///
/// # Panics
///
/// Panics if `source` is not a vertex of `net`.
pub fn shortest_path_tree(net: &RoadNetwork, source: NodeId) -> ShortestPathTree {
    bounded_shortest_path_tree(net, source, f64::INFINITY)
}

/// Computes the shortest-path tree from `source`, restricted to vertices
/// within network distance `radius`.
///
/// # Panics
///
/// Panics if `source` is not a vertex of `net`.
pub(crate) fn bounded_shortest_path_tree(
    net: &RoadNetwork,
    source: NodeId,
    radius: f64,
) -> ShortestPathTree {
    assert!(net.contains_node(source), "source not in network");
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: TotalF64(0.0),
        node: source,
    });
    while let Some(HeapEntry {
        dist: TotalF64(d),
        node: v,
    }) = heap.pop()
    {
        if settled[v.index()] {
            continue; // stale entry
        }
        settled[v.index()] = true;
        for (u, w) in net.neighbors(v) {
            let nd = d + w;
            if nd < dist[u.index()] && nd <= radius {
                dist[u.index()] = nd;
                heap.push(HeapEntry {
                    dist: TotalF64(nd),
                    node: u,
                });
            }
        }
    }
    // Vertices relaxed but never settled within the radius must not report a
    // (possibly non-minimal) tentative distance.
    for v in 0..n {
        if !settled[v] {
            dist[v] = f64::INFINITY;
        }
    }
    ShortestPathTree { dist }
}

/// Network distance between `source` and `target`, terminating as soon as
/// `target` is settled. Returns `None` when the two are disconnected.
///
/// # Panics
///
/// Panics if either vertex is not in `net`.
pub fn distance(net: &RoadNetwork, source: NodeId, target: NodeId) -> Option<f64> {
    assert!(net.contains_node(source) && net.contains_node(target));
    if source == target {
        return Some(0.0);
    }
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: TotalF64(0.0),
        node: source,
    });
    while let Some(HeapEntry {
        dist: TotalF64(d),
        node: v,
    }) = heap.pop()
    {
        if settled[v.index()] {
            continue;
        }
        if v == target {
            return Some(d);
        }
        settled[v.index()] = true;
        for (u, w) in net.neighbors(v) {
            let nd = d + w;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(HeapEntry {
                    dist: TotalF64(nd),
                    node: u,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkBuilder, Point};

    /// 0 -1- 1 -1- 2
    /// |         /
    /// +---5----+       (direct shortcut 0-2 of weight 5, longer than 0-1-2)
    fn small() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, Some(1.0)).unwrap();
        b.add_edge(v1, v2, Some(1.0)).unwrap();
        b.add_edge(v0, v2, Some(5.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn tree_distances_are_minimal() {
        let net = small();
        let t = shortest_path_tree(&net, NodeId(0));
        assert_eq!(t.distance(NodeId(0)), Some(0.0));
        assert_eq!(t.distance(NodeId(1)), Some(1.0));
        assert_eq!(t.distance(NodeId(2)), Some(2.0)); // via v1, not the weight-5 edge
        assert_eq!(t.reached_count(), 3);
    }

    #[test]
    fn point_to_point_matches_tree() {
        let net = small();
        assert_eq!(distance(&net, NodeId(0), NodeId(2)), Some(2.0));
        assert_eq!(distance(&net, NodeId(2), NodeId(0)), Some(2.0));
        assert_eq!(distance(&net, NodeId(1), NodeId(1)), Some(0.0));
    }

    #[test]
    fn disconnected_targets_return_none() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_node(Point::new(9.0, 9.0)); // isolated v2
        b.add_edge(v0, v1, None).unwrap();
        let net = b.build().unwrap();
        assert_eq!(distance(&net, NodeId(0), NodeId(2)), None);
        let t = shortest_path_tree(&net, NodeId(0));
        assert_eq!(t.distance(NodeId(2)), None);
    }

    #[test]
    fn bounded_tree_respects_radius() {
        let net = small();
        let t = bounded_shortest_path_tree(&net, NodeId(0), 1.5);
        assert_eq!(t.distance(NodeId(0)), Some(0.0));
        assert_eq!(t.distance(NodeId(1)), Some(1.0));
        assert_eq!(t.distance(NodeId(2)), None); // true distance 2.0 > 1.5
    }

    #[test]
    fn bounded_tree_does_not_report_tentative_distances() {
        // v2 is relaxed via the weight-5 edge before the radius cuts off the
        // cheaper 0-1-2 route; it must not be reported at distance 5.
        let net = small();
        let t = bounded_shortest_path_tree(&net, NodeId(0), 0.5);
        assert_eq!(t.distance(NodeId(1)), None);
        assert_eq!(t.distance(NodeId(2)), None);
        assert_eq!(t.reached_count(), 1);
    }
}
