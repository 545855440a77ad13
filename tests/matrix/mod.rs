//! All-pairs shortest path distances via Floyd–Warshall: the property
//! tests' independent `O(|V|³)` oracle for Dijkstra and the incremental
//! expansion on small random graphs.

use uots::network::{NodeId, RoadNetwork};

/// A dense `|V| × |V|` matrix of shortest-path distances.
///
/// Memory is `8·|V|²` bytes — only use for small networks.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all-pairs distances for `net` with Floyd–Warshall.
    pub fn compute(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        let mut dist = vec![f64::INFINITY; n * n];
        for v in 0..n {
            dist[v * n + v] = 0.0;
        }
        for e in net.edges() {
            let (a, b) = (e.a.index(), e.b.index());
            // parallel edges: keep the lighter one
            if e.weight < dist[a * n + b] {
                dist[a * n + b] = e.weight;
                dist[b * n + a] = e.weight;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                // manual row indexing keeps the inner loop tight
                let (row_k, row_i) = if i < k {
                    let (lo, hi) = dist.split_at_mut(k * n);
                    (&hi[..n], &mut lo[i * n..i * n + n])
                } else if i > k {
                    let (lo, hi) = dist.split_at_mut(i * n);
                    (&lo[k * n..k * n + n], &mut hi[..n])
                } else {
                    continue;
                };
                for j in 0..n {
                    let alt = dik + row_k[j];
                    if alt < row_i[j] {
                        row_i[j] = alt;
                    }
                }
            }
        }
        DistanceMatrix { n, dist }
    }

    /// Shortest-path distance between `a` and `b`; `None` when disconnected.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<f64> {
        assert!(a.index() < self.n && b.index() < self.n);
        let d = self.dist[a.index() * self.n + b.index()];
        d.is_finite().then_some(d)
    }

    /// The graph diameter: the largest finite pairwise distance.
    pub fn diameter(&self) -> f64 {
        self.dist
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use uots::network::dijkstra::shortest_path_tree;
    use uots::network::{NetworkBuilder, Point};

    fn random_graph(seed: u64, n: usize, extra_edges: usize) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|_| b.add_node(Point::new(rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0)))
            .collect();
        // random spanning tree keeps it connected
        for i in 1..n {
            let j = rng.gen_range(0..i);
            b.add_edge(ids[i], ids[j], Some(rng.gen::<f64>() * 5.0 + 0.1))
                .unwrap();
        }
        for _ in 0..extra_edges {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                b.add_edge(ids[i], ids[j], Some(rng.gen::<f64>() * 5.0 + 0.1))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..5u64 {
            let net = random_graph(seed, 30, 40);
            let m = DistanceMatrix::compute(&net);
            for src in [NodeId(0), NodeId(7), NodeId(29)] {
                let tree = shortest_path_tree(&net, src);
                for v in net.node_ids() {
                    match (m.get(src, v), tree.distance(v)) {
                        (Some(a), Some(b)) => {
                            assert!((a - b).abs() < 1e-9, "seed {seed} {src}->{v}: {a} vs {b}")
                        }
                        (a, b) => assert_eq!(a.is_some(), b.is_some()),
                    }
                }
            }
        }
    }

    #[test]
    fn symmetric_and_zero_diagonal() {
        let net = random_graph(42, 20, 15);
        let m = DistanceMatrix::compute(&net);
        for a in net.node_ids() {
            assert_eq!(m.get(a, a), Some(0.0));
            for bb in net.node_ids() {
                assert_eq!(m.get(a, bb), m.get(bb, a));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let net = random_graph(7, 15, 20);
        let m = DistanceMatrix::compute(&net);
        for a in net.node_ids() {
            for bb in net.node_ids() {
                for c in net.node_ids() {
                    if let (Some(ab), Some(bc), Some(ac)) =
                        (m.get(a, bb), m.get(bb, c), m.get(a, c))
                    {
                        assert!(ac <= ab + bc + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_edges_keep_minimum() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, Some(5.0)).unwrap();
        b.add_edge(v0, v1, Some(2.0)).unwrap();
        let net = b.build().unwrap();
        let m = DistanceMatrix::compute(&net);
        assert_eq!(m.get(NodeId(0), NodeId(1)), Some(2.0));
    }

    #[test]
    fn disconnected_pairs_are_none_and_diameter_ignores_them() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_node(Point::new(9.0, 9.0));
        b.add_edge(v0, v1, Some(3.0)).unwrap();
        let net = b.build().unwrap();
        let m = DistanceMatrix::compute(&net);
        assert_eq!(m.get(NodeId(0), NodeId(2)), None);
        assert_eq!(m.diameter(), 3.0);
    }
}
