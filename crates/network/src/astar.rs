//! A* point-to-point shortest paths, pruned with ALT landmark bounds.
//!
//! Used by the trip generator (which needs millions of origin–destination
//! routes) and available to library users as a faster alternative to plain
//! Dijkstra for point-to-point queries.
//!
//! [`AStar::route`] returns exactly the route of a plain A* search ordered
//! by the scaled Euclidean bound — the same vertices, the same tie-breaks,
//! the same `distance` bits — while settling far fewer vertices. It runs
//! one search function twice:
//!
//! 1. the **bound pass** orders the heap by the larger of the Euclidean
//!    bound and the landmark bound (Goldberg & Harrelson's ALT). It settles
//!    few vertices, but it may pick another of several tied routes; only
//!    its length `UB` is kept, an upper bound on the shortest distance;
//! 2. the **route pass** is the plain Euclidean search, except that a
//!    relaxation of `u` is not pushed when `g + lb(u, target)` exceeds `UB`
//!    (plus a rounding slack). A vertex on any shortest path always passes
//!    that test with the reference search's `g`, and the pushes that
//!    survive keep their `(f, node id)` keys and so their relative order:
//!    every parent the reference search would record on the route is
//!    recorded here.

use crate::dijkstra::shortest_path_tree;
use crate::heap::{HeapEntry, TotalF64};
use crate::{NodeId, RoadNetwork};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Landmarks [`AStar::new`] selects (fewer on a smaller network).
const LANDMARKS: usize = 16;

/// Relative slack the landmark bound gives up per leg, and the route pass's
/// cap above `UB`: far above the rounding error of any path sum
/// (≈ `path edges × 1.1e-16`), far below anything that costs pruning power.
const ROUNDING_SLACK: f64 = 1e-9;

/// Result of a point-to-point A* search.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Vertices of the shortest path, source first, target last.
    pub path: Vec<NodeId>,
    /// Network length of the path.
    pub distance: f64,
    /// Network length from the source to each vertex of `path`, along the
    /// path and over the edges the search relaxed (the lightest of any
    /// parallel edges): `0.0` first, `distance` last.
    pub cumulative: Vec<f64>,
}

/// Reusable A* searcher over one network.
///
/// The Euclidean heuristic is pre-scaled by
/// [`RoadNetwork::heuristic_scale`], which keeps it admissible even when
/// some edge weights undercut the straight-line distance between their
/// endpoints (never the case for generator output, but guarded regardless).
///
/// [`new`](Self::new) selects the landmarks and builds their distance table
/// once; clones share the table and allocate their own scratch buffers, so
/// one searcher per thread costs no second build.
#[derive(Clone)]
pub struct AStar<'a> {
    net: &'a RoadNetwork,
    scale: f64,
    /// Landmarks per vertex: the stride of `table`.
    landmarks: usize,
    /// Vertex-major landmark distances: `table[v × landmarks + l]` is the
    /// network distance between landmark `l` and vertex `v`
    /// (`f64::INFINITY` when unreachable).
    table: Arc<[f64]>,
    g: Vec<f64>,
    parent: Vec<Option<NodeId>>,
    settled: Vec<bool>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
}

impl<'a> AStar<'a> {
    /// Allocates a searcher for `net`: selects up to 16 landmarks by
    /// farthest-point traversal (one full Dijkstra each) and builds their
    /// distance table.
    pub fn new(net: &'a RoadNetwork) -> Self {
        let n = net.num_nodes();
        let columns = select_landmarks(net);
        let landmarks = columns.len();
        let mut table = vec![0.0; n * landmarks];
        for (l, column) in columns.iter().enumerate() {
            for (v, &d) in column.iter().enumerate() {
                table[v * landmarks + l] = d;
            }
        }
        AStar {
            net,
            scale: net.heuristic_scale(),
            landmarks,
            table: table.into(),
            g: vec![f64::INFINITY; n],
            parent: vec![None; n],
            settled: vec![false; n],
            stamp: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn touch(&mut self, v: NodeId) {
        let i = v.index();
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.g[i] = f64::INFINITY;
            self.parent[i] = None;
            self.settled[i] = false;
        }
    }

    #[inline]
    fn is_settled(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch && self.settled[v.index()]
    }

    /// The landmark distances of `v`.
    #[inline]
    fn row(&self, v: NodeId) -> &[f64] {
        &self.table[v.index() * self.landmarks..][..self.landmarks]
    }

    /// Shortest route from `source` to `target`, or `None` when
    /// disconnected. Scratch buffers are reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is not in the network.
    pub fn route(&mut self, source: NodeId, target: NodeId) -> Option<Route> {
        let ub = self.search(source, target, Order::Landmarks, f64::INFINITY)?;
        self.search(source, target, Order::Euclid, ub * (1.0 + ROUNDING_SLACK))
            .expect("the bound pass reached the target");
        Some(self.path_to(target))
    }

    /// Shortest network distance from `source` to `target`, or `None` when
    /// disconnected.
    pub fn distance(&mut self, source: NodeId, target: NodeId) -> Option<f64> {
        self.route(source, target).map(|r| r.distance)
    }

    /// One A* run from `source` to `target` in `order`; returns the
    /// target's distance, or `None` when the search exhausts the component
    /// first. A relaxation of `u` to `g` is not pushed when
    /// `g + lb(u, target) > cap`.
    fn search(&mut self, source: NodeId, target: NodeId, order: Order, cap: f64) -> Option<f64> {
        assert!(self.net.contains_node(source) && self.net.contains_node(target));
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();

        let goal = self.net.point(target);
        let mut to = [0.0; LANDMARKS];
        to[..self.landmarks].copy_from_slice(self.row(target));
        let to = &to[..self.landmarks];
        let h = |this: &Self, v: NodeId, lb: f64| {
            let euclid = this.net.point(v).distance(&goal) * this.scale;
            match order {
                Order::Euclid => euclid,
                Order::Landmarks => euclid.max(lb),
            }
        };

        self.touch(source);
        self.g[source.index()] = 0.0;
        let f = h(self, source, landmark_bound(self.row(source), to));
        self.heap.push(HeapEntry {
            dist: TotalF64(f),
            node: source,
        });

        while let Some(HeapEntry { node: v, .. }) = self.heap.pop() {
            if self.is_settled(v) {
                continue;
            }
            self.settled[v.index()] = true;
            if v == target {
                return Some(self.g[target.index()]);
            }
            let gv = self.g[v.index()];
            for (u, w) in self.net.neighbors(v) {
                if self.is_settled(u) {
                    continue;
                }
                self.touch(u);
                let ng = gv + w;
                if ng < self.g[u.index()] {
                    let lb = landmark_bound(self.row(u), to);
                    if ng + lb > cap {
                        continue;
                    }
                    let f = ng + h(self, u, lb);
                    self.g[u.index()] = ng;
                    self.parent[u.index()] = Some(v);
                    self.heap.push(HeapEntry {
                        dist: TotalF64(f),
                        node: u,
                    });
                }
            }
        }
        None
    }

    /// The route the last search recorded from its source to `target`.
    fn path_to(&self, target: NodeId) -> Route {
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        let cumulative = path.iter().map(|v| self.g[v.index()]).collect();
        Route {
            distance: self.g[target.index()],
            path,
            cumulative,
        }
    }
}

/// What a search orders its heap by, besides `g`.
#[derive(Clone, Copy)]
enum Order {
    /// The scaled Euclidean bound alone: the route pass.
    Euclid,
    /// The larger of the Euclidean and the landmark bound: the bound pass.
    Landmarks,
}

/// Lower bound on the network distance between the vertices whose landmark
/// rows are `from` and `to`: the best triangle-inequality bound
/// `|d(l, a) − d(l, b)|` over the landmarks, each leg giving up
/// [`ROUNDING_SLACK`] of its longer side, since both sides are
/// floating-point sums along other paths than the one being bounded.
///
/// A leg with an unreachable side evaluates to NaN (`∞ − ∞`), which
/// `f64::max` ignores: it contributes `0.0`, so the bound stays finite and
/// sound on a disconnected network.
#[inline]
fn landmark_bound(from: &[f64], to: &[f64]) -> f64 {
    from.iter().zip(to).fold(0.0f64, |best, (&a, &b)| {
        best.max((a - b).abs() - ROUNDING_SLACK * a.max(b))
    })
}

/// Distance columns of up to [`LANDMARKS`] landmarks chosen by
/// farthest-point traversal: each next landmark maximises its distance to
/// the nearest of vertex 0 and the landmarks chosen so far, an unreachable
/// vertex counting as farthest. Ties go to the lowest vertex id.
fn select_landmarks(net: &RoadNetwork) -> Vec<Vec<f64>> {
    let mut nearest = shortest_path_tree(net, NodeId(0)).distances().to_vec();
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(LANDMARKS);
    while columns.len() < LANDMARKS {
        let (far, &gap) = nearest
            .iter()
            .enumerate()
            .reduce(|best, v| if v.1 > best.1 { v } else { best })
            .expect("a network has a vertex");
        if gap == 0.0 && !columns.is_empty() {
            break; // every vertex is a landmark
        }
        let column = shortest_path_tree(net, NodeId(far as u32))
            .distances()
            .to_vec();
        for (near, &d) in nearest.iter_mut().zip(&column) {
            *near = near.min(d);
        }
        columns.push(column);
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::generators::{grid_city, GridCityConfig};
    use crate::{NetworkBuilder, Point};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn astar_equals_dijkstra_on_grid() {
        let net = grid_city(&GridCityConfig::tiny(9)).unwrap();
        let mut astar = AStar::new(&net);
        let pairs = [(0u32, 80u32), (5, 43), (12, 12), (3, 77)];
        for (a, b) in pairs {
            let expect = dijkstra::distance(&net, NodeId(a), NodeId(b));
            let got = astar.distance(NodeId(a), NodeId(b));
            match (expect, got) {
                (Some(e), Some(g)) => assert!((e - g).abs() < 1e-9, "{a}->{b}: {e} vs {g}"),
                (e, g) => assert_eq!(e.is_some(), g.is_some()),
            }
        }
    }

    #[test]
    fn route_endpoints_and_length_are_consistent() {
        let net = grid_city(&GridCityConfig::tiny(6)).unwrap();
        let mut astar = AStar::new(&net);
        let r = astar.route(NodeId(0), NodeId(35)).unwrap();
        assert_eq!(*r.path.first().unwrap(), NodeId(0));
        assert_eq!(*r.path.last().unwrap(), NodeId(35));
        // path edges must exist and sum, prefix by prefix, to `cumulative`
        let mut sum = 0.0;
        assert_eq!(r.cumulative.len(), r.path.len());
        assert_eq!(r.cumulative[0], 0.0);
        for (w, &cum) in r.path.windows(2).zip(&r.cumulative[1..]) {
            let weight = net
                .neighbors(w[0])
                .find(|(u, _)| *u == w[1])
                .map(|(_, w)| w)
                .expect("consecutive path vertices must be adjacent");
            sum += weight;
            assert_eq!(sum.to_bits(), cum.to_bits());
        }
        assert_eq!(sum.to_bits(), r.distance.to_bits());
    }

    #[test]
    fn same_source_and_target() {
        let net = grid_city(&GridCityConfig::tiny(4)).unwrap();
        let mut astar = AStar::new(&net);
        let r = astar.route(NodeId(5), NodeId(5)).unwrap();
        assert_eq!(r.distance, 0.0);
        assert_eq!(r.path, vec![NodeId(5)]);
        assert_eq!(r.cumulative, vec![0.0]);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_node(Point::new(5.0, 5.0));
        b.add_edge(v0, v1, None).unwrap();
        let net = b.build().unwrap();
        let mut astar = AStar::new(&net);
        assert_eq!(astar.distance(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn reuse_across_queries_is_clean() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let mut astar = AStar::new(&net);
        let d1 = astar.distance(NodeId(0), NodeId(24)).unwrap();
        let d2 = astar.distance(NodeId(24), NodeId(0)).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
        for _ in 0..10 {
            assert!((astar.distance(NodeId(0), NodeId(24)).unwrap() - d1).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_edges_route_over_the_lightest() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let m = b.add_node(Point::new(0.5, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, m, Some(2.0)).unwrap();
        b.add_edge(a, m, Some(1.0)).unwrap();
        b.add_edge(m, c, Some(1.0)).unwrap();
        let net = b.build().unwrap();
        let r = AStar::new(&net).route(a, c).unwrap();
        assert_eq!(r.path, vec![a, m, c]);
        assert_eq!(r.cumulative, vec![0.0, 1.0, 2.0]);
        assert_eq!(r.distance, 2.0);
    }

    #[test]
    fn landmarks_cover_every_component_and_bound_every_pair() {
        let net = two_components();
        let astar = AStar::new(&net);
        assert_eq!(astar.landmarks, LANDMARKS);
        let first_reaches = |v: u32| astar.row(NodeId(v)).iter().map(|d| d.is_finite());
        assert!(first_reaches(0)
            .zip(first_reaches(64))
            .any(|(a, b)| a && !b));
        assert!(first_reaches(0)
            .zip(first_reaches(64))
            .any(|(a, b)| !a && b));
        for s in (0..net.num_nodes() as u32).step_by(7) {
            let tree = dijkstra::shortest_path_tree(&net, NodeId(s));
            for t in net.node_ids() {
                let lb = landmark_bound(astar.row(NodeId(s)), astar.row(t));
                assert!(lb.is_finite() && lb >= 0.0);
                if let Some(d) = tree.distance(t) {
                    assert!(lb <= d, "{s}->{t:?}: bound {lb} > distance {d}");
                }
            }
        }
    }

    #[test]
    fn a_tiny_network_stops_choosing_when_every_vertex_is_covered() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, None).unwrap();
        let net = b.build().unwrap();
        let mut astar = AStar::new(&net);
        // vertex 0 seeds the traversal, so v1 is the one landmark
        assert_eq!(astar.landmarks, 1);
        assert_eq!(astar.distance(v0, v1), Some(1.0));
    }

    // ---------- differential: the pruned router against the reference ----------

    /// The reference router: one unpruned search in the Euclidean order.
    fn reference(astar: &mut AStar<'_>, s: NodeId, t: NodeId) -> Option<Route> {
        astar.search(s, t, Order::Euclid, f64::INFINITY)?;
        Some(astar.path_to(t))
    }

    /// Asserts `route` is the reference's route for every pair in `pairs`,
    /// path for path and bit for bit; returns how many pairs were routed.
    fn assert_routes_match(
        net: &RoadNetwork,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> usize {
        let mut pruned = AStar::new(net);
        let mut plain = pruned.clone();
        let mut routed = 0;
        for (s, t) in pairs {
            let got = pruned.route(s, t);
            let want = reference(&mut plain, s, t);
            match (&got, &want) {
                (Some(got), Some(want)) => {
                    assert_eq!(got.path, want.path, "{s}->{t}");
                    assert_eq!(got.distance.to_bits(), want.distance.to_bits(), "{s}->{t}");
                    let bits =
                        |r: &Route| r.cumulative.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "{s}->{t}");
                    routed += 1;
                }
                _ => assert_eq!(got, want, "{s}->{t}"),
            }
        }
        routed
    }

    fn random_pairs(net: &RoadNetwork, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = net.num_nodes() as u32;
        (0..count)
            .map(|_| (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n))))
            .collect()
    }

    #[test]
    fn route_is_the_reference_on_a_tie_heavy_lattice() {
        let net = grid_city(&GridCityConfig::tiny(30)).unwrap();
        assert_eq!(
            assert_routes_match(&net, random_pairs(&net, 3_000, 1)),
            3_000
        );
    }

    #[test]
    fn route_is_the_reference_on_a_jittered_city() {
        let net = grid_city(&GridCityConfig::new(30, 30)).unwrap();
        assert_eq!(
            assert_routes_match(&net, random_pairs(&net, 1_000, 2)),
            1_000
        );
    }

    #[test]
    fn route_is_the_reference_with_shortcut_weights() {
        let net = lattice(1, 16, true);
        assert!(net.heuristic_scale() < 1.0);
        assert_eq!(
            assert_routes_match(&net, random_pairs(&net, 1_000, 3)),
            1_000
        );
    }

    #[test]
    fn route_is_the_reference_across_two_components() {
        let net = two_components();
        let pairs = random_pairs(&net, 1_000, 4);
        let routed = assert_routes_match(&net, pairs.iter().copied());
        let within = pairs
            .iter()
            .filter(|(s, t)| (s.0 < 64) == (t.0 < 64))
            .count();
        assert_eq!(
            routed, within,
            "None across components, a route within each"
        );
    }

    #[test]
    fn route_is_the_reference_from_a_vertex_to_itself() {
        let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
        assert_eq!(
            assert_routes_match(&net, net.node_ids().map(|v| (v, v))),
            64
        );
    }

    #[test]
    fn route_is_the_reference_when_the_bound_pass_sums_lower() {
        // a 5 × 2 lattice, 0.1 apart, whose tied routes from v9 to v0 sum
        // to 1.2 or to 1.2000000000000002 depending on the edge order:
        // the bound pass finds the lower sum, so the route pass's cap
        // needs its slack above `UB` to keep the reference's route
        let mut b = NetworkBuilder::new();
        for i in 0..10 {
            b.add_node(Point::new((i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1));
        }
        for (a, c, w) in [
            (0, 1, 0.3),
            (0, 5, 0.7),
            (1, 2, 0.3),
            (1, 6, 0.1),
            (2, 3, 0.1),
            (2, 7, 0.3),
            (3, 4, 0.3),
            (3, 8, 0.3),
            (4, 9, 0.3),
            (5, 6, 0.3),
            (7, 8, 0.1),
            (8, 9, 0.2),
        ] {
            b.add_edge(NodeId(a), NodeId(c), Some(w)).unwrap();
        }
        let net = b.build().unwrap();
        let (s, t) = (NodeId(9), NodeId(0));
        let mut astar = AStar::new(&net);
        let ub = astar.search(s, t, Order::Landmarks, f64::INFINITY).unwrap();
        let want = reference(&mut astar, s, t).unwrap();
        assert!(ub < want.distance, "{ub} vs {}", want.distance);
        assert_eq!(assert_routes_match(&net, [(s, t)]), 1);
    }

    /// `components` disjoint `side × side` unit lattices 20 apart; with
    /// `shortcut`, every fifth edge weighs half its length, which pulls
    /// `heuristic_scale` below 1.
    fn lattice(components: usize, side: usize, shortcut: bool) -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let mut edges = 0usize;
        for c in 0..components {
            let base = b.num_nodes() as u32;
            for i in 0..side * side {
                let (x, y) = ((i % side) as f64, (i / side) as f64);
                b.add_node(Point::new(20.0 * c as f64 + 0.5 * x, 0.5 * y));
            }
            for i in 0..side * side {
                for j in [i + 1, i + side] {
                    if (j == i + 1 && j % side == 0) || j >= side * side {
                        continue;
                    }
                    edges += 1;
                    let weight = (shortcut && edges.is_multiple_of(5)).then_some(0.25);
                    b.add_edge(NodeId(base + i as u32), NodeId(base + j as u32), weight)
                        .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// Two disjoint 8 × 8 lattices: vertices `0..64` and `64..128`.
    fn two_components() -> RoadNetwork {
        lattice(2, 8, false)
    }

    /// A small random network full of tied routes: a jittered lattice
    /// whose edges weigh a few tenths (not exact in binary, so tied routes
    /// sum to different bits), with some edges missing and a few parallel
    /// or diagonal extras.
    fn tied_network() -> impl Strategy<Value = RoadNetwork> {
        (3usize..9, 2usize..8, any::<u64>()).prop_map(|(w, h, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = NetworkBuilder::new();
            for i in 0..w * h {
                let jitter = |rng: &mut StdRng| rng.gen_range(-0.05..0.05);
                let (x, y) = ((i % w) as f64 * 0.1, (i / w) as f64 * 0.1);
                b.add_node(Point::new(x + jitter(&mut rng), y + jitter(&mut rng)));
            }
            let weight = |rng: &mut StdRng| [0.1, 0.2, 0.3][rng.gen_range(0..3usize)];
            for i in 0..w * h {
                for j in [i + 1, i + w] {
                    if (j == i + 1 && j % w == 0) || j >= w * h || rng.gen_bool(0.1) {
                        continue;
                    }
                    let wt = weight(&mut rng);
                    b.add_edge(NodeId(i as u32), NodeId(j as u32), Some(wt))
                        .unwrap();
                }
            }
            for _ in 0..w * h / 4 {
                let i = rng.gen_range(0..w * h);
                let j = rng.gen_range(0..w * h);
                if i != j {
                    let wt = weight(&mut rng);
                    b.add_edge(NodeId(i as u32), NodeId(j as u32), Some(wt))
                        .unwrap();
                }
            }
            b.build().unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn route_is_the_reference_on_random_tied_networks(net in tied_network(), seed in any::<u64>()) {
            let n = net.num_nodes();
            let pairs = random_pairs(&net, 4 * n, seed);
            assert_routes_match(&net, pairs);
        }
    }
}
