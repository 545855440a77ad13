//! Incremental network expansion — the query-time primitive of the UOTS
//! algorithm.
//!
//! The UOTS search performs Dijkstra expansion *concurrently* from every
//! query source, advancing whichever source the scheduler picks next. That
//! requires a Dijkstra that can be driven one settled vertex at a time and
//! interrogated for its current radius, which is exactly what
//! [`NetworkExpansion`] provides:
//!
//! * [`NetworkExpansion::next_settled`] settles and returns the next-nearest
//!   vertex (vertices come out in nondecreasing distance — Dijkstra's
//!   invariant);
//! * [`NetworkExpansion::radius`] returns the distance of the most recently
//!   settled vertex, which is a valid **lower bound** on the network
//!   distance to every vertex not yet settled. This is the `r_i` of the
//!   paper's pruning bounds: the first sample point of a trajectory settled
//!   by the expansion realizes the exact point-to-trajectory distance, and
//!   until then the radius lower-bounds it.
//!
//! The struct owns three epoch-stamped scratch arrays sized to the network
//! (13 bytes per vertex, ≈ 0.37 MB on a 28k-vertex city). The stamps mask
//! every entry the current expansion has not written, so the arrays are
//! allocated zeroed and never filled. [`NetworkExpansion::start`] re-aims
//! an expansion at a new source in O(1) without touching them; the
//! similarity join keeps its expansions from probe to probe and re-aims
//! them that way. The query engine and the IKNN baseline do not: they
//! build each source's expansion with [`NetworkExpansion::from_source`],
//! so every query allocates the three arrays, zeroed, once per query
//! location.
//!
//! [`MultiSourceExpansion`] is the batched full drain: every query source
//! at once over one shared frontier, walking the same CSR rows, with
//! distances bit-identical to one single-source run per source.

use crate::heap::{HeapEntry, TotalF64};
use crate::{NodeId, RoadNetwork};
use std::collections::BinaryHeap;

/// A vertex settled by an expansion, with its exact network distance from
/// the expansion source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settled {
    /// The settled vertex.
    pub node: NodeId,
    /// Exact network distance from the expansion source.
    pub dist: f64,
}

/// Resumable single-source Dijkstra over a [`RoadNetwork`].
///
/// ```
/// use uots_network::{generators, expansion::NetworkExpansion, NodeId};
///
/// let net = generators::grid_city(&generators::GridCityConfig::tiny(7)).unwrap();
/// let mut exp = NetworkExpansion::new(&net);
/// exp.start(NodeId(0));
/// let mut last = 0.0;
/// while let Some(s) = exp.next_settled() {
///     assert!(s.dist >= last); // nondecreasing settle order
///     last = s.dist;
///     assert!(exp.radius() >= s.dist - 1e-12);
/// }
/// assert!(exp.is_exhausted());
/// ```
pub struct NetworkExpansion<'a> {
    net: &'a RoadNetwork,
    /// Tentative distances; only meaningful where `stamp == epoch`, so an
    /// unwritten entry is never read and the array starts zeroed.
    dist: Vec<f64>,
    /// Which vertices are settled; only meaningful where `stamp == epoch`.
    settled: Vec<bool>,
    /// Epoch stamps enabling O(1) logical reset of `dist` / `settled`.
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    radius: f64,
    started: bool,
}

impl<'a> NetworkExpansion<'a> {
    /// Allocates scratch state for expansions over `net`. Call
    /// [`start`](Self::start) before advancing.
    pub fn new(net: &'a RoadNetwork) -> Self {
        let n = net.num_nodes();
        NetworkExpansion {
            net,
            dist: vec![0.0; n],
            settled: vec![false; n],
            stamp: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
            radius: 0.0,
            started: false,
        }
    }

    /// Convenience constructor that allocates and immediately starts from
    /// `source`.
    pub fn from_source(net: &'a RoadNetwork, source: NodeId) -> Self {
        let mut e = Self::new(net);
        e.start(source);
        e
    }

    /// (Re)starts the expansion from `source`, logically clearing all state
    /// in O(1) (epoch bump) plus the heap clear.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a vertex of the network.
    pub fn start(&mut self, source: NodeId) {
        assert!(self.net.contains_node(source), "source not in network");
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // extremely unlikely wrap-around: hard-reset the stamps
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.radius = 0.0;
        self.started = true;
        self.set_dist(source, 0.0);
        self.heap.push(HeapEntry {
            dist: TotalF64(0.0),
            node: source,
        });
    }

    #[inline]
    fn is_current(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    #[inline]
    fn set_dist(&mut self, v: NodeId, d: f64) {
        let i = v.index();
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.settled[i] = false;
        }
        self.dist[i] = d;
    }

    /// Settles and returns the next-nearest unsettled vertex, or `None` when
    /// every vertex reachable from the source has been settled.
    ///
    /// # Panics
    ///
    /// Panics if [`start`](Self::start) has not been called.
    pub fn next_settled(&mut self) -> Option<Settled> {
        assert!(self.started, "expansion not started");
        while let Some(HeapEntry {
            dist: TotalF64(d),
            node: v,
        }) = self.heap.pop()
        {
            let i = v.index();
            if self.is_current(v) && self.settled[i] {
                continue; // stale entry
            }
            debug_assert!(self.is_current(v));
            self.settled[i] = true;
            debug_assert!(
                d >= self.radius - 1e-12,
                "settle order must be nondecreasing"
            );
            self.radius = d;
            for (u, w) in self.net.neighbors(v) {
                let nd = d + w;
                let better = !self.is_current(u) || nd < self.dist[u.index()];
                if better && !(self.is_current(u) && self.settled[u.index()]) {
                    self.set_dist(u, nd);
                    self.heap.push(HeapEntry {
                        dist: TotalF64(nd),
                        node: u,
                    });
                }
            }
            return Some(Settled { node: v, dist: d });
        }
        None
    }

    /// Distance of the most recently settled vertex: a valid lower bound on
    /// the network distance from the source to any vertex not yet settled
    /// (and, once exhausted, `f64::INFINITY` would be valid for unreached
    /// vertices — see [`unsettled_lower_bound`](Self::unsettled_lower_bound)).
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Lower bound on the distance to any vertex not yet settled:
    /// the current radius while the expansion is live, `f64::INFINITY` once
    /// the whole component is exhausted (nothing reachable remains).
    #[inline]
    pub fn unsettled_lower_bound(&self) -> f64 {
        if self.is_exhausted() {
            f64::INFINITY
        } else {
            self.radius
        }
    }

    /// Whether the whole connected component of the source has been settled.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current size of the Dijkstra frontier: pending heap entries,
    /// including stale duplicates awaiting lazy deletion. This is the
    /// expansion's live memory footprint beyond the O(|V|) scratch arrays,
    /// reported as `peak_frontier` in search metrics.
    #[inline]
    pub fn frontier_len(&self) -> usize {
        self.heap.len()
    }
}

/// A vertex settled by a [`MultiSourceExpansion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsSettled {
    /// Index of the source (position in the `sources` slice) that
    /// settled the vertex.
    pub source: usize,
    /// The settled vertex.
    pub node: NodeId,
    /// Exact network distance from `sources[source]`.
    pub dist: f64,
}

/// Min-heap entry keyed `(dist, source, node)` — deterministic across
/// runs; `BinaryHeap` is a max-heap so the ordering is reversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsEntry {
    dist: TotalF64,
    source: u32,
    node: NodeId,
}

impl PartialOrd for MsEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MsEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .cmp(&self.dist)
            .then_with(|| other.source.cmp(&self.source))
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Batched Dijkstra from `m` sources over one shared frontier — the full
/// drain of a brute-force or text-first query.
///
/// Distance and settled state are flat `m × n` rows (source-major), so
/// the batch makes one pass over one heap instead of `m` passes. Each
/// source's relaxations are exactly those of its own single-source run
/// over the same [`RoadNetwork`] rows (per-source state is disjoint, only
/// the frontier is shared), so every distance is bit-identical to
/// [`crate::dijkstra::shortest_path_tree`] from that source, also when
/// some sources exhaust early on a disconnected network.
pub struct MultiSourceExpansion<'a> {
    net: &'a RoadNetwork,
    /// `m × n` tentative distances, source-major.
    dist: Vec<f64>,
    /// `m × n` settled flags, source-major.
    settled: Vec<bool>,
    heap: BinaryHeap<MsEntry>,
    reached: Vec<usize>,
}

impl<'a> MultiSourceExpansion<'a> {
    /// Starts a batched expansion from `sources`; a repeated source gets
    /// its own row.
    ///
    /// # Panics
    ///
    /// Panics if a source is not a vertex of the network.
    pub fn new(net: &'a RoadNetwork, sources: &[NodeId]) -> Self {
        let n = net.num_nodes();
        let m = sources.len();
        let mut dist = vec![f64::INFINITY; m * n];
        let mut heap = BinaryHeap::with_capacity(m);
        for (si, &s) in sources.iter().enumerate() {
            assert!(net.contains_node(s), "source {s} not in network");
            dist[si * n + s.index()] = 0.0;
            heap.push(MsEntry {
                dist: TotalF64(0.0),
                source: si as u32,
                node: s,
            });
        }
        MultiSourceExpansion {
            net,
            dist,
            settled: vec![false; m * n],
            heap,
            reached: vec![0; m],
        }
    }

    /// Starts and drains to exhaustion in one call.
    pub fn run(net: &'a RoadNetwork, sources: &[NodeId]) -> Self {
        let mut ms = Self::new(net, sources);
        while ms.next_settled().is_some() {}
        ms
    }

    /// Settles and returns the globally next-nearest `(source, vertex)`
    /// pair, or `None` once every source is exhausted.
    pub fn next_settled(&mut self) -> Option<MsSettled> {
        let n = self.net.num_nodes();
        while let Some(MsEntry { dist, source, node }) = self.heap.pop() {
            let si = source as usize;
            let row = si * n;
            if self.settled[row + node.index()] {
                continue; // stale heap entry
            }
            self.settled[row + node.index()] = true;
            self.reached[si] += 1;
            let d = dist.0;
            for (u, w) in self.net.neighbors(node) {
                let nd = d + w;
                let slot = row + u.index();
                if nd < self.dist[slot] && !self.settled[slot] {
                    self.dist[slot] = nd;
                    self.heap.push(MsEntry {
                        dist: TotalF64(nd),
                        source,
                        node: u,
                    });
                }
            }
            return Some(MsSettled {
                source: si,
                node,
                dist: d,
            });
        }
        None
    }

    /// Number of sources in the batch.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.reached.len()
    }

    /// Exact distance from source `si` to `v`, or `None` if the vertex
    /// has not been settled (unreachable, once drained).
    #[inline]
    pub fn distance(&self, si: usize, v: NodeId) -> Option<f64> {
        let slot = si * self.net.num_nodes() + v.index();
        self.settled[slot].then(|| self.dist[slot])
    }

    /// Number of vertices source `si` has settled so far.
    #[inline]
    pub fn reached_count(&self, si: usize) -> usize {
        self.reached[si]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path_tree;
    use crate::{NetworkBuilder, Point};

    fn line(n: usize) -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], None).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn settles_in_distance_order() {
        let net = line(6);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(2));
        let settled: Vec<(u32, f64)> = std::iter::from_fn(|| exp.next_settled())
            .map(|s| (s.node.0, s.dist))
            .collect();
        assert_eq!(settled.len(), 6);
        assert_eq!(settled[0], (2, 0.0));
        for w in settled.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!(exp.is_exhausted());
        assert_eq!(exp.unsettled_lower_bound(), f64::INFINITY);
    }

    #[test]
    fn matches_full_dijkstra() {
        let net = line(10);
        let tree = shortest_path_tree(&net, NodeId(0));
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        let mut settled = 0;
        while let Some(s) = exp.next_settled() {
            assert_eq!(tree.distance(s.node), Some(s.dist));
            settled += 1;
        }
        assert_eq!(settled, 10);
    }

    #[test]
    fn radius_lower_bounds_unsettled() {
        let net = line(10);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        let tree = shortest_path_tree(&net, NodeId(0));
        let settled: Vec<NodeId> = (0..5).map(|_| exp.next_settled().unwrap().node).collect();
        let r = exp.radius();
        for v in net.node_ids() {
            if !settled.contains(&v) {
                assert!(tree.distance(v).unwrap() >= r);
            }
        }
    }

    #[test]
    fn restart_reuses_buffers() {
        let net = line(8);
        let mut exp = NetworkExpansion::new(&net);
        exp.start(NodeId(0));
        let mut settled = 0;
        while exp.next_settled().is_some() {
            settled += 1;
        }
        assert_eq!(settled, 8);

        exp.start(NodeId(7));
        assert_eq!(exp.radius(), 0.0);
        let first = exp.next_settled().unwrap();
        assert_eq!(first.node, NodeId(7));
        assert_eq!(first.dist, 0.0);
        let second = exp.next_settled().unwrap();
        assert_eq!(second.node, NodeId(6));
        assert_eq!(second.dist, 1.0);
        // distances from the previous run must not leak through
        let mut last = second;
        while let Some(s) = exp.next_settled() {
            last = s;
        }
        assert_eq!((last.node, last.dist), (NodeId(0), 7.0));
    }

    #[test]
    fn frontier_tracks_pending_entries() {
        let net = line(6);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        assert_eq!(exp.frontier_len(), 1); // just the source
        while exp.next_settled().is_some() {
            // a line graph keeps at most a couple of pending entries
            assert!(exp.frontier_len() <= 2);
        }
        assert_eq!(exp.frontier_len(), 0); // exhausted
    }

    #[test]
    #[should_panic(expected = "expansion not started")]
    fn advancing_unstarted_expansion_panics() {
        let net = line(3);
        let mut exp = NetworkExpansion::new(&net);
        exp.next_settled();
    }
}
