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
//! The struct owns epoch-stamped scratch buffers sized to the network so a
//! single allocation can be reused across many queries (`restart`), which
//! keeps the per-query cost allocation-free on the hot path.

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
    source: NodeId,
    /// Tentative distances; only meaningful where `stamp == epoch`.
    dist: Vec<f64>,
    /// Which vertices are settled; only meaningful where `stamp == epoch`.
    settled: Vec<bool>,
    /// Epoch stamps enabling O(1) logical reset of `dist` / `settled`.
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    radius: f64,
    settled_count: usize,
    started: bool,
}

/// A [`NetworkExpansion`] parked without its network borrow
/// ([`NetworkExpansion::detach`]), so a running expansion can be stored
/// past the borrow and later continued by
/// [`NetworkExpansion::attach`] over the same network.
#[derive(Debug)]
pub struct ExpansionState {
    source: NodeId,
    dist: Vec<f64>,
    settled: Vec<bool>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    radius: f64,
    settled_count: usize,
    started: bool,
}

impl<'a> NetworkExpansion<'a> {
    /// Parks the expansion: everything but the network borrow.
    pub fn detach(self) -> ExpansionState {
        ExpansionState {
            source: self.source,
            dist: self.dist,
            settled: self.settled,
            stamp: self.stamp,
            epoch: self.epoch,
            heap: self.heap,
            radius: self.radius,
            settled_count: self.settled_count,
            started: self.started,
        }
    }

    /// Continues a parked expansion exactly where it stopped. `net` must
    /// be the network it ran over.
    ///
    /// # Panics
    ///
    /// Panics if `state` was sized for another vertex count.
    pub fn attach(net: &'a RoadNetwork, state: ExpansionState) -> Self {
        assert_eq!(
            state.dist.len(),
            net.num_nodes(),
            "expansion state belongs to another network"
        );
        NetworkExpansion {
            net,
            source: state.source,
            dist: state.dist,
            settled: state.settled,
            stamp: state.stamp,
            epoch: state.epoch,
            heap: state.heap,
            radius: state.radius,
            settled_count: state.settled_count,
            started: state.started,
        }
    }

    /// Allocates scratch state for expansions over `net`. Call
    /// [`start`](Self::start) before advancing.
    pub fn new(net: &'a RoadNetwork) -> Self {
        let n = net.num_nodes();
        NetworkExpansion {
            net,
            source: NodeId(0),
            dist: vec![f64::INFINITY; n],
            settled: vec![false; n],
            stamp: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
            radius: 0.0,
            settled_count: 0,
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
        self.source = source;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // extremely unlikely wrap-around: hard-reset the stamps
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.radius = 0.0;
        self.settled_count = 0;
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

    /// The expansion source.
    ///
    /// # Panics
    ///
    /// Panics if [`start`](Self::start) has not been called.
    pub fn source(&self) -> NodeId {
        assert!(self.started, "expansion not started");
        self.source
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
            self.settled_count += 1;
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

    /// Advances the expansion until its radius reaches at least `target`,
    /// collecting settled vertices into `out`. Returns `false` when the
    /// expansion exhausted the component first.
    pub fn expand_to_radius(&mut self, target: f64, out: &mut Vec<Settled>) -> bool {
        while self.radius < target {
            match self.next_settled() {
                Some(s) => out.push(s),
                None => return false,
            }
        }
        true
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

    /// Number of vertices settled so far.
    #[inline]
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Current size of the Dijkstra frontier: pending heap entries,
    /// including stale duplicates awaiting lazy deletion. This is the
    /// expansion's live memory footprint beyond the O(|V|) scratch arrays,
    /// reported as `peak_frontier` in search metrics.
    #[inline]
    pub fn frontier_len(&self) -> usize {
        self.heap.len()
    }

    /// Exact distance to `v` if it has been settled, `None` otherwise.
    #[inline]
    pub fn settled_distance(&self, v: NodeId) -> Option<f64> {
        let i = v.index();
        (self.is_current(v) && self.settled[i]).then(|| self.dist[i])
    }

    /// Snapshot of the live Dijkstra frontier: every reached-but-unsettled
    /// vertex with its best tentative distance, deduplicated (the heap may
    /// hold stale duplicates) and sorted by `(dist, node)` for determinism.
    ///
    /// Together with the settled set and the radius this is a complete,
    /// consistent description of the expansion's progress: feeding it back
    /// through [`resume`](Self::resume) continues the expansion with exactly
    /// the distances a fresh run would produce.
    pub fn frontier_snapshot(&self) -> Vec<(NodeId, f64)> {
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<(NodeId, f64)> = Vec::new();
        for e in self.heap.iter() {
            let v = e.node;
            let i = v.index();
            if self.is_current(v) && !self.settled[i] && seen.insert(v) {
                out.push((v, self.dist[i]));
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// (Re)starts the expansion from `source`, seeding it with a previously
    /// recorded prefix instead of from scratch: `settled` vertices are
    /// marked settled with their exact distances (they will **not** be
    /// emitted by [`next_settled`](Self::next_settled) again), `frontier`
    /// vertices become the pending heap, and `radius` restores the
    /// last-settled distance. Reuses the scratch buffers like
    /// [`start`](Self::start).
    ///
    /// The caller must pass a consistent prefix (as captured by
    /// [`frontier_snapshot`](Self::frontier_snapshot) plus the settle
    /// sequence): settled distances exact, frontier distances equal to the
    /// best path through the settled set. Resuming then yields the same
    /// settle distances a fresh run from `source` would.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a vertex of the network.
    pub fn resume(&mut self, source: NodeId, settled: &[Settled], frontier: &[(NodeId, f64)]) {
        assert!(self.net.contains_node(source), "source not in network");
        self.source = source;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.radius = settled.last().map_or(0.0, |s| s.dist);
        self.settled_count = settled.len();
        self.started = true;
        for s in settled {
            self.set_dist(s.node, s.dist);
            self.settled[s.node.index()] = true;
        }
        for &(v, d) in frontier {
            debug_assert!(
                !(self.is_current(v) && self.settled[v.index()]),
                "frontier vertex already settled"
            );
            self.set_dist(v, d);
            self.heap.push(HeapEntry {
                dist: TotalF64(d),
                node: v,
            });
        }
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
        while let Some(s) = exp.next_settled() {
            assert_eq!(tree.distance(s.node), Some(s.dist));
        }
        assert_eq!(exp.settled_count(), 10);
    }

    #[test]
    fn radius_lower_bounds_unsettled() {
        let net = line(10);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        let tree = shortest_path_tree(&net, NodeId(0));
        for _ in 0..5 {
            exp.next_settled();
        }
        let r = exp.radius();
        for v in net.node_ids() {
            if exp.settled_distance(v).is_none() {
                assert!(tree.distance(v).unwrap() >= r);
            }
        }
    }

    #[test]
    fn detach_attach_continues_where_it_stopped() {
        let net = line(9);
        let mut whole = NetworkExpansion::from_source(&net, NodeId(3));
        let mut parked = NetworkExpansion::from_source(&net, NodeId(3));
        for _ in 0..4 {
            assert_eq!(parked.next_settled(), whole.next_settled());
        }
        let mut resumed = NetworkExpansion::attach(&net, parked.detach());
        assert_eq!(resumed.source(), NodeId(3));
        assert_eq!(resumed.radius(), whole.radius());
        assert_eq!(resumed.settled_count(), 4);
        loop {
            let (a, b) = (resumed.next_settled(), whole.next_settled());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(resumed.is_exhausted());
    }

    #[test]
    fn restart_reuses_buffers() {
        let net = line(8);
        let mut exp = NetworkExpansion::new(&net);
        exp.start(NodeId(0));
        while exp.next_settled().is_some() {}
        assert_eq!(exp.settled_count(), 8);

        exp.start(NodeId(7));
        assert_eq!(exp.settled_count(), 0);
        assert_eq!(exp.radius(), 0.0);
        let first = exp.next_settled().unwrap();
        assert_eq!(first.node, NodeId(7));
        assert_eq!(first.dist, 0.0);
        let second = exp.next_settled().unwrap();
        assert_eq!(second.node, NodeId(6));
        assert_eq!(second.dist, 1.0);
        // distances from the previous run must not leak through
        assert_eq!(exp.settled_distance(NodeId(0)), None);
    }

    #[test]
    fn expand_to_radius_stops_at_target() {
        let net = line(10);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        let mut out = Vec::new();
        let alive = exp.expand_to_radius(3.0, &mut out);
        assert!(alive);
        assert!(exp.radius() >= 3.0);
        assert!(out.iter().any(|s| s.node == NodeId(3)));
        assert!(out.iter().all(|s| s.dist <= 3.0));
    }

    #[test]
    fn expand_to_radius_reports_exhaustion() {
        let net = line(4);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        let mut out = Vec::new();
        let alive = exp.expand_to_radius(100.0, &mut out);
        assert!(!alive);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn settled_distance_visibility() {
        let net = line(5);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        assert_eq!(exp.settled_distance(NodeId(0)), None); // source not yet popped
        exp.next_settled();
        assert_eq!(exp.settled_distance(NodeId(0)), Some(0.0));
        assert_eq!(exp.settled_distance(NodeId(4)), None);
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

    /// 4×4 grid via the builder so the frontier holds several entries.
    fn grid4() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<NodeId> = (0..16)
            .map(|i| b.add_node(Point::new((i % 4) as f64, (i / 4) as f64)))
            .collect();
        for r in 0..4 {
            for c in 0..4 {
                let i = r * 4 + c;
                if c + 1 < 4 {
                    b.add_edge(ids[i], ids[i + 1], None).unwrap();
                }
                if r + 1 < 4 {
                    b.add_edge(ids[i], ids[i + 4], None).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn snapshot_resume_continues_identically() {
        let net = grid4();
        for cut in [0usize, 1, 3, 7, 12, 16] {
            // reference run, recording everything
            let mut reference = NetworkExpansion::from_source(&net, NodeId(0));
            let full: Vec<Settled> = std::iter::from_fn(|| reference.next_settled()).collect();

            // prefix run up to `cut`, snapshot, resume in a fresh expansion
            let mut prefix = NetworkExpansion::from_source(&net, NodeId(0));
            let mut head = Vec::new();
            for _ in 0..cut {
                head.push(prefix.next_settled().unwrap());
            }
            let frontier = prefix.frontier_snapshot();
            let mut resumed = NetworkExpansion::new(&net);
            resumed.resume(NodeId(0), &head, &frontier);
            assert_eq!(resumed.settled_count(), cut);
            assert_eq!(resumed.radius(), head.last().map_or(0.0, |s| s.dist));

            let tail: Vec<Settled> = std::iter::from_fn(|| resumed.next_settled()).collect();
            assert_eq!(head.len() + tail.len(), full.len(), "cut={cut}");
            // distances must match the reference exactly; settle order of
            // equal-distance vertices may differ, so compare sorted
            let mut got: Vec<(u32, f64)> = head
                .iter()
                .chain(tail.iter())
                .map(|s| (s.node.0, s.dist))
                .collect();
            let mut want: Vec<(u32, f64)> = full.iter().map(|s| (s.node.0, s.dist)).collect();
            got.sort_by_key(|a| a.0);
            want.sort_by_key(|a| a.0);
            assert_eq!(got, want, "cut={cut}");
            // settled vertices from the prefix are queryable but not re-emitted
            for s in &head {
                assert_eq!(resumed.settled_distance(s.node), Some(s.dist));
                assert!(!tail.iter().any(|t| t.node == s.node));
            }
        }
    }

    #[test]
    fn resume_from_exhausted_prefix_is_exhausted() {
        let net = line(5);
        let mut exp = NetworkExpansion::from_source(&net, NodeId(2));
        let all: Vec<Settled> = std::iter::from_fn(|| exp.next_settled()).collect();
        assert!(exp.frontier_snapshot().is_empty());

        let mut resumed = NetworkExpansion::new(&net);
        resumed.resume(NodeId(2), &all, &[]);
        assert!(resumed.is_exhausted());
        assert_eq!(resumed.next_settled(), None);
        assert_eq!(resumed.unsettled_lower_bound(), f64::INFINITY);
        assert_eq!(resumed.settled_distance(NodeId(0)), Some(2.0));
    }

    #[test]
    fn snapshot_dedups_stale_heap_entries() {
        let net = grid4();
        let mut exp = NetworkExpansion::from_source(&net, NodeId(0));
        for _ in 0..5 {
            exp.next_settled();
        }
        let snap = exp.frontier_snapshot();
        let mut nodes: Vec<u32> = snap.iter().map(|(v, _)| v.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), snap.len(), "no duplicate frontier vertices");
        for (v, d) in &snap {
            assert_eq!(exp.settled_distance(*v), None, "frontier is unsettled");
            assert!(*d >= exp.radius() - 1e-12, "tentative >= radius");
        }
    }
}
