//! The spatial (road) network model.
//!
//! A spatial network is a connected, undirected graph `G = (V, E, F, W)`
//! where vertices are road intersections / road ends, edges are road
//! segments, `F` maps graph elements to geometries and `W` assigns each edge
//! its segment length. This matches the modelling used throughout the UOTS
//! paper family.
//!
//! Construction goes through [`NetworkBuilder`]; the frozen [`RoadNetwork`]
//! stores adjacency in compressed sparse row (CSR) form for cache-friendly
//! traversal, which is the hot path of every algorithm in this workspace.

use crate::geometry::{BBox, Point};
use crate::NetworkError;
use serde::{Deserialize, Serialize};

/// Identifier of a vertex (road intersection) in a [`RoadNetwork`].
///
/// Newtype over a dense `u32` index; valid only for the network that issued
/// it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an undirected edge (road segment) in a [`RoadNetwork`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct EdgeId(pub u32);

/// An undirected road segment between two vertices with a positive length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Segment length (same unit as the coordinate plane, kilometres by
    /// convention). Always finite and strictly positive.
    pub weight: f64,
}

/// Incremental builder for [`RoadNetwork`].
///
/// ```
/// use uots_network::{NetworkBuilder, Point};
///
/// let mut b = NetworkBuilder::new();
/// let v0 = b.add_node(Point::new(0.0, 0.0));
/// let v1 = b.add_node(Point::new(1.0, 0.0));
/// let v2 = b.add_node(Point::new(1.0, 1.0));
/// b.add_edge(v0, v1, None).unwrap(); // weight = Euclidean length
/// b.add_edge(v1, v2, Some(1.5)).unwrap(); // explicit road length
/// let net = b.build().unwrap();
/// assert_eq!(net.num_nodes(), 3);
/// assert_eq!(net.num_edges(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct NetworkBuilder {
    nodes: Vec<Point>,
    edges: Vec<Edge>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        NetworkBuilder {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a vertex located at `p` and returns its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(p);
        id
    }

    /// Number of vertices added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// When `weight` is `None` the Euclidean distance between the endpoints
    /// is used, which models a straight road segment. An explicit weight
    /// models a curved segment and must be finite and strictly positive.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if an endpoint has not been added;
    /// [`NetworkError::SelfLoop`] for `a == b`;
    /// [`NetworkError::BadWeight`] for non-finite or non-positive weights.
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        weight: Option<f64>,
    ) -> Result<EdgeId, NetworkError> {
        if a.index() >= self.nodes.len() {
            return Err(NetworkError::UnknownNode(a));
        }
        if b.index() >= self.nodes.len() {
            return Err(NetworkError::UnknownNode(b));
        }
        if a == b {
            return Err(NetworkError::SelfLoop(a));
        }
        let w = weight.unwrap_or_else(|| self.nodes[a.index()].distance(&self.nodes[b.index()]));
        if !w.is_finite() || w <= 0.0 {
            return Err(NetworkError::BadWeight(w));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { a, b, weight: w });
        Ok(id)
    }

    /// Freezes the builder into an immutable [`RoadNetwork`].
    ///
    /// # Errors
    ///
    /// [`NetworkError::EmptyNetwork`] when no vertices were added;
    /// [`NetworkError::TooLarge`] when the vertex or adjacency entry count
    /// exceeds `u32::MAX`, the extent of the `u32` CSR layout.
    pub fn build(self) -> Result<RoadNetwork, NetworkError> {
        if self.nodes.is_empty() {
            return Err(NetworkError::EmptyNetwork);
        }
        check_extents(self.nodes.len() as u64, 2 * self.edges.len() as u64)?;
        Ok(RoadNetwork::from_parts(self.nodes, self.edges))
    }
}

/// Refuses a network whose `nodes` vertices or `entries` adjacency entries
/// exceed `u32::MAX`: vertex ids, edge ids and row offsets are `u32`, and
/// [`RoadNetwork::from_parts`] sums degrees into `u32` offsets, which
/// would wrap silently and corrupt every row after the wrap. Separate from
/// [`NetworkBuilder::build`] so the boundary is testable without
/// allocating a 4-billion-entry network.
fn check_extents(nodes: u64, entries: u64) -> Result<(), NetworkError> {
    let max = u64::from(u32::MAX);
    if nodes > max || entries > max {
        return Err(NetworkError::TooLarge { nodes, entries });
    }
    Ok(())
}

/// An immutable spatial network with CSR adjacency.
///
/// The CSR layout stores, for each vertex, a contiguous slice of
/// `(neighbour, edge weight, edge id)` triples; every undirected edge
/// appears in both endpoint slices.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    edges: Vec<Edge>,
    /// CSR row offsets; `offsets[v]..offsets[v+1]` indexes the adjacency
    /// arrays of vertex `v`. Length `num_nodes + 1`.
    offsets: Vec<u32>,
    /// Flattened neighbour list (length `2 * num_edges`).
    targets: Vec<NodeId>,
    /// Weight of the half-edge at the same position in `targets`.
    weights: Vec<f64>,
    bbox: BBox,
}

impl RoadNetwork {
    pub(crate) fn from_parts(nodes: Vec<Point>, edges: Vec<Edge>) -> Self {
        let n = nodes.len();
        let mut degree = vec![0u32; n];
        for e in &edges {
            degree[e.a.index()] += 1;
            degree[e.b.index()] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let half = 2 * edges.len();
        let mut targets = vec![NodeId(0); half];
        let mut weights = vec![0.0f64; half];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for e in &edges {
            let ca = cursor[e.a.index()] as usize;
            targets[ca] = e.b;
            weights[ca] = e.weight;
            cursor[e.a.index()] += 1;
            let cb = cursor[e.b.index()] as usize;
            targets[cb] = e.a;
            weights[cb] = e.weight;
            cursor[e.b.index()] += 1;
        }
        let bbox = BBox::of(nodes.iter());
        RoadNetwork {
            nodes,
            edges,
            offsets,
            targets,
            weights,
            bbox,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether `v` is a valid vertex of this network.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.nodes.len()
    }

    /// Location of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this network.
    #[inline]
    pub fn point(&self, v: NodeId) -> Point {
        self.nodes[v.index()]
    }

    /// All vertex locations, indexed by [`NodeId`].
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.nodes
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all vertex ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Neighbours of `v` as `(neighbour, weight)` pairs, in insertion order.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Bounding box of all vertex locations.
    #[inline]
    pub fn bbox(&self) -> BBox {
        self.bbox
    }

    /// Total length of all road segments.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Ratio of minimal edge weight to endpoint Euclidean distance, capped at
    /// 1. Any admissible A* heuristic must be scaled by at most this factor.
    ///
    /// Returns 1.0 when every edge is at least as long as the straight line
    /// between its endpoints (the common case for road data).
    pub fn heuristic_scale(&self) -> f64 {
        let mut scale = 1.0f64;
        for e in &self.edges {
            let straight = self.nodes[e.a.index()].distance(&self.nodes[e.b.index()]);
            if straight > 0.0 {
                scale = scale.min(e.weight / straight);
            }
        }
        scale.min(1.0)
    }

    /// Whether the network is connected (every vertex reachable from vertex
    /// 0). The paper assumes connected networks; generators guarantee it.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for (u, _) in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(3.0, 0.0));
        let v2 = b.add_node(Point::new(0.0, 4.0));
        b.add_edge(v0, v1, None).unwrap();
        b.add_edge(v1, v2, None).unwrap();
        b.add_edge(v2, v0, None).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_defaults_weight_to_euclidean() {
        let net = triangle();
        let weights: Vec<f64> = net.edges().iter().map(|e| e.weight).collect();
        assert_eq!(weights, [3.0, 5.0, 4.0]);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        assert!(matches!(
            b.add_edge(v0, NodeId(9), None),
            Err(NetworkError::UnknownNode(NodeId(9)))
        ));
        assert!(matches!(
            b.add_edge(v0, v0, None),
            Err(NetworkError::SelfLoop(_))
        ));
        assert!(matches!(
            b.add_edge(v0, v1, Some(0.0)),
            Err(NetworkError::BadWeight(_))
        ));
        assert!(matches!(
            b.add_edge(v0, v1, Some(f64::NAN)),
            Err(NetworkError::BadWeight(_))
        ));
        assert!(matches!(
            b.add_edge(v0, v1, Some(-1.0)),
            Err(NetworkError::BadWeight(_))
        ));
    }

    #[test]
    fn empty_network_is_rejected() {
        assert!(matches!(
            NetworkBuilder::new().build(),
            Err(NetworkError::EmptyNetwork)
        ));
    }

    /// The extent check refuses exactly the counts the `u32` layout cannot
    /// hold, at the boundary, without allocating boundary-sized networks.
    #[test]
    fn extent_check_rejects_overflow_at_the_u32_boundary() {
        let max = u64::from(u32::MAX);
        assert_eq!(check_extents(max, 0), Ok(()));
        assert_eq!(check_extents(0, max), Ok(()));
        assert_eq!(check_extents(max, max), Ok(()));
        for (nodes, entries) in [(max + 1, 0), (0, max + 1)] {
            let err = check_extents(nodes, entries).unwrap_err();
            assert_eq!(err, NetworkError::TooLarge { nodes, entries });
            assert!(err.to_string().contains(&(max + 1).to_string()));
        }
    }

    #[test]
    fn csr_adjacency_is_symmetric() {
        let net = triangle();
        for v in net.node_ids() {
            assert_eq!(net.neighbors(v).count(), 2);
            for (u, w) in net.neighbors(v) {
                // the reverse half-edge exists with the same weight
                assert!(net
                    .neighbors(u)
                    .any(|(t, tw)| t == v && (tw - w).abs() < 1e-12));
            }
        }
    }

    #[test]
    fn bbox_and_total_length() {
        let net = triangle();
        assert_eq!(net.bbox().min, Point::new(0.0, 0.0));
        assert_eq!(net.bbox().max, Point::new(3.0, 4.0));
        assert_eq!(net.total_length(), 12.0);
    }

    #[test]
    fn connectivity_detection() {
        let net = triangle();
        assert!(net.is_connected());

        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_node(Point::new(9.0, 9.0)); // isolated
        b.add_edge(v0, v1, None).unwrap();
        assert!(!b.build().unwrap().is_connected());
    }

    #[test]
    fn heuristic_scale_is_one_for_straight_edges() {
        assert_eq!(triangle().heuristic_scale(), 1.0);
    }

    #[test]
    fn heuristic_scale_shrinks_for_shortcut_weights() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(2.0, 0.0));
        // weight shorter than the straight line (e.g. a tunnel in bad data)
        b.add_edge(v0, v1, Some(1.0)).unwrap();
        let net = b.build().unwrap();
        assert!((net.heuristic_scale() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(7).to_string(), "v7");
    }

    #[test]
    fn serde_json_round_trip() {
        use crate::generators::{grid_city, GridCityConfig};
        let net = grid_city(&GridCityConfig::tiny(4)).unwrap();
        let json = serde_json::to_string(&net).unwrap();
        let back: RoadNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
    }
}
