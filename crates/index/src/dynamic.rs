//! Updatable vertex → values index.
//!
//! The query-time [`VertexInvertedIndex`](crate::VertexInvertedIndex) is a
//! frozen CSR structure — optimal to probe, impossible to update. Real
//! deployments ingest trajectories continuously and retire them (e.g. after
//! near-duplicate cleaning with the similarity join), so this module adds a
//! mutable registry with the same posting semantics plus
//! [`DynamicVertexIndex::freeze`] to produce the CSR index the engines
//! consume. The intended pattern is batched: mutate freely, freeze once per
//! serving epoch.

use crate::VertexInvertedIndex;
use serde::{Deserialize, Serialize};
use uots_network::NodeId;

/// A mutable vertex → sorted values map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicVertexIndex<V> {
    postings: Vec<Vec<V>>,
}

impl<V: Copy + Ord> DynamicVertexIndex<V> {
    /// An empty index over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        DynamicVertexIndex {
            postings: vec![Vec::new(); num_vertices],
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.postings.len()
    }

    /// Total stored postings.
    pub fn num_postings(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// Registers `value` on vertex `v`; returns `false` when it was already
    /// present (postings are sets).
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    pub fn insert(&mut self, v: NodeId, value: V) -> bool {
        let list = &mut self.postings[v.index()];
        match list.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, value);
                true
            }
        }
    }

    /// Removes `value` from vertex `v`; returns `false` when it was not
    /// registered there.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    pub fn remove(&mut self, v: NodeId, value: V) -> bool {
        let list = &mut self.postings[v.index()];
        match list.binary_search(&value) {
            Ok(pos) => {
                list.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The sorted values registered on `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    pub fn values_at(&self, v: NodeId) -> &[V] {
        &self.postings[v.index()]
    }

    /// Freezes into the CSR [`VertexInvertedIndex`] consumed by the query
    /// engines: the per-vertex lists are already sorted and deduplicated
    /// (by [`insert`](Self::insert) / [`remove`](Self::remove)), so they
    /// are concatenated as they stand.
    pub fn freeze(&self) -> VertexInvertedIndex<V> {
        let mut starts = Vec::with_capacity(self.postings.len() + 1);
        let mut postings = Vec::with_capacity(self.num_postings());
        starts.push(0u32);
        for list in &self.postings {
            postings.extend_from_slice(list);
            starts.push(postings.len() as u32);
        }
        VertexInvertedIndex::from_csr(starts, postings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_semantics() {
        let mut idx = DynamicVertexIndex::new(3);
        assert!(idx.insert(NodeId(0), 5u32));
        assert!(idx.insert(NodeId(0), 2));
        assert!(!idx.insert(NodeId(0), 5), "duplicate insert is a no-op");
        assert_eq!(idx.values_at(NodeId(0)), &[2, 5]);
        assert_eq!(idx.num_postings(), 2);

        assert!(idx.remove(NodeId(0), 5));
        assert!(!idx.remove(NodeId(0), 5), "double remove is a no-op");
        assert!(!idx.remove(NodeId(1), 2), "absent vertex posting");
        assert_eq!(idx.values_at(NodeId(0)), &[2]);
    }

    #[test]
    fn freeze_matches_direct_build() {
        let mut dynamic = DynamicVertexIndex::new(4);
        let registrations = [
            (NodeId(0), 3u32),
            (NodeId(0), 1),
            (NodeId(2), 7),
            (NodeId(3), 1),
        ];
        for (v, val) in registrations {
            dynamic.insert(v, val);
        }
        let frozen = dynamic.freeze();
        let direct = VertexInvertedIndex::build(4, registrations);
        for v in 0..4 {
            assert_eq!(frozen.values_at(NodeId(v)), direct.values_at(NodeId(v)));
        }
    }

    #[test]
    fn freeze_after_removals_reflects_current_state() {
        let mut dynamic = DynamicVertexIndex::new(2);
        dynamic.insert(NodeId(0), 1u32);
        dynamic.insert(NodeId(0), 2);
        dynamic.insert(NodeId(1), 1);
        dynamic.remove(NodeId(0), 1);
        let frozen = dynamic.freeze();
        assert_eq!(frozen.values_at(NodeId(0)), &[2]);
        assert_eq!(frozen.values_at(NodeId(1)), &[1]);
        assert_eq!(frozen.num_postings(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut idx = DynamicVertexIndex::new(2);
        idx.insert(NodeId(1), 9u32);
        let json = serde_json::to_string(&idx).unwrap();
        let back: DynamicVertexIndex<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.values_at(NodeId(1)), &[9]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_vertex_panics() {
        let mut idx = DynamicVertexIndex::new(1);
        idx.insert(NodeId(5), 1u32);
    }
}
