//! Inverted indexes from graph vertices and keywords to arbitrary values.
//!
//! The UOTS expansion search discovers trajectories by settling a vertex and
//! asking "which trajectories pass through here?" — that is the
//! [`VertexInvertedIndex`]. The textual-first baseline asks "which
//! trajectories carry this keyword?" — that is the
//! [`KeywordInvertedIndex`]. Both are generic over the posting value so the
//! substrate stays independent of the trajectory crate (which instantiates
//! `V = TrajectoryId`).
//!
//! Postings are sorted and deduplicated at freeze time, which makes merges
//! and membership checks cheap and iteration deterministic.

use serde::{Deserialize, Serialize};
use uots_network::NodeId;
use uots_text::KeywordId;

/// Maps every vertex of a road network to the sorted list of values (e.g.
/// trajectory ids) registered on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexInvertedIndex<V> {
    /// CSR offsets, length `num_vertices + 1`.
    starts: Vec<u32>,
    postings: Vec<V>,
}

impl<V: Copy + Ord> VertexInvertedIndex<V> {
    /// Builds the index for a network of `num_vertices` vertices from
    /// `(vertex, value)` registrations. A value appearing on the same vertex
    /// multiple times (a trajectory revisiting it) is stored once.
    ///
    /// # Panics
    ///
    /// Panics when a registration references a vertex `>= num_vertices`.
    pub fn build(
        num_vertices: usize,
        registrations: impl IntoIterator<Item = (NodeId, V)>,
    ) -> Self {
        let mut per_vertex: Vec<Vec<V>> = vec![Vec::new(); num_vertices];
        for (v, val) in registrations {
            assert!(v.index() < num_vertices, "vertex out of range");
            per_vertex[v.index()].push(val);
        }
        let mut starts = Vec::with_capacity(num_vertices + 1);
        let mut postings = Vec::new();
        starts.push(0u32);
        for list in &mut per_vertex {
            list.sort_unstable();
            list.dedup();
            postings.extend_from_slice(list);
            starts.push(postings.len() as u32);
        }
        VertexInvertedIndex { starts, postings }
    }

    /// The index over CSR arrays whose every vertex slice is already
    /// sorted and deduplicated.
    pub(crate) fn from_csr(starts: Vec<u32>, postings: Vec<V>) -> Self {
        debug_assert_eq!(starts.last().map(|&s| s as usize), Some(postings.len()));
        debug_assert!(starts
            .windows(2)
            .all(|w| postings[w[0] as usize..w[1] as usize]
                .windows(2)
                .all(|p| p[0] < p[1])));
        VertexInvertedIndex { starts, postings }
    }

    /// The sorted values registered on vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    #[inline]
    pub fn values_at(&self, v: NodeId) -> &[V] {
        let lo = self.starts[v.index()] as usize;
        let hi = self.starts[v.index() + 1] as usize;
        &self.postings[lo..hi]
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of stored postings.
    pub fn num_postings(&self) -> usize {
        self.postings.len()
    }
}

/// Maps every keyword to the sorted list of values whose keyword sets
/// contain it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeywordInvertedIndex<V> {
    starts: Vec<u32>,
    postings: Vec<V>,
}

impl<V: Copy + Ord> KeywordInvertedIndex<V> {
    /// Builds the index over a vocabulary of `vocab_len` keywords from
    /// `(keyword, value)` registrations.
    ///
    /// # Panics
    ///
    /// Panics when a registration references a keyword `>= vocab_len`.
    pub fn build(
        vocab_len: usize,
        registrations: impl IntoIterator<Item = (KeywordId, V)>,
    ) -> Self {
        let mut per_kw: Vec<Vec<V>> = vec![Vec::new(); vocab_len];
        for (k, val) in registrations {
            assert!(k.index() < vocab_len, "keyword out of range");
            per_kw[k.index()].push(val);
        }
        let mut starts = Vec::with_capacity(vocab_len + 1);
        let mut postings = Vec::new();
        starts.push(0u32);
        for list in &mut per_kw {
            list.sort_unstable();
            list.dedup();
            postings.extend_from_slice(list);
            starts.push(postings.len() as u32);
        }
        KeywordInvertedIndex { starts, postings }
    }

    /// The sorted values carrying keyword `k`; empty for out-of-range ids.
    #[inline]
    pub fn values_for(&self, k: KeywordId) -> &[V] {
        if k.index() + 1 >= self.starts.len() {
            return &[];
        }
        let lo = self.starts[k.index()] as usize;
        let hi = self.starts[k.index() + 1] as usize;
        &self.postings[lo..hi]
    }

    /// Document frequency of keyword `k`.
    pub fn document_frequency(&self, k: KeywordId) -> usize {
        self.values_for(k).len()
    }

    /// Union of the posting lists of `keywords`, deduplicated and sorted
    /// (k-way merge via repeated two-way merges; lists are short in this
    /// workload).
    pub fn union_of(&self, keywords: impl IntoIterator<Item = KeywordId>) -> Vec<V> {
        let mut out: Vec<V> = Vec::new();
        for k in keywords {
            let list = self.values_for(k);
            if list.is_empty() {
                continue;
            }
            if out.is_empty() {
                out.extend_from_slice(list);
                continue;
            }
            let mut merged = Vec::with_capacity(out.len() + list.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < out.len() && j < list.len() {
                match out[i].cmp(&list[j]) {
                    std::cmp::Ordering::Less => {
                        merged.push(out[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(list[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(out[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&out[i..]);
            merged.extend_from_slice(&list[j..]);
            out = merged;
        }
        out
    }

    /// Number of keywords covered.
    pub fn vocab_len(&self) -> usize {
        self.starts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_index_sorts_and_dedups() {
        let idx = VertexInvertedIndex::build(
            3,
            vec![
                (NodeId(0), 5u32),
                (NodeId(0), 2),
                (NodeId(0), 5),
                (NodeId(2), 1),
            ],
        );
        assert_eq!(idx.values_at(NodeId(0)), &[2, 5]);
        assert_eq!(idx.values_at(NodeId(1)), &[] as &[u32]);
        assert_eq!(idx.values_at(NodeId(2)), &[1]);
        assert_eq!(idx.num_vertices(), 3);
        assert_eq!(idx.num_postings(), 3);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn vertex_index_rejects_out_of_range() {
        VertexInvertedIndex::build(2, vec![(NodeId(5), 1u32)]);
    }

    #[test]
    fn keyword_index_basics() {
        let idx = KeywordInvertedIndex::build(
            4,
            vec![
                (KeywordId(1), 10u32),
                (KeywordId(1), 7),
                (KeywordId(3), 7),
                (KeywordId(1), 10),
            ],
        );
        assert_eq!(idx.values_for(KeywordId(1)), &[7, 10]);
        assert_eq!(idx.values_for(KeywordId(0)), &[] as &[u32]);
        assert_eq!(idx.values_for(KeywordId(99)), &[] as &[u32]);
        assert_eq!(idx.document_frequency(KeywordId(1)), 2);
        assert_eq!(idx.vocab_len(), 4);
    }

    #[test]
    fn union_merges_sorted_and_deduped() {
        let idx = KeywordInvertedIndex::build(
            3,
            vec![
                (KeywordId(0), 1u32),
                (KeywordId(0), 3),
                (KeywordId(1), 2),
                (KeywordId(1), 3),
                (KeywordId(2), 9),
            ],
        );
        let u = idx.union_of([KeywordId(0), KeywordId(1), KeywordId(2)]);
        assert_eq!(u, vec![1, 2, 3, 9]);
        let u = idx.union_of([KeywordId(1)]);
        assert_eq!(u, vec![2, 3]);
        let u: Vec<u32> = idx.union_of([]);
        assert!(u.is_empty());
    }

    #[test]
    fn union_ignores_unknown_keywords() {
        let idx = KeywordInvertedIndex::build(1, vec![(KeywordId(0), 4u32)]);
        let u = idx.union_of([KeywordId(0), KeywordId(42)]);
        assert_eq!(u, vec![4]);
    }

    #[test]
    fn serde_round_trip() {
        let idx = VertexInvertedIndex::build(2, vec![(NodeId(0), 1u32), (NodeId(1), 2)]);
        let json = serde_json::to_string(&idx).unwrap();
        let back: VertexInvertedIndex<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.values_at(NodeId(0)), &[1]);
        assert_eq!(back.values_at(NodeId(1)), &[2]);
    }
}
