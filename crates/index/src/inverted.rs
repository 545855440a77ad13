//! Inverted indexes from dense keys (graph vertices, keywords) to values.
//!
//! The UOTS expansion search discovers trajectories by settling a vertex and
//! asking "which trajectories pass through here?" — that is the
//! [`VertexInvertedIndex`]. The textual-first baseline asks "which
//! trajectories carry this keyword?" — that is the
//! [`KeywordInvertedIndex`]. Both are one CSR structure, [`InvertedIndex`],
//! generic over the key and over the posting value so the substrate stays
//! independent of the trajectory crate (which fixes
//! `V = TrajectoryId`).
//!
//! Postings are sorted and deduplicated, which makes merges and membership
//! checks cheap and iteration deterministic. A serving epoch derives each
//! index from the previous one with [`InvertedIndex::merged`] instead of
//! building it again.

use serde::{Deserialize, Serialize};
use std::marker::PhantomData;
use uots_network::NodeId;
use uots_text::KeywordId;

/// A dense key of an [`InvertedIndex`]: `0..num_keys`.
pub trait PostingKey: Copy {
    /// The key's position.
    fn index(self) -> usize;
}

impl PostingKey for NodeId {
    fn index(self) -> usize {
        NodeId::index(self)
    }
}

impl PostingKey for KeywordId {
    fn index(self) -> usize {
        KeywordId::index(self)
    }
}

/// Maps each of `num_keys` dense keys to the sorted, duplicate-free list of
/// values (e.g. trajectory ids) registered under it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvertedIndex<K, V> {
    /// CSR offsets, length `num_keys + 1`.
    starts: Vec<u32>,
    postings: Vec<V>,
    #[serde(skip)]
    key: PhantomData<K>,
}

/// Vertex → values: the structure the network expansion probes on every
/// settled vertex.
pub type VertexInvertedIndex<V> = InvertedIndex<NodeId, V>;

/// Keyword → values: the textual-first baseline's candidate source.
pub type KeywordInvertedIndex<V> = InvertedIndex<KeywordId, V>;

impl<K: PostingKey, V: Copy + Ord> InvertedIndex<K, V> {
    /// Builds the index over `num_keys` keys from `(key, value)`
    /// registrations. A value registered under one key several times (a
    /// trajectory revisiting a vertex) is stored once.
    ///
    /// # Panics
    ///
    /// Panics when a registration's key is `>= num_keys`.
    pub fn build(num_keys: usize, registrations: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut per_key: Vec<Vec<V>> = vec![Vec::new(); num_keys];
        for (k, val) in registrations {
            let i = k.index();
            assert!(i < num_keys, "key {i} out of range ({num_keys} keys)");
            per_key[i].push(val);
        }
        let mut starts = Vec::with_capacity(num_keys + 1);
        let mut postings = Vec::new();
        starts.push(0u32);
        for list in &mut per_key {
            list.sort_unstable();
            list.dedup();
            postings.extend_from_slice(list);
            starts.push(postings.len() as u32);
        }
        InvertedIndex {
            starts,
            postings,
            key: PhantomData,
        }
    }

    /// This index with the `removed` registrations taken out and the
    /// `added` ones put in: each key's list minus its removed values,
    /// merged with its added values, sorted and deduplicated. A removal
    /// this index does not hold is ignored. The result equals
    /// [`build`](Self::build) over the survivors, and a key the batch does
    /// not touch costs one slice copy.
    ///
    /// Added values above every value their key keeps (fresh ids, as a
    /// serving epoch issues them) are appended; one below a kept value (an
    /// id a cluster issues into a gap an unwritable shard left) is merged
    /// into place.
    ///
    /// # Panics
    ///
    /// Panics when an added registration's key is `>= num_keys`.
    pub fn merged(
        &self,
        removed: impl IntoIterator<Item = (K, V)>,
        added: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        let (removed, added) = (sorted_pairs(removed), sorted_pairs(added));
        let num_keys = self.num_keys();
        if let Some(&(i, _)) = added.last() {
            assert!(i < num_keys, "key {i} out of range ({num_keys} keys)");
        }
        let mut starts = Vec::with_capacity(self.starts.len());
        let mut postings = Vec::with_capacity(self.postings.len() + added.len());
        starts.push(0u32);
        let (mut r, mut a) = (0, 0);
        for i in 0..num_keys {
            let lo = postings.len();
            let kept = self.list(i);
            let gone = run(&removed[r..], i);
            r += gone.len();
            if gone.is_empty() {
                postings.extend_from_slice(kept);
            } else {
                // both ascending: step through the removals beside the list
                let mut gone = gone.iter().map(|p| p.1).peekable();
                postings.extend(kept.iter().copied().filter(|&v| {
                    while gone.next_if(|&g| g < v).is_some() {}
                    gone.next_if_eq(&v).is_none()
                }));
            }
            let fresh = run(&added[a..], i);
            a += fresh.len();
            let above = postings[lo..]
                .last()
                .zip(fresh.first())
                .is_none_or(|(&old, &(_, new))| old < new);
            if above {
                postings.extend(fresh.iter().map(|p| p.1));
            } else {
                let survivors = postings.split_off(lo);
                merge_into(&mut postings, &survivors, fresh.iter().map(|p| p.1));
            }
            starts.push(postings.len() as u32);
        }
        InvertedIndex {
            starts,
            postings,
            key: PhantomData,
        }
    }

    /// The sorted values registered under `key`; empty for a key past the
    /// last one.
    #[inline]
    pub fn values_at(&self, key: K) -> &[V] {
        let i = key.index();
        if i + 1 < self.starts.len() {
            self.list(i)
        } else {
            &[]
        }
    }

    #[inline]
    fn list(&self, i: usize) -> &[V] {
        &self.postings[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Number of values registered under `key` (a keyword's document
    /// frequency).
    pub fn document_frequency(&self, key: K) -> usize {
        self.values_at(key).len()
    }

    /// Union of the lists of `keys`, deduplicated and sorted (k-way merge
    /// via repeated two-way merges; lists are short in this workload).
    pub fn union_of(&self, keys: impl IntoIterator<Item = K>) -> Vec<V> {
        let mut out: Vec<V> = Vec::new();
        for k in keys {
            let list = self.values_at(k);
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

    /// Number of keys covered.
    pub fn num_keys(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of stored postings.
    pub fn num_postings(&self) -> usize {
        self.postings.len()
    }
}

/// `(key position, value)` pairs, sorted and deduplicated.
fn sorted_pairs<K: PostingKey, V: Ord>(regs: impl IntoIterator<Item = (K, V)>) -> Vec<(usize, V)> {
    let mut pairs: Vec<(usize, V)> = regs.into_iter().map(|(k, v)| (k.index(), v)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Appends the ascending union of `kept` and the ascending `fresh` to
/// `out`, each value once.
fn merge_into<V: Copy + Ord>(out: &mut Vec<V>, kept: &[V], fresh: impl Iterator<Item = V>) {
    let mut kept = kept.iter().copied().peekable();
    for v in fresh {
        while let Some(k) = kept.next_if(|&k| k < v) {
            out.push(k);
        }
        kept.next_if_eq(&v);
        out.push(v);
    }
    out.extend(kept);
}

/// The leading pairs of `pairs` whose key is `i`.
fn run<V>(pairs: &[(usize, V)], i: usize) -> &[(usize, V)] {
    &pairs[..pairs.iter().take_while(|p| p.0 == i).count()]
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
        assert_eq!(idx.values_at(NodeId(3)), &[] as &[u32]);
        assert_eq!(idx.num_keys(), 3);
        assert_eq!(idx.num_postings(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
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
        assert_eq!(idx.values_at(KeywordId(1)), &[7, 10]);
        assert_eq!(idx.values_at(KeywordId(0)), &[] as &[u32]);
        assert_eq!(idx.values_at(KeywordId(99)), &[] as &[u32]);
        assert_eq!(idx.document_frequency(KeywordId(1)), 2);
        assert_eq!(idx.num_keys(), 4);
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
    fn merged_drops_removed_and_appends_added() {
        let base = VertexInvertedIndex::build(
            3,
            [
                (NodeId(0), 1u32),
                (NodeId(0), 2),
                (NodeId(1), 1),
                (NodeId(2), 3),
            ],
        );
        let next = base.merged(
            [
                (NodeId(0), 1),
                (NodeId(1), 1),
                (NodeId(1), 1),
                (NodeId(2), 9),
            ],
            [(NodeId(0), 5), (NodeId(2), 4), (NodeId(0), 5)],
        );
        assert_eq!(next.values_at(NodeId(0)), &[2, 5]);
        assert_eq!(next.values_at(NodeId(1)), &[] as &[u32]);
        assert_eq!(next.values_at(NodeId(2)), &[3, 4]);
        assert_eq!(next.num_postings(), 4);
        assert_eq!(base.num_postings(), 4, "the base is untouched");
    }

    #[test]
    fn merged_matches_direct_build() {
        let old = [
            (KeywordId(0), 3u32),
            (KeywordId(0), 1),
            (KeywordId(2), 7),
            (KeywordId(3), 1),
        ];
        let base = KeywordInvertedIndex::build(4, old);
        let merged = base.merged([(KeywordId(0), 1), (KeywordId(3), 1)], [(KeywordId(3), 8)]);
        let direct = KeywordInvertedIndex::build(
            4,
            [(KeywordId(0), 3u32), (KeywordId(2), 7), (KeywordId(3), 8)],
        );
        assert_eq!(merged, direct);
    }

    #[test]
    fn merged_places_an_added_value_below_a_kept_one() {
        let base =
            VertexInvertedIndex::build(2, [(NodeId(0), 2u32), (NodeId(0), 9), (NodeId(1), 4)]);
        let next = base.merged(
            [(NodeId(0), 9)],
            [(NodeId(0), 5), (NodeId(0), 1), (NodeId(1), 7)],
        );
        let direct = VertexInvertedIndex::build(
            2,
            [
                (NodeId(0), 1u32),
                (NodeId(0), 2),
                (NodeId(0), 5),
                (NodeId(1), 4),
                (NodeId(1), 7),
            ],
        );
        assert_eq!(next, direct);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn merged_rejects_an_added_key_out_of_range() {
        VertexInvertedIndex::build(1, [(NodeId(0), 1u32)]).merged([], [(NodeId(5), 2)]);
    }

    #[test]
    fn serde_round_trip() {
        let idx = VertexInvertedIndex::build(2, vec![(NodeId(0), 1u32), (NodeId(1), 2)]);
        let json = serde_json::to_string(&idx).unwrap();
        let back: VertexInvertedIndex<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, idx);
    }
}
