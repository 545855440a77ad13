//! Sorted keyword sets with merge-based set algebra.
//!
//! A [`KeywordSet`] is the textual attribute set of a trajectory or a query:
//! a deduplicated, sorted vector of [`KeywordId`]s. Sets in this workload
//! are tiny (a handful of tags), so sorted-vector merges beat hash sets on
//! both memory and speed, and give deterministic iteration for free.

use crate::KeywordId;
use serde::{Content, DeError, Deserialize, Serialize};

/// An immutable, sorted, deduplicated set of keywords.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize)]
pub struct KeywordSet(Vec<KeywordId>);

// Hand-written so that every deserialized set is canonical: the textual
// similarity merge walks assume sorted, duplicate-free ids.
impl Deserialize for KeywordSet {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        Vec::<KeywordId>::deserialize(content).map(KeywordSet::from_ids)
    }
}

impl KeywordSet {
    /// The empty set.
    pub fn empty() -> Self {
        KeywordSet(Vec::new())
    }

    /// Builds a set from any id iterator; duplicates are removed.
    pub fn from_ids(ids: impl IntoIterator<Item = KeywordId>) -> Self {
        let mut v: Vec<KeywordId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        KeywordSet(v)
    }

    /// Number of keywords in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ids in ascending order.
    #[inline]
    pub fn ids(&self) -> &[KeywordId] {
        &self.0
    }

    /// Iterator over the ids in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = KeywordId> + '_ {
        self.0.iter().copied()
    }

    /// Size of the intersection with `other` (linear merge walk).
    pub fn intersection_len(&self, other: &KeywordSet) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        let (a, b) = (&self.0, &other.0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }
}

impl FromIterator<KeywordId> for KeywordSet {
    fn from_iter<T: IntoIterator<Item = KeywordId>>(iter: T) -> Self {
        KeywordSet::from_ids(iter)
    }
}

impl<'a> IntoIterator for &'a KeywordSet {
    type Item = KeywordId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, KeywordId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.ids(), &[KeywordId(1), KeywordId(3), KeywordId(5)]);
    }

    #[test]
    fn intersection_and_union_sizes() {
        let a = set(&[1, 2, 3, 4]);
        let b = set(&[3, 4, 5]);
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    fn empty_set_algebra() {
        let a = set(&[1, 2]);
        let e = KeywordSet::empty();
        assert_eq!(a.intersection_len(&e), 0);
        assert_eq!(e.intersection_len(&e), 0);
    }

    #[test]
    fn set_operations_against_hashset_oracle() {
        use std::collections::HashSet;
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![1]),
            (vec![1, 2, 3], vec![4, 5, 6]),
            (vec![0, 2, 4, 6, 8], vec![1, 2, 3, 4]),
            (vec![10, 20, 30], vec![30, 10]),
        ];
        for (xs, ys) in cases {
            let a = set(&xs);
            let b = set(&ys);
            let ha: HashSet<u32> = xs.iter().copied().collect();
            let hb: HashSet<u32> = ys.iter().copied().collect();
            assert_eq!(a.intersection_len(&b), ha.intersection(&hb).count());
        }
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let s: KeywordSet = [KeywordId(3), KeywordId(1)].into_iter().collect();
        let back: Vec<KeywordId> = (&s).into_iter().collect();
        assert_eq!(back, vec![KeywordId(1), KeywordId(3)]);
    }

    #[test]
    fn serde_round_trip() {
        let s = set(&[7, 3, 7, 1]);
        let json = serde_json::to_string(&s).unwrap();
        let back: KeywordSet = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn deserialization_canonicalises() {
        let back: KeywordSet = serde_json::from_str("[7,7,2]").unwrap();
        assert_eq!(back, set(&[2, 7]));
    }
}
