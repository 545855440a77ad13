//! Textual similarity between keyword sets.
//!
//! The UOTS textual similarity is the Jaccard coefficient between the query
//! preference and the trajectory's textual attributes, which the linear
//! combination in `uots-core` weighs against the spatial similarity. It is
//! symmetric and maps into `[0, 1]`, as the UOTS bounds require.

use crate::KeywordSet;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` between two keyword sets.
///
/// Conventions for empty sets: two empty sets are fully similar (`1`);
/// one empty and one non-empty set are dissimilar (`0`). A query with no
/// keywords therefore matches untagged trajectories, which composes
/// correctly with the λ-combination (λ = 1 disables the channel anyway).
pub fn jaccard(a: &KeywordSet, b: &KeywordSet) -> f64 {
    jaccard_from_counts(a.intersection_len(b), a.len(), b.len())
}

/// Jaccard similarity from precomputed counts `(|A ∩ B|, |A|, |B|)`.
///
/// This is the arithmetic core of [`jaccard`]: alternative set
/// representations (bitset blocks, galloping sorted-id intersections) only
/// need to produce the three counts and route them here to obtain
/// bit-identical floats — the union is reconstructed in integer arithmetic
/// as `|A| + |B| - |A ∩ B|`. Empty-set conventions match `jaccard`.
#[inline]
pub fn jaccard_from_counts(inter: usize, a_len: usize, b_len: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    if a_len == 0 || b_len == 0 {
        return 0.0;
    }
    inter as f64 / (a_len + b_len - inter) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeywordId;

    fn set(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn identical_sets_have_similarity_one() {
        let a = set(&[1, 2, 3]);
        assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn disjoint_sets_have_similarity_zero() {
        assert_eq!(jaccard(&set(&[1, 2]), &set(&[3, 4])), 0.0);
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded() {
        let cases = [
            (set(&[1, 2, 3]), set(&[2, 3, 4, 5])),
            (set(&[1]), set(&[1, 2, 3, 4])),
            (set(&[9, 10]), set(&[10])),
        ];
        for (a, b) in &cases {
            let ab = jaccard(a, b);
            assert_eq!(ab, jaccard(b, a), "not symmetric");
            assert!((0.0..=1.0).contains(&ab), "out of range: {ab}");
        }
    }

    #[test]
    fn jaccard_known_values() {
        let a = set(&[1, 2, 3]);
        let b = set(&[2, 3, 4]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_set_conventions() {
        let e = KeywordSet::empty();
        let a = set(&[1]);
        assert_eq!(jaccard(&e, &e), 1.0);
        assert_eq!(jaccard(&e, &a), 0.0);
        assert_eq!(jaccard(&a, &e), 0.0);
    }

    #[test]
    fn a_proper_subset_scores_below_one() {
        let a = set(&[1, 2]);
        let b = set(&[1, 2, 3, 4]);
        assert_eq!(jaccard(&a, &b), 0.5);
    }

    #[test]
    fn from_counts_matches_similarity_bit_for_bit() {
        let cases = [
            (set(&[]), set(&[])),
            (set(&[]), set(&[1, 2])),
            (set(&[1, 2, 3]), set(&[2, 3, 4, 5])),
            (set(&[1]), set(&[7, 8, 9])),
            (set(&[1, 2]), set(&[1, 2])),
            (set(&[0, 5, 9, 13]), set(&[5, 13])),
        ];
        for (a, b) in &cases {
            let via_counts = jaccard_from_counts(a.intersection_len(b), a.len(), b.len());
            assert_eq!(
                jaccard(a, b).to_bits(),
                via_counts.to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }
}
