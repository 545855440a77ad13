//! Textual similarity measures between keyword sets.
//!
//! The UOTS textual similarity is the Jaccard coefficient between the query
//! preference and the trajectory's textual attributes, which the linear
//! combination in `uots-core` weighs against the spatial similarity. The
//! alternative measures here (Dice, cosine, overlap) are provided for
//! sensitivity analysis — they share the `[0, 1]` range and symmetry that
//! the UOTS bounds require.

use crate::KeywordSet;
use serde::{Deserialize, Serialize};

/// The textual similarity measure to use. All variants are symmetric and map
/// into `[0, 1]`, with `1` exactly when both sets are equal and non-empty
/// (except `Overlap`, which is also `1` for subset relations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TextSimilarity {
    /// `|A ∩ B| / |A ∪ B|` — the UOTS paper's measure (default).
    #[default]
    Jaccard,
    /// `2|A ∩ B| / (|A| + |B|)`.
    Dice,
    /// `|A ∩ B| / sqrt(|A| · |B|)` — set cosine.
    Cosine,
    /// `|A ∩ B| / min(|A|, |B|)`.
    Overlap,
}

impl TextSimilarity {
    /// Similarity between two keyword sets.
    ///
    /// Conventions for empty sets: two empty sets are fully similar (`1`);
    /// one empty and one non-empty set are dissimilar (`0`). A query with no
    /// keywords therefore matches untagged trajectories, which composes
    /// correctly with the λ-combination (λ = 1 disables the channel anyway).
    pub fn similarity(&self, a: &KeywordSet, b: &KeywordSet) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        self.from_counts(a.intersection_len(b), a.len(), b.len())
    }

    /// Similarity from precomputed counts `(|A ∩ B|, |A|, |B|)`.
    ///
    /// This is the arithmetic core of [`similarity`](Self::similarity):
    /// alternative set representations (bitset blocks, galloping sorted-id
    /// intersections) only need to produce the three counts and route them
    /// here to obtain bit-identical floats — the union is reconstructed in
    /// integer arithmetic as `|A| + |B| - |A ∩ B|`. Empty-set conventions
    /// match `similarity`.
    #[inline]
    pub fn from_counts(&self, inter: usize, a_len: usize, b_len: usize) -> f64 {
        if a_len == 0 && b_len == 0 {
            return 1.0;
        }
        if a_len == 0 || b_len == 0 {
            return 0.0;
        }
        let inter_f = inter as f64;
        match self {
            TextSimilarity::Jaccard => inter_f / (a_len + b_len - inter) as f64,
            TextSimilarity::Dice => 2.0 * inter_f / (a_len + b_len) as f64,
            TextSimilarity::Cosine => inter_f / ((a_len * b_len) as f64).sqrt(),
            TextSimilarity::Overlap => inter_f / a_len.min(b_len) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeywordId;

    fn set(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    const ALL: [TextSimilarity; 4] = [
        TextSimilarity::Jaccard,
        TextSimilarity::Dice,
        TextSimilarity::Cosine,
        TextSimilarity::Overlap,
    ];

    #[test]
    fn identical_sets_have_similarity_one() {
        let a = set(&[1, 2, 3]);
        for m in ALL {
            assert_eq!(m.similarity(&a, &a), 1.0, "{m:?}");
        }
    }

    #[test]
    fn disjoint_sets_have_similarity_zero() {
        let a = set(&[1, 2]);
        let b = set(&[3, 4]);
        for m in ALL {
            assert_eq!(m.similarity(&a, &b), 0.0, "{m:?}");
        }
    }

    #[test]
    fn all_measures_are_symmetric_and_bounded() {
        let cases = [
            (set(&[1, 2, 3]), set(&[2, 3, 4, 5])),
            (set(&[1]), set(&[1, 2, 3, 4])),
            (set(&[9, 10]), set(&[10])),
        ];
        for (a, b) in &cases {
            for m in ALL {
                let ab = m.similarity(a, b);
                let ba = m.similarity(b, a);
                assert_eq!(ab, ba, "{m:?} not symmetric");
                assert!((0.0..=1.0).contains(&ab), "{m:?} out of range: {ab}");
            }
        }
    }

    #[test]
    fn jaccard_known_values() {
        let a = set(&[1, 2, 3]);
        let b = set(&[2, 3, 4]);
        assert!((TextSimilarity::Jaccard.similarity(&a, &b) - 0.5).abs() < 1e-12);
        assert!((TextSimilarity::Dice.similarity(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((TextSimilarity::Cosine.similarity(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((TextSimilarity::Overlap.similarity(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set_conventions() {
        let e = KeywordSet::empty();
        let a = set(&[1]);
        for m in ALL {
            assert_eq!(m.similarity(&e, &e), 1.0);
            assert_eq!(m.similarity(&e, &a), 0.0);
            assert_eq!(m.similarity(&a, &e), 0.0);
        }
    }

    #[test]
    fn overlap_is_one_for_subsets() {
        let a = set(&[1, 2]);
        let b = set(&[1, 2, 3, 4]);
        assert_eq!(TextSimilarity::Overlap.similarity(&a, &b), 1.0);
        assert!(TextSimilarity::Jaccard.similarity(&a, &b) < 1.0);
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
            for m in ALL {
                let via_counts = m.from_counts(a.intersection_len(b), a.len(), b.len());
                assert_eq!(
                    m.similarity(a, b).to_bits(),
                    via_counts.to_bits(),
                    "{m:?} on {a:?} vs {b:?}"
                );
            }
        }
    }
}
