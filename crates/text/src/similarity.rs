//! Textual similarity measures between keyword sets.
//!
//! The UOTS textual similarity is the Jaccard coefficient between the query
//! preference and the trajectory's textual attributes, which the linear
//! combination in `uots-core` weighs against the spatial similarity. The
//! alternative measures here (Dice, cosine, overlap, IDF-weighted Jaccard)
//! are provided for sensitivity analysis — they share the `[0, 1]` range and
//! symmetry that the UOTS bounds require.

use crate::{KeywordId, KeywordSet};
use serde::{Deserialize, Serialize};

/// Inverse-document-frequency weights for a keyword corpus, used by
/// [`weighted_jaccard`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IdfWeights {
    weights: Vec<f64>,
}

impl IdfWeights {
    /// Computes smoothed IDF weights `ln(1 + N / (1 + df))` for a corpus of
    /// keyword sets over a vocabulary of `vocab_len` keywords.
    pub fn from_corpus<'a>(
        corpus: impl IntoIterator<Item = &'a KeywordSet>,
        vocab_len: usize,
    ) -> Self {
        let mut df = vec![0usize; vocab_len];
        let mut n = 0usize;
        for set in corpus {
            n += 1;
            for id in set.iter() {
                if id.index() < vocab_len {
                    df[id.index()] += 1;
                }
            }
        }
        let weights = df
            .iter()
            .map(|&d| (1.0 + n as f64 / (1.0 + d as f64)).ln())
            .collect();
        IdfWeights { weights }
    }

    /// The weight of keyword `id` (0 for foreign ids).
    #[inline]
    pub fn weight(&self, id: KeywordId) -> f64 {
        self.weights.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Sum of weights over a set.
    pub fn sum(&self, set: &KeywordSet) -> f64 {
        set.iter().map(|id| self.weight(id)).sum()
    }
}

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
    /// integer arithmetic as `|A| + |B| - |A ∩ B|`, exactly as
    /// `KeywordSet::union_len` computes it. Empty-set conventions match
    /// `similarity`.
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

/// IDF-weighted Jaccard: `Σ_{k ∈ A∩B} w(k) / Σ_{k ∈ A∪B} w(k)`.
///
/// Separate from [`TextSimilarity`] because it needs corpus statistics.
/// Symmetric, in `[0, 1]`, and equal to plain Jaccard under uniform weights.
pub fn weighted_jaccard(a: &KeywordSet, b: &KeywordSet, idf: &IdfWeights) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = idf.sum(&a.intersection(b));
    let union = idf.sum(a) + idf.sum(b) - inter;
    if union <= 0.0 {
        // all keywords carry zero weight: fall back to unweighted
        return TextSimilarity::Jaccard.similarity(a, b);
    }
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn idf_weights_penalize_frequent_keywords() {
        // keyword 0 appears everywhere, keyword 1 once
        let corpus = [set(&[0]), set(&[0]), set(&[0, 1])];
        let idf = IdfWeights::from_corpus(corpus.iter(), 2);
        assert!(idf.weight(KeywordId(1)) > idf.weight(KeywordId(0)));
        assert!(idf.weight(KeywordId(0)) > 0.0);
        assert_eq!(idf.weight(KeywordId(99)), 0.0);
    }

    #[test]
    fn weighted_jaccard_reduces_to_jaccard_under_uniform_weights() {
        // corpus where both keywords have equal document frequency
        let corpus = [set(&[0]), set(&[1])];
        let idf = IdfWeights::from_corpus(corpus.iter(), 2);
        let a = set(&[0]);
        let b = set(&[0, 1]);
        let wj = weighted_jaccard(&a, &b, &idf);
        let j = TextSimilarity::Jaccard.similarity(&a, &b);
        assert!((wj - j).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_is_symmetric_and_bounded() {
        let corpus = [set(&[0, 1]), set(&[1, 2]), set(&[2, 3])];
        let idf = IdfWeights::from_corpus(corpus.iter(), 4);
        let a = set(&[0, 1, 2]);
        let b = set(&[2, 3]);
        let ab = weighted_jaccard(&a, &b, &idf);
        assert_eq!(ab, weighted_jaccard(&b, &a, &idf));
        assert!((0.0..=1.0).contains(&ab));
        assert_eq!(weighted_jaccard(&a, &a, &idf), 1.0);
    }

    #[test]
    fn weighted_jaccard_emphasizes_rare_matches() {
        // keyword 0: common; keyword 9: rare
        let corpus: Vec<KeywordSet> = (0..10)
            .map(|i| if i == 0 { set(&[0, 9]) } else { set(&[0]) })
            .collect();
        let idf = IdfWeights::from_corpus(corpus.iter(), 10);
        let q = set(&[0, 9]);
        let common_match = set(&[0, 5]);
        let rare_match = set(&[9, 5]);
        assert!(
            weighted_jaccard(&q, &rare_match, &idf) > weighted_jaccard(&q, &common_match, &idf)
        );
    }
}
