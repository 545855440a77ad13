//! The keyword table every query's textual term reads: fixed-width `u64`
//! bitset rows with a galloping sorted-id fallback.
//!
//! The textual hot path evaluates the Jaccard similarity between the
//! query keyword set and thousands of per-trajectory sets. A [`KeywordSet`] is a
//! sorted `Vec<KeywordId>` per trajectory — correct, but every comparison
//! is a pointer chase plus a merge walk. [`KeywordBlocks`] packs all the
//! sets into one dense table:
//!
//! * **Bitset mode** — when the widest stored keyword id fits
//!   [`MAX_BITSET_BITS`] bits, each row is a fixed run of `u64` words (the
//!   399-word BRN vocabulary takes 7 words) in one allocation. The
//!   intersection size is a handful of `AND` + `popcount` instructions.
//! * **Galloping mode** — wider tables fall back to a galloping
//!   (exponential-probe) intersection over the sorted id slices, which
//!   beats the linear merge when the two sets differ in size.
//!
//! Both modes produce the exact integer counts `(|A ∩ B|, |A|, |B|)` and
//! route them through [`jaccard_from_counts`], so the floats are
//! bit-identical to [`jaccard`](uots_text::jaccard)'s merge walk, which
//! stays as the reference the property tests compare against.

use uots_text::{jaccard_from_counts, KeywordId, KeywordSet};

/// Widest table (in bits) that uses the bitset representation; wider ones
/// use the galloping sorted-id fallback.
///
/// 1024 bits = 16 × `u64` per row: beyond that the rows stop being
/// reliably cache-resident and sparse sets waste bandwidth on zero words.
pub const MAX_BITSET_BITS: usize = 1024;

const WORD_BITS: usize = 64;

/// Dense per-trajectory keyword table (see module docs).
///
/// Row `i` holds the keywords of the store's `i`-th trajectory; build it
/// over the same store the queries run against (retired rows are simply
/// never consulted). The table is immutable — rebuild it per store
/// revision.
#[derive(Debug, Clone)]
pub struct KeywordBlocks {
    /// Words per row; `0` means galloping mode (no bit rows stored).
    words: usize,
    /// One past the widest stored keyword id.
    width: usize,
    /// `words * rows` bit words, row-major.
    bits: Vec<u64>,
    /// Per-row set size (valid in both modes).
    lens: Vec<u32>,
}

impl KeywordBlocks {
    /// Builds the table from the keyword sets of rows `0, 1, …`, in order.
    ///
    /// The width is one past the widest id any set holds; a query id
    /// beyond it matches no row (see [`prepare`](Self::prepare)).
    pub fn from_sets<'a>(sets: impl IntoIterator<Item = &'a KeywordSet> + Clone) -> Self {
        let mut width = 0;
        let mut rows = 0usize;
        for set in sets.clone() {
            rows += 1;
            if let Some(&max) = set.ids().last() {
                width = width.max(max.index() + 1);
            }
        }
        if width > MAX_BITSET_BITS {
            let lens = sets.into_iter().map(|s| s.len() as u32).collect();
            return KeywordBlocks {
                words: 0,
                width,
                bits: Vec::new(),
                lens,
            };
        }
        let words = width.div_ceil(WORD_BITS).max(1);
        let mut bits = vec![0u64; words * rows];
        let mut lens = Vec::with_capacity(rows);
        for (row, set) in sets.into_iter().enumerate() {
            lens.push(set.len() as u32);
            let base = row * words;
            for id in set.iter() {
                let i = id.index();
                bits[base + i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        KeywordBlocks {
            words,
            width,
            bits,
            lens,
        }
    }

    /// Whether the table uses the bitset representation (as opposed to
    /// the galloping sorted-id fallback).
    #[inline]
    pub fn is_bitset(&self) -> bool {
        self.words != 0
    }

    /// One past the widest stored keyword id.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows in the table.
    #[inline]
    pub fn rows(&self) -> usize {
        self.lens.len()
    }

    /// Prepares the query-side representation once per query.
    ///
    /// Query ids beyond the table width (keywords no stored trajectory
    /// carries) cannot intersect any row; they are counted in `|A|` but
    /// contribute no bits, exactly as in the merge walk.
    pub fn prepare(&self, query: &KeywordSet) -> PreparedQuery {
        let mut blocks = vec![0u64; self.words];
        if self.is_bitset() {
            for id in query.iter() {
                let i = id.index();
                if i < self.width {
                    blocks[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
                }
            }
        }
        PreparedQuery {
            blocks,
            ids: query.ids().to_vec(),
            len: query.len(),
        }
    }

    /// The exact counts `(|A ∩ B|, |A|, |B|)` between the prepared query
    /// and row `row`; `row_keywords` backs the galloping fallback (and
    /// must be the set the row was built from).
    #[inline]
    pub fn counts(
        &self,
        q: &PreparedQuery,
        row: usize,
        row_keywords: &KeywordSet,
    ) -> (usize, usize, usize) {
        let b_len = self.lens[row] as usize;
        debug_assert_eq!(b_len, row_keywords.len());
        let inter = if self.is_bitset() {
            let base = row * self.words;
            let mut acc = 0u32;
            for (w, &qw) in self.bits[base..base + self.words].iter().zip(&q.blocks) {
                acc += (w & qw).count_ones();
            }
            acc as usize
        } else {
            galloping_intersection_len(&q.ids, row_keywords.ids())
        };
        (inter, q.len, b_len)
    }

    /// Textual similarity between the prepared query and row `row`,
    /// bit-identical to `jaccard(query, row_keywords)`.
    #[inline]
    pub fn textual(&self, q: &PreparedQuery, row: usize, row_keywords: &KeywordSet) -> f64 {
        let (inter, a_len, b_len) = self.counts(q, row, row_keywords);
        jaccard_from_counts(inter, a_len, b_len)
    }
}

/// Query-side keyword representation prepared once per query by
/// [`KeywordBlocks::prepare`].
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Fixed-width bit row (empty in galloping mode).
    blocks: Vec<u64>,
    /// Sorted query ids (backs the galloping fallback).
    ids: Vec<KeywordId>,
    /// Full query set size, including ids beyond the table width.
    len: usize,
}

/// Intersection size of two sorted, deduplicated id slices via galloping
/// (exponential-probe) search: the smaller slice drives, probing the
/// larger one with doubling steps then a binary search within the
/// bracket. Degrades to the merge walk's complexity for similar sizes
/// and beats it when the sizes are skewed.
pub fn galloping_intersection_len(a: &[KeywordId], b: &[KeywordId]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut lo = 0usize;
    let mut count = 0usize;
    for &id in small {
        // gallop: find the bracket [lo + step/2, lo + step] containing id
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step] < id {
            step <<= 1;
        }
        let hi = (lo + step + 1).min(large.len());
        match large[lo..hi].binary_search(&id) {
            Ok(i) => {
                count += 1;
                lo += i + 1;
            }
            Err(i) => lo += i,
        }
        if lo >= large.len() {
            break;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn bitset_mode_counts_match_merge_walk() {
        let sets = [set(&[0, 3, 7]), set(&[]), set(&[3, 63, 64, 100]), set(&[5])];
        let blocks = KeywordBlocks::from_sets(sets.iter());
        assert!(blocks.is_bitset());
        assert_eq!(blocks.width(), 101);
        let query = set(&[3, 5, 64, 999]); // 999 beyond width: counted, never matches
        let q = blocks.prepare(&query);
        for (i, s) in sets.iter().enumerate() {
            let (inter, a, b) = blocks.counts(&q, i, s);
            assert_eq!(inter, query.intersection_len(s), "row {i}");
            assert_eq!(a, query.len());
            assert_eq!(b, s.len());
            assert_eq!(
                blocks.textual(&q, i, s).to_bits(),
                uots_text::jaccard(&query, s).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn galloping_mode_engages_past_width_threshold() {
        let sets = [set(&[0, 2000]), set(&[1, 2, 3])];
        let blocks = KeywordBlocks::from_sets(sets.iter());
        assert!(!blocks.is_bitset());
        assert_eq!(blocks.width(), 2001);
        let query = set(&[1, 3, 2000]);
        let q = blocks.prepare(&query);
        for (i, s) in sets.iter().enumerate() {
            let (inter, a, b) = blocks.counts(&q, i, s);
            assert_eq!(inter, query.intersection_len(s));
            assert_eq!((a, b), (query.len(), s.len()));
        }
    }

    #[test]
    fn galloping_intersection_is_exact() {
        let a = set(&[1, 5, 9, 100, 101, 102]);
        let b = set(&[0, 5, 6, 7, 8, 9, 10, 50, 102, 500]);
        assert_eq!(
            galloping_intersection_len(a.ids(), b.ids()),
            a.intersection_len(&b)
        );
        assert_eq!(galloping_intersection_len(&[], b.ids()), 0);
        assert_eq!(galloping_intersection_len(a.ids(), &[]), 0);
    }

    #[test]
    fn vocab_width_expands_to_cover_store_ids() {
        let sets = [set(&[500]), set(&[3])];
        let blocks = KeywordBlocks::from_sets(sets.iter());
        assert!(blocks.is_bitset());
        assert_eq!(blocks.width(), 501);
        let q = blocks.prepare(&set(&[500]));
        assert_eq!(blocks.counts(&q, 0, &sets[0]).0, 1);
        assert_eq!(blocks.counts(&q, 1, &sets[1]).0, 0);
    }

    #[test]
    fn an_untagged_table_still_counts_the_query() {
        let sets = [set(&[]), set(&[])];
        let blocks = KeywordBlocks::from_sets(sets.iter());
        assert!(blocks.is_bitset());
        assert_eq!(blocks.width(), 0);
        let query = set(&[4]);
        let q = blocks.prepare(&query);
        assert_eq!(blocks.counts(&q, 1, &sets[1]), (0, 1, 0));
        assert_eq!(
            blocks.textual(&q, 0, &sets[0]),
            uots_text::jaccard(&query, &sets[0])
        );
    }
}
