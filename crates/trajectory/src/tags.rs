//! Category-correlated tag sampling.
//!
//! Real trajectory tags are not independent draws: a sightseeing trip tends
//! to carry "museum", "landmark", "photo" together. The [`TagSampler`]
//! models this with *categories* — overlapping keyword pools — plus a global
//! Zipf background, so generated tag sets exhibit both co-occurrence and the
//! frequency skew that textual pruning exploits.

use rand::Rng;
use uots_text::{KeywordId, KeywordSet, Vocabulary, Zipf};

/// Configuration for [`TagSampler::synthetic`].
#[derive(Debug, Clone, PartialEq)]
pub struct TagModelConfig {
    /// Number of distinct keywords in the synthetic vocabulary.
    pub vocab_size: usize,
    /// Number of categories (activity profiles).
    pub num_categories: usize,
    /// Keywords per category pool.
    pub keywords_per_category: usize,
    /// Zipf exponent for category popularity.
    pub category_skew: f64,
    /// Zipf exponent for keyword popularity inside a category pool.
    pub keyword_skew: f64,
    /// Probability that a tag is drawn from the global background
    /// distribution instead of the trip's category pool.
    pub background_prob: f64,
}

impl TagModelConfig {
    /// Why [`TagSampler::synthetic`] cannot build a sampler from this
    /// configuration, if it cannot. A stored configuration is checked with
    /// this before a sampler is rebuilt from it.
    pub fn check(&self) -> Result<(), String> {
        let v = self.vocab_size;
        let sizes = [self.num_categories, self.keywords_per_category];
        let skews = [self.category_skew, self.keyword_skew];
        let p = self.background_prob;
        if !sizes.iter().all(|n| (1..=v).contains(n)) {
            Err(format!("category count and size {sizes:?} outside 1..={v}"))
        } else if !skews.iter().all(|s| s.is_finite() && *s >= 0.0) {
            Err(format!("skews {skews:?} are not finite exponents >= 0"))
        } else if !(0.0..=1.0).contains(&p) {
            Err(format!("background_prob {p} outside [0, 1]"))
        } else {
            Ok(())
        }
    }
}

impl Default for TagModelConfig {
    fn default() -> Self {
        TagModelConfig {
            vocab_size: 400,
            num_categories: 12,
            keywords_per_category: 40,
            category_skew: 0.8,
            keyword_skew: 1.0,
            background_prob: 0.15,
        }
    }
}

/// Samples keyword sets for generated trips.
#[derive(Debug, Clone)]
pub struct TagSampler {
    /// Per-category keyword pools (ids into the vocabulary).
    categories: Vec<Vec<KeywordId>>,
    category_dist: Zipf,
    keyword_dist: Zipf,
    background_dist: Zipf,
    background_prob: f64,
}

impl TagSampler {
    /// Builds a synthetic vocabulary (words `tag000`, `tag001`, …) and a
    /// category model over it. Returns the sampler together with the
    /// vocabulary so callers can resolve ids back to strings.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`TagModelConfig::check`] refuses.
    pub fn synthetic<R: Rng + ?Sized>(cfg: &TagModelConfig, rng: &mut R) -> (Self, Vocabulary) {
        if let Err(e) = cfg.check() {
            panic!("bad tag model config: {e}");
        }
        let mut vocab = Vocabulary::new();
        for i in 0..cfg.vocab_size {
            vocab.intern(&format!("tag{i:03}")).expect("non-empty tag");
        }
        // category pools: contiguous-ish blocks with random extras, so pools
        // overlap partially (categories share generic tags)
        let per = cfg.keywords_per_category;
        let categories = (0..cfg.num_categories)
            .map(|c| {
                let base = (c * per / 2) % cfg.vocab_size;
                let mut pool: Vec<KeywordId> = (0..per)
                    .map(|i| KeywordId(((base + i) % cfg.vocab_size) as u32))
                    .collect();
                // a few random cross-category tags
                for _ in 0..per / 8 {
                    pool.push(KeywordId(rng.gen_range(0..cfg.vocab_size) as u32));
                }
                pool.sort_unstable();
                pool.dedup();
                pool
            })
            .collect();
        let sampler = TagSampler {
            categories,
            category_dist: Zipf::new(cfg.num_categories, cfg.category_skew),
            keyword_dist: Zipf::new(per, cfg.keyword_skew),
            background_dist: Zipf::new(cfg.vocab_size, cfg.keyword_skew),
            background_prob: cfg.background_prob,
        };
        (sampler, vocab)
    }

    /// Draws a category for a trip.
    pub fn sample_category<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.category_dist.sample(rng)
    }

    /// Draws `count` tags for a trip of the given category. The returned set
    /// may be smaller than `count` when duplicates collapse.
    pub fn sample_tags<R: Rng + ?Sized>(
        &self,
        category: usize,
        count: usize,
        rng: &mut R,
    ) -> KeywordSet {
        assert!(category < self.categories.len(), "category out of range");
        let pool = &self.categories[category];
        KeywordSet::from_ids((0..count).map(|_| {
            if rng.gen::<f64>() < self.background_prob {
                KeywordId(self.background_dist.sample(rng) as u32)
            } else {
                let rank = self.keyword_dist.sample(rng).min(pool.len() - 1);
                pool[rank]
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler(seed: u64) -> (TagSampler, Vocabulary) {
        let mut rng = StdRng::seed_from_u64(seed);
        TagSampler::synthetic(&TagModelConfig::default(), &mut rng)
    }

    #[test]
    fn vocabulary_matches_config() {
        let (s, v) = sampler(1);
        assert_eq!(v.len(), 400);
        assert_eq!(s.categories.len(), 12);
        assert_eq!(v.word(KeywordId(0)), Some("tag000"));
        assert_eq!(v.word(KeywordId(399)), Some("tag399"));
    }

    #[test]
    fn tags_are_in_vocabulary_range() {
        let (s, _) = sampler(2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let cat = s.sample_category(&mut rng);
            let tags = s.sample_tags(cat, 5, &mut rng);
            assert!(tags.len() <= 5);
            assert!(!tags.is_empty());
            for id in tags.iter() {
                assert!(id.index() < 400);
            }
        }
    }

    #[test]
    fn same_category_trips_share_more_tags_than_cross_category() {
        let (s, _) = sampler(4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut same = 0usize;
        let mut cross = 0usize;
        for _ in 0..300 {
            let a = s.sample_tags(0, 4, &mut rng);
            let b = s.sample_tags(0, 4, &mut rng);
            let c = s.sample_tags(6, 4, &mut rng);
            same += a.intersection_len(&b);
            cross += a.intersection_len(&c);
        }
        assert!(
            same > cross,
            "same-category overlap {same} should exceed cross-category {cross}"
        );
    }

    #[test]
    fn category_distribution_is_skewed() {
        let (s, _) = sampler(6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; s.categories.len()];
        for _ in 0..10_000 {
            counts[s.sample_category(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[s.categories.len() - 1]);
    }

    #[test]
    fn determinism_under_seed() {
        let (s1, _) = sampler(8);
        let (s2, _) = sampler(8);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let c1 = s1.sample_category(&mut r1);
            let c2 = s2.sample_category(&mut r2);
            assert_eq!(c1, c2);
            assert_eq!(
                s1.sample_tags(c1, 3, &mut r1),
                s2.sample_tags(c2, 3, &mut r2)
            );
        }
    }

    #[test]
    fn check_refuses_what_synthetic_cannot_build() {
        assert_eq!(TagModelConfig::default().check(), Ok(()));
        let cases: [fn(&mut TagModelConfig); 8] = [
            |c| c.vocab_size = 0,
            |c| c.num_categories = 0,
            |c| c.num_categories = 401,
            |c| c.keywords_per_category = 401,
            |c| c.category_skew = -1.0,
            |c| c.keyword_skew = f64::INFINITY,
            |c| c.background_prob = f64::NAN,
            |c| c.background_prob = 1.5,
        ];
        for edit in cases {
            let mut bad = TagModelConfig::default();
            edit(&mut bad);
            assert!(bad.check().is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "category out of range")]
    fn foreign_category_panics() {
        let (s, _) = sampler(10);
        let mut rng = StdRng::seed_from_u64(11);
        s.sample_tags(99, 3, &mut rng);
    }
}
