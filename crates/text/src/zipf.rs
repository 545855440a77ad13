//! Zipf-distributed sampling over keyword ranks.
//!
//! Real tag vocabularies are heavily skewed: a few tags ("food",
//! "shopping") dominate while most appear rarely. The dataset generators
//! draw trajectory tags from this distribution so that textual pruning
//! selectivity behaves like it would on real data.
//!
//! Implementation: an explicit normalized CDF with binary-search inversion —
//! exact, allocation-free per sample, and deterministic under a seeded RNG.

use rand::Rng;

/// A Zipf distribution over ranks `0..n` with exponent `s ≥ 0`:
/// `P(rank = k) ∝ 1 / (k + 1)^s`. `s = 0` degenerates to uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // guard against floating-point round-off excluding the last rank
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // first index with cdf >= u
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf entries are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability mass of `rank`: the step of the sampler's cdf table.
    fn pmf(z: &Zipf, rank: usize) -> f64 {
        match rank {
            0 => z.cdf[0],
            _ => z.cdf[rank] - z.cdf[rank - 1],
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        for (n, s) in [(1usize, 1.0), (10, 0.0), (100, 1.2), (7, 2.5)] {
            let z = Zipf::new(n, s);
            let sum: f64 = (0..n).map(|k| pmf(&z, k)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "n={n} s={s}: {sum}");
        }
    }

    #[test]
    fn pmf_is_monotonically_nonincreasing() {
        let z = Zipf::new(50, 1.1);
        for k in 1..50 {
            assert!(pmf(&z, k) <= pmf(&z, k - 1) + 1e-12);
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((pmf(&z, k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 20);
        }
    }

    #[test]
    fn sampling_is_skewed_toward_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[99] * 5);
        // empirical frequency of rank 0 is near its pmf
        let freq = counts[0] as f64 / 50_000.0;
        assert!((freq - pmf(&z, 0)).abs() < 0.02);
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = Zipf::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}
