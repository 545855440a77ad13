//! Log-bucketed latency/size histogram (HDR-histogram style, in-repo).
//!
//! Values are bucketed on a logarithmic scale with 8 linear sub-buckets per
//! power of two, which bounds the relative quantile error at 1/8 = 12.5%
//! while keeping the whole `u64` range representable in 496 fixed buckets.
//! Recording is O(1) (a `leading_zeros` and two adds), merging is slot-wise,
//! and the exact `min`/`max`/`sum` are tracked alongside the buckets so
//! extreme quantiles are exact.

use serde::{Content, DeError, Deserialize, Serialize};

/// log2 of the number of linear sub-buckets per power of two.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per power of two.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: values `0..8` get exact buckets, then each of the
/// `h = 3..=63` exponent ranges contributes 8 sub-buckets.
const NUM_BUCKETS: usize = (SUB as usize) + 61 * (SUB as usize);

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // v >= 8 so h >= 3
        let sub = (v >> (h - SUB_BITS)) & (SUB - 1);
        ((h - 2) as usize) * (SUB as usize) + sub as usize
    }
}

/// Largest value mapping to bucket `idx` (the value reported for quantiles
/// that land in this bucket, before clamping to the exact min/max).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let h = (idx / SUB as usize + 2) as u32;
        let sub = (idx % SUB as usize) as u64;
        let width = 1u64 << (h - SUB_BITS);
        // rearranged as (2^h - 1) + (sub+1)*width so the top bucket
        // (h = 63, sub = 7) lands exactly on u64::MAX without overflow
        ((1u64 << h) - 1) + (sub + 1) * width
    }
}

/// Fixed-memory log-bucketed histogram over `u64` values.
///
/// ```
/// use uots_obs::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((450..=563).contains(&p50)); // within 12.5% of 500
/// assert_eq!(h.quantile(1.0), 1000);   // max is exact
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    /// Running sum. `u128` so ~1.8e19 worth of nanoseconds cannot overflow it.
    sum: u128,
    min: u64,
    max: u64,
}

/// Wire form of [`LogHistogram`]: the workspace serde has no `u128`
/// support, so the sum travels as two `u64` halves.
#[derive(Serialize, Deserialize)]
struct HistWire {
    counts: Vec<u64>,
    count: u64,
    sum_hi: u64,
    sum_lo: u64,
    min: u64,
    max: u64,
}

impl Serialize for LogHistogram {
    fn serialize(&self) -> Content {
        HistWire {
            counts: self.counts.clone(),
            count: self.count,
            sum_hi: (self.sum >> 64) as u64,
            sum_lo: self.sum as u64,
            min: self.min,
            max: self.max,
        }
        .serialize()
    }
}

impl Deserialize for LogHistogram {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        let w = HistWire::deserialize(c)?;
        if w.counts.len() != NUM_BUCKETS {
            return Err(DeError::custom(format!(
                "histogram wants {NUM_BUCKETS} buckets, got {}",
                w.counts.len()
            )));
        }
        Ok(LogHistogram {
            counts: w.counts,
            count: w.count,
            sum: ((w.sum_hi as u128) << 64) | w.sum_lo as u128,
            min: w.min,
            max: w.max,
        })
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram. Allocates its (fixed-size) bucket array.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v`.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub(crate) fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest recorded value (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` (clamped to `[0, 1]`): the smallest bucket
    /// upper bound `b` such that at least `ceil(q * count)` observations are
    /// `<= b`, clamped into the exact observed `[min, max]` range. Relative
    /// error is at most 12.5%; `q = 0` returns the exact min and `q = 1` the
    /// exact max.
    ///
    /// **Empty histograms return the sentinel 0** — quantiles of an empty
    /// distribution are undefined, and callers that need to distinguish
    /// "never hit" from "observed 0" must check [`count`](Self::count)
    /// (the registry exporters do: Prometheus text emits `NaN` quantile
    /// samples and the JSON snapshot emits `null`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank in 1..=count
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_self_consistent() {
        // every value maps to a bucket whose upper bound is >= the value,
        // and bucket upper bounds map back to their own bucket
        let probes: Vec<u64> = (0..2048)
            .chain((3..64).flat_map(|h| {
                let base = 1u64 << h;
                [base - 1, base, base + base / 8, base + base / 2]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut last = 0usize;
        let mut last_v = 0u64;
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(bucket_upper(idx) >= v, "v={v} upper={}", bucket_upper(idx));
            assert_eq!(bucket_index(bucket_upper(idx)), idx, "v={v}");
            if v >= last_v {
                assert!(idx >= last, "monotonicity broke at v={v}");
            }
            last = idx;
            last_v = v;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..8 {
            h.record(v);
        }
        for v in 0..8 {
            // each small value sits in its own exact bucket
            let q = (v + 1) as f64 / 8.0;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn quantiles_of_known_uniform_distribution() {
        // 1..=10_000 uniformly: true pX = X * 100
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), (10_000u128 * 10_001) / 2);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        for (q, truth) in [
            (0.5, 5_000.0),
            (0.9, 9_000.0),
            (0.95, 9_500.0),
            (0.99, 9_900.0),
        ] {
            let got = h.quantile(q) as f64;
            let rel = (got - truth).abs() / truth;
            assert!(rel <= 0.125, "q={q}: got {got}, truth {truth}, rel {rel}");
            // the estimate is an upper bound of its bucket, so it never
            // undershoots the true quantile
            assert!(got >= truth - 1.0, "q={q} undershot: {got} < {truth}");
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn known_skewed_distribution() {
        // 99 fast ops at 100ns, 1 slow op at 1_000_000ns
        let mut h = LogHistogram::new();
        h.record_n(100, 99);
        h.record(1_000_000);
        assert!(h.quantile(0.5) >= 100 && h.quantile(0.5) <= 112);
        assert!(h.quantile(0.95) >= 100 && h.quantile(0.95) <= 112);
        assert_eq!(h.quantile(0.999), 1_000_000); // clamped to exact max
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert!((h.mean() - (99.0 * 100.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        // the documented empty sentinel: 0 at EVERY quantile, including the
        // out-of-range values callers might clamp in
        for q in [-1.0, 0.0, 0.5, 0.9, 0.99, 1.0, 2.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = LogHistogram::new();
        h.record_n(42, 10);
        h.record(9_999);
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
